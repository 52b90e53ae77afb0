"""Empirical validation of the testable theory: the trace-maximization
characterization of top eigenspaces, the 1/N Monte Carlo rate of the
empirical covariance in Hilbert-Schmidt norm, encoder/decoder Lipschitz
bounds, and the Chebyshev latent-box coverage guarantee.

Every check returns a TheoryReport whose pass flag is a pure function of the
computed statistics and the stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import norms
from .pca import PcaModel, decode_batch, encode_batch, fit_pca
from .random_fields import (
    MU_B,
    ConfigError,
    MeasureSpec,
    box_mode_stddevs,
    derive_seed,
    sample_field,
    torus_mode_stddevs,
)


@dataclass
class TheoryReport:
    name: str
    trials: int
    statistics: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    passed: bool = False

    def rows(self):
        """(key, value) pairs for CSV emission."""
        out = [("check", self.name), ("trials", self.trials), ("passed", self.passed)]
        out += [(k, v) for k, v in self.statistics.items()]
        out += [(f"tol_{k}", v) for k, v in self.tolerances.items()]
        return out

    def summary(self) -> str:
        stats = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.statistics.items())
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name} ({self.trials} trials): {stats}"


def random_psd_matrix(dim: int, rng) -> np.ndarray:
    A = rng.standard_normal((dim, dim))
    return A @ A.T


def check_fan(dim: int, d: int, trials: int, seed: int) -> TheoryReport:
    """Top-d eigenvalue sum dominates the trace form over all orthonormal
    d-frames, with equality at the top eigenvectors."""
    if not 1 <= d <= dim:
        raise ConfigError(f"the fan check needs 1 <= d <= dim, got d={d}, dim={dim}")
    rng = np.random.default_rng(seed)
    C = random_psd_matrix(dim, rng)
    evals, evecs = np.linalg.eigh(C)
    top = float(np.sum(evals[-d:]))
    worst_violation = -np.inf
    for _ in range(trials):
        Q, _ = np.linalg.qr(rng.standard_normal((dim, d)))
        trace_form = float(np.einsum("ij,ij->", C @ Q, Q))
        worst_violation = max(worst_violation, trace_form - top)
    eig_frame = evecs[:, -d:]
    equality_gap = abs(top - float(np.einsum("ij,ij->", C @ eig_frame, eig_frame)))
    tol = 1e-12 * max(top, 1.0)
    passed = worst_violation <= tol and equality_gap <= tol
    return TheoryReport(
        "fan",
        trials,
        {"worst_violation": worst_violation, "equality_gap": equality_gap,
         "top_eigenvalue_sum": top},
        {"violation": tol},
        passed,
    )


def _diagonal_sigmas(spec: MeasureSpec) -> np.ndarray:
    if spec.kind == MU_B:
        return torus_mode_stddevs(spec)
    return box_mode_stddevs(spec).reshape(-1)


def check_mc_covariance_rate(
    spec: MeasureSpec,
    N_list=(64, 128, 256, 512, 1024),
    trials: int = 200,
    seed: int = 0,
    slope_tol: float = 0.15,
) -> TheoryReport:
    """E||C_N - C||_HS^2 should scale like Q/N.

    Works in the truncated KL coefficient space where C = diag(sigma_k^2),
    so the Hilbert-Schmidt norm is the Frobenius norm of a small matrix.
    """
    sigma = _diagonal_sigmas(spec)
    C = np.diag(sigma ** 2)
    rng = np.random.default_rng(seed)
    means = []
    for N in N_list:
        errs = np.empty(trials)
        for t in range(trials):
            U = rng.standard_normal((N, sigma.size)) * sigma
            C_N = U.T @ U / N
            errs[t] = np.sum((C_N - C) ** 2)
        means.append(np.mean(errs))
    means = np.asarray(means)
    logN = np.log(np.asarray(N_list, dtype=float))
    slope, intercept = np.polyfit(logN, np.log(means), 1)
    Q_estimates = means * np.asarray(N_list)
    passed = abs(slope + 1.0) <= slope_tol
    return TheoryReport(
        "mc_covariance_rate",
        trials,
        {"slope": float(slope), "Q_estimate": float(np.mean(Q_estimates)),
         "Q_spread": float(np.ptp(Q_estimates) / np.mean(Q_estimates))},
        {"slope": slope_tol},
        passed,
    )


def check_chebyshev_coverage(
    spec: MeasureSpec,
    d: int,
    delta: float,
    N_train: int,
    N_test: int,
    seed: int,
    n: int = 33,
) -> TheoryReport:
    """Fresh samples land in the latent box [-M, M]^d with probability at
    least 1 - delta, where M^2 = (empirical second moment) / delta."""
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    fields = [sample_field(spec, n, derive_seed(seed, i)) for i in range(N_train)]
    domain, train = fields[0].domain, np.stack([u.values for u in fields])
    model = fit_pca(train, domain, n, d)
    second_moment = float(np.mean(norms(domain, n, train) ** 2))
    M = np.sqrt(second_moment / delta)
    test = np.stack([sample_field(spec, n, derive_seed(seed + 1, i)).values
                     for i in range(N_test)])
    inside = int(np.sum(np.max(np.abs(encode_batch(model, test)), axis=1) <= M))
    coverage = inside / N_test
    se = np.sqrt(delta * (1.0 - delta) / N_test)
    bound = 1.0 - delta - 3.0 * se
    passed = coverage >= bound
    return TheoryReport(
        "chebyshev_coverage",
        N_test,
        {"coverage": coverage, "bound": bound, "M": float(M), "delta": delta},
        {"standard_errors": 3.0},
        passed,
    )


def check_encoder_lipschitz(
    pca: PcaModel, trials: int, seed: int, tol: float = 1e-10
) -> TheoryReport:
    """Encoder is 1-Lipschitz; decoder is an isometry onto the span."""
    rng = np.random.default_rng(seed)
    npts = pca.basis.shape[1]
    worst_encoder = 0.0
    worst_decoder = 0.0
    for _ in range(trials):
        v = rng.standard_normal(npts)
        z = rng.standard_normal(npts)
        enc = encode_batch(pca, v[None, :]) - encode_batch(pca, z[None, :])
        enc_ratio = np.linalg.norm(enc) / norms(pca.domain, pca.n, v - z)[0]
        worst_encoder = max(worst_encoder, float(enc_ratio))
        s = rng.standard_normal(pca.d)
        t = rng.standard_normal(pca.d)
        dec = decode_batch(pca, s[None, :]) - decode_batch(pca, t[None, :])
        dec_ratio = norms(pca.domain, pca.n, dec)[0] / np.linalg.norm(s - t)
        worst_decoder = max(worst_decoder, float(abs(dec_ratio - 1.0)))
    passed = worst_encoder <= 1.0 + tol and worst_decoder <= tol
    return TheoryReport(
        "encoder_lipschitz",
        trials,
        {"worst_encoder_ratio": worst_encoder, "worst_decoder_deviation": worst_decoder},
        {"ratio": tol},
        passed,
    )
