"""Composed function-space surrogates and the intrusive baselines.

A Surrogate maps input grid function -> PCA encode -> standardize ->
regressor -> PCA decode -> output grid function. The regressor-free PCA
ceiling, a reduced-basis Galerkin baseline, and the truncated-Taylor
baseline for the linear Poisson model live here too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, ShapeError, quadrature_weights
from .pca import PcaModel, decode_batch, encode_batch
from .random_fields import MeasureSpec, coeff_model_basis
from .regressors import DEFAULT_HIDDEN, TrainConfig, fit_linear, predict, train_mlp
from .solvers import NumericalError, darcy_solver


@dataclass
class Surrogate:
    pca_in: PcaModel
    pca_out: PcaModel
    regressor: object  # MlpModel | LinearModel
    input_mean: np.ndarray
    input_std: np.ndarray
    # target-code statistics; None means the regressor works on raw codes
    target_mean: np.ndarray | None = None
    target_std: np.ndarray | None = None

    def standardize(self, codes: np.ndarray) -> np.ndarray:
        return (codes - self.input_mean) / self.input_std

    def destandardize_targets(self, latents: np.ndarray) -> np.ndarray:
        if self.target_mean is None:
            return latents
        return self.target_mean + self.target_std * latents


def code_scaling_stats(codes: np.ndarray):
    """Center per coordinate but scale by one shared RMS.

    PCA code variances decay like the spectrum. A per-coordinate z-score
    would flatten that decay: on the target side it inflates the
    low-eigenvalue coordinates' weight in the training MSE by
    lambda_1/lambda_d, and on the input side it stretches the latent cloud
    into an isotropic ball too sparse to interpolate at small sample counts.
    A single scalar keeps the geometry and brings the codes to the unit
    scale of the network initialization.
    """
    mean = codes.mean(axis=0)
    centered = codes - mean
    scale = float(np.sqrt(np.mean(centered ** 2)))
    if scale == 0.0:
        scale = 1.0
    return mean, np.full(codes.shape[1], scale)


def fit_surrogate(
    xs: np.ndarray,
    ys: np.ndarray,
    pca_in: PcaModel,
    pca_out: PcaModel,
    regressor_kind: str,
    train_cfg: TrainConfig | None = None,
    hidden: tuple = DEFAULT_HIDDEN,
    test: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Train a latent regressor on encoded training pairs.

    Input and target codes are centered per coordinate and divided by one
    shared RMS each (the target map is inverted at prediction time). The
    scalar scale matters twice: raw codes sit orders of magnitude below the
    unit-scale network initialization (training on them memorizes without
    generalizing), and a per-coordinate z-score would flatten the spectral
    decay of the codes, leaving an isotropic latent cloud too sparse to
    interpolate at desk-scale sample counts.

    The network has hidden layers of the widths in `hidden`. An optional
    `test` pair (xs, ys) adds the relative test error after every epoch to
    the training result: from a float32 forward for the float32 weights of
    the middle epochs, and from the float64 forward of the returned
    surrogate for the last one, so the last entry equals its test error.
    Returns (surrogate, train_result_or_None).
    """
    codes_in = encode_batch(pca_in, xs)
    codes_out = encode_batch(pca_out, ys)
    mean, std = code_scaling_stats(codes_in)
    tmean, tstd = code_scaling_stats(codes_out)
    z = (codes_in - mean) / std
    zt = (codes_out - tmean) / tstd

    def surrogate(model):
        return Surrogate(pca_in, pca_out, model, mean, std, tmean, tstd)

    if regressor_kind == "linear":
        return surrogate(fit_linear(z, zt)), None
    if regressor_kind != "nn":
        raise ValueError(f"unknown regressor kind {regressor_kind!r}")
    # looked up per call: perfbench's tracer wraps them
    from .regressors import init_mlp, mlp_forward

    cfg = train_cfg or TrainConfig()
    test_metric = None
    if test is not None:
        test_xs, test_ys = test
        test_codes = (encode_batch(pca_in, test_xs) - mean) / std
        test_codes32 = test_codes.astype(np.float32)

        def test_metric(mlp):
            # a float32 training iterate gets a float32 forward; the
            # destandardize and decode are float64 either way
            codes = test_codes32 if mlp.weights[0].dtype == np.float32 else test_codes
            latents = surrogate(mlp).destandardize_targets(mlp_forward(mlp, codes))
            ratios, _ = relative_errors(decode_batch(pca_out, latents), test_ys,
                                        pca_out.weights)
            return float(np.mean(ratios))

    init = init_mlp([pca_in.d, *hidden, pca_out.d], cfg.seed)
    result = train_mlp(init, z, zt, cfg, test_metric)
    return surrogate(result.model), result


def _predict_codes(sur: Surrogate, codes: np.ndarray) -> np.ndarray:
    """Standardized input codes -> rows of output grid values."""
    latents = np.atleast_2d(predict(sur.regressor, codes))
    return decode_batch(sur.pca_out, sur.destandardize_targets(latents))


def predict_batch(sur: Surrogate, xs: np.ndarray) -> np.ndarray:
    return _predict_codes(sur, sur.standardize(encode_batch(sur.pca_in, xs)))


def predict_function(sur: Surrogate, x: GridFunction) -> GridFunction:
    if x.domain != sur.pca_in.domain or x.n != sur.pca_in.n:
        raise ShapeError("input does not live on the surrogate's input grid")
    return GridFunction(
        sur.pca_out.domain, sur.pca_out.n, predict_batch(sur, x.values[None, :])[0]
    )


def relative_errors(preds: np.ndarray, ys: np.ndarray, weights: np.ndarray):
    """Per-sample ||pred - y|| / ||y|| and the number of zero-norm targets,
    which are skipped; raises ValueError if every target has zero norm."""
    err = np.sqrt(np.sum((preds - ys) * weights * (preds - ys), axis=1))
    ynorm = np.sqrt(np.sum(ys * weights * ys, axis=1))
    keep = ynorm > 0.0
    skipped = int(np.sum(~keep))
    if skipped and skipped == keep.size:
        raise ValueError(f"all {skipped} targets have zero norm")
    if skipped:
        warnings.warn(f"skipped {skipped} zero-norm targets", RuntimeWarning)
    return err[keep] / ynorm[keep], skipped


def relative_test_error(sur: Surrogate, xs: np.ndarray, ys: np.ndarray):
    """Monte Carlo mean of ||surrogate(x) - y|| / ||y|| over test pairs, and
    the number of zero-norm targets left out of it."""
    if xs.shape[0] == 0:
        raise ValueError("empty test set")
    preds = predict_batch(sur, xs)
    ratios, skipped = relative_errors(preds, ys, sur.pca_out.weights)
    return float(np.mean(ratios)), skipped


def psi_pca_error(
    pca_in: PcaModel,
    pca_out: PcaModel,
    forward,
    xs: np.ndarray,
    ys: np.ndarray,
    clamp_min: float | None = None,
) -> float:
    """Relative error of the regressor-free composition
    decode_out . encode_out . forward . decode_in . encode_in.

    This is the PCA ceiling used to split error into reconstruction and
    regression parts; `forward` maps a GridFunction to a GridFunction.
    clamp_min floors reconstructed inputs (needed when the forward map
    requires positivity and the projection oscillates below it).
    """
    recon_in = decode_batch(pca_in, encode_batch(pca_in, xs))
    clamped = 0
    if clamp_min is not None:
        below = recon_in < clamp_min
        clamped = int(np.sum(np.any(below, axis=1)))
        recon_in = np.maximum(recon_in, clamp_min)
    if clamped:
        warnings.warn(
            f"floored {clamped} reconstructed inputs at {clamp_min}", RuntimeWarning
        )
    preds = np.empty_like(ys)
    for i, row in enumerate(recon_in):
        y_star = forward(GridFunction(pca_in.domain, pca_in.n, row))
        preds[i] = decode_batch(
            pca_out, encode_batch(pca_out, y_star.values[None, :])
        )[0]
    ratios, _ = relative_errors(preds, ys, pca_out.weights)
    return float(np.mean(ratios))


# ---------------------------------------------------------------------------
# reduced basis baseline

def _basis_gradients(pca_out: PcaModel):
    n = pca_out.n
    h = 1.0 / (n - 1)
    gx = np.empty_like(pca_out.basis)
    gy = np.empty_like(pca_out.basis)
    for j, row in enumerate(pca_out.basis):
        grid = row.reshape(n, n)
        gy[j] = np.gradient(grid, h, axis=0).reshape(-1)
        gx[j] = np.gradient(grid, h, axis=1).reshape(-1)
    return gx, gy


@dataclass
class RbSolver:
    """Galerkin projection of the elliptic weak form onto a PCA basis.

    Precomputes basis gradients offline; each solve assembles the d x d
    reduced stiffness (O(d^2 K)) and solves it (O(d^3))."""

    pca_out: PcaModel
    gx: np.ndarray = field(default=None, repr=False)
    gy: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.gx is None:
            self.gx, self.gy = _basis_gradients(self.pca_out)

    def solve(self, a: GridFunction, f: GridFunction) -> GridFunction:
        if np.min(a.values) <= 0.0:
            raise NumericalError("coefficient must be positive for the weak form")
        w = quadrature_weights(self.pca_out.domain, self.pca_out.n)
        wa = w * a.values
        A = self.gx @ (wa * self.gx).T + self.gy @ (wa * self.gy).T
        b = (self.pca_out.basis * w) @ f.values
        try:
            coeffs = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular reduced stiffness matrix: {exc}") from exc
        return GridFunction(
            self.pca_out.domain, self.pca_out.n, coeffs @ self.pca_out.basis
        )


# ---------------------------------------------------------------------------
# truncated Taylor baseline for the linear Poisson coefficient model

@dataclass
class TaylorPredictor:
    """Maps coefficient vectors to sum_{j<=K} xi_j eta_j with precomputed
    eta_j = poisson_solve(phi_j); K PDE solves offline, none online."""

    K: int
    n: int
    etas: np.ndarray = field(repr=False)

    def predict(self, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
        m = min(xi.shape[1], self.K)
        return xi[:, :m] @ self.etas[:m]


def taylor_truncation_poisson(spec: MeasureSpec, K: int, n: int) -> TaylorPredictor:
    """eta_j = Poisson solve of the j-th basis function, all K against one
    factorisation."""
    ones = GridFunction("box2d", n, np.ones(n * n))
    return TaylorPredictor(K, n, darcy_solver(ones)(coeff_model_basis(spec, K, n)))
