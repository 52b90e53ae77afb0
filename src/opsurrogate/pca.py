"""Non-centered PCA on discretized function spaces.

The spectrum of the empirical second-moment operator is computed with the
snapshot (Gram) method: the N x N matrix of pairwise quadrature-weighted
inner products is eigendecomposed and its eigenvectors are lifted back to
grid functions. No mean is subtracted anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .grid import ShapeError, interpolate, quadrature_weights, subsample


class RankDeficiencyError(RuntimeError):
    pass


class PcaConfigError(ValueError):
    pass


_RANK_TOL = 1e-14


@dataclass(frozen=True)
class PcaModel:
    """Orthonormal empirical basis of the top-d PCA subspace.

    basis rows are the lifted eigenfunctions (shape (d, num_points));
    eigenvalues holds the full non-increasing spectrum of the Gram matrix.
    weighted selects the quadrature-weighted L2 inner product (default) or
    the plain Euclidean dot product.
    """

    domain: str
    n: int
    d: int
    basis: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    weighted: bool = True

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.float64)
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        b.setflags(write=False)
        ev.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def weights(self) -> np.ndarray:
        if self.weighted:
            return quadrature_weights(self.domain, self.n)
        return np.ones(self.basis.shape[1])

    def gram_residual(self) -> float:
        """max |<phi_i, phi_j> - delta_ij| over the stored basis."""
        G = (self.basis * self.weights) @ self.basis.T
        return float(np.max(np.abs(G - np.eye(self.d))))


def _apply_sign_convention(basis: np.ndarray) -> np.ndarray:
    # entry of largest magnitude (first occurrence) is made positive
    idx = np.argmax(np.abs(basis), axis=1)
    signs = np.sign(basis[np.arange(basis.shape[0]), idx])
    signs[signs == 0] = 1.0
    return basis * signs[:, None]


def fit_pca(
    values: np.ndarray, domain: str, n: int, d: int, weighted: bool = True
) -> PcaModel:
    """Snapshot-method PCA of the N rows of an (N, num_points) array of
    values on the (domain, n) grid, retaining the top d modes."""
    U = np.ascontiguousarray(values, dtype=np.float64)
    w = quadrature_weights(domain, n)
    if U.ndim != 2 or U.shape[1] != w.size:
        raise ShapeError(f"rows must hold the {w.size} values of a {domain} n={n} grid")
    if not np.all(np.isfinite(U)):
        raise ShapeError("grid values must be finite")
    N = U.shape[0]
    if d < 1 or d > N:
        raise PcaConfigError(f"need 1 <= d <= N, got d={d}, N={N}")
    if not weighted:
        w = np.ones(w.size)
    G = (U * w) @ U.T / N
    G = 0.5 * (G + G.T)
    evals, evecs = scipy.linalg.eigh(G)
    order = np.argsort(-evals, kind="stable")
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]
    bad = np.nonzero(evals[:d] < _RANK_TOL * max(evals[0], np.finfo(float).tiny))[0]
    if bad.size:
        raise RankDeficiencyError(
            f"eigenvalue {bad[0] + 1} of the requested {d} is below "
            f"{_RANK_TOL:g} * lambda_1: the data has rank < d"
        )
    # lift: phi_j = (N lambda_j)^(-1/2) sum_i v_i^(j) u_i
    scale = 1.0 / np.sqrt(N * evals[:d])
    basis = _apply_sign_convention((evecs[:, :d] * scale).T @ U)
    return PcaModel(domain, n, d, basis, evals, weighted=weighted)


def encode_batch(model: PcaModel, values: np.ndarray) -> np.ndarray:
    """Encode rows of a (count, num_points) array to (count, d) latent codes."""
    if values.shape[1] != model.basis.shape[1]:
        raise ShapeError("value rows do not match the model's grid size")
    return values @ (model.basis * model.weights).T


def decode_batch(model: PcaModel, codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.float64)
    if codes.shape[1] != model.d:
        raise ShapeError(f"latent rows must have length {model.d}")
    return codes @ model.basis


def empirical_projection_error(model: PcaModel, values: np.ndarray) -> float:
    """(1/N) sum_j ||u_j - Pi u_j||^2 in the model's inner product, over
    the rows u_j of an (N, num_points) array on the model's grid."""
    U = np.asarray(values, dtype=np.float64)
    codes = encode_batch(model, U)
    resid = U - decode_batch(model, codes)
    w = model.weights
    return float(np.mean(np.sum(resid * w * resid, axis=1)))


def transfer_basis(model: PcaModel, target_n: int) -> tuple[PcaModel, float]:
    """Move the basis to another resolution of the same domain.

    Finer targets use cubic-spline interpolation, coarser targets subsampling
    (grids must nest). The transferred basis is used as-is, without
    re-orthonormalization; the returned Gram residual quantifies the drift.
    """
    if target_n == model.n:
        return model, model.gram_residual()
    move = interpolate if target_n > model.n else subsample
    moved = move(model.domain, model.n, model.basis, target_n)
    out = PcaModel(
        model.domain, target_n, model.d, moved, model.eigenvalues,
        weighted=model.weighted,
    )
    return out, out.gram_residual()
