"""Composed function-space surrogates and the intrusive baselines.

A Surrogate maps input grid function -> PCA encode -> standardize ->
regressor -> PCA decode -> output grid function. A reduced-basis Galerkin
baseline and the truncated-Taylor baseline for the linear Poisson model
live here too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, ShapeError, quadrature_weights
from .pca import PcaModel, decode_batch, encode_batch
from .random_fields import MeasureSpec, coeff_model_basis
from .regressors import FitConfig, MlpModel, fit_linear, predict, train_mlp
from .solvers import NumericalError, darcy_solver


@dataclass
class Surrogate:
    pca_in: PcaModel
    pca_out: PcaModel
    regressor: MlpModel
    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray

    def standardize(self, codes: np.ndarray) -> np.ndarray:
        return (codes - self.input_mean) / self.input_std

    def destandardize_targets(self, latents: np.ndarray) -> np.ndarray:
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
    cfg: FitConfig,
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

    `cfg.regressor` picks the regressor; the network has hidden layers of
    the widths in `cfg.hidden` and trains on `cfg`'s schedule. For it, an
    optional `test` pair (xs, ys) adds the relative test error after every
    epoch to the training result: from a float32 forward for the float32
    weights of the middle epochs, and from the float64 forward of the
    returned surrogate for the last one, so the last entry equals its test
    error; a linear fit has no epochs and reads no `test`.
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

    if cfg.regressor == "linear":
        return surrogate(fit_linear(z, zt)), None
    # looked up per call: perfbench's tracer wraps it
    from .regressors import init_mlp

    test_metric = None
    if test is not None:
        test_xs, test_ys = test
        test_codes = (encode_batch(pca_in, test_xs) - mean) / std
        test_codes32 = test_codes.astype(np.float32)

        def test_metric(mlp):
            # a float32 training iterate gets a float32 forward; the
            # destandardize and decode are float64 either way
            codes = test_codes32 if mlp.weights[0].dtype == np.float32 else test_codes
            ratios, _ = relative_errors(_predict_codes(surrogate(mlp), codes), test_ys,
                                        pca_out.weights)
            return float(np.mean(ratios))

    init = init_mlp([pca_in.d, *cfg.hidden, pca_out.d], cfg.seed)
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
    which are skipped. Raises a `ShapeError` (a ValueError) on an empty test
    set and a ValueError if every target has zero norm."""
    if len(ys) == 0:
        raise ShapeError("empty test set")
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
    preds = predict_batch(sur, xs)
    ratios, skipped = relative_errors(preds, ys, sur.pca_out.weights)
    return float(np.mean(ratios)), skipped


# ---------------------------------------------------------------------------
# reduced basis baseline

def _basis_gradients(pca_out: PcaModel):
    n = pca_out.n
    grids = pca_out.basis.reshape(pca_out.d, n, n)
    gy, gx = np.gradient(grids, 1.0 / (n - 1), axis=(1, 2))
    return gx.reshape(pca_out.d, -1), gy.reshape(pca_out.d, -1)


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

    def solve(self, a_rows: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Solution rows (N, P) for the coefficient rows a_rows (N, P) and
        one forcing row f (P,), each row solved on its own."""
        basis = self.pca_out.basis
        w = quadrature_weights(self.pca_out.domain, self.pca_out.n)
        if a_rows.ndim != 2 or a_rows.shape[1] != w.size or f.shape != (w.size,):
            raise ShapeError(f"coefficient rows and forcing must hold {w.size} points")
        if np.any(a_rows <= 0.0):
            raise NumericalError("coefficient must be positive for the weak form")
        b = (basis * w) @ f
        out = np.empty(a_rows.shape)
        for i, a in enumerate(a_rows):
            wa = w * a
            A = self.gx @ (wa * self.gx).T + self.gy @ (wa * self.gy).T
            try:
                coeffs = np.linalg.solve(A, b)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular reduced stiffness matrix: {exc}") from exc
            out[i] = coeffs @ basis
        return out


# ---------------------------------------------------------------------------
# truncated Taylor baseline for the linear Poisson coefficient model

def taylor_truncation_poisson(spec: MeasureSpec, K: int, n: int) -> np.ndarray:
    """Rows eta_j (K, n*n): the Poisson solves of the basis functions phi_j, all
    against one factorisation. xi[:, :K] @ etas[:K] predicts with no solve."""
    ones = GridFunction("box2d", n, np.ones(n * n))
    return darcy_solver(ones)(coeff_model_basis(spec, K, n))
