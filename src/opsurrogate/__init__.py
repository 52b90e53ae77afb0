"""Mesh-independent surrogates for PDE solution maps: PCA dimension
reduction on input/output function spaces composed with a latent-space
regressor (dense SELU network; affine least squares is one with no hidden layer).

The public names below are resolved lazily (PEP 562), so importing the
package, or its `cli` entry point, does not load numpy. The CLI relies on
this to pin the BLAS/FFT thread pools before numpy is first imported.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "grid": (
        "BOX2D",
        "TORUS1D",
        "GridFunction",
        "from_callable",
        "interpolate",
        "norms",
        "quadrature_weights",
        "subsample",
    ),
    "pca": (
        "PcaModel",
        "decode_batch",
        "empirical_projection_error",
        "encode_batch",
        "fit_pca",
        "transfer_basis",
    ),
    "random_fields": (
        "MeasureSpec",
        "coeff_model_spec",
        "derive_seed",
        "mu_b_spec",
        "mu_g_spec",
        "mu_l_spec",
        "mu_p_spec",
        "sample_field",
    ),
    "regressors": (
        "FitConfig",
        "MlpModel",
        "fit_linear",
        "init_mlp",
        "predict",
        "selu",
        "train_mlp",
    ),
    "solvers": (
        "EllipticProblem",
        "darcy_solver",
        "oracle_burgers_colehopf",
        "solve_burgers_batch",
        "solve_darcy",
    ),
    "surrogate": (
        "Surrogate",
        "predict_function",
        "relative_test_error",
        "taylor_truncation_poisson",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
