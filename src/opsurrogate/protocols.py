"""Baseline comparison protocols: truncated-Taylor vs PCA+linear at equal
PDE-solve budgets, the Stechkin-style tail-decay check for the coefficient
model, and online/offline timing of RB vs the composed surrogates.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace

import numpy as np

from .datasets import COEFFICIENT_PROBLEMS, Dataset, ProblemConfig, generate_dataset
from .grid import quadrature_weights
from .harness import FitConfig, fit_from_dataset
from .random_fields import MeasureSpec, coeff_model_sup_norms
from .surrogate import (
    RbSolver,
    predict_batch,
    relative_errors,
    relative_test_error,
    taylor_truncation_poisson,
)


def dataset_hash(ds: Dataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.xs, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(ds.ys, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def taylor_tail_decay(spec: MeasureSpec, budgets, pool: int = 20000):
    """Stechkin-style decay of the truncation-error majorant.

    The Taylor truncation error is bounded (up to the Poisson constant) by
    the sup-norm tail T(K) = sum_{j>K} ||phi_j||_Linf, which Stechkin bounds
    by K^(1-1/p). Monte Carlo truncation errors over random coefficients
    decay faster (square-root cancellation), so the rate claim is checked on
    the majorant itself. Returns (budgets, tails, slope, expected_slope).
    """
    # the majorant is closed-form and never touches a grid, so the mode table
    # can extend past the sampling cutoff
    wide = int(np.ceil(np.sqrt(pool))) + 1
    sup_norms = coeff_model_sup_norms(replace(spec, cutoff=max(spec.cutoff, wide)), pool)
    budgets = np.asarray(sorted(budgets))
    if budgets.max() >= pool // 8:
        raise ValueError("mode pool too small for the requested budgets")
    csum = np.cumsum(sup_norms[::-1])[::-1]
    tails = np.array([csum[b] for b in budgets])
    slope = float(np.polyfit(np.log(budgets), np.log(tails), 1)[0])
    # sqrt(lambda_j) ~ j^(-exponent/2) on the 2-D wavenumber lattice, so the
    # sup-norm sequence sits in l^p exactly down to p = 2/exponent
    p = 2.0 / spec.exponent
    return budgets, tails, slope, 1.0 - 1.0 / p


def run_chkifa_comparison(
    base: ProblemConfig,
    budgets,
    n_test: int,
    test_seed: int,
):
    """Taylor truncation with K = b solves vs PCA+linear with N = d = b
    samples, on one shared test set. Returns CSV-ready row dicts."""
    if base.problem != "coeff_model":
        raise ValueError("the solve-budget comparison is defined for coeff_model")
    budgets = sorted(budgets)
    train_full = generate_dataset(replace(base, count=max(budgets)))
    test = generate_dataset(replace(base, count=n_test, seed=test_seed))
    ghash = dataset_hash(test)
    w = quadrature_weights("box2d", base.resolution)
    spec = base.measure()
    etas = taylor_truncation_poisson(spec, max(budgets), base.resolution)
    rows = []
    for b in budgets:
        t_ratios, _ = relative_errors(test.xis[:, :b] @ etas[:b], test.ys, w)
        rows.append(
            {
                "method": "taylor", "d": b, "budget": b,
                "relative_error": float(np.mean(t_ratios)),
                "test_hash": ghash,
            }
        )
        sur, _ = fit_from_dataset(train_full.head(b), FitConfig(d=b, regressor="linear"))
        err, _ = relative_test_error(sur, test.xs, test.ys)
        rows.append(
            {
                "method": "pca_linear", "d": b, "budget": b,
                "relative_error": err, "test_hash": ghash,
            }
        )
    return rows


CHKIFA_COLUMNS = ("method", "d", "budget", "relative_error", "test_hash")


def _time_call(fn, repeats: int = 3):
    """Median wall time with one discarded warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def run_rb_timing(
    base: ProblemConfig,
    d_list,
    fit_cfg: FitConfig,
    n_probe: int = 8,
):
    """Online (per-prediction) and offline (fit/train) seconds for RB,
    PCA+NN and PCA+linear at each reduced dimension.

    Timing excludes dataset generation and I/O; each measurement discards a
    warm-up call and reports the median of repeats.
    """
    if base.problem not in COEFFICIENT_PROBLEMS:
        raise ValueError("RB timing is defined for the Darcy problems")
    train = generate_dataset(base)
    probe = generate_dataset(replace(base, count=n_probe, seed=base.seed + 1))
    ones = np.ones(base.resolution ** 2)
    rows = []
    for d in sorted(d_list):
        cell = replace(fit_cfg, d=d)
        t0 = time.perf_counter()
        sur_nn, _ = fit_from_dataset(train, replace(cell, regressor="nn"))
        off_nn = time.perf_counter() - t0
        t0 = time.perf_counter()
        sur_lin, _ = fit_from_dataset(train, replace(cell, regressor="linear"))
        off_lin = time.perf_counter() - t0
        t0 = time.perf_counter()
        rb = RbSolver(sur_lin.pca_out)
        off_rb = time.perf_counter() - t0

        online_rb = _time_call(lambda: rb.solve(probe.xs, ones)) / n_probe
        online_nn = _time_call(lambda: predict_batch(sur_nn, probe.xs)) / n_probe
        online_lin = _time_call(lambda: predict_batch(sur_lin, probe.xs)) / n_probe
        rows += [
            {"method": "rb", "d": d, "online_s": online_rb, "offline_s": off_rb},
            {"method": "pca_nn", "d": d, "online_s": online_nn, "offline_s": off_nn},
            {"method": "pca_linear", "d": d, "online_s": online_lin,
             "offline_s": off_lin},
        ]
    return rows


TIMING_COLUMNS = ("method", "d", "online_s", "offline_s")
