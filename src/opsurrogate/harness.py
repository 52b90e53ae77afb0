"""Experiment drivers: surrogate fitting/persistence, evaluation, sweeps over
resolution / reduced dimension / sample count, mesh transfer, and CSV/SVG
emission.

Model directories reuse the dataset conventions: a `meta` file plus raw
little-endian float64 tensors, so refits are byte-identical.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import replace

import numpy as np

from .datasets import (
    Dataset,
    ProblemConfig,
    meta_field,
    parse_choice,
    read_bundle_meta,
    read_tensor,
    subsample_dataset,
    write_bundle,
)
from .grid import BOX2D, TORUS1D, ShapeError
from .pca import PcaModel, fit_pca, transfer_basis
from .random_fields import ConfigError
from .regressors import FitConfig, MlpModel, TrainResult
from .surrogate import Surrogate, fit_surrogate, relative_test_error
from .surrogate import relative_errors  # noqa: F401  (perfbench times it under this name)

MODEL_FORMAT_VERSION = 1


def fit_from_dataset(ds: Dataset, fit_cfg: FitConfig, test_ds: Dataset | None = None):
    """Fit input/output PCA and the latent regressor; returns
    (surrogate, train_result_or_None). A `test_ds`, which feeds the
    per-epoch test metric of a network, must lie on the training grid."""
    grid = (ds.config.domain, ds.resolution)
    if test_ds is not None:
        if (test_ds.config.domain, test_ds.resolution) != grid:
            raise ShapeError(f"--test-dataset (test_ds) grid {test_ds.config.domain} "
                             f"n={test_ds.resolution} does not match training grid "
                             f"{grid[0]} n={grid[1]}")
        if fit_cfg.regressor == "linear":
            raise ConfigError("--test-dataset (test_ds) feeds only the per-epoch test "
                              "metric of --regressor nn; `opsurrogate eval` on the saved "
                              "model gives a linear model's test error")
    pca_in = fit_pca(ds.xs, *grid, fit_cfg.d, weighted=fit_cfg.weighted)
    pca_out = fit_pca(ds.ys, *grid, fit_cfg.d, weighted=fit_cfg.weighted)
    return fit_surrogate(ds.xs, ds.ys, pca_in, pca_out, fit_cfg,
                         test=None if test_ds is None else (test_ds.xs, test_ds.ys))


# ---------------------------------------------------------------------------
# model persistence

def regressor_kind(sur: Surrogate) -> str:
    """"linear" for a network with no hidden layer, else "nn"."""
    return "linear" if len(sur.regressor.weights) == 1 else "nn"


def save_surrogate(sur: Surrogate, directory: str, extra_meta: dict | None = None,
                   result: TrainResult | None = None):
    """Write a model directory; a network's `result` adds its learning rate
    to `meta` and its histories to `loss_history.csv`."""
    if sur.pca_in.weighted != sur.pca_out.weighted:
        raise ValueError(
            "the model format stores one `weighted` flag for both PCAs, but "
            f"pca_in.weighted={sur.pca_in.weighted} and "
            f"pca_out.weighted={sur.pca_out.weighted}"
        )
    meta = dict(extra_meta or {})
    if result is not None:
        meta["learning_rate"] = result.learning_rate
    meta.update(format_version=MODEL_FORMAT_VERSION, weighted=int(sur.pca_in.weighted))
    tensors = {"input_mean": sur.input_mean, "input_std": sur.input_std}
    for side, pca in (("in", sur.pca_in), ("out", sur.pca_out)):
        meta.update({f"domain_{side}": pca.domain, f"n_{side}": pca.n,
                     f"d_{side}": pca.d, f"n_eigs_{side}": pca.eigenvalues.size})
        tensors.update({f"basis_{side}": pca.basis, f"eigs_{side}": pca.eigenvalues})
    tensors.update(target_mean=sur.target_mean, target_std=sur.target_std)
    meta["regressor"] = regressor_kind(sur)
    if meta["regressor"] == "linear":
        tensors.update(lin_matrix=sur.regressor.weights[0], lin_bias=sur.regressor.biases[0])
    else:
        meta["layer_dims"] = "x".join(str(v) for v in sur.regressor.dims)
        for i, (W, b) in enumerate(zip(sur.regressor.weights, sur.regressor.biases)):
            tensors.update({f"w{i}": W, f"b{i}": b})
    write_bundle(directory, meta, tensors)
    if result is not None:
        with open(os.path.join(directory, "loss_history.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_mse", "test_relative_error"])
            tests = result.test_metric
            for i, loss in enumerate(result.train_loss):
                writer.writerow([i, repr(loss), tests[i] if i < len(tests) else ""])


def _parse_dims(text: str) -> list[int]:
    dims = [int(v) for v in text.split("x")]
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(text)
    return dims


def load_surrogate(directory: str) -> Surrogate:
    """Load a model directory. Every key read from `meta` must be present
    and parse, or a `FormatError` names the file and the key."""
    meta = read_bundle_meta(directory, MODEL_FORMAT_VERSION)
    path = os.path.join(directory, "meta")

    def field(key, parse):
        return meta_field(meta, key, parse, path)

    weighted = bool(field("weighted", int))
    pcas = []
    for side in ("in", "out"):
        domain = field(f"domain_{side}", parse_choice(BOX2D, TORUS1D))
        n, d = field(f"n_{side}", int), field(f"d_{side}", int)
        points = n ** 2 if domain == BOX2D else n
        eigs = read_tensor(directory, f"eigs_{side}", (field(f"n_eigs_{side}", int),))
        basis = read_tensor(directory, f"basis_{side}", (d, points))
        pcas.append(PcaModel(domain, n, d, basis, eigs, weighted=weighted))
    pca_in, pca_out = pcas
    d_in, d_out = pca_in.d, pca_out.d
    mean = read_tensor(directory, "input_mean", (d_in,))
    std = read_tensor(directory, "input_std", (d_in,))
    if field("regressor", parse_choice("linear", "nn")) == "linear":
        reg = MlpModel([read_tensor(directory, "lin_matrix", (d_out, d_in))],
                       [read_tensor(directory, "lin_bias", (d_out,))])
    else:
        dims = field("layer_dims", _parse_dims)
        weights, biases = [], []
        for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
            weights.append(read_tensor(directory, f"w{i}", (fo, fi)))
            biases.append(read_tensor(directory, f"b{i}", (fo,)))
        reg = MlpModel(weights, biases)
    return Surrogate(pca_in, pca_out, reg, mean, std,
                     read_tensor(directory, "target_mean", (d_out,)),
                     read_tensor(directory, "target_std", (d_out,)))


# ---------------------------------------------------------------------------
# evaluation and transfer

def transfer_surrogate(sur: Surrogate, target_n: int) -> tuple[Surrogate, float]:
    """Move both PCA bases to another mesh; the regressor is untouched."""
    pca_in, res_in = transfer_basis(sur.pca_in, target_n)
    pca_out, res_out = transfer_basis(sur.pca_out, target_n)
    return replace(sur, pca_in=pca_in, pca_out=pca_out), max(res_in, res_out)


def check_grid(sur: Surrogate, test_ds: Dataset, allow_transfer: bool) -> bool:
    """Whether `test_ds` lies on another resolution than the surrogate's
    input grid. A `ShapeError` naming both grids says when it lies on
    another domain, which a transfer cannot bridge, or on another
    resolution without `allow_transfer`."""
    grids = (f"surrogate grid {sur.pca_in.domain} n={sur.pca_in.n} does not match "
             f"test grid {test_ds.config.domain} n={test_ds.resolution}")
    if sur.pca_in.domain != test_ds.config.domain:
        raise ShapeError(f"{grids}; a transfer moves the bases to another resolution, "
                         "not to another domain")
    if sur.pca_in.n != test_ds.resolution and not allow_transfer:
        raise ShapeError(f"{grids}; use --transfer (allow_transfer) to move the PCA "
                         "bases to the test grid")
    return sur.pca_in.n != test_ds.resolution


def evaluate(sur: Surrogate, test_ds: Dataset, allow_transfer: bool = False):
    """Relative test error, per-prediction online seconds, and the number of
    zero-norm test targets left out of the error."""
    if check_grid(sur, test_ds, allow_transfer):
        sur, _ = transfer_surrogate(sur, test_ds.resolution)
    t0 = time.perf_counter()
    error, skipped = relative_test_error(sur, test_ds.xs, test_ds.ys)
    online = (time.perf_counter() - t0) / test_ds.xs.shape[0]
    return error, online, skipped


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("resolution", "dimension", "samples")


def run_sweep(
    base: ProblemConfig,
    fit_cfg: FitConfig,
    axis: str,
    values,
    n_test: int,
    test_seed: int,
    regressors=("nn", "linear"),
):
    """Cross-product sweep holding the other axes fixed.

    Data is generated once at the finest resolution and subsampled; failures
    are recorded per cell and the sweep continues. Returns a list of row
    dicts with keys problem, resolution, d, N, regressor, relative_error,
    online_seconds, status.
    """
    from .datasets import generate_dataset

    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    values = list(values)
    max_count = base.count if axis != "samples" else max(values)
    train_full = generate_dataset(replace(base, count=max_count))
    test_full = generate_dataset(replace(base, count=n_test, seed=test_seed))
    rows = []
    for value in sorted(values):
        if axis == "resolution":
            train = subsample_dataset(train_full, value)
            test = subsample_dataset(test_full, value)
            cell_fit = fit_cfg
        elif axis == "dimension":
            train, test = train_full, test_full
            cell_fit = replace(fit_cfg, d=value)
        else:
            train = train_full.head(value)
            test = test_full
            cell_fit = fit_cfg
        for reg in regressors:
            row = {
                "problem": base.problem,
                "resolution": train.resolution,
                "d": cell_fit.d,
                "N": train.config.count,
                "regressor": reg,
            }
            try:
                sur, result = fit_from_dataset(train, replace(cell_fit, regressor=reg))
                error, online, _ = evaluate(sur, test)
                row.update(
                    relative_error=error, online_seconds=online, status="ok"
                )
            except Exception as exc:  # record and continue
                row.update(
                    relative_error="", online_seconds="", status=f"failed: {exc}"
                )
            rows.append(row)
    return rows


SWEEP_COLUMNS = (
    "problem", "resolution", "d", "N", "regressor",
    "relative_error", "online_seconds", "status",
)


def write_csv(path: str, rows: list[dict], columns):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# dependency-free SVG line chart (CSV stays the authoritative output)

def write_svg_lines(path: str, series: dict, xlabel: str, ylabel: str,
                    width: int = 640, height: int = 420):
    """series: name -> (xs, ys). Log-log polyline chart."""
    pad = 60
    pts_all = [(x, y) for xs, ys in series.values() for x, y in zip(xs, ys) if y > 0]
    if not pts_all:
        raise ValueError("nothing to plot")
    lx = [np.log10(p[0]) for p in pts_all]
    ly = [np.log10(p[1]) for p in pts_all]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x1 += 1e-9
    y1 += 1e-9

    def sx(v):
        return pad + (np.log10(v) - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (np.log10(v) - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="{height-15}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>',
        f'<text x="18" y="{height/2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {height/2:.0f})">{ylabel}</text>',
    ]
    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = colors[i % len(colors)]
        coords = " ".join(
            f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys) if y > 0
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width-pad+5}" y="{pad + 16*i}" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
