"""Problem definitions, dataset generation, and the on-disk dataset format.

A dataset directory holds a `meta` file (sorted `key = value` lines) and raw
little-endian float64 tensors (`x.f64`, `y.f64`, and `xi.f64` for the
coefficient model) with shapes recorded in `meta`. Writes are deterministic:
regenerating from the same config yields byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .grid import BOX2D, TORUS1D, GridFunction, nested_stride, subsample_rows
from .random_fields import (
    MeasureSpec,
    coeff_model_basis,
    coeff_model_spec,
    derive_seed,
    mu_b_spec,
    mu_g_spec,
    mu_l_spec,
    mu_p_spec,
    nyquist_cutoff,
    sample_field,
)
from .solvers import EllipticProblem, darcy_solver, solve_burgers_batch, solve_darcy

FORMAT_VERSION = 1


class FormatError(ValueError):
    """A dataset or model file that does not match its `meta`."""


PROBLEMS = (
    "linear_elliptic",
    "poisson",
    "darcy_lognormal",
    "darcy_piecewise",
    "burgers",
    "coeff_model",
)

_AUX_SALT = 0x5EEDC0FFEE  # seed stream for the fixed coefficient draw


@dataclass
class ProblemConfig:
    problem: str
    resolution: int
    count: int
    seed: int
    cutoff: int | None = None       # KL truncation; default = grid Nyquist
    beta: float = 1e-2              # Burgers viscosity
    t_final: float = 1.0
    coeff_dim: int = 64             # modes kept in the coefficient model

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; choose from {PROBLEMS}")
        if self.cutoff is None:
            self.cutoff = nyquist_cutoff(self.domain, self.resolution)

    @property
    def domain(self) -> str:
        return TORUS1D if self.problem == "burgers" else BOX2D

    def measure(self) -> MeasureSpec:
        k = self.cutoff
        return {
            "linear_elliptic": mu_g_spec(k),
            "poisson": mu_g_spec(k),
            "darcy_lognormal": mu_l_spec(k),
            "darcy_piecewise": mu_p_spec(k),
            "burgers": mu_b_spec(k),
            "coeff_model": coeff_model_spec(k),
        }[self.problem]


@dataclass
class Dataset:
    config: ProblemConfig
    xs: np.ndarray                      # (count, input points)
    ys: np.ndarray                      # (count, output points)
    xis: np.ndarray | None = None       # coefficient model only

    @property
    def resolution(self) -> int:
        return self.config.resolution

    def head(self, count: int) -> "Dataset":
        """The first `count` samples."""
        xis = None if self.xis is None else self.xis[:count]
        return Dataset(replace(self.config, count=count), self.xs[:count],
                       self.ys[:count], xis=xis)


def fixed_coefficient(resolution: int, cutoff: int | None = None) -> GridFunction:
    """The single frozen piecewise-constant coefficient of linear_elliptic.

    Deliberately independent of the dataset seed so train and test sets
    share the same operator; the draw uses its own fixed seed stream.
    """
    if cutoff is None:
        cutoff = nyquist_cutoff(BOX2D, resolution)
    spec = mu_p_spec(cutoff)
    return sample_field(spec, resolution, derive_seed(0, _AUX_SALT))


def generate_dataset(cfg: ProblemConfig) -> Dataset:
    """Sample inputs, run the ground-truth solver, return paired data.

    Per-sample seeds are derived from the base seed, so samples are
    reproducible individually and safe to generate in parallel.
    """
    n = cfg.resolution
    spec = cfg.measure()
    count = cfg.count
    xis = None
    if cfg.problem == "coeff_model":
        rngs = [np.random.default_rng(derive_seed(cfg.seed, i)) for i in range(count)]
        xis = np.stack([rng.uniform(-1.0, 1.0, size=cfg.coeff_dim) for rng in rngs])
        basis = coeff_model_basis(spec, cfg.coeff_dim, n)
        xs = xis @ basis
    else:
        xs = np.empty((count, n * n if cfg.domain == BOX2D else n))
        for i in range(count):
            xs[i] = sample_field(spec, n, derive_seed(cfg.seed, i)).values
    if cfg.problem == "burgers":
        return Dataset(cfg, xs, solve_burgers_batch(xs, cfg.beta, cfg.t_final))

    ones = GridFunction(BOX2D, n, np.ones(n * n))
    if cfg.problem in ("linear_elliptic", "poisson", "coeff_model"):
        # forcing -> solution through one shared operator, factored once
        a = fixed_coefficient(n, cfg.cutoff) if cfg.problem == "linear_elliptic" else ones
        return Dataset(cfg, xs, darcy_solver(a)(xs), xis=xis)
    # darcy_lognormal, darcy_piecewise: coefficient -> solution, f = 1
    ys = np.empty_like(xs)
    for i in range(count):
        ys[i] = solve_darcy(EllipticProblem(GridFunction(BOX2D, n, xs[i]), ones)).values
    return Dataset(cfg, xs, ys)


def subsample_dataset(ds: Dataset, target_n: int) -> Dataset:
    """Coarser copy by nested-grid subsampling: data at all other mesh
    sizes comes from the finest, so every resolution sees the same
    functions."""
    n = ds.resolution
    domain = ds.config.domain
    if target_n == n:
        return ds
    stride = nested_stride(domain, n, target_n)
    cfg = replace(ds.config, resolution=target_n, cutoff=ds.config.cutoff)
    return Dataset(cfg, subsample_rows(domain, n, ds.xs, stride),
                   subsample_rows(domain, n, ds.ys, stride), xis=ds.xis)


# ---------------------------------------------------------------------------
# on-disk format

def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_meta(path: str, entries: dict):
    lines = [f"{k} = {_format_value(v)}\n" for k, v in sorted(entries.items())]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def read_meta(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def write_bundle(directory: str, meta: dict, tensors: dict):
    """Write a `meta` file and one raw little-endian float64 file
    `<name>.f64` per named tensor: the layout of dataset and model
    directories."""
    os.makedirs(directory, exist_ok=True)
    write_meta(os.path.join(directory, "meta"), meta)
    for name, arr in tensors.items():
        with open(os.path.join(directory, f"{name}.f64"), "wb") as fh:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def meta_field(meta: dict, key: str, parse, path: str):
    """`parse(meta[key])`, or a `FormatError` naming the file and the key."""
    if key not in meta:
        raise FormatError(f"{path}: missing key {key!r}")
    try:
        return parse(meta[key])
    except ValueError:
        raise FormatError(f"{path}: cannot parse {key} = {meta[key]!r}") from None


def parse_choice(*choices):
    """A `meta_field` parser that accepts exactly one of `choices`."""
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(text)
        return text
    return parse


def read_bundle_meta(directory: str, version: int) -> dict:
    path = os.path.join(directory, "meta")
    meta = read_meta(path)
    if meta_field(meta, "format_version", int, path) != version:
        raise FormatError(
            f"{path}: unsupported format_version {meta['format_version']} "
            f"(expected {version})"
        )
    return meta


def read_tensor(directory: str, name: str, shape) -> np.ndarray:
    """The tensor `<name>.f64` of a bundle, which must hold exactly `shape`."""
    path = os.path.join(directory, f"{name}.f64")
    expected = 8 * math.prod(shape)
    actual = os.path.getsize(path)
    if actual != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for shape {shape}, found {actual}"
        )
    return np.fromfile(path, dtype="<f8").reshape(shape)


def write_dataset(ds: Dataset, directory: str):
    cfg = ds.config
    meta = {
        "format_version": FORMAT_VERSION,
        "problem": cfg.problem,
        "resolution": cfg.resolution,
        "count": cfg.count,
        "seed": cfg.seed,
        "cutoff": cfg.cutoff,
        "beta": cfg.beta,
        "t_final": cfg.t_final,
        "coeff_dim": cfg.coeff_dim,
        "x_shape": f"{ds.xs.shape[0]}x{ds.xs.shape[1]}",
        "y_shape": f"{ds.ys.shape[0]}x{ds.ys.shape[1]}",
        "domain": cfg.domain,
    }
    tensors = {"x": ds.xs, "y": ds.ys}
    if ds.xis is not None:
        meta["xi_shape"] = f"{ds.xis.shape[0]}x{ds.xis.shape[1]}"
        tensors["xi"] = ds.xis
    write_bundle(directory, meta, tensors)


def _parse_shape(s: str):
    shape = tuple(int(t) for t in s.split("x"))
    if len(shape) != 2:
        raise ValueError(s)
    return shape


def read_dataset(directory: str) -> Dataset:
    """Load a dataset directory. Every key read from `meta` must be present
    and parse, the stored shapes must agree with `count`, `resolution` and
    the problem's domain, and every stored value must be finite, or a
    `FormatError` names the file."""
    # unread keys are ignored, so directories with retired meta keys still load
    meta = read_bundle_meta(directory, FORMAT_VERSION)
    path = os.path.join(directory, "meta")

    def field(key, parse):
        return meta_field(meta, key, parse, path)

    cfg = ProblemConfig(
        problem=field("problem", parse_choice(*PROBLEMS)),
        resolution=field("resolution", int),
        count=field("count", int),
        seed=field("seed", int),
        cutoff=field("cutoff", int),
        beta=field("beta", float),
        t_final=field("t_final", float),
        coeff_dim=field("coeff_dim", int),
    )
    names = ("x", "y", "xi") if "xi_shape" in meta else ("x", "y")
    shapes = {name: field(f"{name}_shape", _parse_shape) for name in names}
    width = cfg.resolution ** 2 if cfg.domain == BOX2D else cfg.resolution
    for name, (rows, cols) in shapes.items():
        if rows != cfg.count:
            raise FormatError(f"{path}: {name}_shape = {meta[name + '_shape']} holds "
                              f"{rows} rows but count = {cfg.count}")
        if name != "xi" and cols != width:
            raise FormatError(f"{path}: {name}_shape = {meta[name + '_shape']} has rows "
                              f"of {cols} points; {cfg.domain} resolution "
                              f"{cfg.resolution} has {width}")
    tensors = {name: read_tensor(directory, name, shape) for name, shape in shapes.items()}
    for name, values in tensors.items():
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise FormatError(f"{os.path.join(directory, name + '.f64')}: row {bad[0]} "
                              "holds a non-finite value")
    return Dataset(cfg, tensors["x"], tensors["y"], xis=tensors.get("xi"))
