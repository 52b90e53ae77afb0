"""Grid functions on the unit square and the 1-D unit torus.

All downstream quantities (PCA spectra, relative errors, latent codes) are
built on the quadrature-weighted L2 inner product defined here, which is what
makes results comparable across grid resolutions.

Conventions:
  * box2d: n points per axis including both boundaries, spacing h = 1/(n-1).
    Values stored row-major, index (i, j) -> i*n + j with i the s2 (vertical)
    index and j the s1 index.
  * torus1d: n points at s_i = i/n, no duplicated endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

BOX2D = "box2d"
TORUS1D = "torus1d"


class ShapeError(ValueError):
    """Mismatched domains, resolutions or divisibility constraints."""


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function discretized on a uniform grid."""

    domain: str
    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.domain not in (BOX2D, TORUS1D):
            raise ShapeError(f"unknown domain {self.domain!r}")
        if self.n < 2:
            raise ShapeError(f"resolution must be >= 2, got {self.n}")
        vals = np.asarray(self.values, dtype=np.float64)
        expected = self.n ** 2 if self.domain == BOX2D else self.n
        if vals.size != expected:
            raise ShapeError(
                f"value length {vals.size} does not match {self.domain} "
                f"resolution {self.n} (expected {expected})"
            )
        if not np.all(np.isfinite(vals)):
            raise ShapeError("grid function values must be finite")
        vals = vals.reshape(-1).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def num_points(self) -> int:
        return self.values.size

    def as_2d(self) -> np.ndarray:
        if self.domain != BOX2D:
            raise ShapeError("as_2d only applies to box2d functions")
        return self.values.reshape(self.n, self.n)


def grid_coords(domain: str, n: int) -> np.ndarray:
    """1-D node coordinates along one axis."""
    if domain == BOX2D:
        return np.linspace(0.0, 1.0, n)
    return np.arange(n) / n


def box_meshgrid(n: int):
    """(s1, s2) coordinate arrays of shape (n, n), row index = s2."""
    s = np.linspace(0.0, 1.0, n)
    s1, s2 = np.meshgrid(s, s, indexing="xy")
    return s1, s2


def from_callable(domain: str, n: int, f) -> GridFunction:
    if domain == BOX2D:
        s1, s2 = box_meshgrid(n)
        return GridFunction(BOX2D, n, f(s1, s2))
    s = grid_coords(TORUS1D, n)
    return GridFunction(TORUS1D, n, f(s))


def quadrature_weights(domain: str, n: int) -> np.ndarray:
    """Trapezoid weights on box2d, uniform 1/n on torus1d. Sums to 1."""
    if domain == TORUS1D:
        return np.full(n, 1.0 / n)
    w1 = np.full(n, 1.0 / (n - 1))
    w1[0] *= 0.5
    w1[-1] *= 0.5
    return np.outer(w1, w1).reshape(-1)


def _check_compatible(u: GridFunction, v: GridFunction):
    if u.domain != v.domain or u.n != v.n:
        raise ShapeError(
            f"incompatible grid functions: ({u.domain}, n={u.n}) vs "
            f"({v.domain}, n={v.n})"
        )


def inner_product(u: GridFunction, v: GridFunction) -> float:
    """Quadrature approximation of the L2 inner product over the domain."""
    _check_compatible(u, v)
    w = quadrature_weights(u.domain, u.n)
    return float(np.dot(w * u.values, v.values))


def norm(u: GridFunction) -> float:
    return math.sqrt(inner_product(u, u))


def _intervals(domain: str, n: int) -> int:
    """Grid intervals per axis: n - 1 on box2d (both ends are nodes), n on
    the torus."""
    return n - 1 if domain == BOX2D else n


def nested_stride(domain: str, n: int, target_n: int) -> int:
    """Stride that takes an n-point grid onto the coarser target_n-point
    grid nested in it."""
    fine, coarse = _intervals(domain, n), _intervals(domain, target_n)
    if coarse < 1 or fine % coarse != 0:
        raise ShapeError(f"coarse target {target_n} does not nest in {n}")
    return fine // coarse


def subsample_rows(domain: str, n: int, rows: np.ndarray, stride: int) -> np.ndarray:
    """Keep every stride-th node of each row of a (count, points) array;
    boundaries retained on box2d."""
    if domain == BOX2D:
        return rows.reshape(-1, n, n)[:, ::stride, ::stride].reshape(rows.shape[0], -1)
    return rows[:, ::stride].copy()


def subsample(u: GridFunction, stride: int) -> GridFunction:
    """Keep every stride-th node; boundaries retained on box2d."""
    if stride < 1:
        raise ShapeError("stride must be positive")
    fine = _intervals(u.domain, u.n)
    if fine % stride != 0:
        raise ShapeError(f"{fine} grid intervals not divisible by stride {stride}")
    m = fine // stride + (1 if u.domain == BOX2D else 0)
    vals = subsample_rows(u.domain, u.n, u.values[None], stride)[0]
    return GridFunction(u.domain, m, vals)


def interpolate(u: GridFunction, target_n: int) -> GridFunction:
    """Cubic-spline resampling onto a target grid of the same domain.

    Natural splines on box2d (tensor product, one axis at a time), periodic
    splines on the torus. Exact at shared nodes.
    """
    if target_n < 2:
        raise ShapeError("target_n must be >= 2")
    if target_n == u.n:
        return u
    if u.domain == TORUS1D:
        s = np.append(grid_coords(TORUS1D, u.n), 1.0)
        vals = np.append(u.values, u.values[0])
        spline = CubicSpline(s, vals, bc_type="periodic")
        return GridFunction(TORUS1D, target_n, spline(grid_coords(TORUS1D, target_n)))
    s_src = np.linspace(0.0, 1.0, u.n)
    s_tgt = np.linspace(0.0, 1.0, target_n)
    # interpolate along s1 (columns) then s2 (rows)
    half = CubicSpline(s_src, u.as_2d(), axis=1, bc_type="natural")(s_tgt)
    full = CubicSpline(s_src, half, axis=0, bc_type="natural")(s_tgt)
    return GridFunction(BOX2D, target_n, full)
