"""Grid functions on the unit square and the 1-D unit torus.

All downstream quantities (PCA spectra, relative errors, latent codes) are
built on the quadrature-weighted L2 inner product whose weights are defined
here, which is what makes results comparable across grid resolutions.

Conventions:
  * box2d: n points per axis including both boundaries, spacing h = 1/(n-1).
    Values stored row-major, index (i, j) -> i*n + j with i the s2 (vertical)
    index and j the s1 index.
  * torus1d: n points at s_i = i/n, no duplicated endpoint.
"""

from __future__ import annotations

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


def norms(domain: str, n: int, rows: np.ndarray) -> np.ndarray:
    """Quadrature L2 norms of the rows of a (count, points) array of n-grid
    values, each sqrt(dot(w * u, u))."""
    w = quadrature_weights(domain, n)
    return np.sqrt([np.dot(w * u, u) for u in np.atleast_2d(rows)])


def nested_stride(domain: str, n: int, target_n: int) -> int:
    """Stride that takes an n-point grid onto the coarser target_n-point
    grid nested in it. Grids nest by their intervals per axis: n - 1 on
    box2d (both ends are nodes), n on the torus."""
    fine, coarse = (n - 1, target_n - 1) if domain == BOX2D else (n, target_n)
    if coarse < 1 or fine % coarse != 0:
        raise ShapeError(f"coarse target {target_n} does not nest in {n}")
    return fine // coarse


def subsample(domain: str, n: int, rows: np.ndarray, target_n: int) -> np.ndarray:
    """Rows of a (count, points) array of n-grid values, taken onto the
    coarser target_n grid nested in it: every stride-th node, boundaries
    retained on box2d."""
    stride = nested_stride(domain, n, target_n)
    if domain == BOX2D:
        kept = rows.reshape(-1, n, n)[:, ::stride, ::stride]
        return kept.reshape(len(rows), target_n ** 2)
    return rows[:, ::stride].copy()


def interpolate(domain: str, n: int, rows: np.ndarray, target_n: int) -> np.ndarray:
    """Cubic-spline resampling of the rows of a (count, points) array of
    n-grid values onto the target_n grid of the same domain.

    Natural splines on box2d (tensor product, one axis at a time), periodic
    splines on the torus. Exact at shared nodes.
    """
    if target_n < 2:
        raise ShapeError("target_n must be >= 2")
    if target_n == n:
        return rows
    s_src, s_tgt = grid_coords(domain, n), grid_coords(domain, target_n)
    if domain == TORUS1D:
        closed = np.concatenate([rows, rows[:, :1]], axis=1)
        spline = CubicSpline(np.append(s_src, 1.0), closed, axis=1, bc_type="periodic")
        return np.ascontiguousarray(spline(s_tgt))  # the spline gives a transposed view
    # interpolate along s1 (columns) then s2 (rows)
    half = CubicSpline(s_src, rows.reshape(-1, n, n), axis=2, bc_type="natural")(s_tgt)
    full = CubicSpline(s_src, half, axis=1, bc_type="natural")(s_tgt)
    return full.reshape(len(rows), target_n ** 2)
