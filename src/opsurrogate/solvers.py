"""Ground-truth forward maps: variable-coefficient elliptic flow on the unit
square (second-order conservative finite differences, zero Dirichlet data,
red-black reduction, one banded Cholesky per operator) and the viscous
Burgers flow map on the torus (pseudo-spectral, dealiased, integrating-factor RK4).

A Cole-Hopf construction is included purely as an independent validation
oracle for the Burgers solver; it is never used in the surrogate pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import cg  # noqa: F401  (perfbench wraps this name; nothing calls it)

from .grid import BOX2D, GridFunction, ShapeError


class DomainError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


@dataclass(frozen=True)
class EllipticProblem:
    """-div(a grad u) = f on (0,1)^2, u = 0 on the boundary."""

    a: GridFunction
    f: GridFunction

    def __post_init__(self):
        if self.a.domain != BOX2D or self.f.domain != BOX2D:
            raise ShapeError("elliptic problems live on box2d grids")
        if self.a.n != self.f.n:
            raise ShapeError("coefficient and forcing resolutions differ")
        if np.min(self.a.values) <= 0.0:
            raise DomainError("coefficient must be strictly positive")


def _check_burgers(beta: float, t_final: float):
    if not (0.0 < beta < np.inf and 0.0 < t_final < np.inf):
        raise DomainError(f"viscosity ({beta}) and t_final ({t_final}) must be "
                          "finite and positive")


# ---------------------------------------------------------------------------
# elliptic solver

def _stencil(a: GridFunction):
    """Five-point stencil of -div(a grad u) on the m x m interior, m = n - 2:
    the diagonal (m, m), then the couplings (m-1, m) of (i, j) to (i+1, j)
    and (m, m-1) of (i, j) to (i, j+1), whose negatives the matrix holds."""
    n = a.n
    if n < 3:
        raise ShapeError("need resolution >= 3 for interior unknowns")
    h = 1.0 / (n - 1)
    av = a.as_2d()
    # flux coefficients: harmonic means of adjacent nodes, at half nodes
    a_s2 = 2.0 * av[:-1] * av[1:] / (av[:-1] + av[1:])  # (n-1, n)
    a_s1 = 2.0 * av[:, :-1] * av[:, 1:] / (av[:, :-1] + av[:, 1:])  # (n, n-1)
    aN, aS = a_s2[1:, 1:-1], a_s2[:-1, 1:-1]  # interior node (i, j) to (i+-1, j)
    aE, aW = a_s1[1:-1, 1:], a_s1[1:-1, :-1]
    return (aN + aS + aE + aW) / h ** 2, aN[:-1, :] / h ** 2, aE[:, :-1] / h ** 2


def assemble_darcy_system(a: GridFunction):
    """Sparse SPD system for the interior unknowns of -div(a grad u) = f."""
    diag, vert, horiz = _stencil(a)
    m = diag.shape[0]
    if m == 1:
        # one unknown: the off-diagonals are empty and +-m coincide with +-1
        return sp.diags([diag.reshape(-1)], [0], format="csr")
    east = -np.pad(horiz, ((0, 0), (0, 1))).reshape(-1)[:-1]
    north = -vert.reshape(-1)
    return sp.diags([diag.reshape(-1), east, east, north, north], [0, 1, -1, m, -m],
                    format="csr")


def _add_neighbours(out, x, east, west, north, south):
    """out += each of the four neighbours of x times its weights, the east
    ones (m, m-1) indexed by the west node of the pair, and so on."""
    out[:, :-1] += east * x[:, 1:]
    out[:, 1:] += west * x[:, :-1]
    out[:-1] += north * x[1:]
    out[1:] += south * x[:-1]
    return out


@functools.lru_cache(maxsize=8)
def _red_black_maps(m: int):
    """Flat indices of the black nodes (i + j even) of the m x m interior;
    positions `src` of the black rows among the five entry arrays that
    `darcy_solver` concatenates, and `dst` in the band storage it fills."""
    black = np.indices((m, m)).sum(axis=0) % 2 == 0
    order = np.cumsum(black).reshape(m, m) - 1  # row-major, on black nodes
    src, dst, base = [], [], 0
    # entries (0, 0), (0, +2), (+2, 0), (+1, +1), (+1, -1), each an array
    # (rows, cols) indexed by the top row and left column of the pair
    for di, dj, rows, cols in ((0, 0, m, m), (0, 2, m, m - 2), (2, 0, m - 2, m),
                               (1, 1, m - 1, m - 1), (1, -1, m - 1, m - 1)):
        r, c = np.indices((max(rows, 0), max(cols, 0)))
        left = c + (dj < 0)
        keep = black[r, left]
        p, q = order[r, left][keep], order[r + di, left + dj][keep]
        src.append(base + (r * cols + c)[keep])
        dst.append(q * (m + 1) + m - (q - p))
        base += r.size
    return np.flatnonzero(black), np.concatenate(src), np.concatenate(dst)


def darcy_solver(a: GridFunction):
    """Factor -div(a grad u) once; returns a map from forcing rows (k, n*n)
    to solution rows (k, n*n) with zero boundary.

    Red-black reduction: the five-point stencil couples each node only to
    nodes of the other colour (parity of i + j), so the red block D_R is
    diagonal, and eliminating it leaves the SPD nine-point Schur complement
    S = A_BB - A_BR D_R^-1 A_RB on half the unknowns, with bandwidth n - 2
    in row-major order. S is built straight into band storage and factored
    once by LAPACK's banded Cholesky (dpbtrf). Each row is solved alone, so
    memory stays flat and no row depends on the batch:
    u_B = S^-1 (f_B - A_BR D_R^-1 f_R), then u_R = D_R^-1 (f_R - A_RB u_B).
    The input rows are not modified."""
    if np.min(a.values) <= 0.0:  # a GridFunction is finite already
        raise DomainError("coefficient must be strictly positive")
    n, m = a.n, a.n - 2
    diag, vert, horiz = _stencil(a)
    black, src, dst = _red_black_maps(m)

    # each coupling over the diagonal of the neighbour it reaches
    to_east, to_west = horiz / diag[:, 1:], horiz / diag[:, :-1]
    to_north, to_south = vert / diag[1:], vert / diag[:-1]
    # diagonal: D_B minus coupling^2 / D_R over the four neighbours
    h2, v2 = horiz ** 2, vert ** 2
    entries = np.concatenate([
        (diag - _add_neighbours(np.zeros_like(diag), 1.0 / diag, h2, h2, v2, v2)).reshape(-1),
        -(to_east[:, :-1] * horiz[:, 1:]).reshape(-1),
        -(to_north[:-1] * vert[1:]).reshape(-1),
        -(to_east[:-1] * vert[:, 1:] + to_north[:, :-1] * horiz[1:]).reshape(-1),
        -(to_west[:-1] * vert[:, :-1] + to_north[:, 1:] * horiz[1:]).reshape(-1),
    ])
    band = np.zeros((black.size, m + 1))
    band.reshape(-1)[dst] = entries[src]
    chol, info = lapack.dpbtrf(band.T, overwrite_ab=1)
    if info > 0:
        raise NumericalError(f"banded Cholesky failed: leading minor {info} of "
                             "the reduced operator is not positive definite")

    def solve(fs: np.ndarray) -> np.ndarray:
        fs = np.asarray(fs, dtype=np.float64).reshape(-1, n, n)
        us = np.zeros_like(fs)
        for f, u in zip(fs, us):
            f = f[1:-1, 1:-1]
            # f_B - A_BR D_R^-1 f_R on the black nodes (red ones are unused)
            x = _add_neighbours(f.copy(), f, to_east, to_west, to_north, to_south)
            u_black, _ = lapack.dpbtrs(chol, x.reshape(-1)[black])
            x.reshape(-1)[black] = u_black
            # (f_R - A_RB u_B) / D_R on the red nodes, whose neighbours are black
            x = _add_neighbours(f.copy(), x, horiz, horiz, vert, vert)
            x /= diag
            x.reshape(-1)[black] = u_black
            u[1:-1, 1:-1] = x
        return us.reshape(-1, n * n)

    return solve


def solve_darcy(problem: EllipticProblem) -> GridFunction:
    """Direct solve of one elliptic problem (see `darcy_solver`)."""
    u = darcy_solver(problem.a)(problem.f.values)
    return GridFunction(BOX2D, problem.a.n, u[0])


# ---------------------------------------------------------------------------
# Burgers solver

def _wavenumbers(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)


def _dealias_mask(n: int) -> np.ndarray:
    freqs = np.fft.rfftfreq(n, d=1.0 / n)
    return freqs <= n / 3.0


def solve_burgers_batch(
    u0: np.ndarray, beta: float, t_final: float, cfl_safety: float = 0.5
) -> np.ndarray:
    """Advance a batch of initial conditions (rows) to t_final.

    Fourier pseudo-spectral in space with 2/3-rule dealiasing of the quadratic
    flux; diffusion handled exactly by integrating factors; classical RK4 in
    the transformed variable. Each row takes its own time step from the
    advective CFL bound on its own data (|u| obeys a maximum principle, so
    the initial data bounds the wave speed for all time). Rows are therefore
    independent of their batch: every output row equals the solve of that
    row alone, bit for bit. The rows are sorted by step count, and each step
    advances only the prefix that still has steps left.

    The state holds only the kc modes that the dealiasing keeps; irfft
    zero-pads the rest. Every stage is formed in place in preallocated
    buffers, one operation at a time in the order of the textbook expressions
        k1 = dt N(w),  k2 = dt N(E (w + k1/2)),  k3 = dt N(E w + k2/2),
        k4 = dt N(E^2 w + E k3),  w <- E^2 w + (E^2 k1 + 2E (k2 + k3) + k4)/6,
    with N(w) = -(ik/2) P rfft(irfft(w)^2) and P the projection on the kept
    modes. `u0` is not modified.
    """
    _check_burgers(beta, t_final)
    u0 = np.atleast_2d(np.asarray(u0, dtype=np.float64))
    rows, n = u0.shape
    if n & (n - 1) != 0:
        raise ShapeError(f"resolution {n} must be a power of two")
    h = 1.0 / n
    umax = np.maximum(np.max(np.abs(u0), axis=1, initial=0.0), 1e-8)
    steps = np.maximum(1, np.ceil(t_final * umax / (cfl_safety * h)).astype(np.int64))
    # most steps first, so the rows still stepping are always a prefix
    order = np.argsort(-steps, kind="stable")
    steps = steps[order]
    dt = t_final / steps[:, None]

    kc = int(np.count_nonzero(_dealias_mask(n)))
    k = _wavenumbers(n)[:kc]
    lam = -beta * k ** 2
    E = np.exp(0.5 * dt * lam)
    # the factors go in as complex, which is the exact cast that multiplying
    # a complex array by a real one makes on every call
    E2 = (E * E).astype(np.complex128)
    two_E = (2.0 * E).astype(np.complex128)
    E = E.astype(np.complex128)
    dt = dt.astype(np.complex128)
    minus_ik_half = -(0.5j * k)

    u = np.empty((rows, n))
    spectrum = np.empty((rows, n // 2 + 1), dtype=np.complex128)
    k1, k2, k3, k4, s1, s2 = (np.empty((rows, kc), dtype=np.complex128)
                              for _ in range(6))
    w = np.fft.rfft(u0[order])[:, :kc].copy()

    def nonlin(src, dst):
        """dst <- dt N(src) on the first len(src) rows; overwrites `u` and
        `spectrum` there."""
        lu, lspec = u[:len(src)], spectrum[:len(src)]
        np.fft.irfft(src, n=n, out=lu)
        np.multiply(lu, lu, out=lu)
        np.fft.rfft(lu, out=lspec)
        np.multiply(minus_ik_half, lspec[:, :kc], out=dst)
        dst *= dt[:len(src)]

    live = rows
    for step in range(steps.max(initial=0)):
        while steps[live - 1] <= step:
            live -= 1
        # views on the rows still stepping
        lw, l1, l2, l3, l4, ls1, ls2, lE, lE2, l2E = (
            a[:live] for a in (w, k1, k2, k3, k4, s1, s2, E, E2, two_E))
        nonlin(lw, l1)
        np.multiply(l1, 0.5, out=ls1)
        ls1 += lw
        ls1 *= lE
        nonlin(ls1, l2)
        np.multiply(lE, lw, out=ls1)
        np.multiply(l2, 0.5, out=ls2)
        ls1 += ls2
        nonlin(ls1, l3)
        np.multiply(lE2, lw, out=ls1)
        np.multiply(lE, l3, out=ls2)
        np.add(ls1, ls2, out=ls2)
        nonlin(ls2, l4)
        # w <- E2 w + (E2 k1 + 2E (k2 + k3) + k4) / 6, with s1 = E2 w
        l2 += l3
        l2 *= l2E
        l1 *= lE2
        l1 += l2
        l1 += l4
        l1 /= 6.0
        np.add(ls1, l1, out=lw)
        if step % 64 == 0 and not np.all(np.isfinite(lw.view(np.float64))):
            raise NumericalError(f"Burgers solve blew up at step {step}/{steps[0]}")
    np.fft.irfft(w, n=n, out=u)
    if not np.all(np.isfinite(u)):
        raise NumericalError("Burgers solve produced non-finite values")
    out = np.empty_like(u)
    out[order] = u
    return out


def oracle_burgers_colehopf(u0: np.ndarray, beta: float, t_final: float) -> np.ndarray:
    """Independent Cole-Hopf solution of u_t + (u^2/2)_s = beta u_ss on the
    unit torus, for one row of initial data; validation only.

    u = -2 beta d/ds log(theta) with theta the heat evolution of
    exp(-U0 / (2 beta)), U0 a periodic primitive of the (mean-zero) initial
    data. All derivatives and the heat semigroup are spectral and exact.
    """
    _check_burgers(beta, t_final)
    u0 = np.asarray(u0, dtype=np.float64)
    n = u0.size
    mean = float(np.mean(u0))
    if abs(mean) > 1e-10:
        raise DomainError(
            f"Cole-Hopf oracle needs mean-zero initial data (mean={mean:.3e})"
        )
    k = _wavenumbers(n)
    w0 = np.fft.rfft(u0)
    # periodic primitive with zero mean
    prim = np.zeros_like(w0)
    prim[1:] = w0[1:] / (1j * k[1:])
    U0 = np.fft.irfft(prim, n=n)
    theta0 = np.exp(-U0 / (2.0 * beta))
    decay = np.exp(-beta * k ** 2 * t_final)
    theta_hat = np.fft.rfft(theta0) * decay
    theta = np.fft.irfft(theta_hat, n=n)
    theta_s = np.fft.irfft(1j * k * theta_hat, n=n)
    return -2.0 * beta * theta_s / theta
