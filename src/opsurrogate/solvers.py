"""Ground-truth forward maps: variable-coefficient elliptic flow on the unit
square (second-order conservative finite differences, homogeneous Dirichlet,
one sparse LU per operator) and the viscous Burgers flow map on the torus
(pseudo-spectral, dealiased, integrating-factor RK4).

A Cole-Hopf construction is included purely as an independent validation
oracle for the Burgers solver; it is never used in the surrogate pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg  # noqa: F401  (perfbench wraps this name; nothing calls it)
from scipy.sparse.linalg import splu

from .grid import BOX2D, TORUS1D, GridFunction, ShapeError


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


@dataclass(frozen=True)
class BurgersProblem:
    """u_t + (u^2/2)_s = beta u_ss on the unit torus, solved to t_final."""

    u0: GridFunction
    beta: float
    t_final: float

    def __post_init__(self):
        if self.u0.domain != TORUS1D:
            raise ShapeError("Burgers problems live on torus1d grids")
        if self.beta <= 0.0:
            raise DomainError("viscosity must be positive")
        if self.t_final <= 0.0:
            raise DomainError("t_final must be positive")


# ---------------------------------------------------------------------------
# elliptic solver

def _half_node_harmonic(a: np.ndarray, axis: int) -> np.ndarray:
    """Harmonic mean of adjacent nodes along an axis (flux coefficients)."""
    if axis == 0:
        left, right = a[:-1, :], a[1:, :]
    else:
        left, right = a[:, :-1], a[:, 1:]
    return 2.0 * left * right / (left + right)


def assemble_darcy_system(a: GridFunction):
    """Sparse SPD system for the interior unknowns of -div(a grad u) = f."""
    n = a.n
    if n < 3:
        raise ShapeError("need resolution >= 3 for interior unknowns")
    h = 1.0 / (n - 1)
    av = a.as_2d()
    # flux coefficients at half nodes, within the interior block
    a_s2 = _half_node_harmonic(av, axis=0)  # (n-1, n)
    a_s1 = _half_node_harmonic(av, axis=1)  # (n, n-1)
    m = n - 2
    # interior node (i, j), i = s2 index in 1..n-2
    aN = a_s2[1:, 1:-1]   # between (i, j) and (i+1, j)
    aS = a_s2[:-1, 1:-1]
    aE = a_s1[1:-1, 1:]
    aW = a_s1[1:-1, :-1]
    diag = (aN + aS + aE + aW).reshape(-1) / h ** 2
    east = aE.copy()
    east[:, -1] = 0.0
    west = aW.copy()
    west[:, 0] = 0.0
    diagonals = [
        diag,
        -east.reshape(-1)[:-1] / h ** 2,
        -west.reshape(-1)[1:] / h ** 2,
        -aN[:-1, :].reshape(-1) / h ** 2,
        -aS[1:, :].reshape(-1) / h ** 2,
    ]
    offsets = [0, 1, -1, m, -m]
    if m == 1:
        # one unknown: the off-diagonals are empty and +-m coincide with +-1
        diagonals, offsets = diagonals[:1], offsets[:1]
    return sp.diags(diagonals, offsets, format="csr")


def darcy_solver(a: GridFunction):
    """Factor -div(a grad u) once (SPD: symmetric ordering, no pivoting);
    returns a map from forcing rows (k, n*n) to solution rows (k, n*n) with
    zero boundary. Rows are solved one at a time, which keeps memory flat
    and each row independent of the rest of the batch."""
    n = a.n
    lu = splu(assemble_darcy_system(a).tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def solve(fs: np.ndarray) -> np.ndarray:
        fs = np.asarray(fs, dtype=np.float64).reshape(-1, n, n)
        us = np.zeros_like(fs)
        for f, u in zip(fs, us):
            u[1:-1, 1:-1] = lu.solve(f[1:-1, 1:-1].reshape(-1)).reshape(n - 2, n - 2)
        return us.reshape(-1, n * n)

    return solve


def solve_darcy(problem: EllipticProblem) -> GridFunction:
    """Direct sparse-LU solve of one elliptic problem.

    Flux coefficients use harmonic means of adjacent nodal values, which keeps
    second-order accuracy and is robust for discontinuous coefficients.
    """
    u = darcy_solver(problem.a)(problem.f.values)
    return GridFunction(BOX2D, problem.a.n, u[0])


def solve_poisson(f: GridFunction) -> GridFunction:
    """-Lap u = f with zero Dirichlet data (unit coefficient)."""
    ones = GridFunction(BOX2D, f.n, np.ones(f.n ** 2))
    return solve_darcy(EllipticProblem(ones, f))


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
    the transformed variable. One shared time step is picked from the
    advective CFL bound over the whole batch (|u| obeys a maximum principle,
    so the initial data bounds the wave speed for all time).

    Every stage is formed in place in preallocated buffers, one operation
    at a time in the order of the textbook expressions
        k1 = dt N(w),  k2 = dt N(E (w + k1/2)),  k3 = dt N(E w + k2/2),
        k4 = dt N(E^2 w + E k3),  w <- E^2 w + (E^2 k1 + 2E (k2 + k3) + k4)/6,
    with N(w) = -(ik/2) P rfft(irfft(w)^2) and P the dealiasing mask.
    `u0` is not modified.
    """
    u0 = np.atleast_2d(np.asarray(u0, dtype=np.float64))
    rows, n = u0.shape
    if n & (n - 1) != 0:
        raise ShapeError(f"resolution {n} must be a power of two")
    h = 1.0 / n
    umax = max(np.max(np.abs(u0)), 1e-8)
    steps = max(1, int(np.ceil(t_final * umax / (cfl_safety * h))))
    dt = t_final / steps

    k = _wavenumbers(n)
    mask = _dealias_mask(n)
    lam = -beta * k ** 2
    E = np.exp(0.5 * dt * lam)
    # the factors go in as complex, which is the exact cast that multiplying
    # a complex array by a real one makes on every call
    E2 = (E * E).astype(np.complex128)
    two_E = (2.0 * E).astype(np.complex128)
    E = E.astype(np.complex128)
    minus_ik_half = -(0.5j * k)

    u = np.empty((rows, n))
    k1, k2, k3, k4, s1, s2 = (np.empty((rows, n // 2 + 1), dtype=np.complex128)
                              for _ in range(6))

    def nonlin(src, dst):
        """dst <- dt N(src); overwrites `u`."""
        np.fft.irfft(src, n=n, out=u)
        np.multiply(u, u, out=u)
        np.fft.rfft(u, out=dst)
        dst *= mask
        np.multiply(minus_ik_half, dst, out=dst)
        dst *= dt

    w = np.fft.rfft(u0) * mask
    for step in range(steps):
        nonlin(w, k1)
        np.multiply(k1, 0.5, out=s1)
        s1 += w
        s1 *= E
        nonlin(s1, k2)
        np.multiply(E, w, out=s1)
        np.multiply(k2, 0.5, out=s2)
        s1 += s2
        nonlin(s1, k3)
        np.multiply(E2, w, out=s1)
        np.multiply(E, k3, out=s2)
        np.add(s1, s2, out=s2)
        nonlin(s2, k4)
        # w <- E2 w + (E2 k1 + 2E (k2 + k3) + k4) / 6, with s1 = E2 w
        k2 += k3
        k2 *= two_E
        k1 *= E2
        k1 += k2
        k1 += k4
        k1 /= 6.0
        np.add(s1, k1, out=w)
        if step % 64 == 0 and not np.all(np.isfinite(w.view(np.float64))):
            raise NumericalError(f"Burgers solve blew up at step {step}/{steps}")
    np.fft.irfft(w, n=n, out=u)
    if not np.all(np.isfinite(u)):
        raise NumericalError("Burgers solve produced non-finite values")
    return u


def solve_burgers(problem: BurgersProblem) -> GridFunction:
    out = solve_burgers_batch(
        problem.u0.values[None, :], problem.beta, problem.t_final
    )
    return GridFunction(TORUS1D, problem.u0.n, out[0])


def oracle_burgers_colehopf(problem: BurgersProblem) -> GridFunction:
    """Independent Cole-Hopf solution; validation only.

    u = -2 beta d/ds log(theta) with theta the heat evolution of
    exp(-U0 / (2 beta)), U0 a periodic primitive of the (mean-zero) initial
    data. All derivatives and the heat semigroup are spectral and exact.
    """
    u0 = problem.u0.values
    n = problem.u0.n
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
    theta0 = np.exp(-U0 / (2.0 * problem.beta))
    decay = np.exp(-problem.beta * k ** 2 * problem.t_final)
    theta_hat = np.fft.rfft(theta0) * decay
    theta = np.fft.irfft(theta_hat, n=n)
    theta_s = np.fft.irfft(1j * k * theta_hat, n=n)
    return GridFunction(TORUS1D, n, -2.0 * problem.beta * theta_s / theta)
