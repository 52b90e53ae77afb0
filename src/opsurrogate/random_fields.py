"""Random input fields via truncated Karhunen-Loeve expansions.

Four measures are provided, all with closed-form Laplacian eigenbases:

  * mu_G: N(0, (-Lap + 9 I)^-2) on the unit square, zero Neumann boundary,
    expanded in the cosine eigenbasis.
  * mu_L: pointwise exp of a mu_G draw (log-normal).
  * mu_P: pointwise two-level threshold of a mu_G draw (piecewise constant).
  * mu_B: N(0, 7^4 (-d2/ds2 + 49 I)^-2.5) on the unit torus, Fourier basis.

Plus the uniform-coefficient input model f = sum_j xi_j sqrt(lambda_j) psi_j
with lambda_j, psi_j the eigenpairs of (-Lap + 100 I)^-4.1 (zero Neumann).

Modes are always evaluated pointwise on grid nodes, so sampling on a fine
grid and subsampling agrees exactly with sampling on the coarse grid from
the same seed and cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import BOX2D, TORUS1D, GridFunction


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# seeding

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; full-period 64-bit bijection."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed: int, index: int) -> int:
    """Per-sample seed: reproducible and safe to use in parallel workers."""
    return splitmix64(splitmix64(base_seed & _MASK64) ^ (index & _MASK64))


# ---------------------------------------------------------------------------
# measure specifications

MU_G = "mu_G"
MU_L = "mu_L"
MU_P = "mu_P"
MU_B = "mu_B"
COEFF_MODEL = "coeff_model"


@dataclass(frozen=True)
class MeasureSpec:
    """Parameters of one input measure.

    The covariance is scale * (-Lap + shift I)^-exponent; cutoff is the
    per-axis maximum wavenumber K of the KL truncation. high/low are the
    two levels of the mu_P threshold map.
    """

    kind: str
    shift: float = 9.0
    exponent: float = 2.0
    scale: float = 1.0
    cutoff: int = 32
    high: float = 12.0
    low: float = 3.0

    def __post_init__(self):
        if self.exponent <= 1.0:
            raise ConfigError("exponent must exceed 1 for a summable spectrum")
        if self.cutoff < 0:
            raise ConfigError("cutoff must be non-negative")


def mu_g_spec(cutoff: int = 32) -> MeasureSpec:
    return MeasureSpec(MU_G, shift=9.0, exponent=2.0, scale=1.0, cutoff=cutoff)


def mu_l_spec(cutoff: int = 32) -> MeasureSpec:
    return MeasureSpec(MU_L, shift=9.0, exponent=2.0, scale=1.0, cutoff=cutoff)


def mu_p_spec(cutoff: int = 32) -> MeasureSpec:
    return MeasureSpec(MU_P, shift=9.0, exponent=2.0, scale=1.0, cutoff=cutoff)


def mu_b_spec(cutoff: int = 128) -> MeasureSpec:
    return MeasureSpec(MU_B, shift=49.0, exponent=2.5, scale=7.0 ** 4, cutoff=cutoff)


def coeff_model_spec(cutoff: int = 32) -> MeasureSpec:
    return MeasureSpec(COEFF_MODEL, shift=100.0, exponent=4.1, scale=1.0, cutoff=cutoff)


def threshold_map(v: np.ndarray, high: float = 12.0, low: float = 3.0) -> np.ndarray:
    """The piecewise constant map T: high where v >= 0, low where v < 0."""
    return np.where(np.asarray(v) >= 0.0, high, low)


def nyquist_cutoff(domain: str, n: int) -> int:
    """Largest per-axis wavenumber representable without aliasing."""
    if domain == BOX2D:
        return n - 1
    return (n - 1) // 2


def _check_cutoff(domain: str, n: int, cutoff: int):
    limit = nyquist_cutoff(domain, n)
    if cutoff > limit:
        raise ConfigError(
            f"KL cutoff {cutoff} exceeds the Nyquist limit {limit} of a "
            f"{domain} grid with n={n}"
        )


# ---------------------------------------------------------------------------
# closed-form eigenbases

@lru_cache(maxsize=32)
def _cosine_basis_1d(n: int, cutoff: int) -> np.ndarray:
    """Matrix B[j, k] = c_k cos(pi k s_j) on the box axis grid; c_0=1, else sqrt(2)."""
    s = np.linspace(0.0, 1.0, n)
    k = np.arange(cutoff + 1)
    B = np.cos(np.pi * np.outer(s, k))
    B[:, 1:] *= np.sqrt(2.0)
    return B


def box_mode_stddevs(spec: MeasureSpec) -> np.ndarray:
    """sigma[k1, k2] = sqrt(scale) (pi^2 |k|^2 + shift)^(-exponent/2)."""
    k = np.arange(spec.cutoff + 1)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    return np.sqrt(spec.scale) * (np.pi ** 2 * k2 + spec.shift) ** (-spec.exponent / 2.0)


def _sample_gaussian_box(spec: MeasureSpec, n: int, seed: int) -> np.ndarray:
    _check_cutoff(BOX2D, n, spec.cutoff)
    K = spec.cutoff
    sigma = box_mode_stddevs(spec)
    B = _cosine_basis_1d(n, K)
    xi = np.random.default_rng(seed).standard_normal((K + 1, K + 1))  # index [k1, k2]
    # u[i2, i1] = sum_{k1,k2} sigma*xi [k1,k2] B[i2,k2] B[i1,k1]
    return (B @ (sigma * xi).T @ B.T).reshape(-1)


@lru_cache(maxsize=32)
def _torus_basis(n: int, cutoff: int) -> np.ndarray:
    """Rows: 1, sqrt(2)cos(2pi k s), sqrt(2)sin(2pi k s) for k = 1..cutoff."""
    s = np.arange(n) / n
    rows = [np.ones(n)]
    for k in range(1, cutoff + 1):
        rows.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * k * s))
        rows.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * k * s))
    return np.asarray(rows)


def torus_mode_stddevs(spec: MeasureSpec) -> np.ndarray:
    """Per-row stddevs matching _torus_basis ordering (cos/sin share sigma_k)."""
    k = np.arange(spec.cutoff + 1)
    sigma_k = np.sqrt(spec.scale) * ((2.0 * np.pi * k) ** 2 + spec.shift) ** (
        -spec.exponent / 2.0
    )
    return np.repeat(sigma_k, [1] + [2] * spec.cutoff)


def _sample_mu_b(spec: MeasureSpec, n: int, seed: int) -> np.ndarray:
    _check_cutoff(TORUS1D, n, spec.cutoff)
    sigma = torus_mode_stddevs(spec)
    xi = np.random.default_rng(seed).standard_normal((1, sigma.size))
    return ((xi * sigma) @ _torus_basis(n, spec.cutoff))[0]


# ---------------------------------------------------------------------------
# uniform coefficient model

@lru_cache(maxsize=8)
def coeff_model_modes(shift: float, exponent: float, max_wavenumber: int):
    """Ordered mode table for the coefficient model.

    Returns (wavenumbers, eigenvalues): wavenumbers is an (m, 2) int array of
    (k1, k2) pairs sorted by decreasing eigenvalue of (-Lap + shift I)^-exponent,
    ties broken lexicographically.
    """
    k = np.arange(max_wavenumber + 1)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    pairs = np.stack([k1.reshape(-1), k2.reshape(-1)], axis=1)
    lam = (np.pi ** 2 * (pairs[:, 0] ** 2 + pairs[:, 1] ** 2) + shift) ** (-exponent)
    order = np.lexsort((pairs[:, 1], pairs[:, 0], -lam))
    return pairs[order], lam[order]


def coeff_model_basis(spec: MeasureSpec, d: int, n: int) -> np.ndarray:
    """phi_j = sqrt(lambda_j) psi_j evaluated on the grid; shape (d, n*n)."""
    pairs, lam = coeff_model_modes(spec.shift, spec.exponent, spec.cutoff)
    if d > len(lam):
        raise ConfigError(f"requested {d} modes, only {len(lam)} available")
    _check_cutoff(BOX2D, n, int(pairs[:d].max()))
    B = _cosine_basis_1d(n, spec.cutoff)
    out = np.empty((d, n * n))
    for j in range(d):
        kk1, kk2 = pairs[j]
        out[j] = np.sqrt(lam[j]) * np.outer(B[:, kk2], B[:, kk1]).reshape(-1)
    return out


def coeff_model_sup_norms(spec: MeasureSpec, count: int) -> np.ndarray:
    """||phi_j||_Linf for the first `count` ordered modes (closed form)."""
    pairs, lam = coeff_model_modes(spec.shift, spec.exponent, spec.cutoff)
    if count > len(lam):
        raise ConfigError(f"requested {count} modes, only {len(lam)} available")
    c = np.where(pairs[:count] == 0, 1.0, np.sqrt(2.0))
    return np.sqrt(lam[:count]) * c[:, 0] * c[:, 1]


# ---------------------------------------------------------------------------
# unified entry point used by the dataset generator

def sample_field(spec: MeasureSpec, n: int, seed: int) -> GridFunction:
    if spec.kind == MU_B:
        return GridFunction(TORUS1D, n, _sample_mu_b(spec, n, seed))
    if spec.kind not in (MU_G, MU_L, MU_P):
        raise ConfigError(f"expected a mu_G-family or mu_B spec, got {spec.kind}")
    g = _sample_gaussian_box(spec, n, seed)
    if spec.kind == MU_L:
        g = np.exp(g)
    elif spec.kind == MU_P:
        g = threshold_map(g, spec.high, spec.low)
    return GridFunction(BOX2D, n, g)
