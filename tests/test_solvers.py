import numpy as np
import pytest

from opsurrogate.grid import BOX2D, TORUS1D, GridFunction, from_callable, norms
from opsurrogate.solvers import (
    DomainError,
    EllipticProblem,
    NumericalError,
    assemble_darcy_system,
    darcy_solver,
    oracle_burgers_colehopf,
    solve_burgers_batch,
    solve_darcy,
)


def poisson_rows(fs, n):
    """-Lap u = f with zero Dirichlet data: rows of the a = 1 Darcy solve."""
    return darcy_solver(GridFunction(BOX2D, n, np.ones(n * n)))(fs)


def rel_l2(u, ref):
    diff_norm, ref_norm = norms(TORUS1D, ref.size, np.stack([u - ref, ref]))
    return diff_norm / ref_norm


def manufactured_error(n):
    f = from_callable(BOX2D, n, lambda s1, s2:
                      2 * np.pi ** 2 * np.sin(np.pi * s1) * np.sin(np.pi * s2))
    exact = from_callable(BOX2D, n, lambda s1, s2:
                          np.sin(np.pi * s1) * np.sin(np.pi * s2))
    u = poisson_rows(f.values, n)[0]
    return np.max(np.abs(u - exact.values))


def test_darcy_second_order_convergence():
    errs = [manufactured_error(n) for n in (17, 33, 65)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8) and np.all(orders < 2.2)


def test_zero_forcing_gives_zero_solution():
    u = poisson_rows(np.zeros((1, 17 * 17)), 17)
    assert np.max(np.abs(u)) < 1e-14


def test_poisson_center_value():
    u = poisson_rows(np.ones((1, 129 * 129)), 129)[0]
    mid = (129 // 2) * 129 + 129 // 2
    assert u[mid] == pytest.approx(0.07367, abs=1e-3)


def test_poisson_linearity():
    rng = np.random.default_rng(1)
    n = 17
    f1, f2 = rng.standard_normal((2, n * n))
    alpha = 2.5
    lhs = poisson_rows(alpha * f1 + f2, n)[0]
    u1, u2 = poisson_rows(np.stack([f1, f2]), n)
    rhs = alpha * u1 + u2
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_darcy_maximum_principle():
    rng = np.random.default_rng(2)
    n = 17
    a = GridFunction(BOX2D, n, np.exp(0.5 * rng.standard_normal(n * n)))
    f = GridFunction(BOX2D, n, np.abs(rng.standard_normal(n * n)))
    u = solve_darcy(EllipticProblem(a, f))
    assert np.min(u.values) > -1e-12


def test_darcy_symmetry_under_transpose():
    n = 17
    a = from_callable(BOX2D, n, lambda s1, s2: 1.0 + s1 * s2)
    f = from_callable(BOX2D, n, lambda s1, s2: np.exp(-(s1 - s2) ** 2))
    u = solve_darcy(EllipticProblem(a, f)).values.reshape(n, n)
    assert np.max(np.abs(u - u.T)) < 1e-9


def test_darcy_solver_maps_empty_batch_to_empty_batch():
    ones = GridFunction(BOX2D, 17, np.ones(17 * 17))
    assert darcy_solver(ones)(np.zeros((0, 17 * 17))).shape == (0, 17 * 17)


def test_single_interior_unknown_is_solved():
    # n = 3 leaves one unknown; with a = f = 1 and h = 1/2 the 5-point
    # stencil gives 16 u = 1
    u = poisson_rows(np.ones(9), 3)[0]
    expected = np.zeros(9)
    expected[4] = 1.0 / 16.0
    assert np.array_equal(u, expected)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 17])
def test_darcy_solver_matches_dense_solve(n):
    # n = 3 leaves one unknown, and n - 2 takes both parities
    rng = np.random.default_rng(n)
    a = GridFunction(BOX2D, n, np.exp(rng.standard_normal(n * n)))
    fs = rng.standard_normal((3, n * n))
    before = fs.copy()
    us = darcy_solver(a)(fs)
    assert np.array_equal(fs, before)
    A = assemble_darcy_system(a).toarray()
    for f, u in zip(fs, us.reshape(-1, n, n)):
        exact = np.linalg.solve(A, f.reshape(n, n)[1:-1, 1:-1].reshape(-1))
        assert np.all(u[[0, -1], :] == 0.0) and np.all(u[:, [0, -1]] == 0.0)
        err = np.max(np.abs(u[1:-1, 1:-1].reshape(-1) - exact))
        assert err <= 1e-12 * np.max(np.abs(exact))


def test_darcy_piecewise_sample_solves_its_system_at_65():
    from opsurrogate.datasets import ProblemConfig, generate_dataset
    n = 65
    ds = generate_dataset(ProblemConfig("darcy_piecewise", n, 2, seed=3))
    f = np.ones((n - 2) ** 2)
    for x, y in zip(ds.xs, ds.ys):
        A = assemble_darcy_system(GridFunction(BOX2D, n, x))
        r = A @ y.reshape(n, n)[1:-1, 1:-1].reshape(-1) - f
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(f)


def test_darcy_solver_reports_a_failed_cholesky():
    # a contrast of 1e20 around the centre node cancels its reduced diagonal
    # to rounding; the centre is the third black node in row-major order
    a = np.ones((5, 5))
    a[2, 1:4] = a[1:4, 2] = 1e20
    with pytest.raises(NumericalError, match="leading minor 3"):
        darcy_solver(GridFunction(BOX2D, 5, a.reshape(-1)))


def test_darcy_rejects_nonpositive_coefficient():
    n = 9
    a = GridFunction(BOX2D, n, np.ones(n * n))
    a_bad = GridFunction(BOX2D, n, a.values - 1.0)
    f = GridFunction(BOX2D, n, np.ones(n * n))
    with pytest.raises(DomainError):
        EllipticProblem(a_bad, f)
    with pytest.raises(DomainError):
        darcy_solver(a_bad)
    # a = -1 would otherwise solve the negated problem
    with pytest.raises(DomainError):
        darcy_solver(GridFunction(BOX2D, 5, np.full(25, -1.0)))


def test_burgers_zero_fixed_point():
    u = solve_burgers_batch(np.zeros(64), 0.01, 1.0)[0]
    assert np.max(np.abs(u)) == 0.0


def test_burgers_matches_colehopf():
    u0 = from_callable(TORUS1D, 1024, lambda s: np.sin(2 * np.pi * s)).values
    u = solve_burgers_batch(u0, 0.05, 0.5)[0]
    assert rel_l2(u, oracle_burgers_colehopf(u0, 0.05, 0.5)) < 1e-6


def test_burgers_mean_conservation():
    rng = np.random.default_rng(4)
    u0 = 0.3 + 0.5 * rng.standard_normal(128)
    u = solve_burgers_batch(u0, 0.02, 0.7)[0]
    assert abs(np.mean(u) - np.mean(u0)) < 1e-12


def test_burgers_energy_dissipation():
    u0 = from_callable(TORUS1D, 256, lambda s: np.sin(2 * np.pi * s) + 0.3 * np.sin(6 * np.pi * s))
    us = [solve_burgers_batch(u0.values, 0.01, t)[0] for t in (0.1, 0.3, 0.6, 1.0)]
    energy = norms(TORUS1D, 256, np.stack([u0.values, *us]))
    assert np.all(np.diff(energy) <= 1e-12)


def _reference_burgers_batch(u0, beta, t_final, cfl_safety=0.5):
    """The allocating integrating-factor RK4 loop that the in-place one
    replaced, kept as the reference it must reproduce bit for bit."""
    u0 = np.atleast_2d(np.asarray(u0, dtype=np.float64))
    n = u0.shape[1]
    umax = max(np.max(np.abs(u0)), 1e-8)
    steps = max(1, int(np.ceil(t_final * umax / (cfl_safety * (1.0 / n)))))
    dt = t_final / steps
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    mask = np.fft.rfftfreq(n, d=1.0 / n) <= n / 3.0
    E = np.exp(0.5 * dt * (-beta * k ** 2))
    E2 = E * E
    ik_half = 0.5j * k

    def nonlin(w):
        u = np.fft.irfft(w, n=n)
        return -ik_half * (np.fft.rfft(u * u) * mask)

    w = np.fft.rfft(u0) * mask
    for _ in range(steps):
        k1 = dt * nonlin(w)
        k2 = dt * nonlin(E * (w + 0.5 * k1))
        k3 = dt * nonlin(E * w + 0.5 * k2)
        k4 = dt * nonlin(E2 * w + E * k3)
        w = E2 * w + (E2 * k1 + 2.0 * E * (k2 + k3) + k4) / 6.0
    return np.fft.irfft(w, n=n)


@pytest.mark.parametrize("rows, n, beta, t_final", [(6, 64, 0.01, 0.2),
                                                    (3, 256, 0.002, 0.5),
                                                    (1, 32, 0.05, 1.0)])
def test_burgers_batch_matches_allocating_reference_bit_for_bit(rows, n, beta, t_final):
    rng = np.random.default_rng(rows)
    u0 = np.cumsum(rng.standard_normal((rows, n)), axis=1)
    u0 -= u0.mean(axis=1, keepdims=True)
    u0 /= np.max(np.abs(u0))
    before = u0.copy()
    out = solve_burgers_batch(u0, beta, t_final)
    # each row takes its own step, so the reference runs one row at a time
    ref = np.stack([_reference_burgers_batch(before[i:i + 1], beta, t_final)[0]
                    for i in range(rows)])
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(u0.view(np.uint64), before.view(np.uint64))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_burgers_batch_rows_are_independent_of_their_batch():
    # amplitudes 0.05..1 make the per-row step counts differ by more than 10x,
    # and the all-zero row takes a single step
    n, beta, t_final = 64, 0.01, 1.0
    rng = np.random.default_rng(5)
    u0 = np.cumsum(rng.standard_normal((7, n)), axis=1)
    u0 -= u0.mean(axis=1, keepdims=True)
    u0 /= np.max(np.abs(u0), axis=1, keepdims=True)
    u0 *= np.linspace(0.05, 1.0, 7)[:, None]
    u0 = np.vstack([u0, np.zeros(n)])
    out = solve_burgers_batch(u0, beta, t_final)
    for row, got in zip(u0, out):
        alone = solve_burgers_batch(row, beta, t_final)[0]
        assert np.array_equal(_bits(got), _bits(alone))
    perm = np.random.default_rng(6).permutation(len(u0))
    assert np.array_equal(_bits(solve_burgers_batch(u0[perm], beta, t_final)),
                          _bits(out[perm]))


def test_burgers_requires_power_of_two():
    with pytest.raises((DomainError, ValueError)):
        solve_burgers_batch(np.zeros(100), 0.01, 1.0)


def test_burgers_problem_invariants():
    # the oracle checks the viscosity and final time like the batch solver
    u0 = np.zeros(64)
    with pytest.raises(DomainError):
        oracle_burgers_colehopf(u0, beta=-1.0, t_final=1.0)
    with pytest.raises(DomainError):
        oracle_burgers_colehopf(u0, beta=0.01, t_final=0.0)


@pytest.mark.parametrize("beta, t_final", [(-1.0, 1.0), (np.nan, 1.0), (0.0, 1.0),
                                           (0.01, np.inf), (0.01, 0.0), (0.01, np.nan)])
def test_burgers_batch_rejects_bad_parameters_before_stepping(beta, t_final):
    u0 = np.sin(2 * np.pi * np.arange(16) / 16)[None, :]
    with pytest.raises(DomainError):
        solve_burgers_batch(u0, beta, t_final)
    with pytest.raises(DomainError):
        oracle_burgers_colehopf(u0[0], beta, t_final)


def test_colehopf_zero_input():
    u = oracle_burgers_colehopf(np.zeros(64), beta=0.05, t_final=0.5)
    assert np.max(np.abs(u)) < 1e-13


def test_colehopf_rejects_nonzero_mean():
    with pytest.raises(DomainError):
        oracle_burgers_colehopf(np.ones(64), beta=0.05, t_final=0.5)


def test_colehopf_large_viscosity_linearizes():
    # at beta = 1 and small amplitude the dynamics are essentially the heat
    # equation: u(t) ~ eps * exp(-beta (2pi)^2 t) sin(2pi s)
    eps = 1e-3
    n = 256
    u0 = from_callable(TORUS1D, n, lambda s: eps * np.sin(2 * np.pi * s))
    u = oracle_burgers_colehopf(u0.values, beta=1.0, t_final=0.1)
    lin = from_callable(TORUS1D, n, lambda s:
                        eps * np.exp(-1.0 * (2 * np.pi) ** 2 * 0.1) * np.sin(2 * np.pi * s))
    assert rel_l2(u, lin.values) < 1e-2
