import numpy as np
import pytest

from opsurrogate.grid import (
    BOX2D,
    TORUS1D,
    GridFunction,
    ShapeError,
    from_callable,
    interpolate,
    norms,
    quadrature_weights,
    subsample,
)


def test_inner_product_of_ones_is_domain_measure():
    for n in (3, 17, 33):
        assert norms(BOX2D, n, np.ones((1, n * n)))[0] == pytest.approx(1.0, abs=1e-14)


def test_torus_trig_quadrature_is_exact():
    u = from_callable(TORUS1D, 64, lambda s: np.sin(2 * np.pi * s))
    assert norms(TORUS1D, 64, u.values)[0] ** 2 == pytest.approx(0.5, abs=1e-13)


def test_box_sine_product_near_quarter():
    u = from_callable(BOX2D, 129, lambda s1, s2: np.sin(np.pi * s1) * np.sin(np.pi * s2))
    assert norms(BOX2D, 129, u.values)[0] ** 2 == pytest.approx(0.25, abs=1e-3)


def test_quadrature_weights_sum_to_one():
    assert quadrature_weights(BOX2D, 17).sum() == pytest.approx(1.0, abs=1e-14)
    assert quadrature_weights(TORUS1D, 64).sum() == pytest.approx(1.0, abs=1e-14)


def test_box_weight_pattern():
    n = 5
    w = quadrature_weights(BOX2D, n).reshape(n, n)
    h2 = (1.0 / (n - 1)) ** 2
    assert w[2, 2] == pytest.approx(h2)
    assert w[0, 2] == pytest.approx(h2 / 2)
    assert w[0, 0] == pytest.approx(h2 / 4)


def test_inner_product_positive_definite():
    rng = np.random.default_rng(0)
    got = norms(BOX2D, 9, np.vstack([rng.standard_normal((3, 81)), np.zeros(81)]))
    assert got.shape == (4,) and np.all(got[:3] > 0) and got[3] == 0.0


def test_gridfunction_rejects_bad_values():
    with pytest.raises(ShapeError):
        GridFunction(BOX2D, 5, np.zeros(24))
    vals = np.zeros(25)
    vals[3] = np.nan
    with pytest.raises(ShapeError):
        GridFunction(BOX2D, 5, vals)


def test_subsample_1d_pattern():
    # keep rows/cols 0,2,4 of a 5x5 box grid
    v = subsample(BOX2D, 5, np.arange(25.0)[None, :], 3)
    assert v.shape == (1, 9)
    assert np.array_equal(v.reshape(3, 3)[:, 0], [0.0, 10.0, 20.0])


def test_subsample_resolutions():
    assert subsample(BOX2D, 421, np.zeros((1, 421 * 421)), 211).shape == (1, 211 * 211)
    v = subsample(TORUS1D, 4096, np.arange(4096.0)[None, :], 1024)
    assert np.array_equal(v[0], np.arange(4096.0)[::4])


def test_subsample_divisibility_errors():
    with pytest.raises(ShapeError):
        subsample(BOX2D, 6, np.zeros((1, 36)), 3)
    with pytest.raises(ShapeError):
        subsample(TORUS1D, 10, np.zeros((1, 10)), 4)


def test_interpolate_reproduces_constants_and_linears():
    v = interpolate(BOX2D, 9, np.full((1, 81), 3.25), 33)
    assert np.max(np.abs(v - 3.25)) == 0.0

    ramp = from_callable(BOX2D, 9, lambda s1, s2: s1)
    fine = interpolate(BOX2D, 9, ramp.values[None, :], 17)
    exact = from_callable(BOX2D, 17, lambda s1, s2: s1)
    assert np.max(np.abs(fine[0] - exact.values)) < 1e-12


def test_interpolate_sine_accuracy():
    u = from_callable(BOX2D, 33, lambda s1, s2: np.sin(np.pi * s1) * np.sin(np.pi * s2))
    fine = interpolate(BOX2D, 33, u.values[None, :], 65)
    exact = from_callable(BOX2D, 65, lambda s1, s2: np.sin(np.pi * s1) * np.sin(np.pi * s2))
    assert np.max(np.abs(fine[0] - exact.values)) < 1e-4


def test_interpolate_periodic_on_torus():
    u = from_callable(TORUS1D, 32, lambda s: np.sin(2 * np.pi * s))
    fine = interpolate(TORUS1D, 32, u.values[None, :], 128)
    exact = from_callable(TORUS1D, 128, lambda s: np.sin(2 * np.pi * s))
    assert np.max(np.abs(fine[0] - exact.values)) < 1e-4


def test_interpolate_then_subsample_recovers_source():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((3, 81))
    back = subsample(BOX2D, 17, interpolate(BOX2D, 9, u, 17), 9)
    assert np.max(np.abs(back - u)) < 1e-14

    ut = rng.standard_normal((3, 16))
    backt = subsample(TORUS1D, 64, interpolate(TORUS1D, 16, ut, 64), 16)
    assert np.max(np.abs(backt - ut)) < 1e-14


@pytest.mark.parametrize("domain, n, targets", [(BOX2D, 17, (33, 65, 9, 5)),
                                                (TORUS1D, 32, (64, 128, 16, 8))])
def test_batched_moves_equal_row_by_row_calls(domain, n, targets):
    rows = np.random.default_rng(4).standard_normal((6, n * n if domain == BOX2D else n))
    for target_n in targets:
        move = interpolate if target_n > n else subsample
        batched = move(domain, n, rows, target_n)
        assert batched.flags.c_contiguous
        singles = np.concatenate([move(domain, n, row[None, :], target_n) for row in rows])
        assert np.array_equal(batched, singles)


def test_norm_triangle_inequality():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 20, 81))
    assert np.all(norms(BOX2D, 9, a + b) <= norms(BOX2D, 9, a) + norms(BOX2D, 9, b) + 1e-12)
