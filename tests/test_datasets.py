import os

import numpy as np
import pytest

from opsurrogate.datasets import (
    FormatError,
    ProblemConfig,
    fixed_coefficient,
    generate_dataset,
    read_dataset,
    read_meta,
    subsample_dataset,
    write_dataset,
    write_meta,
)
from opsurrogate.grid import ShapeError
from opsurrogate.pca import fit_pca, transfer_basis
from opsurrogate.protocols import dataset_hash
from opsurrogate.random_fields import derive_seed, sample_field


def assert_rows_are_sampled(ds):
    """Each input row is the `sample_field` draw of its derived seed, bit for bit."""
    cfg = ds.config
    for i, x in enumerate(ds.xs):
        drawn = sample_field(cfg.measure(), cfg.resolution, derive_seed(cfg.seed, i)).values
        assert np.array_equal(x.view(np.uint64), drawn.view(np.uint64))


def test_burgers_file_sizes(tmp_path):
    cfg = ProblemConfig(problem="burgers", resolution=256, count=2, seed=1)
    ds = generate_dataset(cfg)
    path = tmp_path / "bu"
    write_dataset(ds, str(path))
    assert os.path.getsize(path / "x.f64") == 2 * 256 * 8
    assert os.path.getsize(path / "y.f64") == 2 * 256 * 8


def test_regeneration_is_byte_identical(tmp_path):
    cfg = ProblemConfig(problem="darcy_lognormal", resolution=17, count=4, seed=2)
    p1, p2 = tmp_path / "a", tmp_path / "b"
    write_dataset(generate_dataset(cfg), str(p1))
    write_dataset(generate_dataset(cfg), str(p2))
    for name in sorted(os.listdir(p1)):
        assert (p1 / name).read_bytes() == (p2 / name).read_bytes()


def test_piecewise_inputs_are_two_valued():
    cfg = ProblemConfig(problem="darcy_piecewise", resolution=17, count=4, seed=3)
    ds = generate_dataset(cfg)
    assert set(np.unique(ds.xs)) <= {3.0, 12.0}


def test_roundtrip_is_exact(tmp_path):
    cfg = ProblemConfig(problem="coeff_model", resolution=17, count=6, seed=4,
                        coeff_dim=10)
    ds = generate_dataset(cfg)
    path = str(tmp_path / "cm")
    write_dataset(ds, path)
    back = read_dataset(path)
    assert np.array_equal(ds.xs, back.xs)
    assert np.array_equal(ds.ys, back.ys)
    assert np.array_equal(ds.xis, back.xis)
    assert back.config == ds.config


def test_meta_roundtrip(tmp_path):
    meta = {"problem": "poisson", "count": 12, "beta": 0.01,
            "note": "free text value"}
    path = str(tmp_path / "meta")
    write_meta(path, meta)
    back = read_meta(path)
    assert back["problem"] == "poisson"
    assert int(back["count"]) == 12
    assert float(back["beta"]) == 0.01
    assert back["note"] == "free text value"


def test_subsample_dataset_matches_coarse_sampling():
    # input fields agree bit-for-bit with directly sampling the coarse grid
    # when the KL cutoff is shared
    fine = generate_dataset(ProblemConfig(problem="darcy_lognormal",
                                          resolution=33, count=4, seed=5,
                                          cutoff=8))
    coarse_direct = generate_dataset(ProblemConfig(problem="darcy_lognormal",
                                                   resolution=17, count=4,
                                                   seed=5, cutoff=8))
    sub = subsample_dataset(fine, 17)
    assert np.array_equal(sub.xs, coarse_direct.xs)
    assert sub.resolution == 17
    # outputs at the coarse grid are the subsampled fine solves, not re-solves
    assert sub.ys.shape == (4, 17 * 17)


def test_subsample_requires_nested_grids():
    ds = generate_dataset(ProblemConfig(problem="poisson", resolution=17,
                                        count=2, seed=6))
    with pytest.raises(ShapeError) as from_dataset:
        subsample_dataset(ds, 12)
    # the same nesting rule, and error, as moving a PCA basis to a coarser grid
    with pytest.raises(ShapeError) as from_basis:
        transfer_basis(fit_pca(ds.xs, ds.config.domain, 17, d=2), 12)
    assert str(from_dataset.value) == str(from_basis.value)


def test_read_rejects_truncated_tensor(tmp_path):
    ds = generate_dataset(ProblemConfig(problem="poisson", resolution=17,
                                        count=4, seed=8))
    path = tmp_path / "ds"
    write_dataset(ds, str(path))
    x = path / "x.f64"
    x.write_bytes(x.read_bytes()[:96])
    with pytest.raises(FormatError) as exc:
        read_dataset(str(path))
    message = str(exc.value)
    assert str(x) in message and str(4 * 289 * 8) in message and "96" in message


def _poisson_on_disk(tmp_path, count=4):
    ds = generate_dataset(ProblemConfig(problem="poisson", resolution=9,
                                        count=count, seed=8))
    path = tmp_path / "ds"
    write_dataset(ds, str(path))
    return path, read_meta(str(path / "meta"))


def test_read_rejects_missing_meta_key(tmp_path):
    path, meta = _poisson_on_disk(tmp_path)
    del meta["problem"]
    write_meta(str(path / "meta"), meta)
    with pytest.raises(FormatError) as exc:
        read_dataset(str(path))
    assert str(path / "meta") in str(exc.value) and "'problem'" in str(exc.value)


@pytest.mark.parametrize("key, value", [("x_shape", "4xabc"), ("resolution", "nine"),
                                        ("format_version", "one"), ("problem", "heat")])
def test_read_rejects_unparsable_meta_value(tmp_path, key, value):
    path, meta = _poisson_on_disk(tmp_path)
    meta[key] = value
    write_meta(str(path / "meta"), meta)
    with pytest.raises(FormatError) as exc:
        read_dataset(str(path))
    assert str(path / "meta") in str(exc.value) and key in str(exc.value)


def test_read_rejects_count_that_disagrees_with_rows(tmp_path):
    path, meta = _poisson_on_disk(tmp_path, count=8)
    meta["count"] = 3
    write_meta(str(path / "meta"), meta)
    with pytest.raises(FormatError) as exc:
        read_dataset(str(path))
    message = str(exc.value)
    assert str(path / "meta") in message and "count = 3" in message and "8 rows" in message


def test_read_rejects_rows_that_do_not_fit_resolution(tmp_path):
    path, meta = _poisson_on_disk(tmp_path)
    meta["resolution"] = 17
    write_meta(str(path / "meta"), meta)
    with pytest.raises(FormatError) as exc:
        read_dataset(str(path))
    message = str(exc.value)
    assert str(path / "meta") in message and "81 points" in message and "289" in message


def test_read_rejects_non_finite_rows(tmp_path):
    path, _ = _poisson_on_disk(tmp_path)
    x = np.fromfile(path / "x.f64", dtype="<f8").reshape(4, 81)
    x[2, 40] = np.nan
    x[3, 0] = np.inf
    x.tofile(path / "x.f64")
    with pytest.raises(FormatError) as exc:
        read_dataset(str(path))
    message = str(exc.value)
    assert str(path / "x.f64") in message and "row 2 " in message


def test_burgers_samples_do_not_depend_on_the_count():
    cfg = ProblemConfig(problem="burgers", resolution=256, count=256, seed=15)
    full = generate_dataset(cfg)
    head = generate_dataset(ProblemConfig(problem="burgers", resolution=256,
                                          count=32, seed=15))
    assert np.array_equal(head.xs, full.xs[:32])
    assert np.array_equal(head.ys.view(np.uint64), full.ys[:32].view(np.uint64))
    assert_rows_are_sampled(full)


def test_fixed_coefficient_is_deterministic():
    a1 = fixed_coefficient(33)
    a2 = fixed_coefficient(33)
    assert np.array_equal(a1.values, a2.values)
    assert set(np.unique(a1.values)) <= {3.0, 12.0}


def test_linear_elliptic_uses_frozen_coefficient():
    ds1 = generate_dataset(ProblemConfig(problem="linear_elliptic",
                                         resolution=17, count=3, seed=7))
    ds2 = generate_dataset(ProblemConfig(problem="linear_elliptic",
                                         resolution=17, count=3, seed=8))
    # inputs are the forcings, so different seeds change xs but the hidden
    # coefficient stays fixed; solving ds1's inputs again must reproduce ys
    assert not np.array_equal(ds1.xs, ds2.xs)
    from opsurrogate.grid import BOX2D, GridFunction
    from opsurrogate.solvers import EllipticProblem, solve_darcy
    a = fixed_coefficient(17)
    y0 = solve_darcy(EllipticProblem(a, GridFunction(BOX2D, 17, ds1.xs[0])))
    assert np.max(np.abs(y0.values - ds1.ys[0])) < 1e-10


@pytest.mark.parametrize("problem", ["linear_elliptic", "poisson", "coeff_model"])
def test_shared_operator_rows_equal_single_solves(problem):
    from opsurrogate.grid import BOX2D, GridFunction
    from opsurrogate.solvers import EllipticProblem, solve_darcy
    ds = generate_dataset(ProblemConfig(problem=problem, resolution=17, count=4,
                                        seed=5, coeff_dim=10))
    a = (fixed_coefficient(17) if problem == "linear_elliptic"
         else GridFunction(BOX2D, 17, np.ones(17 * 17)))
    for x, y in zip(ds.xs, ds.ys):
        u = solve_darcy(EllipticProblem(a, GridFunction(BOX2D, 17, x)))
        assert np.array_equal(u.values, y)


@pytest.mark.parametrize("problem", ["linear_elliptic", "poisson", "coeff_model",
                                     "darcy_lognormal", "darcy_piecewise"])
def test_elliptic_samples_solve_the_assembled_system(problem):
    from opsurrogate.grid import BOX2D, GridFunction
    from opsurrogate.solvers import assemble_darcy_system
    n = 17
    ds = generate_dataset(ProblemConfig(problem=problem, resolution=n, count=4,
                                        seed=6, coeff_dim=10))
    if problem != "coeff_model":  # the other four draw their inputs from a measure
        assert_rows_are_sampled(ds)
    ones = GridFunction(BOX2D, n, np.ones(n * n))
    for x, y in zip(ds.xs, ds.ys):
        x = GridFunction(BOX2D, n, x)
        if problem.startswith("darcy_"):  # coefficient -> solution, f = 1
            a, f = x, ones
        else:
            a, f = (fixed_coefficient(n) if problem == "linear_elliptic" else ones), x
        b = f.as_2d()[1:-1, 1:-1].reshape(-1)
        u = y.reshape(n, n)
        assert np.all(u[[0, -1], :] == 0.0) and np.all(u[:, [0, -1]] == 0.0)
        r = assemble_darcy_system(a) @ u[1:-1, 1:-1].reshape(-1) - b
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)


def test_read_ignores_legacy_solver_rtol(tmp_path):
    cfg = ProblemConfig(problem="poisson", resolution=17, count=3, seed=4)
    ds = generate_dataset(cfg)
    path = str(tmp_path / "old")
    write_dataset(ds, path)
    meta = read_meta(os.path.join(path, "meta"))
    assert "solver_rtol" not in meta
    meta["solver_rtol"] = 1e-10  # written by versions with an iterative solver
    write_meta(os.path.join(path, "meta"), meta)
    back = read_dataset(path)
    assert back.config == cfg
    assert np.array_equal(back.ys, ds.ys)


def test_dataset_hash_stability():
    cfg = ProblemConfig(problem="poisson", resolution=17, count=3, seed=9)
    h1 = dataset_hash(generate_dataset(cfg))
    h2 = dataset_hash(generate_dataset(cfg))
    assert h1 == h2
    h3 = dataset_hash(generate_dataset(
        ProblemConfig(problem="poisson", resolution=17, count=3, seed=10)))
    assert h1 != h3
