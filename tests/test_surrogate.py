import numpy as np
import pytest

from opsurrogate.grid import BOX2D, GridFunction, norms, quadrature_weights
from opsurrogate.pca import decode_batch, encode_batch, fit_pca
from opsurrogate.random_fields import (
    coeff_model_basis,
    coeff_model_spec,
    mu_g_spec,
    sample_field,
)
from opsurrogate.regressors import FitConfig, MlpModel, fit_linear
from opsurrogate.solvers import NumericalError, darcy_solver
from opsurrogate.surrogate import (
    RbSolver,
    Surrogate,
    code_scaling_stats,
    fit_surrogate,
    predict_batch,
    predict_function,
    relative_errors,
    relative_test_error,
    taylor_truncation_poisson,
)


def poisson_rows(fs, n):
    """-Lap u = f with zero Dirichlet data: rows of the a = 1 Darcy solve."""
    return darcy_solver(GridFunction(BOX2D, n, np.ones(n * n)))(fs)


def poisson_pairs(n, count, base_seed, cutoff=8):
    spec = mu_g_spec(cutoff=cutoff)
    xs = np.stack([sample_field(spec, n, seed=base_seed + i).values for i in range(count)])
    return xs, poisson_rows(xs, n)


@pytest.fixture(scope="module")
def poisson_data():
    return poisson_pairs(17, 48, base_seed=500)


def build_linear_surrogate(xs, ys, d):
    pca_in = fit_pca(xs, BOX2D, 17, d)
    pca_out = fit_pca(ys, BOX2D, 17, d)
    codes_in = encode_batch(pca_in, xs)
    mean, std = code_scaling_stats(codes_in)
    codes_out = encode_batch(pca_out, ys)
    reg = fit_linear((codes_in - mean) / std, codes_out)
    return Surrogate(pca_in, pca_out, reg, mean, std, np.zeros(d), np.ones(d))


def test_exact_composition_on_linear_problem(poisson_data):
    # full-rank d = N: the latent map is exactly affine, so the surrogate
    # reproduces the projected truth on training inputs
    xs, ys = poisson_data
    sur = build_linear_surrogate(xs, ys, d=48)
    err, _ = relative_test_error(sur, xs[:40], ys[:40])
    assert err < 1e-4


def test_zero_input_zero_bias_linear_gives_zero(poisson_data):
    xs, ys = poisson_data
    sur = build_linear_surrogate(xs, ys, d=6)
    zeroed = Surrogate(sur.pca_in, sur.pca_out,
                       MlpModel([sur.regressor.weights[0]], [np.zeros(6)]),
                       np.zeros(6), np.ones(6), np.zeros(6), np.ones(6))
    out = predict_function(zeroed, GridFunction(BOX2D, 17, np.zeros(17 * 17)))
    assert np.max(np.abs(out.values)) < 1e-12


def test_relative_error_of_zero_surrogate_is_one(poisson_data):
    xs, ys = poisson_data
    sur = build_linear_surrogate(xs, ys, d=6)
    dead = Surrogate(sur.pca_in, sur.pca_out,
                     MlpModel([np.zeros((6, 6))], [np.zeros(6)]),
                     sur.input_mean, sur.input_std, np.zeros(6), np.ones(6))
    assert relative_test_error(dead, xs[:10], ys[:10])[0] == pytest.approx(1.0, abs=1e-14)


def test_relative_error_scale_invariance(poisson_data):
    xs, ys = poisson_data
    sur = build_linear_surrogate(xs, ys, d=6)
    w = quadrature_weights(BOX2D, 17)
    preds = predict_batch(sur, xs[:10])
    r1, _ = relative_errors(preds, ys[:10], w)
    r2, _ = relative_errors(7.5 * preds, 7.5 * ys[:10], w)
    assert np.max(np.abs(r1 - r2)) < 1e-12


def test_relative_errors_skips_zero_norm_targets(poisson_data):
    xs, ys = poisson_data
    w = quadrature_weights(BOX2D, 17)
    targets = ys[:4].copy()
    targets[2] = 0.0
    with pytest.warns(RuntimeWarning):
        ratios, skipped = relative_errors(ys[:4], targets, w)
    assert skipped == 1
    assert len(ratios) == 3
    with pytest.raises(ValueError, match="zero norm"):
        relative_errors(ys[:4], np.zeros_like(targets), w)


def test_fit_surrogate_nn_hidden_and_test_history(poisson_data):
    xs, ys = poisson_data
    lin = build_linear_surrogate(xs, ys, d=6)
    sur, result = fit_surrogate(xs[:40], ys[:40], lin.pca_in, lin.pca_out,
                                FitConfig(d=6, epochs=3, hidden=(16,)),
                                test=(xs[40:], ys[40:]))
    assert sur.regressor.dims == [6, 16, 6]
    assert len(result.test_metric) == len(result.train_loss) == 4
    # the per-epoch metric runs the prediction path of the final surrogate
    assert result.test_metric[-1] == relative_test_error(sur, xs[40:], ys[40:])[0]


def test_predict_function_matches_predict_batch_row(poisson_data):
    xs, ys = poisson_data
    lin = build_linear_surrogate(xs, ys, d=6)
    nn, _ = fit_surrogate(xs, ys, lin.pca_in, lin.pca_out,
                          FitConfig(d=6, epochs=2, hidden=(16, 16)))
    for sur in (lin, nn):
        rows = predict_batch(sur, xs[:8])
        for x, row in zip(xs[:8], rows):
            out = predict_function(sur, GridFunction(BOX2D, 17, x)).values
            assert np.array_equal(out, predict_batch(sur, x[None, :])[0])
            # BLAS may take another kernel for one row than for many, so a
            # row of a larger batch agrees to rounding only
            assert np.max(np.abs(out - row)) <= 1e-12 * np.max(np.abs(row))


def test_predict_function_latent_isometry(poisson_data):
    xs, ys = poisson_data
    sur = build_linear_surrogate(xs, ys, d=6)
    rng = np.random.default_rng(1)
    delta = rng.standard_normal(6)
    base, moved = decode_batch(sur.pca_out, np.stack([np.zeros(6), delta]))
    assert norms(BOX2D, 17, moved - base)[0] == pytest.approx(np.linalg.norm(delta),
                                                             rel=1e-10)


def test_rb_recovers_solution_in_span():
    spec = mu_g_spec(cutoff=4)
    n = 33
    a = np.exp(0.3 * sample_field(spec, n, seed=1).values)
    f = np.ones(n * n)
    from opsurrogate.solvers import EllipticProblem, solve_darcy
    truth = solve_darcy(EllipticProblem(GridFunction(BOX2D, n, a),
                                        GridFunction(BOX2D, n, f)))
    pca = fit_pca(truth.values[None, :], BOX2D, n, d=1)
    out = RbSolver(pca).solve(a[None, :], f)
    assert out.shape == (1, n * n)
    diff_norm, truth_norm = norms(BOX2D, n, np.stack([out[0] - truth.values, truth.values]))
    rel = diff_norm / truth_norm
    assert rel < 1e-2


def test_rb_zero_forcing_gives_zero(poisson_data):
    xs, ys = poisson_data
    pca = fit_pca(ys, BOX2D, 17, d=5)
    out = RbSolver(pca).solve(np.ones((3, 17 * 17)), np.zeros(17 * 17))
    assert np.max(np.abs(out)) < 1e-12


def test_rb_batch_equals_single_row_solves():
    spec = mu_g_spec(cutoff=4)
    a_rows = np.stack([np.exp(0.3 * sample_field(spec, 17, seed=s).values)
                       for s in range(5)])
    f = np.ones(17 * 17)
    rb = RbSolver(fit_pca(a_rows, BOX2D, 17, d=4))
    batch = rb.solve(a_rows, f)
    singles = np.concatenate([rb.solve(a[None, :], f) for a in a_rows])
    assert np.array_equal(batch, singles)
    assert rb.solve(a_rows[:0], f).shape == (0, 17 * 17)
    with pytest.raises(NumericalError):
        rb.solve(np.vstack([a_rows, -a_rows[:1]]), f)


def test_taylor_zero_head_coefficients():
    spec = coeff_model_spec(cutoff=8)
    etas = taylor_truncation_poisson(spec, K=5, n=17)
    assert etas.shape == (5, 17 * 17)
    assert np.max(np.abs(np.zeros((1, 5)) @ etas)) == 0.0
    # the K basis solves share one factorisation and equal single solves
    for phi, eta in zip(coeff_model_basis(spec, 5, 17), etas):
        assert np.array_equal(poisson_rows(phi, 17)[0], eta)


def test_taylor_full_truncation_is_solver_exact():
    from opsurrogate.datasets import ProblemConfig, generate_dataset
    cfg = ProblemConfig(problem="coeff_model", resolution=17, count=8,
                        seed=3, coeff_dim=12)
    ds = generate_dataset(cfg)
    etas = taylor_truncation_poisson(cfg.measure(), K=12, n=17)
    w = quadrature_weights(BOX2D, 17)
    ratios, _ = relative_errors(ds.xis @ etas, ds.ys, w)
    assert np.max(ratios) < 1e-6
