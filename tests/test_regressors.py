import warnings

import numpy as np
import pytest

from opsurrogate import regressors
from opsurrogate.regressors import (
    NESTEROV_BLOCK,
    SELU_ALPHA,
    SELU_LAMBDA,
    LinearModel,
    MlpModel,
    TrainConfig,
    TrainingError,
    fit_linear,
    init_mlp,
    mlp_forward,
    mlp_loss,
    mlp_loss_and_grads,
    nesterov_step,
    nesterov_theta,
    predict,
    selu,
    selu_prime,
    train_mlp,
)


def test_selu_values():
    assert selu(0.0) == 0.0
    assert selu(1.0) == pytest.approx(1.0507009873554805, rel=1e-15)
    assert selu(-60.0) == pytest.approx(-SELU_LAMBDA * SELU_ALPHA, rel=1e-12)


def test_selu_keeps_float32_and_widens_everything_else():
    for value in (1.0, -1.0, 2, np.float64(0.5), [0.5, -0.5]):
        assert selu(value).dtype == np.float64
        assert selu_prime(value).dtype == np.float64
    x32 = np.array([-1.0, 0.5], dtype=np.float32)
    for x in (x32, np.float32(-1.0)):
        assert selu(x).dtype == np.float32 and selu_prime(x).dtype == np.float32
    assert np.allclose(selu(x32), selu(x32.astype(np.float64)), rtol=1e-6)


# The select-based SELU and derivative that the mask-free ufunc forms
# replaced, kept as the reference they must reproduce bit for bit.

def _reference_selu(x):
    return SELU_LAMBDA * np.where(x > 0.0, x, SELU_ALPHA * np.expm1(x))


def _reference_selu_prime(x):
    return SELU_LAMBDA * np.where(x > 0.0, 1.0, SELU_ALPHA * np.exp(x))


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}")))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_selu_and_derivative_match_the_select_formulas_bit_for_bit(dtype):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30, -1e-30, 100.0, -100.0,
               1e-45, -1e-45, 88.0, -88.0, 1e300, -1e300]
    grid = np.concatenate([np.linspace(-20.0, 20.0, 4001), special, [-x for x in special]])
    rng = np.random.default_rng(3)
    block = rng.standard_normal((64, 517))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (grid.astype(dtype), block.astype(dtype), block.astype(dtype)[:, ::3]):
            for fast, ref in ((selu, _reference_selu), (selu_prime, _reference_selu_prime)):
                assert _same_bits(fast(x), ref(x)), (fast.__name__, dtype)


def test_fit_linear_recovers_affine_map():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 6))
    b = rng.standard_normal(4)
    x = rng.standard_normal((50, 6))
    y = x @ A.T + b
    model = fit_linear(x, y)
    assert np.max(np.abs(model.matrix - A)) < 1e-8 * max(1, np.max(np.abs(A)))
    assert np.max(np.abs(model.bias - b)) < 1e-8


def test_fit_linear_zero_targets():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 3))
    model = fit_linear(x, np.zeros((20, 2)))
    assert np.max(np.abs(model.matrix)) < 1e-10
    assert np.max(np.abs(model.bias)) < 1e-10


def test_fit_linear_one_dimensional_case():
    model = fit_linear(np.array([[0.0], [1.0]]), np.array([[1.0], [3.0]]))
    assert model.matrix[0, 0] == pytest.approx(2.0, rel=1e-10)
    assert model.bias[0] == pytest.approx(1.0, rel=1e-10)


def test_fit_linear_residual_orthogonal_to_inputs():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 5))
    y = rng.standard_normal((40, 3))
    model = fit_linear(x, y)
    resid = y - (x @ model.matrix.T + model.bias)
    design = np.concatenate([x, np.ones((40, 1))], axis=1)
    assert np.max(np.abs(design.T @ resid)) < 1e-8 * np.max(np.abs(design.T @ y))


def test_fit_linear_warns_on_rank_deficiency():
    rng = np.random.default_rng(3)
    col = rng.standard_normal((20, 1))
    x = np.concatenate([col, col], axis=1)  # duplicated feature
    with pytest.warns(RuntimeWarning):
        fit_linear(x, rng.standard_normal((20, 2)))


def test_init_mlp_statistics():
    model = init_mlp([100, 500, 1000, 50], seed=4)
    for w in model.weights:
        fan_in = w.shape[1]
        v = np.var(w)
        assert abs(v - 1.0 / fan_in) < 0.2 / fan_in
    for b in model.biases:
        assert np.max(np.abs(b)) == 0.0
    again = init_mlp([100, 500, 1000, 50], seed=4)
    for w1, w2 in zip(model.weights, again.weights):
        assert np.array_equal(w1, w2)


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(5)
    model = init_mlp([3, 5, 4, 2], seed=6)
    x = rng.standard_normal((10, 3))
    y = rng.standard_normal((10, 2))
    _, gw, gb = mlp_loss_and_grads(model, x, y)
    eps = 1e-6
    worst = 0.0
    for p, g in zip(model.weights + model.biases, gw + gb):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lp = mlp_loss(model, x, y)
            p[idx] = orig - eps
            lm = mlp_loss(model, x, y)
            p[idx] = orig
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - g[idx]) / max(abs(g[idx]), 1e-8))
    assert worst < 1e-5


def test_nesterov_hand_step():
    # L = phi^2/2, one step from phi=1, v=0, m=0.99, eta=0.1
    phi, vel = np.array([1.0]), np.array([0.0])
    grad = phi.copy()
    nesterov_step(phi, vel, grad, 0.1, 0.99)
    assert vel[0] == pytest.approx(-0.1, rel=1e-14)
    # phi = theta + m v with theta = 0.9
    assert phi[0] == pytest.approx(0.801, rel=1e-14)
    # the gradient vector is left holding m v
    assert grad[0] == pytest.approx(-0.099, rel=1e-14)
    # phi leads theta = phi - m v = 0.9
    theta = np.empty(1)
    nesterov_theta(phi, vel, 0.99, out=theta)
    assert theta[0] == pytest.approx(0.9, rel=1e-14)


def test_full_batch_step_decreases_quadratic():
    # L(phi) = mean of (phi x - y)^2 over fixed data; stability at
    # eta < 1/L_smooth. momentum 0 reduces Nesterov to plain GD.
    rng = np.random.default_rng(7)
    x = rng.standard_normal(30)
    y = 2.0 * x
    phi, vel = np.array([5.0]), np.array([0.0])
    grad = np.array([np.mean(2 * (phi[0] * x - y) * x)])

    smooth = 2 * np.mean(x ** 2)
    eta = 0.9 / smooth
    loss0 = np.mean((phi[0] * x - y) ** 2)
    nesterov_step(phi, vel, grad, eta, 0.0)
    loss1 = np.mean((phi[0] * x - y) ** 2)
    assert loss1 < loss0
    # with m = 0, phi = theta and the step is phi <- phi + v
    assert phi[0] == 5.0 + vel[0]


# The list-based reparametrized Nesterov loop and allocating backprop that
# the flat in-place training must reproduce bit for bit. Like train_mlp, it
# steps in float32 from float32 casts of the initial weights and data,
# records the initial loss and metric of the float64 model, takes the
# blow-up threshold's loss once and each epoch's loss as the float64 MSE of
# the float32 network, rejects an epoch before its metric is taken, gives
# the metric the float32 look-ahead network for every epoch but the last,
# takes the last epoch's loss on theta = phi - m v, and returns the float64
# upcast of theta, on which the last metric is taken.

def _reference_loss_and_grads(model, x, y):
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    last = len(model.weights) - 1
    h = x
    pre, post = [], [x]
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ W.T + b
        pre.append(z)
        h = selu(z) if i != last else z
        post.append(h)
    diff = post[-1] - y
    loss = float(np.mean(diff ** 2))
    delta = 2.0 * diff / diff.size
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    for i in range(last, -1, -1):
        gw[i] = delta.T @ post[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * selu_prime(pre[i - 1])
    return loss, gw, gb


def _reference_nesterov_step(phi, velocity, grads, lr, momentum):
    velocity = [momentum * v - lr * g for v, g in zip(velocity, grads)]
    phi = [p - lr * g + momentum * v for p, g, v in zip(phi, grads, velocity)]
    return phi, velocity


def _cast(model, dtype):
    return MlpModel([W.astype(dtype) for W in model.weights],
                    [b.astype(dtype) for b in model.biases])


@np.errstate(over="ignore", invalid="ignore")
def _reference_run_sgd(init, x, y, cfg, lr, blowup, test_metric_fn):
    model = _cast(init, np.float32)
    x32, y32 = x.astype(np.float32), y.astype(np.float32)
    lr, momentum = np.float32(lr), np.float32(cfg.momentum)
    n = x.shape[0]
    batch = min(cfg.batch_size, n)
    rng = np.random.default_rng(cfg.seed)
    params = model.weights + model.biases
    vel = [np.zeros_like(p) for p in params]
    nw = len(model.weights)
    history = [mlp_loss(init, x, y)]
    test_history = [test_metric_fn(init)]
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            _, gw, gb = _reference_loss_and_grads(
                MlpModel(params[:nw], params[nw:]), x32[idx], y32[idx])
            params, vel = _reference_nesterov_step(params, vel, gw + gb, lr, momentum)
        last = epoch == cfg.epochs - 1
        if last:
            # the saved network is theta = phi - m v, not the look-ahead phi
            params = [p - momentum * v for p, v in zip(params, vel)]
        model = MlpModel(params[:nw], params[nw:])
        loss = mlp_loss(model, x32, y)
        if not np.isfinite(loss) or loss > blowup:
            return None, f"epoch {epoch}: loss {loss:.3e} exceeded {blowup:.3e}"
        history.append(loss)
        if not last:
            test_history.append(test_metric_fn(model))
    trained = _cast(model, np.float64)
    test_history.append(test_metric_fn(trained))
    return (trained, history, test_history), None


def _reference_train(init, x, y, cfg, test_metric_fn):
    x32 = x.astype(np.float32)
    blowup = cfg.blowup_factor * max(mlp_loss(_cast(init, np.float32), x32, y), 1e-30)
    failures = {}
    for lr in cfg.learning_rates:
        result, failure = _reference_run_sgd(init, x, y, cfg, lr, blowup, test_metric_fn)
        if result is not None:
            return result, lr, {"rejected": failures}
        failures[lr] = failure
    raise AssertionError("every reference candidate blew up")


@pytest.mark.parametrize("block", [NESTEROV_BLOCK, 7])
def test_training_is_bit_identical_to_list_based_reference(monkeypatch, block):
    # 70 rows in minibatches of 16 leave a partial last minibatch; the first
    # learning rate blows up, so the restart from the initial weights is
    # covered; block 7 splits every vector into many blocks and a partial one
    monkeypatch.setattr(regressors, "NESTEROV_BLOCK", block)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((70, 4))
    y = np.tanh(x @ rng.standard_normal((4, 3)))
    xt = rng.standard_normal((20, 4))
    yt = np.tanh(xt @ rng.standard_normal((4, 3)))
    cfg = TrainConfig(epochs=4, batch_size=16, seed=15, learning_rates=(50.0, 1e-2))
    init = init_mlp([4, 12, 10, 3], seed=16)
    saved = init.copy()

    def metric(model):
        # keeps the dtype of the weights: a float32 metric for a float32 model
        return mlp_loss(model, xt.astype(model.weights[0].dtype), yt)

    result = train_mlp(init, x, y, cfg, metric)
    (model, history, test_history), lr, diagnostics = _reference_train(
        saved, x, y, cfg, metric)
    assert 50.0 in diagnostics["rejected"]
    assert result.diagnostics == diagnostics
    assert result.learning_rate == lr == 1e-2
    assert _same_bits(np.array(result.train_loss), np.array(history))
    assert _same_bits(np.array(result.test_metric), np.array(test_history))
    for got, want in zip(result.model.weights + result.model.biases,
                         model.weights + model.biases):
        assert got.dtype == want.dtype == np.float64
        assert _same_bits(got, want)
    # the caller's initial model is left untouched
    for got, want in zip(init.weights + init.biases, saved.weights + saved.biases):
        assert np.array_equal(got, want)


def _blowup_data():
    rng = np.random.default_rng(11)
    x = 10 * rng.standard_normal((64, 3))
    y = 10 * rng.standard_normal((64, 3))
    return x, y


def test_rejected_epoch_takes_no_test_metric_and_the_last_gets_float64():
    x, y = _blowup_data()
    cfg = TrainConfig(epochs=5, batch_size=16, seed=4, learning_rates=(1e6, 1e-4))
    dtypes = []

    def metric(model):
        dtypes.append(model.weights[0].dtype)
        return 0.0

    result = train_mlp(init_mlp([3, 16, 3], seed=5), x, y, cfg, metric)
    assert result.learning_rate == 1e-4
    # "epoch k: ..." -> epochs 0..k-1 of the rejected candidate passed
    rejected_at = int(result.diagnostics["rejected"][1e6].split(":")[0].split()[1])
    assert len(dtypes) == 1 + rejected_at + cfg.epochs
    assert len(result.test_metric) == len(result.train_loss) == 1 + cfg.epochs
    # the caller's model first, float32 training iterates, the float64 upcast last
    assert dtypes[0] == dtypes[-1] == np.float64
    assert all(d == np.float32 for d in dtypes[1:-1])


def test_blowup_reference_is_computed_once_per_fit(monkeypatch):
    x, y = _blowup_data()
    cfg = TrainConfig(epochs=3, batch_size=16, seed=4, learning_rates=(1e6, 1e-4))
    init = init_mlp([3, 16, 3], seed=5)
    start32 = _cast(init, np.float32)
    reference_calls = []
    loss = regressors.mlp_loss

    def counting_loss(model, xs, ys):
        if all(p.dtype == np.float32 and np.array_equal(p, q) for p, q in
               zip(model.weights + model.biases, start32.weights + start32.biases)):
            reference_calls.append(xs.dtype)
        return loss(model, xs, ys)

    monkeypatch.setattr(regressors, "mlp_loss", counting_loss)
    result = train_mlp(init, x, y, cfg)
    assert 1e6 in result.diagnostics["rejected"]
    assert reference_calls == [np.float32]


def test_gradients_into_out_equal_allocated_and_reference():
    rng = np.random.default_rng(17)
    model = init_mlp([5, 9, 7, 4], seed=18)
    x = rng.standard_normal((13, 5))
    y = rng.standard_normal((13, 4))
    out = MlpModel([np.full_like(W, np.nan) for W in model.weights],
                   [np.full_like(b, np.nan) for b in model.biases])
    loss_out, gw_out, gb_out = mlp_loss_and_grads(model, x, y, out=out)
    loss, gw, gb = mlp_loss_and_grads(model, x, y)
    ref_loss, ref_gw, ref_gb = _reference_loss_and_grads(model, x, y)
    assert loss_out == loss == ref_loss
    assert gw_out is out.weights and gb_out is out.biases
    for got, alloc, ref in zip(gw_out + gb_out, gw + gb, ref_gw + ref_gb):
        assert np.array_equal(got, alloc) and np.array_equal(got, ref)


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", -4), ("epochs", 0), ("epochs", -1),
    ("learning_rates", ()), ("learning_rates", (1e-3, 0.0)),
    ("learning_rates", (-1e-3,)), ("blowup_factor", 0.0), ("blowup_factor", -2.0),
])
def test_train_config_rejects_degenerate_settings(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("dims", [[3, 0, 2], [3, 8, -1], [0, 4], [3]])
def test_init_mlp_rejects_empty_layers(dims):
    with pytest.raises(ValueError, match="width"):
        init_mlp(dims, seed=0)


def test_training_on_self_generated_targets_starts_at_zero():
    rng = np.random.default_rng(8)
    model = init_mlp([4, 8, 3], seed=9)
    x = rng.standard_normal((32, 4))
    y = mlp_forward(model, x)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=1)
    result = train_mlp(model.copy(), x, y, cfg)
    assert result.train_loss[0] == pytest.approx(0.0, abs=1e-20)
    assert np.all(np.isfinite(result.train_loss))


def test_training_is_reproducible():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((64, 5))
    y = np.tanh(x @ rng.standard_normal((5, 5)))
    xt = rng.standard_normal((16, 5))
    cfg = TrainConfig(epochs=5, batch_size=16, seed=2, learning_rates=(1e-3,))

    def metric(model):
        return float(np.mean(mlp_forward(model, xt)))

    r1 = train_mlp(init_mlp([5, 16, 5], seed=3), x, y, cfg, metric)
    r2 = train_mlp(init_mlp([5, 16, 5], seed=3), x, y, cfg, metric)
    for w1, w2 in zip(r1.model.weights + r1.model.biases,
                      r2.model.weights + r2.model.biases):
        assert np.array_equal(w1, w2)
    assert r1.train_loss == r2.train_loss
    assert r1.test_metric == r2.test_metric
    assert r1.learning_rate == r2.learning_rate


def test_trained_model_is_exact_float64_upcast_of_float32_weights():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((40, 3))
    y = np.tanh(x @ rng.standard_normal((3, 2)))
    cfg = TrainConfig(epochs=3, batch_size=8, seed=20, learning_rates=(1e-3,))
    result = train_mlp(init_mlp([3, 9, 2], seed=21), x, y, cfg)
    for p in result.model.weights + result.model.biases:
        assert p.dtype == np.float64
        assert np.array_equal(p.astype(np.float32).astype(np.float64), p)
    # the last recorded loss is the float64 MSE of the trained float32 network
    trained32 = _cast(result.model, np.float32)
    assert result.train_loss[-1] == mlp_loss(trained32, x.astype(np.float32), y)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_and_grads_keep_the_dtype_of_model_and_batch(dtype):
    rng = np.random.default_rng(22)
    model = _cast(init_mlp([4, 6, 3], seed=23), dtype)
    x = rng.standard_normal((5, 4)).astype(dtype)
    y = rng.standard_normal((5, 3)).astype(dtype)
    loss, gw, gb = mlp_loss_and_grads(model, x, y)
    assert isinstance(loss, float)
    assert all(g.dtype == dtype for g in gw + gb)
    assert mlp_forward(model, x).dtype == dtype


def test_learning_rate_walk_skips_blowup():
    # absurdly large first candidate must blow up and fall through
    rng = np.random.default_rng(11)
    x = 10 * rng.standard_normal((64, 3))
    y = 10 * rng.standard_normal((64, 3))
    cfg = TrainConfig(epochs=8, batch_size=16, seed=4,
                      learning_rates=(1e6, 1e-4))
    result = train_mlp(init_mlp([3, 16, 3], seed=5), x, y, cfg)
    assert result.learning_rate == 1e-4
    assert np.all(np.isfinite(result.train_loss))


def test_all_rates_blowing_up_raises():
    rng = np.random.default_rng(12)
    x = 10 * rng.standard_normal((64, 3))
    y = 10 * rng.standard_normal((64, 3))
    cfg = TrainConfig(epochs=8, batch_size=16, seed=6,
                      learning_rates=(1e8, 1e7))
    with pytest.raises(TrainingError) as exc:
        train_mlp(init_mlp([3, 16, 3], seed=7), x, y, cfg)
    assert "1e+08" in str(exc.value) or "rate" in str(exc.value)


def test_predict_linear_identity_and_mlp_bias_propagation():
    ident = LinearModel(np.eye(3), np.zeros(3))
    s = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(predict(ident, s), s)

    model = init_mlp([2, 3, 2], seed=8)
    for w in model.weights:
        w[:] = 0.0
    model.biases[0][:] = np.array([1.0, -1.0, 0.0])
    model.biases[1][:] = np.array([0.25, 0.5])
    # hidden = selu(bias); output = 0 * hidden + final bias
    out = predict(model, np.array([3.0, 4.0]))
    assert np.max(np.abs(out - np.array([0.25, 0.5]))) < 1e-15
    assert np.array_equal(out, predict(model, np.array([3.0, 4.0])))
