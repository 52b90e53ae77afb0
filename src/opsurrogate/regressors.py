"""Latent-space regressors: a dense SELU network trained by minibatch SGD
with Nesterov momentum, and an affine least-squares baseline.

The training loop walks a descending list of learning-rate candidates and
keeps the largest one whose loss never blows up.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805

DEFAULT_HIDDEN = (500, 1000, 2000, 1000, 500)


class TrainingError(RuntimeError):
    pass


def selu(x):
    x = np.asarray(x, dtype=np.float64)
    return SELU_LAMBDA * np.where(x > 0.0, x, SELU_ALPHA * np.expm1(x))


def selu_prime(x):
    x = np.asarray(x, dtype=np.float64)
    return SELU_LAMBDA * np.where(x > 0.0, 1.0, SELU_ALPHA * np.exp(x))


@dataclass
class MlpModel:
    """Dense network: affine layers with SELU between them (none on output)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [W.shape[0] for W in self.weights]

    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def copy(self) -> "MlpModel":
        return MlpModel([W.copy() for W in self.weights], [b.copy() for b in self.biases])


@dataclass
class LinearModel:
    matrix: np.ndarray
    bias: np.ndarray


@dataclass
class TrainConfig:
    learning_rates: tuple = (1e-2, 5e-3, 1e-3, 5e-4, 1e-4)
    momentum: float = 0.99
    batch_size: int = 64
    epochs: int = 500
    seed: int = 0
    blowup_factor: float = 10.0

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        rates = tuple(sorted(self.learning_rates, reverse=True))
        self.learning_rates = rates


def init_mlp(dims: list[int], seed: int) -> MlpModel:
    """Normal weights with variance 1/fan_in (self-normalizing for SELU),
    zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def mlp_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Forward pass on a batch (rows are samples)."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ W.T + b
        if i != last:
            h = selu(h)
    return h


def mlp_loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean-squared-error loss and its gradients by backpropagation.

    Loss = mean over batch and output coordinates of (pred - y)^2.
    """
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
    # d loss / d output
    delta = 2.0 * diff / diff.size
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    for i in range(last, -1, -1):
        gw[i] = delta.T @ post[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * selu_prime(pre[i - 1])
    return loss, gw, gb


def mlp_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    diff = mlp_forward(model, x) - np.atleast_2d(y)
    return float(np.mean(diff ** 2))


def nesterov_step(theta, velocity, grad_fn, lr: float, momentum: float):
    """One lookahead-gradient Nesterov update on a list of parameter arrays:
    v <- m v - lr * grad(theta + m v);  theta <- theta + v."""
    lookahead = [t + momentum * v for t, v in zip(theta, velocity)]
    grads = grad_fn(lookahead)
    velocity = [momentum * v - lr * g for v, g in zip(velocity, grads)]
    theta = [t + v for t, v in zip(theta, velocity)]
    return theta, velocity


@dataclass
class TrainResult:
    model: MlpModel
    train_loss: list[float]
    test_metric: list[float]
    learning_rate: float
    diagnostics: dict = field(default_factory=dict)


# blow-ups are expected while probing learning rates and are detected
# through the loss check below, so the overflow warnings are just noise
@np.errstate(over="ignore", invalid="ignore")
def _run_sgd(init, x, y, cfg: TrainConfig, lr: float, test_metric_fn):
    """Train a copy of `init`; returns ((model, history, test_history), None)
    or (None, blow-up diagnostic string)."""
    model = init.copy()
    n = x.shape[0]
    batch = min(cfg.batch_size, n)
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    vel = [np.zeros_like(p) for p in params]
    nw = len(model.weights)
    loss0 = mlp_loss(model, x, y)
    blowup = cfg.blowup_factor * max(loss0, 1e-30)
    history = [loss0]
    test_history = [test_metric_fn(model)] if test_metric_fn else []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start:start + batch]

            def grads(theta):
                look = MlpModel(theta[:nw], theta[nw:])
                _, gw, gb = mlp_loss_and_grads(look, x[idx], y[idx])
                return gw + gb

            params, vel = nesterov_step(params, vel, grads, lr, cfg.momentum)
        model = MlpModel(params[:nw], params[nw:])
        loss = mlp_loss(model, x, y)
        history.append(loss)
        if test_metric_fn:
            test_history.append(test_metric_fn(model))
        if not np.isfinite(loss) or loss > blowup:
            return None, f"epoch {epoch}: loss {loss:.3e} exceeded {blowup:.3e}"
    return (model, history, test_history), None


def train_mlp(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    test_metric_fn=None,
) -> TrainResult:
    """Minibatch Nesterov SGD on the MSE of latent pairs.

    Learning-rate candidates are tried from largest to smallest; a candidate
    is rejected (and training restarted from the initial weights) as soon as
    the epoch loss exceeds blowup_factor times the initial loss or turns
    non-finite.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    failures = {}
    for lr in cfg.learning_rates:
        result, failure = _run_sgd(model, x, y, cfg, lr, test_metric_fn)
        if result is not None:
            trained, history, test_history = result
            return TrainResult(trained, history, test_history, lr, {"rejected": failures})
        failures[lr] = failure
    detail = "; ".join(f"lr={lr:g}: {msg}" for lr, msg in failures.items())
    raise TrainingError(f"all learning-rate candidates blew up ({detail})")


def fit_linear(x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Affine least squares by the normal equations, with a relative 1e-12
    Tikhonov damping on the diagonal for conditioning."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    n, d_in = x.shape
    design = np.hstack([x, np.ones((n, 1))])
    A = design.T @ design / n
    damping = 1e-12 * np.trace(A) / A.shape[0]
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] < 1e3 * damping:
        warnings.warn(
            "rank-deficient least-squares design; solution stabilized by "
            "Tikhonov damping",
            RuntimeWarning,
        )
    A = A + damping * np.eye(A.shape[0])
    rhs = design.T @ y / n
    coeffs = np.linalg.solve(A, rhs)
    return LinearModel(matrix=coeffs[:-1].T.copy(), bias=coeffs[-1].copy())


def predict(model, s: np.ndarray) -> np.ndarray:
    """Forward pass of either regressor on one latent vector or a batch."""
    s = np.asarray(s, dtype=np.float64)
    single = s.ndim == 1
    s2 = np.atleast_2d(s)
    if isinstance(model, LinearModel):
        if s2.shape[1] != model.matrix.shape[1]:
            raise ValueError(
                f"input dim {s2.shape[1]} != model dim {model.matrix.shape[1]}"
            )
        out = s2 @ model.matrix.T + model.bias
    elif isinstance(model, MlpModel):
        if s2.shape[1] != model.weights[0].shape[1]:
            raise ValueError(
                f"input dim {s2.shape[1]} != model dim {model.weights[0].shape[1]}"
            )
        out = mlp_forward(model, s2)
    else:
        raise TypeError(f"unknown regressor type {type(model)!r}")
    return out[0] if single else out
