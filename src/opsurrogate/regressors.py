"""Latent-space regressors: a dense SELU network trained by minibatch SGD
with Nesterov momentum, and affine least squares, the net with no hidden layer.

`FitConfig` is the one configuration of a surrogate fit, from the PCA
dimension to the training schedule; the momentum and the blow-up factor are
the module constants `MOMENTUM` and `BLOWUP_FACTOR`. The training loop walks
a descending list of learning-rate candidates and keeps the largest one
whose loss never blows up. It runs in float32; the losses that decide a
blow-up are float64 means, and the trained network is returned as its exact
float64 upcast, so prediction is float64 throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805

DEFAULT_HIDDEN = (500, 1000, 2000, 1000, 500)
MOMENTUM = 0.99
# a candidate learning rate is rejected once an epoch loss exceeds this
# multiple of the initial network's loss
BLOWUP_FACTOR = 10.0


@dataclass
class FitConfig:
    """One surrogate fit: the PCA dimension `d` and inner product
    (`weighted`), the latent regressor, and the network's training schedule.
    `learning_rates` are tried largest first."""

    d: int
    regressor: str = "nn"           # "nn" | "linear"
    epochs: int = 500
    batch_size: int = 64
    seed: int = 0
    hidden: tuple = DEFAULT_HIDDEN
    weighted: bool = True
    learning_rates: tuple = (1e-2, 5e-3, 1e-3, 5e-4, 1e-4)

    def __post_init__(self):
        if self.regressor not in ("nn", "linear"):
            raise ValueError(f"unknown regressor kind {self.regressor!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        rates = tuple(sorted(self.learning_rates, reverse=True))
        if not rates or not all(lr > 0.0 for lr in rates):
            raise ValueError(
                f"learning_rates must be one or more positive rates, got {rates}"
            )
        self.learning_rates = rates


class TrainingError(RuntimeError):
    pass


def _float_array(x):
    """`x` unchanged if it is float32, else as a float64 array. The check
    costs no more than the conversion alone, which prediction pays per
    layer."""
    if isinstance(x, (np.ndarray, np.generic)) and x.dtype.type is np.float32:
        return x
    return np.asarray(x, dtype=np.float64)


def selu(x):
    """lambda (max(x, 0) + alpha expm1(min(x, 0))), which equals the
    two-branch definition bit for bit, the sign of zero included. The
    scalar 0.0 goes first in minimum/maximum so that a tie returns x.
    Mask-free ufuncs into one buffer cost a fraction of a select."""
    x = _float_array(x)
    out = np.minimum(0.0, x, out=np.empty_like(x))
    np.expm1(out, out=out)
    out *= SELU_ALPHA
    out += np.maximum(0.0, x)
    out *= SELU_LAMBDA
    return out if out.ndim else out[()]


def selu_prime(x):
    """lambda (alpha exp(min(x, 0)) - [x > 0] (alpha - 1)), with alpha in
    the dtype of x. Both alpha - 1 and alpha - (alpha - 1) = 1 are exact
    (Sterbenz), so this equals the two-branch derivative bit for bit."""
    x = _float_array(x)
    alpha = x.dtype.type(SELU_ALPHA)
    out = np.minimum(0.0, x, out=np.empty_like(x))
    np.exp(out, out=out)
    out *= alpha
    out -= (x > 0.0) * (alpha - 1)
    out *= SELU_LAMBDA
    return out if out.ndim else out[()]


@dataclass
class MlpModel:
    """Dense network: affine layers with SELU between them (none on output)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [W.shape[0] for W in self.weights]


def _flat_views(flat: np.ndarray, dims) -> MlpModel:
    """An MlpModel whose weights and biases are views into the vector `flat`,
    layer by layer: the row-major weight matrix, then its bias."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        stop = start + fan_out * fan_in
        weights.append(flat[start:stop].reshape(fan_out, fan_in))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    return MlpModel(weights, biases)


def init_mlp(dims: list[int], seed: int) -> MlpModel:
    """Normal weights with variance 1/fan_in (self-normalizing for SELU),
    zero biases."""
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(f"an MLP needs two or more layer widths, each at least 1; got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def mlp_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Forward pass on a batch (rows are samples), in float32 when both `x`
    and the weights are float32 and in float64 otherwise."""
    h = np.atleast_2d(_float_array(x))
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ W.T
        h += b
        if i != last:
            h = selu(h)
    return h


def mlp_loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray,
                       out: MlpModel | None = None):
    """Mean-squared-error loss and its gradients by backpropagation.

    Loss = mean over batch and output coordinates of (pred - y)^2. The
    gradients are written into `out`, an MlpModel of the same shapes (a new
    one when None), and returned as (loss, out.weights, out.biases). A
    float32 model and batch give float32 gradients, float64 ones float64.
    """
    if out is None:
        out = MlpModel([np.empty_like(W) for W in model.weights],
                       [np.empty_like(b) for b in model.biases])
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    last = len(model.weights) - 1
    h = x
    pre, post = [], [x]
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ W.T
        z += b
        pre.append(z)
        h = selu(z) if i != last else z
        post.append(h)
    diff = post[-1] - y
    loss = float(np.mean(diff ** 2))
    # d loss / d output
    delta = 2.0 * diff / diff.size
    for i in range(last, -1, -1):
        np.matmul(delta.T, post[i], out=out.weights[i])
        np.sum(delta, axis=0, out=out.biases[i])
        if i > 0:
            delta = delta @ model.weights[i]
            delta *= selu_prime(pre[i - 1])
    return loss, out.weights, out.biases


def mlp_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of the forward pass on `x`. The difference and the
    mean take the wider dtype of prediction and `y`: float64 targets give a
    float64 loss for a float32 network."""
    diff = mlp_forward(model, x) - np.atleast_2d(y)
    return float(np.mean(diff ** 2))


# nesterov_step walks its three vectors in blocks of this many elements:
# 3 x 128 KiB of float32 (3 x 256 KiB of float64), which stays in a 1-2 MiB
# L2 cache between the six passes
NESTEROV_BLOCK = 32768


def nesterov_step(phi, velocity, grad, lr, momentum):
    """One reparametrized Nesterov update, in place on flat vectors.

    The stored iterate is the look-ahead point phi = theta + m v, and `grad`
    holds the gradient at phi. The step sets v <- m v - lr * grad and
    phi <- phi - lr * grad + m v (Bengio et al. 2012, arXiv:1212.0901), which
    is lookahead-form Nesterov with phi in place of theta; `grad` is left
    holding m v. Each block of the vectors goes through all of it while it
    is in cache. The arithmetic is in the vectors' dtype; training passes
    float32 vectors and scalars.
    """
    for start in range(0, phi.size, NESTEROV_BLOCK):
        block = slice(start, start + NESTEROV_BLOCK)
        p, v, g = phi[block], velocity[block], grad[block]
        g *= lr
        v *= momentum
        v -= g
        p -= g
        np.multiply(v, momentum, out=g)
        p += g


def nesterov_theta(phi, velocity, momentum, out):
    """Write theta = phi - m v, the iterate that the look-ahead point phi
    of `nesterov_step` leads, into `out`, block by block."""
    for start in range(0, phi.size, NESTEROV_BLOCK):
        block = slice(start, start + NESTEROV_BLOCK)
        o = out[block]
        np.multiply(velocity[block], momentum, out=o)
        np.subtract(phi[block], o, out=o)


@dataclass
class TrainResult:
    model: MlpModel
    train_loss: list[float]
    test_metric: list[float]
    learning_rate: float
    diagnostics: dict = field(default_factory=dict)


def _load_flat(flat: np.ndarray, model: MlpModel) -> MlpModel:
    """Copy the weights of `model` into `flat`, cast to its dtype; returns
    the views of `flat` that hold them."""
    views = _flat_views(flat, model.dims)
    for dst, src in zip(views.weights + views.biases, model.weights + model.biases):
        dst[...] = src
    return views


# blow-ups are expected while probing learning rates and are detected
# through the loss check below, so the overflow warnings are just noise
@np.errstate(over="ignore", invalid="ignore")
def _run_sgd(init, x32, y32, y, cfg: FitConfig, lr: float, blowup: float,
             test_metric_fn, buffers):
    """Train in float32 from the weights of `init` in the flat float32
    vectors `buffers` = (phi, velocity, gradient), on the data `x32`, `y32`.
    After the last epoch's steps theta = phi - m v is written into the
    gradient vector. Each epoch's loss is the float64 MSE against `y` of the
    network phi, or of theta after the last epoch; an epoch whose loss
    exceeds `blowup` or is not finite rejects the candidate before
    `test_metric_fn` runs. The metric sees the float32 phi of every epoch
    but the last, which the caller measures on the float64 upcast of theta.
    Returns ((history, test_history), None), with the trained weights theta
    left in the gradient vector, or (None, blow-up diagnostic string)."""
    flat_phi, vel, grad = buffers
    phi = _load_flat(flat_phi, init)
    grad_model = _flat_views(grad, init.dims)
    lr, momentum = np.float32(lr), np.float32(MOMENTUM)
    vel.fill(0.0)
    n = x32.shape[0]
    batch = min(cfg.batch_size, n)
    rng = np.random.default_rng(cfg.seed)
    history, test_history = [], []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            mlp_loss_and_grads(phi, x32[idx], y32[idx], out=grad_model)
            nesterov_step(flat_phi, vel, grad, lr, momentum)
        last = epoch == cfg.epochs - 1
        if last:
            nesterov_theta(flat_phi, vel, momentum, out=grad)
        loss = mlp_loss(grad_model if last else phi, x32, y)
        if not np.isfinite(loss) or loss > blowup:
            return None, f"epoch {epoch}: loss {loss:.3e} exceeded {blowup:.3e}"
        history.append(loss)
        if test_metric_fn and not last:
            test_history.append(test_metric_fn(phi))
    return (history, test_history), None


def train_mlp(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    cfg: FitConfig,
    test_metric_fn=None,
) -> TrainResult:
    """Minibatch Nesterov SGD on the MSE of latent pairs, in float32.

    Training holds three flat float32 vectors, reused by every candidate:
    the look-ahead iterate phi, the velocity and the gradient (see
    `nesterov_step`). Learning-rate candidates are tried from largest to
    smallest; a candidate is rejected (and training restarted from the
    float32 cast of the initial weights) as soon as the epoch loss exceeds
    BLOWUP_FACTOR times the loss of that cast, computed once per fit, or
    turns non-finite. The first entries of the histories are the loss and
    metric of `model` itself in float64; each later loss is the float64 MSE
    of the float32 network phi, and the last one that of the float32
    network theta = phi - m v that phi leads. `test_metric_fn` gets the
    float32 phi after each epoch but the last, and the returned float64
    model after the last; an epoch that rejects its candidate gets no metric.
    `model` is left unchanged; the trained weights are the exact float64
    upcast of the final theta, views into one flat parameter vector.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    x32, y32 = x.astype(np.float32), y.astype(np.float32)
    loss0 = mlp_loss(model, x, y)
    test0 = [test_metric_fn(model)] if test_metric_fn else []
    size = sum(W.size + b.size for W, b in zip(model.weights, model.biases))
    # phi, velocity, gradient; a kept candidate leaves theta in the gradient
    buffers = [np.empty(size, dtype=np.float32) for _ in range(3)]
    blowup = BLOWUP_FACTOR * max(mlp_loss(_load_flat(buffers[0], model), x32, y), 1e-30)
    failures = {}
    for lr in cfg.learning_rates:
        result, failure = _run_sgd(model, x32, y32, y, cfg, lr, blowup, test_metric_fn,
                                   buffers)
        if result is not None:
            history, test_history = result
            trained = _flat_views(buffers[2].astype(np.float64), model.dims)
            if test_metric_fn:
                test_history.append(test_metric_fn(trained))
            return TrainResult(trained, [loss0, *history], test0 + test_history, lr,
                               {"rejected": failures})
        failures[lr] = failure
    detail = "; ".join(f"lr={lr:g}: {msg}" for lr, msg in failures.items())
    raise TrainingError(f"all learning-rate candidates blew up ({detail})")


def fit_linear(x: np.ndarray, y: np.ndarray) -> MlpModel:
    """Affine least squares by the normal equations, with a relative 1e-12
    Tikhonov damping on the diagonal for conditioning, as a one-layer network."""
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
    return MlpModel([coeffs[:-1].T.copy()], [coeffs[-1].copy()])


def predict(model: MlpModel, s: np.ndarray) -> np.ndarray:
    """`mlp_forward` on one latent vector or a batch."""
    s = _float_array(s)
    s2 = np.atleast_2d(s)
    if s2.shape[1] != model.weights[0].shape[1]:
        raise ValueError(
            f"input dim {s2.shape[1]} != model dim {model.weights[0].shape[1]}"
        )
    out = mlp_forward(model, s2)
    return out[0] if s.ndim == 1 else out
