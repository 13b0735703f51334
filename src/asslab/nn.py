"""Small feed-forward classifier with exact analytic gradients.

Everything runs in 64-bit numpy. The network is a plain ReLU MLP whose
penultimate activations double as the feature embedding used by
diversity-based acquisition. A central finite-difference oracle is
included so the analytic backward pass can be checked independently.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError


class ForwardCounter:
    """Counts forward evaluations, one per sample pushed through a net."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)


# Global counter; single-threaded training loops own it for the duration
# of a run, so no locking is needed.
forward_counter = ForwardCounter()


@dataclass
class ModelParams:
    """Weights and biases of a ReLU MLP.

    Layer i maps dimension ``weights[i].shape[1]`` to ``weights[i].shape[0]``;
    all layers except the last are followed by ReLU.
    """

    weights: list[np.ndarray]  # each (out, in)
    biases: list[np.ndarray]  # each (out,)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_classes(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass
class Gradients:
    """Per-layer gradients, shaped like the ModelParams they belong to."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def add_scaled(self, other: "Gradients", scale: float = 1.0) -> "Gradients":
        return Gradients(
            [a + scale * b for a, b in zip(self.weights, other.weights)],
            [a + scale * b for a, b in zip(self.biases, other.biases)],
        )


@dataclass
class ForwardResult:
    probs: np.ndarray
    embedding: np.ndarray


def init_params(layer_dims: list[int], rng: np.random.Generator) -> ModelParams:
    """Initialize an MLP with uniform weights in +/- sqrt(6/(fan_in+fan_out)).

    ``layer_dims`` lists widths input -> hidden... -> output, e.g.
    [2, 64, 64, 3] for a 2-d input, two ReLU hidden layers, 3 classes.
    """
    if len(layer_dims) < 2:
        raise InputError("need at least an input and an output dimension")
    if min(layer_dims) < 1:
        raise InputError(f"every layer width must be at least 1, got {list(layer_dims)}")
    # numpy raises ValueError, not MemoryError, for an array of sys.maxsize
    # bytes or more; refuse such a layer as a bad input.
    if max(int(a) * int(b) for a, b in zip(layer_dims[:-1], layer_dims[1:])) > sys.maxsize // 8:
        raise InputError(f"layer widths {list(layer_dims)} exceed the largest numpy array")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(params: ModelParams, x: np.ndarray, relu) -> tuple[np.ndarray, np.ndarray]:
    """(logits, penultimate activation) of a batch.

    relu(z) turns each hidden layer's pre-activation z, a fresh array it
    may overwrite, into that layer's output.
    """
    a = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T
        z += b
        a = relu(z)
    logits = a @ params.weights[-1].T
    logits += params.biases[-1]
    return logits, a


def _forward_cached(params: ModelParams, x: np.ndarray):
    """Forward pass over a batch, keeping every layer's pre/post activations."""
    pre, post = [], [x]

    def relu(z):
        pre.append(z)
        post.append(np.maximum(z, 0.0))
        return post[-1]

    return _forward(params, x, relu)[0], pre, post


def forward_batch(params: ModelParams, x: np.ndarray) -> ForwardResult:
    """Forward a (n, input_dim) batch; embedding is the penultimate activation.

    Only the layer being computed stays alive: the ReLU runs in place.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise InputError(
            f"input shape {x.shape} does not match network input dim {params.input_dim}"
        )
    forward_counter.add(x.shape[0])
    logits, embedding = _forward(params, x, lambda z: np.maximum(z, 0.0, out=z))
    return ForwardResult(probs=softmax(logits), embedding=embedding)


def _as_batch(params, inputs, labels, weights):
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2:
        raise InputError("inputs must be a 2-d (batch) array")
    if x.shape[0] == 0:
        raise InputError("empty batch")
    if x.shape[1] != params.input_dim:
        raise InputError(
            f"input dim {x.shape[1]} does not match network input dim {params.input_dim}"
        )
    if (y.shape != (x.shape[0],) or y.dtype.kind not in "iu"
            or y.min() < 0 or y.max() >= params.n_classes):
        raise InputError(f"labels must be one integer in [0, {params.n_classes}) per row")
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (x.shape[0],):
            raise InputError("weights must be one scalar per batch row")
    return x, y, w


def loss_forward(
    params: ModelParams,
    inputs: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray, tuple]:
    """The forward and loss half of loss_and_grads: (loss, probs, cache).

    backward(params, cache) gives the gradients. cache holds d loss /
    d logits and every layer's activations, one row per batch row.
    """
    x, y, w = _as_batch(params, inputs, labels, weights)
    n = x.shape[0]
    rows = np.arange(n)
    forward_counter.add(n)
    logits, pre, post = _forward_cached(params, x)
    # One log-softmax: the same shift, exp and row sums as softmax(logits).
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    probs = e / total
    nll = -(shifted[rows, y] - np.log(total[:, 0]))
    loss = float(np.sum(nll if w is None else w * nll) / n)

    # d loss / d logits = (w/N) * (p - onehot(y)).
    dlogits = probs.copy()
    dlogits[rows, y] -= 1.0
    dlogits *= 1.0 / n if w is None else (w / n)[:, None]
    return loss, probs, (dlogits, pre, post)


def backward(params: ModelParams, cache: tuple, rows: np.ndarray | None = None) -> Gradients:
    """Backpropagate a loss_forward cache; rows, when given, picks the batch
    rows to backpropagate.

    Leaving out rows whose d loss / d logits is zero, as for a weight of
    zero, leaves the exact gradient; BLAS may still round a sum over fewer
    rows differently.
    """
    dlogits, pre, post = cache
    if rows is not None:
        dlogits = dlogits[rows]
        pre = [z[rows] for z in pre]
        post = [a[rows] for a in post]
    gw = [np.empty(0)] * params.n_layers
    gb = [np.empty(0)] * params.n_layers
    gw[-1] = dlogits.T @ post[-1]
    gb[-1] = dlogits.sum(axis=0)
    da = dlogits @ params.weights[-1]
    for i in range(params.n_layers - 2, -1, -1):
        dz = da * (pre[i] > 0)
        gw[i] = dz.T @ post[i]
        gb[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ params.weights[i]
    return Gradients(gw, gb)


def loss_and_grads(
    params: ModelParams,
    inputs: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, Gradients, np.ndarray]:
    """Weighted mean cross-entropy over a batch, with exact gradients.

    loss = -(1/N) * sum_j weights[j] * log probs[j, labels[j]], where labels
    holds one integer class in [0, n_classes) per row. Returns (loss,
    gradients, probs); probs is not modified afterwards. The gradients
    backpropagate every row.
    """
    loss, probs, cache = loss_forward(params, inputs, labels, weights)
    return loss, backward(params, cache), probs


def sgd_step(params: ModelParams, grads: Gradients, lr: float) -> ModelParams:
    """One plain gradient step: params' = params - lr * grads."""
    if len(grads.weights) != params.n_layers:
        raise InternalError("gradient layer count does not match parameters")
    for w, gw_ in zip(params.weights, grads.weights):
        if w.shape != gw_.shape:
            raise InternalError(f"gradient shape {gw_.shape} does not match weight {w.shape}")
    for b, gb_ in zip(params.biases, grads.biases):
        if b.shape != gb_.shape:
            raise InternalError(f"gradient shape {gb_.shape} does not match bias {b.shape}")
    return ModelParams(
        [w - lr * g for w, g in zip(params.weights, grads.weights)],
        [b - lr * g for b, g in zip(params.biases, grads.biases)],
    )


class SgdOptimizer:
    """Plain SGD; momentum is available but defaults off."""

    def __init__(self, lr: float, momentum: float = 0.0):
        if not 0.0 < lr < np.inf:
            raise InputError(f"learning rate must be positive and finite, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise InputError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity: Gradients | None = None

    def step(self, params: ModelParams, grads: Gradients) -> ModelParams:
        if self.momentum == 0.0:
            return sgd_step(params, grads, self.lr)
        if self._velocity is None:
            self._velocity = Gradients(
                [np.zeros_like(w) for w in grads.weights],
                [np.zeros_like(b) for b in grads.biases],
            )
        v = self._velocity
        for vel, g in zip(v.weights + v.biases, grads.weights + grads.biases):
            vel *= self.momentum
            vel += g
        return sgd_step(params, v, self.lr)


def finite_diff_grads(
    params: ModelParams,
    inputs: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
    step: float = 1e-6,
) -> Gradients:
    """Central finite-difference gradient oracle.

    Perturbs every scalar parameter by +/- step and differences the batch
    loss. Quadratic in parameter count; intended for small nets only.
    """

    def loss_with(p: ModelParams) -> float:
        return loss_and_grads(p, inputs, labels, weights)[0]

    gw, gb = [], []
    for li in range(params.n_layers):
        for kind, store in (("w", gw), ("b", gb)):
            base = params.weights[li] if kind == "w" else params.biases[li]
            g = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                p_hi = params.copy()
                p_lo = params.copy()
                tgt_hi = p_hi.weights[li] if kind == "w" else p_hi.biases[li]
                tgt_lo = p_lo.weights[li] if kind == "w" else p_lo.biases[li]
                tgt_hi[idx] += step
                tgt_lo[idx] -= step
                g[idx] = (loss_with(p_hi) - loss_with(p_lo)) / (2.0 * step)
                it.iternext()
            store.append(g)
    return Gradients(gw, gb)


def gradient_relative_error(analytic: Gradients, numeric: Gradients) -> float:
    """Max over parameter tensors of |a - f|_inf / max(|a|_inf, |f|_inf).

    The denominator is floored at 1e-3 so tensors whose true gradient is
    (near) zero are judged by absolute error against the finite-difference
    noise floor instead of blowing up the ratio.
    """
    worst = 0.0
    for a, f in zip(analytic.weights + analytic.biases, numeric.weights + numeric.biases):
        num = float(np.max(np.abs(a - f))) if a.size else 0.0
        den = max(float(np.max(np.abs(a))) if a.size else 0.0,
                  float(np.max(np.abs(f))) if f.size else 0.0,
                  1e-3)
        worst = max(worst, num / den)
    return worst


def run_gradient_check(
    n_instances: int = 20, seed: int = 0, step: float = 1e-6
) -> list[float]:
    """Check analytic vs finite-difference gradients on random nets/batches.

    Returns the per-instance max relative errors. Architectures, weights,
    inputs, class labels, and positive per-example weights are all drawn
    at random from the given seed, which must be nonnegative.
    """
    if n_instances < 1:
        raise InputError(f"n_instances must be at least 1, got {n_instances}")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_instances):
        d_in = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        n_hidden = int(rng.integers(0, 3))
        dims = [d_in] + [int(rng.integers(3, 8)) for _ in range(n_hidden)] + [k]
        params = init_params(dims, rng)
        n = int(rng.integers(1, 6))
        # ReLU kinks break the quadratic error model of central differences,
        # so redraw any batch whose pre-activations sit within the step
        # neighborhood of a kink.
        while True:
            x = rng.normal(size=(n, d_in))
            _, pre, _ = _forward_cached(params, x)
            if all(np.min(np.abs(z)) > 1e-3 for z in pre) if pre else True:
                break
        y = rng.integers(0, k, size=n)
        w = rng.uniform(0.2, 2.0, size=n)
        analytic = loss_and_grads(params, x, y, w)[1]
        numeric = finite_diff_grads(params, x, y, w, step=step)
        errors.append(gradient_relative_error(analytic, numeric))
    return errors
