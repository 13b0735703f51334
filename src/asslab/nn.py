"""Small feed-forward classifier with exact analytic gradients.

Everything runs in 64-bit numpy. The network is a plain ReLU MLP whose
penultimate activations double as the feature embedding used by
diversity-based acquisition. A central finite-difference oracle is
included so the analytic backward pass can be checked independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError


class ForwardCounter:
    """Counts forward evaluations, one per sample pushed through a net."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)

    def reset(self):
        self.count = 0


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

    @property
    def embedding_dim(self) -> int:
        # Penultimate width; equals input_dim for a single-layer net.
        if self.n_layers == 1:
            return self.input_dim
        return self.weights[-2].shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def all_finite(self) -> bool:
        return all(np.isfinite(w).all() for w in self.weights) and all(
            np.isfinite(b).all() for b in self.biases
        )


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
    logits: np.ndarray
    probs: np.ndarray
    embedding: np.ndarray


def init_params(layer_dims: list[int], rng: np.random.Generator) -> ModelParams:
    """Initialize an MLP with uniform weights in +/- sqrt(6/(fan_in+fan_out)).

    ``layer_dims`` lists widths input -> hidden... -> output, e.g.
    [2, 64, 64, 3] for a 2-d input, two ReLU hidden layers, 3 classes.
    """
    if len(layer_dims) < 2:
        raise InputError("need at least an input and an output dimension")
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


def _forward_cached(params: ModelParams, x: np.ndarray):
    """Forward pass over a batch, keeping every layer's pre/post activations."""
    pre, post = [], [x]
    a = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T + b
        a = np.maximum(z, 0.0)
        pre.append(z)
        post.append(a)
    logits = a @ params.weights[-1].T + params.biases[-1]
    return logits, pre, post


def forward_batch(params: ModelParams, x: np.ndarray) -> ForwardResult:
    """Forward a (n, input_dim) batch; embedding is the penultimate activation."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise InputError(
            f"input shape {x.shape} does not match network input dim {params.input_dim}"
        )
    forward_counter.add(x.shape[0])
    logits, _, post = _forward_cached(params, x)
    return ForwardResult(logits=logits, probs=softmax(logits), embedding=post[-1])


def forward(params: ModelParams, x: np.ndarray) -> ForwardResult:
    """Forward a single sample: logits, softmax probabilities, embedding."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected a 1-d input vector, got shape {x.shape}")
    res = forward_batch(params, x[None, :])
    return ForwardResult(logits=res.logits[0], probs=res.probs[0], embedding=res.embedding[0])


def _as_batch(inputs, targets, weights):
    x = np.asarray(inputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or t.ndim != 2:
        raise InputError("inputs and targets must be 2-d (batch) arrays")
    if x.shape[0] == 0:
        raise InputError("empty batch")
    if t.shape[0] != x.shape[0]:
        raise InputError("inputs and targets disagree on batch size")
    if weights is None:
        w = np.ones(x.shape[0])
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (x.shape[0],):
            raise InputError("weights must be one scalar per batch row")
    return x, t, w


def loss_and_grads(
    params: ModelParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, Gradients, np.ndarray]:
    """Weighted mean cross-entropy over a batch, with exact gradients.

    loss = (1/N) * sum_j weights[j] * CE(targets[j], probs[j]), where
    targets are probability distributions (one-hot or soft). Returns
    (loss, gradients, probs).
    """
    x, t, w = _as_batch(inputs, targets, weights)
    if x.shape[1] != params.input_dim:
        raise InputError(
            f"input dim {x.shape[1]} does not match network input dim {params.input_dim}"
        )
    n = x.shape[0]
    forward_counter.add(n)
    logits, pre, post = _forward_cached(params, x)
    probs = softmax(logits)

    logp = logits - logits.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    loss = float(np.sum(w * -(t * logp).sum(axis=1)) / n)

    # d loss / d logits = (w/N) * (p - t), then standard backprop.
    dlogits = (w / n)[:, None] * (probs - t)
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
    return loss, Gradients(gw, gb), probs


def backward(
    params: ModelParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> Gradients:
    """Gradients of the weighted mean cross-entropy over a batch."""
    _, grads, _ = loss_and_grads(params, inputs, targets, weights)
    return grads


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
        if lr <= 0:
            raise InputError("learning rate must be positive")
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
        v.weights = [self.momentum * vw + gw for vw, gw in zip(v.weights, grads.weights)]
        v.biases = [self.momentum * vb + gb for vb, gb in zip(v.biases, grads.biases)]
        return sgd_step(params, v, self.lr)


def predict_batch(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Predicted class labels for a batch (argmax, ties to lowest index)."""
    return np.argmax(forward_batch(params, x).probs, axis=1)


def finite_diff_grads(
    params: ModelParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
    step: float = 1e-6,
) -> Gradients:
    """Central finite-difference gradient oracle.

    Perturbs every scalar parameter by +/- step and differences the batch
    loss. Quadratic in parameter count; intended for small nets only.
    """

    def loss_with(p: ModelParams) -> float:
        return loss_and_grads(p, inputs, targets, weights)[0]

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
    inputs, soft targets, and positive per-example weights are all drawn
    at random from the given seed.
    """
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
        t = rng.dirichlet(np.ones(k), size=n)
        w = rng.uniform(0.2, 2.0, size=n)
        analytic = backward(params, x, t, w)
        numeric = finite_diff_grads(params, x, t, w, step=step)
        errors.append(gradient_relative_error(analytic, numeric))
    return errors
