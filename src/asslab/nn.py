"""Small feed-forward classifier with exact analytic gradients.

Everything runs in 64-bit numpy. The network is a plain ReLU MLP whose
penultimate activations double as the feature embedding used by
diversity-based acquisition.
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
    """Weights and biases of a ReLU MLP, or a gradient or velocity shaped
    like them.

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

    def add_scaled(self, other: "ModelParams", scale: float) -> "ModelParams":
        """self + scale * other, layer by layer, as new arrays."""
        return ModelParams(
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


def _softmax_parts(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(probs, shifted, sums) of a row-wise softmax: shifted = logits - row max,
    sums = row sums of exp(shifted), so log probs = shifted - log(sums)."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    return e / total, shifted, total


def _relu_in_place(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0, out=z)


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
    """(logits, inputs of every layer) of a batch."""
    post = [x]

    def relu(z):
        post.append(_relu_in_place(z))
        return z

    return _forward(params, x, relu)[0], post


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
    logits, embedding = _forward(params, x, _relu_in_place)
    return ForwardResult(probs=_softmax_parts(logits)[0], embedding=embedding)


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
            or np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= params.n_classes):
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
    d logits and every layer's input, one row per batch row.
    """
    x, y, w = _as_batch(params, inputs, labels, weights)
    n = x.shape[0]
    rows = np.arange(n)
    forward_counter.add(n)
    logits, post = _forward_cached(params, x)
    probs, shifted, total = _softmax_parts(logits)  # the one log-softmax
    nll = -(shifted[rows, y] - np.log(total[:, 0]))
    loss = float(np.add.reduce(nll if w is None else w * nll)) / n

    # d loss / d logits = (w/N) * (p - onehot(y)).
    dlogits = probs.copy()
    dlogits[rows, y] -= 1.0
    dlogits *= 1.0 / n if w is None else (w / n)[:, None]
    return loss, probs, (dlogits, post)


def backward(params: ModelParams, cache: tuple, rows: np.ndarray | None = None) -> ModelParams:
    """Backpropagate a loss_forward cache; rows, when given, picks the batch
    rows to backpropagate.

    Leaving out rows whose d loss / d logits is zero, as for a weight of
    zero, leaves the exact gradient; BLAS may still round a sum over fewer
    rows differently.
    """
    dlogits, post = cache
    if rows is not None:
        dlogits = dlogits[rows]
        post = [a[rows] for a in post]
    gw = [None] * params.n_layers
    gb = [None] * params.n_layers
    gw[-1] = dlogits.T @ post[-1]
    gb[-1] = np.add.reduce(dlogits, axis=0)
    da = dlogits @ params.weights[-1]
    for i in range(params.n_layers - 2, -1, -1):
        # relu(z) > 0 exactly where z > 0; da is a fresh product.
        dz = np.multiply(da, post[i + 1] > 0, out=da)
        gw[i] = dz.T @ post[i]
        gb[i] = np.add.reduce(dz, axis=0)
        if i > 0:
            da = dz @ params.weights[i]
    return ModelParams(gw, gb)


def loss_and_grads(
    params: ModelParams,
    inputs: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, ModelParams, np.ndarray]:
    """Weighted mean cross-entropy over a batch, with exact gradients.

    loss = -(1/N) * sum_j weights[j] * log probs[j, labels[j]], where labels
    holds one integer class in [0, n_classes) per row. Returns (loss,
    gradients, probs); probs is not modified afterwards. The gradients
    backpropagate every row.
    """
    loss, probs, cache = loss_forward(params, inputs, labels, weights)
    return loss, backward(params, cache), probs


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One plain gradient step: params' = params - lr * grads."""
    want = [a.shape for a in params.weights + params.biases]
    got = [a.shape for a in grads.weights + grads.biases]
    if got != want:
        raise InternalError(f"gradient shapes {got} do not match parameters {want}")
    return params.add_scaled(grads, -lr)  # w + (-lr) * g has the bits of w - lr * g


class SgdOptimizer:
    """Plain SGD; momentum is available but defaults off."""

    def __init__(self, lr: float, momentum: float = 0.0):
        if not 0.0 < lr < np.inf:
            raise InputError(f"learning rate must be positive and finite, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise InputError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity: ModelParams | None = None

    def step(self, params: ModelParams, grads: ModelParams) -> ModelParams:
        if self.momentum == 0.0:
            return sgd_step(params, grads, self.lr)
        if self._velocity is None:
            self._velocity = ModelParams(
                [np.zeros_like(w) for w in grads.weights],
                [np.zeros_like(b) for b in grads.biases],
            )
        v = self._velocity
        for vel, g in zip(v.weights + v.biases, grads.weights + grads.biases):
            vel *= self.momentum
            vel += g
        return sgd_step(params, v, self.lr)
