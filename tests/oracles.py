"""Scalar reference implementations the vectorized code is tested against.

Each follows its definition one sample at a time, in plain Python except
for the per-sample matrix products of the forward pass, and imports
nothing from asslab, so a mistake in the vectorized code cannot also hide
in its reference.
"""

import math
from dataclasses import dataclass

import numpy as np

EPS_PROB = 1e-12  # probability floor inside logarithms


def _argmax(p) -> int:
    # Ties go to the lowest index.
    return max(range(len(p)), key=lambda m: (p[m], -m))


def uncertainty(probs) -> float:
    """L2 distance between a distribution and the one-hot of its argmax."""
    p = [float(v) for v in probs]
    j = _argmax(p)
    return math.sqrt(sum((v - (1.0 if m == j else 0.0)) ** 2 for m, v in enumerate(p)))


def inconsistency(probs_w, probs_s) -> float:
    """(KL(p_w||p_s) + KL(p_s||p_w)) / 2, natural log, floored inside the logs."""

    def kl(a, b):
        return sum(x * (math.log(max(x, EPS_PROB)) - math.log(max(y, EPS_PROB)))
                   for x, y in zip(a, b))

    pw = [float(v) for v in probs_w]
    ps = [float(v) for v in probs_s]
    return 0.5 * (kl(pw, ps) + kl(ps, pw))


@dataclass
class EmaState:
    """Exponential moving mean/variance, zero-initialized, no bias correction."""

    mean: float = 0.0
    var: float = 0.0
    count: int = 0


def ema_update(state: EmaState, value: float, alpha: float,
               variance_mean: str = "post") -> EmaState:
    """mean' = alpha*value + (1-alpha)*mean, then
    var' = alpha*(value - center)^2 + (1-alpha)*var, where center is mean'
    ("post") or mean ("pre")."""
    new_mean = alpha * value + (1.0 - alpha) * state.mean
    center = {"post": new_mean, "pre": state.mean}[variance_mean]
    new_var = alpha * (value - center) ** 2 + (1.0 - alpha) * state.var
    return EmaState(mean=new_mean, var=new_var, count=state.count + 1)


def ucb(state: EmaState, c: float) -> float:
    """mean + c * sqrt(var), with the variance clamped at zero."""
    return state.mean + c * math.sqrt(max(state.var, 0.0))


def final_score(u_ucb: float, i_ucb: float) -> float:
    """Acquisition score: product of the two upper confidence bounds."""
    return u_ucb * i_ucb


def pseudo_label(probs_weak, tau: float) -> tuple[int, int]:
    """(argmax class, mask): mask is 1 only when max prob strictly exceeds tau."""
    p = [float(v) for v in probs_weak]
    label = _argmax(p)
    return label, int(p[label] > tau)


def temporal_instability(labels) -> int:
    """Number of adjacent predicted-label changes along one sample's history."""
    labels = list(labels)
    return sum(a != b for a, b in zip(labels, labels[1:]))


def forward(params, x) -> tuple[list[float], np.ndarray]:
    """(softmax probabilities, penultimate activation) of one sample.

    params has the ReLU MLP's per-layer `weights` (out, in) and `biases`.
    """
    a = np.asarray(x, dtype=np.float64)
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.maximum(w @ a + b, 0.0)
    logits = [float(v) for v in params.weights[-1] @ a + params.biases[-1]]
    top = max(logits)
    e = [math.exp(v - top) for v in logits]
    total = sum(e)
    return [v / total for v in e], a


def round_robin(labels, n: int) -> list[int]:
    """Positions of the first n picks when the classes, in ascending order,
    take turns giving up their next sample in the given order; a class that
    runs out is skipped. Requires n <= len(labels)."""
    queues: dict = {}
    for pos, c in enumerate(labels):
        queues.setdefault(int(c), []).append(pos)
    picked: list[int] = []
    turn = 0
    while len(picked) < n:
        for c in sorted(queues):
            if turn < len(queues[c]) and len(picked) < n:
                picked.append(queues[c][turn])
        turn += 1
    return picked
