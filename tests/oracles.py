"""Reference implementations the production code is tested against.

The scalar references follow their definitions one sample at a time, in
plain Python except for the per-sample matrix products of the forward
pass. soft_target_loss_and_grads is the cross-entropy formula for any
target distribution, which integer labels replaced. uncertainty_norm and
inconsistency_two_logs are the tracker's batch statistics as first
written, the one-hot difference through np.linalg.norm and one log
difference per KL term; the tracker must match them bit for bit.
dsq_to_centers, kmeanspp_seed and lloyd are diversity acquisition's
k-means as first written, recomputing the points' squared norms in every
distance call and selecting each cluster with a boolean mask; the
acquisition module must match them bit for bit. nearest_picks is
diversity acquisition's fill as first written, one full stable argsort
per centroid, and coreset the blocked greedy k-center with a distance
pass after every pick, the k-th included. events_csv is a lane's event
log as one string, built by the csv module. None of
them imports anything from asslab, so a mistake in the production code
cannot also hide in its reference. import_dataset, the reader of dataset.csv that
only tests need, is the one exception: it builds an asslab Dataset.
"""

import csv
import io
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


def uncertainty_norm(probs) -> np.ndarray:
    """Per-row L2 distance to the one-hot of the argmax, via np.linalg.norm."""
    p = np.asarray(probs, dtype=np.float64)
    one_hot = np.zeros_like(p)
    one_hot[np.arange(p.shape[0]), np.argmax(p, axis=1)] = 1.0
    return np.linalg.norm(p - one_hot, axis=1)


def inconsistency_two_logs(probs_w, probs_s) -> np.ndarray:
    """Per-row symmetrized KL, each direction with its own log difference."""
    pw = np.asarray(probs_w, dtype=np.float64)
    ps = np.asarray(probs_s, dtype=np.float64)
    log_w = np.log(np.maximum(pw, EPS_PROB))
    log_s = np.log(np.maximum(ps, EPS_PROB))
    kl_ws = ((pw * (log_w - log_s)).sum(axis=1))
    kl_sw = ((ps * (log_s - log_w)).sum(axis=1))
    return 0.5 * (kl_ws + kl_sw)


@dataclass
class EmaState:
    """Exponential moving mean/variance, zero-initialized, no bias correction."""

    mean: float = 0.0
    var: float = 0.0
    count: int = 0


def ema_update(state: EmaState, value: float, alpha: float) -> EmaState:
    """mean' = alpha*value + (1-alpha)*mean, then
    var' = alpha*(value - mean')^2 + (1-alpha)*var."""
    new_mean = alpha * value + (1.0 - alpha) * state.mean
    new_var = alpha * (value - new_mean) ** 2 + (1.0 - alpha) * state.var
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


def dsq_to_centers(points, centers) -> np.ndarray:
    """(n, len(centers)) squared distances by the Gram trick, clipped at 0."""
    d2 = (
        (points**2).sum(axis=1)[:, None]
        - 2.0 * points @ centers.T
        + (centers**2).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def kmeanspp_seed(points, k: int, rng) -> np.ndarray:
    """k centers by D^2 sampling; uniform draws once every distance is 0."""
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = dsq_to_centers(points, centers[:1]).min(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        d2 = np.minimum(d2, dsq_to_centers(points, centers[j : j + 1])[:, 0])
    return centers


def lloyd(points, centers, max_iter: int, tol: float) -> np.ndarray:
    """Lloyd refinement; an empty cluster keeps its centroid, and the loop
    stops once no centroid moves farther than tol."""
    for _ in range(max_iter):
        assign = dsq_to_centers(points, centers).argmin(axis=1)
        new_centers = centers.copy()
        for j in range(len(centers)):
            members = points[assign == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift < tol:
            break
    return centers


def nearest_picks(d2, k: int) -> np.ndarray:
    """Each centroid's nearest unused position: first every column's
    nearest, duplicates dropped, then the next-nearest unused, cycling in
    column order. Ties go to the lower position, NaN sorts last."""
    n = len(d2)
    nearest_order = [np.argsort(d2[:, j], kind="stable") for j in range(k)]
    used = np.zeros(n, dtype=bool)
    picked: list[int] = []
    for j in range(k):
        cand = int(nearest_order[j][0])
        if not used[cand]:
            used[cand] = True
            picked.append(cand)
    cursors = [0] * k
    j = 0
    while len(picked) < k:
        order_j = nearest_order[j % k]
        while cursors[j % k] < n and used[order_j[cursors[j % k]]]:
            cursors[j % k] += 1
        if cursors[j % k] < n:
            cand = int(order_j[cursors[j % k]])
            used[cand] = True
            picked.append(cand)
        j += 1
    return np.asarray(picked)


def coreset(emb, labeled_emb, k: int, block_rows: int = 256):
    """Greedy k-center (picks, covering distances) in blocks of block_rows
    pool rows, folding each pick's distances in after every pick."""
    n = len(emb)
    block = np.empty((min(n, block_rows), emb.shape[1]))
    block_dist = np.empty(len(block))

    def fold(row, cover, root):
        for lo in range(0, n, block_rows):
            hi = min(lo + block_rows, n)
            b, d = block[: hi - lo], block_dist[: hi - lo]
            np.subtract(emb[lo:hi], row, out=b)
            np.multiply(b, b, out=b)
            np.add.reduce(b, axis=1, out=d)
            if root:
                np.sqrt(d, out=d)
            np.minimum(cover[lo:hi], d, out=cover[lo:hi])

    min_dist = np.full(n, np.inf)
    for row in labeled_emb:
        fold(row, min_dist, root=False)
    np.sqrt(min_dist, out=min_dist)
    picked, dists = [], []
    for _ in range(k):
        best = int(np.argmax(min_dist))
        picked.append(best)
        dists.append(min_dist[best])
        fold(emb[best], min_dist, root=True)
        min_dist[best] = -np.inf
    return np.asarray(picked), np.asarray(dists)


def events_csv(lane_rounds) -> bytes:
    """A lane's events file: the header, then round i's (step, ids,
    probs_weak, probs_strong) events of lane_rounds[i] as rows, all
    formatted into one string."""
    k = next(events for events in lane_rounds if events)[0][2].shape[1]
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["round", "step", "sample_id"]
                    + [f"p_{v}{j}" for v in "ws" for j in range(k)])
    for round_index, events in enumerate(lane_rounds):
        for step, ids, pw, ps in events:
            for i, sample_id in enumerate(ids.tolist()):
                writer.writerow([round_index, step, sample_id, *pw[i].tolist(), *ps[i].tolist()])
    return text.getvalue().encode()


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


def soft_target_loss_and_grads(params, x, targets, weights):
    """(loss, (weight grads, bias grads), probs) of the weighted mean
    cross-entropy against target distributions, one row per sample.

    loss = (1/N) * sum_j weights[j] * -sum_c targets[j, c] * log probs[j, c];
    d loss / d logits = (weights / N) * (probs - targets), then backprop.
    """
    pre, post = [], [x]
    a = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T + b
        a = np.maximum(z, 0.0)
        pre.append(z)
        post.append(a)
    logits = a @ params.weights[-1].T + params.biases[-1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    n = x.shape[0]
    logp = logits - logits.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    loss = float(np.sum(weights * -(targets * logp).sum(axis=1)) / n)
    dlogits = (weights / n)[:, None] * (probs - targets)
    n_layers = len(params.weights)
    gw, gb = [None] * n_layers, [None] * n_layers
    gw[-1] = dlogits.T @ post[-1]
    gb[-1] = dlogits.sum(axis=0)
    da = dlogits @ params.weights[-1]
    for i in range(n_layers - 2, -1, -1):
        dz = da * (pre[i] > 0)
        gw[i] = dz.T @ post[i]
        gb[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ params.weights[i]
    return loss, (gw, gb), probs


def import_dataset(path):
    """Read a dataset.csv written by asslab.data.export_dataset."""
    import csv

    from asslab.data import Dataset
    from asslab.errors import InputError
    from asslab.table import read_table

    with open(path, newline="") as f:
        names = next(csv.reader(f), [])
    # Expect at least one x column, so an `id,y` header is rejected.
    dim = max(len(names) - 2, 1)
    ids, *xs, y = read_table(path, {"id": int, **{f"x{j}": float for j in range(dim)}, "y": int})
    if not np.array_equal(ids, np.arange(len(ids))):
        raise InputError(f"{path}: ids must count up from 0 in row order")
    return Dataset(x=np.stack(xs, axis=1), y=y)
