"""Reference implementations the production code is tested against.

The scalar references follow their definitions one sample at a time, in
plain Python except for the per-sample matrix products of the forward
pass. soft_target_loss_and_grads is the cross-entropy formula for any
target distribution, which integer labels replaced. finite_diff_grads is
the gradient oracle: central differences of weighted_nll, the weighted
mean NLL of forward, taken one scalar parameter at a time, and
gradient_relative_error the measure it is compared by. gradient_cases
draws the random nets and batches of the gradient check, the weights as
asslab.nn.init_params draws them, away from the ReLU kinks. uncertainty_norm and
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
log as one CSV string, built by the csv module, in the form emit wrote
before the event files became .npy tables; round_events_csv formats one
emitted round file, read by np.load, in that form, and lane_events_csv
rebuilds a lane's file from the per-round event files an emit writes.
ti_uncertainty_profile groups samples with np.unique, the form the
analysis module gave up so that it never imports numpy.ma. SetPools and split_pools are the sample pools as
three frozensets of ids, the form that one array of pool codes replaced,
and lexsort_split the stratified split by two whole-pool sorts, which
split_pools must match byte for byte. unlabeled_chunks is the training
step's epoch-shuffled unlabeled stream as first written, each step's
positions in chunks that each lie within one permutation.
read_table_csv is the table reader as first written, the csv module and
int() or float() for every table; asslab's reader parses the tables of
int and float columns with np.loadtxt, and must return its arrays bit for
bit or refuse what it refuses.
None of them imports anything from asslab, so a mistake in the production
code cannot also hide in its reference. import_dataset, the reader of dataset.csv that
only tests need, is the one exception: it builds an asslab Dataset.
"""

import csv
import io
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

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


def unlabeled_chunks(n: int, m: int, rng):
    """Each step's m positions of an epoch-shuffled stream over 0..n-1, as
    chunks that each lie within one permutation: a step finishes the
    current permutation before it draws the next, and may span several."""
    perm, cursor = rng.permutation(n), 0
    while True:
        chunks, left = [], m
        while left:
            if cursor == n:
                perm, cursor = rng.permutation(n), 0
            take = min(left, n - cursor)
            chunks.append(perm[cursor:cursor + take])
            cursor, left = cursor + take, left - take
        yield chunks


def temporal_instability(labels) -> int:
    """Number of adjacent predicted-label changes along one sample's history."""
    labels = list(labels)
    return sum(a != b for a, b in zip(labels, labels[1:]))


def ti_uncertainty_profile(labels, uncertainty) -> list[tuple[int, int, float, float]]:
    """(ti, count, mean, std) per temporal-instability group as first
    written: the groups are np.unique of the per-sample instabilities."""
    labels, uncertainty = np.asarray(labels), np.asarray(uncertainty)
    ti = np.array([temporal_instability(labels[:, j]) for j in range(labels.shape[1])])
    avg_u = uncertainty.mean(axis=0)
    out = []
    for val in np.unique(ti):
        sel = avg_u[ti == val]
        out.append((int(val), int(sel.size), float(sel.mean()), float(sel.std())))
    return out


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


def events_csv(lane_rounds, round_column=True) -> bytes:
    """A lane's events file: the header, then round i's (step, ids,
    probs_weak, probs_strong) events of lane_rounds[i] as rows, all
    formatted into one string. Without round_column it is the file of one
    round: lane_rounds holds that round's events alone, and the round
    index is neither a column nor a cell."""
    k = next(events for events in lane_rounds if events)[0][2].shape[1]
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow((["round"] if round_column else []) + ["step", "sample_id"]
                    + [f"p_{v}{j}" for v in "ws" for j in range(k)])
    for round_index, events in enumerate(lane_rounds):
        lead = [round_index] if round_column else []
        for step, ids, pw, ps in events:
            for i, sample_id in enumerate(ids.tolist()):
                writer.writerow(lead + [step, sample_id, *pw[i].tolist(), *ps[i].tolist()])
    return text.getvalue().encode()


def round_events_rows(path) -> tuple[list, list]:
    """The header and the rows of one round's events file, read by np.load
    and formatted as events_csv formats them: ints as ints, floats by repr."""
    table = np.load(path)
    return list(table.dtype.names), [list(row) for row in table.tolist()]


def round_events_csv(path) -> bytes:
    """One round's events file as the CSV that events_csv builds without
    its round column."""
    header, rows = round_events_rows(path)
    text = io.StringIO(newline="")
    csv.writer(text).writerows([header] + rows)
    return text.getvalue().encode()


def lane_events_csv(seed_dir, strategies, strategy, rounds) -> bytes | None:
    """A lane's events file in events_csv's form, rebuilt from the files
    seed_dir/events/round<r>_<owner>.npy and seed_dir/acquisitions.csv.

    The lane reached round r if it acquired in every round before it. Its
    round r is in the file of the first of strategies, in config order,
    whose acquired ids in each of rounds 0..r-1 equal its own as sets; a
    round with no file made no events. None if no round has a file.
    """
    with open(os.path.join(seed_dir, "acquisitions.csv"), newline="") as f:
        picks: dict = {}
        for row in csv.DictReader(f):
            picks.setdefault(row["strategy"], {}).setdefault(
                int(row["round"]), set()).add(int(row["sample_id"]))

    def history(s, r):
        done = picks.get(s, {})
        return [done[j] for j in range(r)] if all(j in done for j in range(r)) else None

    header, rows = None, []
    for r in range(min(len(picks.get(strategy, {})) + 1, rounds)):
        owner = next(s for s in strategies if history(s, r) == history(strategy, r))
        path = os.path.join(seed_dir, "events", f"round{r}_{owner}.npy")
        if os.path.exists(path):
            names, body = round_events_rows(path)
            header = ["round"] + names
            rows += [[r] + row for row in body]
    if header is None:
        return None
    text = io.StringIO(newline="")
    csv.writer(text).writerows([header] + rows)
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


@dataclass(frozen=True)
class SetPools:
    """The sample pools as three disjoint frozensets of ids, as first written."""

    labeled: frozenset
    unlabeled: frozenset
    test: frozenset

    def updated(self, acquired_ids) -> "SetPools":
        """Move acquired ids from unlabeled to labeled; ValueError for a
        repeated id or one outside the unlabeled pool."""
        acquired = frozenset(acquired_ids)
        if len(acquired) != len(acquired_ids):
            raise ValueError("acquired ids must be unique")
        if not acquired <= self.unlabeled:
            raise ValueError("acquired ids must come from the unlabeled pool")
        return SetPools(self.labeled | acquired, self.unlabeled - acquired, self.test)


def split_pools(labels, n_init: int, n_test: int, seed: int, stratify: bool = True) -> SetPools:
    """The first n_test rows of a seeded permutation are the test pool; of
    the rest, the round-robin picks (or the first n_init) are labeled."""
    perm = np.random.default_rng(seed).permutation(len(labels))
    test, rest = perm[:n_test], perm[n_test:]
    picks = round_robin([labels[i] for i in rest], n_init) if stratify else range(n_init)
    labeled = frozenset(int(rest[p]) for p in picks)
    test = frozenset(int(i) for i in test)
    return SetPools(labeled, frozenset(range(len(labels))) - labeled - test, test)


def lexsort_split(labels, n_init: int, n_test: int, seed: int):
    """(labeled ids, test ids) of a stratified split as the sort form wrote
    it: each rest row's rank within its class from a stable argsort by
    class, then the first n_init rows by (rank, class) from one lexsort."""
    labels = np.asarray(labels)
    perm = np.random.default_rng(seed).permutation(len(labels))
    test, rest = perm[:n_test], perm[n_test:]
    y = labels[rest]
    by_class = np.argsort(y, kind="stable")
    rank = np.empty_like(by_class)
    rank[by_class] = np.arange(len(y)) - np.searchsorted(y[by_class], y[by_class])
    return np.sort(rest[np.lexsort((y, rank))[:n_init]]), np.sort(test)


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


def weighted_nll(params, x, y, weights=None) -> float:
    """(1/N) * sum_j weights[j] * -log probs[j, y[j]], through forward one
    sample at a time; weights default to one per row."""
    w = [1.0] * len(y) if weights is None else weights
    return sum(float(wj) * -math.log(forward(params, xj)[0][int(yj)])
               for xj, yj, wj in zip(x, y, w)) / len(y)


def finite_diff_grads(params, x, y, weights=None, step: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of weighted_nll: the weight gradients,
    then the bias gradients, one array per layer.

    Perturbs every scalar of one copy of params by +/- step in place and
    restores it, so params is not written. Quadratic in parameter count;
    meant for small nets only.
    """
    p = SimpleNamespace(weights=[w.copy() for w in params.weights],
                        biases=[b.copy() for b in params.biases])
    grads = []
    for theta in p.weights + p.biases:
        g = np.zeros_like(theta)
        for idx in np.ndindex(theta.shape):
            orig = theta[idx]
            theta[idx] = orig + step
            hi = weighted_nll(p, x, y, weights)
            theta[idx] = orig - step
            lo = weighted_nll(p, x, y, weights)
            theta[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def gradient_relative_error(analytic, numeric) -> float:
    """Max over paired arrays of |a - f|_inf / max(|a|_inf, |f|_inf, 1e-3).

    The floor judges an array whose true gradient is (near) zero by its
    absolute error against the finite-difference noise floor.
    """
    worst = 0.0
    for a, f in zip(analytic, numeric):
        if a.size:
            den = max(float(np.max(np.abs(a))), float(np.max(np.abs(f))), 1e-3)
            worst = max(worst, float(np.max(np.abs(a - f))) / den)
    return worst


def gradient_cases(n_instances: int, seed: int):
    """Yield n_instances random (weights, biases, x, y, w) gradient-check cases.

    Each draws a net of 0-2 hidden layers, its weights the way
    asslab.nn.init_params draws them (zero biases), a batch of 1-5 rows,
    one integer class per row and positive per-row weights. ReLU kinks break
    the quadratic error model of central differences, so a batch whose
    pre-activations come within 1e-3 of a kink is redrawn.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        d_in = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        n_hidden = int(rng.integers(0, 3))
        dims = [d_in] + [int(rng.integers(3, 8)) for _ in range(n_hidden)] + [k]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        n = int(rng.integers(1, 6))
        while True:
            x = rng.normal(size=(n, d_in))
            a, near_kink = x, False
            for w, b in zip(weights[:-1], biases[:-1]):
                z = a @ w.T + b
                near_kink |= bool(np.min(np.abs(z)) <= 1e-3)
                a = np.maximum(z, 0.0)
            if not near_kink:
                break
        y = rng.integers(0, k, size=n)
        w = rng.uniform(0.2, 2.0, size=n)
        yield weights, biases, x, y, w


def read_table_csv(path, header) -> list:
    """read_table as first written: every table through the csv module.

    header maps each column name, in order, to int, float or str. Each
    row is split by csv.reader, its length checked, and each int or float
    column parsed by map(int) or map(float) into np.fromiter. A bad file
    raises ValueError, where read_table raises InputError.
    """
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, csv.Error, UnicodeDecodeError) as e:
        raise ValueError(f"{path}: not a readable CSV table: {e}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    names, *rows = rows
    if names != list(header):
        raise ValueError(f"{path}: unexpected header {names!r}")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(names):
            raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {len(names)}")
    columns = []
    for (name, kind), cells in zip(header.items(), zip(*rows) if rows else [()] * len(names)):
        try:
            columns.append(list(cells) if kind is str else np.fromiter(map(kind, cells), kind))
        except (ValueError, OverflowError) as e:
            raise ValueError(f"{path}: bad {name!r} cell: {e}") from None
    return columns


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
