"""Acquisition strategies: pick K unlabeled samples per round.

`acquire` is the one entry point: every strategy picks positions in the
sorted unlabeled pool, and `acquire` maps them to ids. The tracker-score
strategy reads precomputed streaming scores and touches no model, which
is the point: its selection is a single top-K over one array. Baselines
(entropy, margin, point-in-time confidence distance, coreset) read one
forward pass over the pool; the diversity variant clusters score-weighted
embeddings with k-means++ and Lloyd refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import Dataset, SamplePools
from .errors import AcquisitionError, ConfigError, InputError
from .tracker import TrackerSnapshot, uncertainty_batch


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the K largest scores, best first, ties to the lower position.

    Partition finds the K-th largest score in O(n), so only the entries
    at or above it are sorted, not the whole pool.
    """
    n = len(scores)
    sel = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    return sel[np.argsort(-scores[sel], kind="stable")[:k]]


def _entropy(probs: np.ndarray) -> np.ndarray:
    # 0 * log 0 = 0; softmax can underflow to exact zero for large logits.
    safe = np.where(probs > 0, probs, 1.0)
    return -(probs * np.log(safe)).sum(axis=1)


def _margin(probs: np.ndarray) -> np.ndarray:
    """Gap between the two largest probabilities of each row."""
    top2 = -np.partition(-probs, 1, axis=1)[:, :2]
    return top2[:, 0] - top2[:, 1]


# Pool rows per distance block: 512 KB of float64 at width 256, within
# one core's L2, and few enough blocks that per-call overhead stays small.
_BLOCK_ROWS = 256


def _coreset(
    emb: np.ndarray, labeled_emb: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy k-center: repeatedly take the sample farthest from coverage.

    Coverage is the labeled set plus everything picked so far; distance is
    Euclidean in embedding space. Returns positions in greedy pick order,
    ties to the lower position, with each pick's covering distance at
    selection time. Distances are computed a block of pool rows at a time
    into one reused buffer, with the same bits as np.linalg.norm.
    """
    n = len(emb)
    block = np.empty((min(n, _BLOCK_ROWS), emb.shape[1]))
    block_dist = np.empty(len(block))

    def fold(row: np.ndarray, cover: np.ndarray, root: bool) -> None:
        # cover = min(cover, squared distance to row, or its sqrt with root)
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            b, d = block[: hi - lo], block_dist[: hi - lo]
            np.subtract(emb[lo:hi], row, out=b)
            np.multiply(b, b, out=b)
            np.add.reduce(b, axis=1, out=d)
            if root:
                np.sqrt(d, out=d)
            np.minimum(cover[lo:hi], d, out=cover[lo:hi])

    # The labeled pass keeps squared distances and takes one sqrt at the
    # end: sqrt is monotone and correctly rounded, so sqrt(min) == min(sqrt).
    min_dist = np.full(n, np.inf)
    for row in labeled_emb:
        fold(row, min_dist, root=False)
    np.sqrt(min_dist, out=min_dist)
    picked, dists = [], []
    for _ in range(k):
        best = int(np.argmax(min_dist))  # the first maximum
        picked.append(best)
        dists.append(min_dist[best])
        if len(picked) < k:  # no pick reads the coverage of the last one
            fold(emb[best], min_dist, root=True)
            min_dist[best] = -np.inf
    return np.asarray(picked), np.asarray(dists)


def _dsq_to_centers(points: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (n, len(centers)); sq_norms is (points**2).sum(axis=1)."""
    # Gram trick; clip tiny negatives from cancellation. Doubling the
    # centers, not the points, rounds the same exact products 2*p*c, so
    # the bits match 2.0 * points @ centers.T without a pool-sized copy.
    d2 = points @ (2.0 * centers).T
    np.subtract(sq_norms[:, None], d2, out=d2)
    d2 += (centers**2).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _kmeanspp_seed(
    points: np.ndarray, sq_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = _dsq_to_centers(points, sq_norms, centers[:1]).min(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # all points coincide with centers
        centers[j] = points[idx]
        d2 = np.minimum(d2, _dsq_to_centers(points, sq_norms, centers[j : j + 1])[:, 0])
    return centers


LLOYD_MAX_ITER = 100
LLOYD_TOL = 1e-8  # stop once no centroid moves farther than this


def _lloyd(points: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    for _ in range(LLOYD_MAX_ITER):
        assign = _dsq_to_centers(points, sq_norms, centers).argmin(axis=1)
        # A stable sort by cluster lists each cluster's members in position
        # order, the rows (and so the mean's bits) of points[assign == j].
        members = np.argsort(assign, kind="stable")
        bounds = np.searchsorted(assign[members], np.arange(len(centers) + 1))
        new_centers = centers.copy()  # empty cluster keeps its old centroid
        for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:
                new_centers[j] = points[members[lo:hi]].mean(axis=0)
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift < LLOYD_TOL:
            break
    return centers


def _diverse(
    score: np.ndarray, emb: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Cluster score-weighted embeddings; return one position per centroid.

    Each sample's embedding is scaled by its streaming score, k-means++
    seeds K centers by D^2 sampling, Lloyd refines them, and every final
    centroid maps to its nearest actual sample. Duplicate mappings are
    dropped, then remaining slots fill with each centroid's next-nearest
    unused sample, cycling in centroid order. The fill ends only for
    K <= len(emb), which acquire checks.
    """
    weighted = score[:, None] * emb
    sq_norms = (weighted**2).sum(axis=1)
    centers = _lloyd(weighted, sq_norms, _kmeanspp_seed(weighted, sq_norms, k, rng))
    return _nearest_picks(_dsq_to_centers(weighted, sq_norms, centers), k)


def _nearest_picks(d2: np.ndarray, k: int) -> np.ndarray:
    """One pool position per column of the (n, k) distances d2, see _diverse.

    Ties go to the lower position. A column's first candidate is its
    stable argsort's first entry: the first smallest, NaN sorting last
    (where argmin would return the first NaN). A column is argsorted only
    when the fill reaches it; most fills end before any is.
    """
    n = len(d2)
    used = np.zeros(n, dtype=bool)
    picked: list[int] = []
    for j in range(k):
        real = np.flatnonzero(~np.isnan(d2[:, j]))
        cand = int(real[np.argmin(d2[real, j])]) if len(real) else 0
        if not used[cand]:
            used[cand] = True
            picked.append(cand)
    orders: dict[int, np.ndarray] = {}
    cursors = [0] * k
    j = 0
    while len(picked) < k:
        c = j % k
        if c not in orders:
            orders[c] = np.argsort(d2[:, c], kind="stable")
        order_c = orders[c]
        while cursors[c] < n and used[order_c[cursors[c]]]:
            cursors[c] += 1
        if cursors[c] < n:
            cand = int(order_c[cursors[c]])
            used[cand] = True
            picked.append(cand)
        j += 1
    return np.asarray(picked)


STRATEGIES = (
    "random",
    "entropy",
    "margin",
    "snapshot-el2n",
    "coreset",
    "ucb-product",
    "ucb-product-div",
)


@dataclass
class AcquisitionRequest:
    strategy: str
    k: int
    snapshot: TrackerSnapshot
    params: nn.ModelParams
    dataset: Dataset
    pools: SamplePools
    rng: np.random.Generator


def acquire(req: AcquisitionRequest) -> tuple[np.ndarray, np.ndarray | None]:
    """Pick req.k ids from the sorted unlabeled pool; returns (ids, scores).

    Each strategy picks positions in the sorted pool, so a tie goes to
    the lower position and with it the lower id. Ids are ranked best
    first (coreset: greedy pick order), each with its ranking value for
    the log (random: None).

    - random: a uniform draw without replacement.
    - ucb-product: top-K tracked score; no model inference.
    - ucb-product-div: _diverse over the pool's embeddings, each pick
      logged with its tracked score.
    - entropy: top-K Shannon entropy (natural log) of the predictions.
    - margin: top-K smallest gap between the two largest probabilities.
    - snapshot-el2n: top-K distance of the final model's prediction from
      its own one-hot.
    - coreset: _coreset, covering from the labeled embeddings.

    The tracked strategies need a snapshot of exactly this pool in which
    every sample has an event: zero events means training never visited
    the sample, so its score would be meaningless. The others run one
    forward pass over the pool (coreset one more over the labeled pool).
    """
    if req.strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {req.strategy!r}")
    ids, k = req.pools.sorted_unlabeled(), req.k
    if k < 1:
        raise InputError(f"K must be at least 1, got {k}")
    if k > len(ids):
        raise InputError(f"K = {k} exceeds pool size {len(ids)}")
    snap = req.snapshot
    if req.strategy.startswith("ucb-"):
        if not np.array_equal(snap.ids, ids):
            raise InputError("tracker snapshot ids differ from the unlabeled pool")
        if snap.counts is not None and (snap.counts == 0).any():
            missing = int(ids[np.flatnonzero(snap.counts == 0)[0]])
            raise AcquisitionError(
                f"sample {missing} has no tracked events; training coverage bug"
            )
    if req.strategy == "random":
        pos, logged = req.rng.choice(len(ids), size=k, replace=False), None
    elif req.strategy == "ucb-product":
        pos = _top_k(snap.score, k)
        logged = snap.score[pos]
    else:
        out = nn.forward_batch(req.params, req.dataset.x[ids])
        if req.strategy == "ucb-product-div":
            pos = _diverse(snap.score, out.embedding, k, req.rng)
            logged = snap.score[pos]
        elif req.strategy == "coreset":
            labeled = nn.forward_batch(req.params, req.dataset.x[req.pools.sorted_labeled()])
            pos, logged = _coreset(out.embedding, labeled.embedding, k)
        elif req.strategy == "margin":
            margin = _margin(out.probs)
            pos = _top_k(-margin, k)
            logged = margin[pos]
        else:
            score = (_entropy if req.strategy == "entropy" else uncertainty_batch)(out.probs)
            pos = _top_k(score, k)
            logged = score[pos]
    return ids[pos], logged
