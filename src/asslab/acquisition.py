"""Acquisition strategies: pick K unlabeled samples per round.

The tracker-score strategy reads precomputed streaming scores and touches
no model, which is the point: its selection is a single top-K over one
array. Baselines (entropy, margin, point-in-time confidence distance,
coreset) re-infer the pool; the diversity variant clusters score-weighted
embeddings with k-means++ and Lloyd refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import Dataset, SamplePools
from .errors import AcquisitionError, ConfigError, InputError
from .tracker import TrackerSnapshot, uncertainty_batch


def _validate_k(k: int, n: int) -> None:
    if k < 1:
        raise InputError(f"K must be at least 1, got {k}")
    if k > n:
        raise InputError(f"K = {k} exceeds pool size {n}")


def _top_k_ids(ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-K by score, ties to lower id, ranked best first.

    Partition finds the K-th largest score in O(n), so only the entries
    at or above it are sorted, not the whole pool.
    """
    n = len(ids)
    _validate_k(k, n)
    sel = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    sel = sel[np.lexsort((ids[sel], -scores[sel]))[:k]]
    return ids[sel], scores[sel]


def acquire_topk_score(snapshot: TrackerSnapshot, k: int) -> np.ndarray:
    """Select the K highest streaming scores; performs zero model inference.

    A zero appearance count anywhere in the pool means the training loop
    failed to visit a sample, which would make its score meaningless.
    """
    if snapshot.counts is not None and (snapshot.counts == 0).any():
        missing = int(snapshot.ids[np.flatnonzero(snapshot.counts == 0)[0]])
        raise AcquisitionError(
            f"sample {missing} has no tracked events; training coverage bug"
        )
    ids, _ = _top_k_ids(snapshot.ids, snapshot.score, k)
    return ids


def acquire_random(unlabeled_ids, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement."""
    ids = np.asarray(unlabeled_ids, dtype=np.int64)
    _validate_k(k, len(ids))
    return rng.choice(ids, size=k, replace=False)


def _entropy(probs: np.ndarray) -> np.ndarray:
    # 0 * log 0 = 0; softmax can underflow to exact zero for large logits.
    safe = np.where(probs > 0, probs, 1.0)
    return -(probs * np.log(safe)).sum(axis=1)


def acquire_entropy(
    params: nn.ModelParams, dataset: Dataset, unlabeled_ids, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-K by Shannon entropy (natural log) of fresh raw-input predictions."""
    ids = np.asarray(unlabeled_ids, dtype=np.int64)
    _validate_k(k, len(ids))
    probs = nn.forward_batch(params, dataset.x[ids]).probs
    return _top_k_ids(ids, _entropy(probs), k)


def acquire_margin(
    params: nn.ModelParams, dataset: Dataset, unlabeled_ids, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-K by smallest gap between the two largest predicted probabilities."""
    ids = np.asarray(unlabeled_ids, dtype=np.int64)
    _validate_k(k, len(ids))
    probs = nn.forward_batch(params, dataset.x[ids]).probs
    top2 = -np.partition(-probs, 1, axis=1)[:, :2]
    margin = top2[:, 0] - top2[:, 1]
    sel, neg = _top_k_ids(ids, -margin, k)
    return sel, -neg


def acquire_snapshot_el2n(
    params: nn.ModelParams, dataset: Dataset, unlabeled_ids, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-K by point-in-time confidence distance of the final model alone."""
    ids = np.asarray(unlabeled_ids, dtype=np.int64)
    _validate_k(k, len(ids))
    probs = nn.forward_batch(params, dataset.x[ids]).probs
    return _top_k_ids(ids, uncertainty_batch(probs), k)


def acquire_coreset(
    unlabeled_ids,
    unlabeled_emb: np.ndarray,
    labeled_emb: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy k-center: repeatedly take the sample farthest from coverage.

    Coverage is the labeled set plus everything picked so far; distance is
    Euclidean in embedding space. Returns ids in greedy pick order along
    with each pick's covering distance at selection time.
    """
    ids = np.asarray(unlabeled_ids, dtype=np.int64)
    _validate_k(k, len(ids))
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    emb = np.asarray(unlabeled_emb, dtype=np.float64)[order]
    if emb.shape[0] != len(ids):
        raise InputError("one embedding row per unlabeled id required")
    if len(labeled_emb):
        diff = emb[:, None, :] - np.asarray(labeled_emb, dtype=np.float64)[None, :, :]
        min_dist = np.sqrt((diff**2).sum(axis=2)).min(axis=1)
    else:
        min_dist = np.full(len(ids), np.inf)
    picked, dists = [], []
    for _ in range(k):
        best = np.flatnonzero(min_dist == min_dist.max())[0]  # ids sorted: tie -> lower id
        picked.append(best)
        dists.append(min_dist[best])
        min_dist = np.minimum(min_dist, np.linalg.norm(emb - emb[best], axis=1))
        min_dist[best] = -np.inf
    return ids[np.asarray(picked)], np.asarray(dists)


def _dsq_to_centers(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # Gram trick; clip tiny negatives from cancellation.
    d2 = (
        (points**2).sum(axis=1)[:, None]
        - 2.0 * points @ centers.T
        + (centers**2).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = _dsq_to_centers(points, centers[:1]).min(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # all points coincide with centers
        centers[j] = points[idx]
        d2 = np.minimum(d2, _dsq_to_centers(points, centers[j : j + 1])[:, 0])
    return centers


LLOYD_MAX_ITER = 100
LLOYD_TOL = 1e-8  # stop once no centroid moves farther than this


def _lloyd(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    for _ in range(LLOYD_MAX_ITER):
        assign = _dsq_to_centers(points, centers).argmin(axis=1)
        new_centers = centers.copy()  # empty cluster keeps its old centroid
        for j in range(len(centers)):
            members = points[assign == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift < LLOYD_TOL:
            break
    return centers


def acquire_diverse(
    snapshot: TrackerSnapshot,
    embeddings: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Cluster score-weighted embeddings; return one sample per centroid.

    Each sample's embedding is scaled by its streaming score, k-means++
    seeds K centers by D^2 sampling, Lloyd refines them, and every final
    centroid maps to its nearest actual sample. Duplicate mappings are
    dropped, then remaining slots fill with each centroid's next-nearest
    unused sample, cycling in centroid order.
    """
    ids = snapshot.ids
    n = len(ids)
    _validate_k(k, n)
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] != n:
        raise InputError("one embedding row per snapshot id required")
    weighted = snapshot.score[:, None] * emb
    centers = _lloyd(weighted, _kmeanspp_seed(weighted, k, rng))
    # ids are sorted ascending, so a stable argsort on distance breaks
    # ties toward the lower id.
    d2 = _dsq_to_centers(weighted, centers)
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
    return ids[np.asarray(picked)]


def compute_embeddings(params: nn.ModelParams, dataset: Dataset, ids) -> np.ndarray:
    """Penultimate-layer activations for the given sample ids."""
    return nn.forward_batch(params, dataset.x[np.asarray(ids, dtype=np.int64)]).embedding


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
    """Dispatch one strategy; returns (ids, per-id scores or None).

    Scores are the strategy's own ranking values for logging; random and
    the clustering variant have no per-id ranking, so they return None.
    """
    unlabeled = req.pools.sorted_unlabeled()
    if req.strategy == "random":
        return acquire_random(unlabeled, req.k, req.rng), None
    if req.strategy == "entropy":
        return acquire_entropy(req.params, req.dataset, unlabeled, req.k)
    if req.strategy == "margin":
        return acquire_margin(req.params, req.dataset, unlabeled, req.k)
    if req.strategy == "snapshot-el2n":
        return acquire_snapshot_el2n(req.params, req.dataset, unlabeled, req.k)
    if req.strategy == "coreset":
        unl_emb = compute_embeddings(req.params, req.dataset, unlabeled)
        lab_emb = compute_embeddings(req.params, req.dataset, req.pools.sorted_labeled())
        return acquire_coreset(unlabeled, unl_emb, lab_emb, req.k)
    if req.strategy == "ucb-product":
        ids = acquire_topk_score(req.snapshot, req.k)
        pos = np.searchsorted(req.snapshot.ids, ids)
        return ids, req.snapshot.score[pos]
    if req.strategy == "ucb-product-div":
        emb = compute_embeddings(req.params, req.dataset, req.snapshot.ids)
        ids = acquire_diverse(req.snapshot, emb, req.k, req.rng)
        pos = np.searchsorted(req.snapshot.ids, ids)
        return ids, req.snapshot.score[pos]
    raise ConfigError(f"unknown strategy {req.strategy!r}")
