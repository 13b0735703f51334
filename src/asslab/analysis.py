"""Post-hoc diagnostics over logged training snapshots.

Operates on SnapshotSeries (per-snapshot predictions for every unlabeled
sample), turning them into temporal-instability counts, rank correlations
between consecutive snapshots, confidence profiles, pseudo-label coverage
ratios, and cross-strategy pairwise win matrices. Everything here is a
pure function over logs; nothing touches a model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class SnapshotSeries:
    """Aligned per-snapshot statistics for one run's unlabeled pool.

    Row t of each (T, n) array corresponds to steps[t]; column j to
    ids[j]. Storing columns in one matrix guarantees every sample shares
    the same snapshot grid.
    """

    ids: np.ndarray  # (n,)
    steps: np.ndarray  # (T,)
    labels: np.ndarray  # (T, n) int predicted labels
    uncertainty: np.ndarray  # (T, n)
    max_prob: np.ndarray  # (T, n)

    def __post_init__(self):
        t, n = len(self.steps), len(self.ids)
        for name in ("labels", "uncertainty", "max_prob"):
            if getattr(self, name).shape != (t, n):
                raise InputError(f"{name} must have shape ({t}, {n})")
        if t > 1 and not np.all(np.diff(self.steps) > 0):
            raise InputError("snapshot steps must be strictly increasing")
        if len(np.unique(self.ids)) != n:
            raise InputError("sample ids must be unique")

    @property
    def n_snapshots(self) -> int:
        return len(self.steps)

    @property
    def n_samples(self) -> int:
        return len(self.ids)


def temporal_instability_batch(series: SnapshotSeries) -> np.ndarray:
    """Per-sample count of adjacent predicted-label changes over all
    snapshots, aligned to ids."""
    lab = series.labels
    if lab.shape[0] == 0:
        raise InputError("series has no snapshots")
    return np.count_nonzero(lab[1:] != lab[:-1], axis=0)


def _fractional_ranks(v: np.ndarray) -> np.ndarray:
    # Average-rank ties: each tie group gets the mean of its 1-based ranks.
    uniq, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg = (upper - counts + 1 + upper) / 2.0
    return avg[inv]


def spearman(a, b) -> float | None:
    """Rank correlation; None when either input has zero rank variance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("inputs must be equal-length vectors")
    if len(a) < 2:
        raise InputError("need at least two observations")
    ra, rb = _fractional_ranks(a), _fractional_ranks(b)
    ca, cb = ra - ra.mean(), rb - rb.mean()
    denom = np.sqrt((ca * ca).sum() * (cb * cb).sum())
    if denom == 0.0:
        return None
    return float((ca * cb).sum() / denom)


def consecutive_snapshot_spearman(series: SnapshotSeries) -> list[float | None]:
    """Spearman between uncertainty rankings of each adjacent snapshot pair."""
    if series.n_snapshots < 2:
        raise InputError("need at least two snapshots")
    return [
        spearman(series.uncertainty[t], series.uncertainty[t + 1])
        for t in range(series.n_snapshots - 1)
    ]


def ti_uncertainty_profile(series: SnapshotSeries) -> list[tuple[int, int, float, float]]:
    """Group samples by temporal instability.

    Returns (ti, count, mean, std) per group, sorted by ti, where the
    statistics are over each sample's time-averaged uncertainty
    (population std, ddof 0).
    """
    ti = temporal_instability_batch(series)
    avg_u = series.uncertainty.mean(axis=0)
    out = []
    for val in np.unique(ti):
        sel = avg_u[ti == val]
        out.append((int(val), int(sel.size), float(sel.mean()), float(sel.std())))
    return out


def pseudo_label_flags(series: SnapshotSeries, tau: float = 0.95) -> np.ndarray:
    """True for samples whose max-prob exceeded tau in at least one snapshot."""
    return np.any(series.max_prob > tau, axis=0)


def pseudo_labeled_ratio(
    series: SnapshotSeries,
    scores: dict[int, float],
    top_frac: float,
    tau: float = 0.95,
) -> float:
    """Fraction of top-scored samples that ever crossed the threshold.

    Takes the ceil(top_frac * n) highest-scoring ids (ties to lower id)
    and reports how many of them were pseudo-labeled at least once.
    """
    if not 0.0 < top_frac <= 1.0:
        raise InputError(f"top_frac must be in (0, 1], got {top_frac}")
    flags = pseudo_label_flags(series, tau)
    try:
        score_arr = np.asarray([scores[int(i)] for i in series.ids], dtype=np.float64)
    except KeyError as e:
        raise InputError(f"missing score for sample id {e.args[0]}") from e
    m = int(np.ceil(top_frac * series.n_samples))
    order = np.lexsort((series.ids, -score_arr))
    top = order[:m]
    return float(np.count_nonzero(flags[top]) / m)


@dataclass
class PairwiseResult:
    strategies: list[str]
    settings: list
    matrix: np.ndarray  # (s, s) int win counts
    column_means: np.ndarray  # (s,) lower is better


def pairwise_matrix(results: dict[str, dict]) -> PairwiseResult:
    """Win-count matrix: entry (i, j) counts settings where i beat j strictly.

    All strategies must be evaluated on identical setting keys. The column
    mean summarizes how often a strategy was beaten (lower is better).
    """
    strategies = list(results)
    if not strategies:
        raise InputError("no strategies given")
    settings = sorted(results[strategies[0]])
    for s in strategies:
        if sorted(results[s]) != settings:
            raise InputError(f"strategy {s!r} evaluated on different settings")
    if not settings:
        raise InputError("no settings given")
    acc = np.array([[results[s][key] for key in settings] for s in strategies])
    wins = (acc[:, None, :] > acc[None, :, :]).sum(axis=2)
    np.fill_diagonal(wins, 0)
    return PairwiseResult(
        strategies=strategies,
        settings=settings,
        matrix=wins.astype(np.int64),
        column_means=wins.mean(axis=0),
    )


def export_series(series: SnapshotSeries, path) -> None:
    """One row per (snapshot, sample); floats via repr for exact round trips."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "sample_id", "label", "uncertainty", "max_prob"])
        for t in range(series.n_snapshots):
            step = int(series.steps[t])
            for j in range(series.n_samples):
                writer.writerow(
                    [
                        step,
                        int(series.ids[j]),
                        int(series.labels[t, j]),
                        repr(float(series.uncertainty[t, j])),
                        repr(float(series.max_prob[t, j])),
                    ]
                )


def load_series(path) -> SnapshotSeries:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["step", "sample_id", "label", "uncertainty", "max_prob"]:
            raise InputError(f"unexpected series header {header!r}")
        rows = list(reader)
    if not rows:
        raise InputError("empty snapshot series file")
    steps = sorted({int(r[0]) for r in rows})
    ids = sorted({int(r[1]) for r in rows})
    step_pos = {s: t for t, s in enumerate(steps)}
    id_pos = {i: j for j, i in enumerate(ids)}
    t_n = (len(steps), len(ids))
    labels = np.zeros(t_n, dtype=np.int64)
    uncertainty_arr = np.zeros(t_n)
    max_prob = np.zeros(t_n)
    seen = np.zeros(t_n, dtype=bool)
    for r in rows:
        t, j = step_pos[int(r[0])], id_pos[int(r[1])]
        if seen[t, j]:
            raise InputError(f"duplicate row for step {r[0]} sample {r[1]}")
        seen[t, j] = True
        labels[t, j] = int(r[2])
        uncertainty_arr[t, j] = float(r[3])
        max_prob[t, j] = float(r[4])
    if not seen.all():
        raise InputError("snapshot series is missing (step, sample) entries")
    return SnapshotSeries(
        ids=np.asarray(ids, dtype=np.int64),
        steps=np.asarray(steps, dtype=np.int64),
        labels=labels,
        uncertainty=uncertainty_arr,
        max_prob=max_prob,
    )


def write_ti_profile(path, profile: list[tuple[int, int, float, float]]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["ti", "count", "mean_u", "std_u"])
        for ti, count, mean, std in profile:
            writer.writerow([ti, count, repr(mean), repr(std)])


def write_spearman_series(path, values: list[float | None]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["pair_index", "spearman"])
        for t, v in enumerate(values):
            writer.writerow([t, "" if v is None else repr(v)])


def write_pseudo_ratio(path, rows: list[tuple[str, float, float]]) -> None:
    """rows: (ranking metric name, top_frac, ratio) triples."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "top_frac", "ratio"])
        for metric, frac, ratio in rows:
            writer.writerow([metric, repr(float(frac)), repr(float(ratio))])


def write_pairwise_matrix(path, result: PairwiseResult) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["strategy"] + result.strategies)
        for i, s in enumerate(result.strategies):
            writer.writerow([s] + [int(v) for v in result.matrix[i]])
        writer.writerow(["column_mean"] + [repr(float(v)) for v in result.column_means])
