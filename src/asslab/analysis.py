"""Post-hoc diagnostics over logged training snapshots.

Operates on SnapshotSeries (per-snapshot predictions for every unlabeled
sample), turning them into temporal-instability counts, rank correlations
between consecutive snapshots, confidence profiles, pseudo-label coverage
ratios, and cross-strategy pairwise win matrices. Everything here is a
pure function over logs; nothing touches a model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .table import read_table, write_table


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
            if not np.all(np.isfinite(getattr(self, name))):
                raise InputError(f"{name} must be finite")
        if t > 1 and not np.all(np.diff(self.steps) > 0):
            raise InputError("snapshot steps must be strictly increasing")
        ids = np.sort(self.ids, axis=None)
        if np.any(ids[1:] == ids[:-1]):
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
    if np.isnan(a).any() or np.isnan(b).any():
        raise InputError("inputs must not hold NaN")
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
    for val in np.flatnonzero(np.bincount(ti)):
        sel = avg_u[ti == val]
        out.append((int(val), int(sel.size), float(sel.mean()), float(sel.std())))
    return out


def pseudo_label_flags(series: SnapshotSeries, tau: float = 0.95) -> np.ndarray:
    """True for samples whose max-prob exceeded tau in at least one snapshot."""
    return np.any(series.max_prob > tau, axis=0)


def pseudo_labeled_ratio(
    series: SnapshotSeries,
    scores: np.ndarray,
    top_frac: float,
    tau: float = 0.95,
) -> float:
    """Fraction of top-scored samples that ever crossed the threshold.

    scores is aligned with series.ids. Takes the ceil(top_frac * n)
    highest-scoring ids (ties to lower id) and reports how many of them
    were pseudo-labeled at least once.
    """
    if not 0.0 < top_frac <= 1.0:
        raise InputError(f"top_frac must be in (0, 1], got {top_frac}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != series.ids.shape:
        raise InputError(f"need {series.n_samples} scores aligned with the series ids, "
                         f"got shape {scores.shape}")
    flags = pseudo_label_flags(series, tau)
    m = int(np.ceil(top_frac * series.n_samples))
    top = np.lexsort((series.ids, -scores))[:m]
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


SERIES_COLUMNS = {
    "step": int, "sample_id": int, "label": int, "uncertainty": float, "max_prob": float,
}


def export_series(series: SnapshotSeries, path) -> None:
    """One row per (snapshot, sample), snapshot-major."""
    t, n = series.n_snapshots, series.n_samples
    write_table(path, SERIES_COLUMNS, [
        np.repeat(series.steps, n), np.tile(series.ids, t), series.labels.ravel(),
        series.uncertainty.ravel(), series.max_prob.ravel(),
    ])


def load_series(path) -> SnapshotSeries:
    step, sample_id, label, uncertainty, max_prob = read_table(path, SERIES_COLUMNS)
    if len(step) == 0:
        raise InputError("empty snapshot series file")
    steps, t = np.unique(step, return_inverse=True)
    ids, j = np.unique(sample_id, return_inverse=True)
    cell = t * len(ids) + j
    cells, counts = np.unique(cell, return_counts=True)
    if len(cells) < len(cell):
        dup = cells[np.argmax(counts > 1)]
        raise InputError(
            f"duplicate row for step {steps[dup // len(ids)]} sample {ids[dup % len(ids)]}"
        )
    if len(cell) != len(steps) * len(ids):
        raise InputError("snapshot series is missing (step, sample) entries")

    def grid(column):
        out = np.empty_like(column)
        out[cell] = column
        return out.reshape(len(steps), len(ids))

    return SnapshotSeries(
        ids=ids, steps=steps, labels=grid(label),
        uncertainty=grid(uncertainty), max_prob=grid(max_prob),
    )


def write_ti_profile(path, profile: list[tuple[int, int, float, float]]) -> None:
    write_table(path, ["ti", "count", "mean_u", "std_u"],
                [[row[c] for row in profile] for c in range(4)])


def write_spearman_series(path, values: list[float | None]) -> None:
    write_table(path, ["pair_index", "spearman"], [list(range(len(values))), values])


def write_pseudo_ratio(path, rows: list[tuple[str, float, float]]) -> None:
    """rows: (ranking metric name, top_frac, ratio) triples."""
    write_table(path, ["metric", "top_frac", "ratio"],
                [[row[c] for row in rows] for c in range(3)])


def write_pairwise_matrix(path, result: PairwiseResult) -> None:
    """One row per strategy's win counts, then the float column means."""
    write_table(path, ["strategy"] + result.strategies, [
        result.strategies + ["column_mean"],
        *(wins + [mean] for wins, mean in
          zip(result.matrix.T.tolist(), result.column_means.tolist())),
    ])
