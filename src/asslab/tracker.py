"""Streaming per-sample acquisition statistics.

Each unlabeled sample carries exponential moving averages and variances of
two quantities observed whenever it appears in a training mini-batch: the
distance of its weak-view prediction from certainty, and the divergence
between its weak-view and strong-view predictions. Upper confidence bounds
over both streams multiply into the final acquisition score, so scoring
needs no extra inference after training ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, TrackerError
from .table import read_table, write_table

# Floor applied inside logarithms so degenerate (imported) distributions
# with exact zeros cannot produce infinities.
EPS_PROB = 1e-12


def uncertainty_batch(probs: np.ndarray) -> np.ndarray:
    """Per-row L2 distance between a distribution and the one-hot of its argmax.

    Zero exactly when the prediction is one-hot, growing as confidence
    drops. Ties in the argmax resolve to the lowest index.
    """
    d = np.array(probs, dtype=np.float64)
    d[np.arange(d.shape[0]), np.argmax(d, axis=1)] -= 1.0
    # np.linalg.norm's own formula for one axis, so the bits match it.
    return np.sqrt(np.add.reduce(d * d, axis=1))


def inconsistency_batch(probs_w: np.ndarray, probs_s: np.ndarray) -> np.ndarray:
    """Per-row symmetrized KL divergence between weak- and strong-view predictions.

    (KL(p_w||p_s) + KL(p_s||p_w)) / 2, natural log, probabilities floored
    at EPS_PROB inside the logs only.
    """
    pw = np.asarray(probs_w, dtype=np.float64)
    ps = np.asarray(probs_s, dtype=np.float64)
    d = np.log(np.maximum(pw, EPS_PROB)) - np.log(np.maximum(ps, EPS_PROB))
    kl_ws = (pw * d).sum(axis=1)
    kl_sw = (ps * -d).sum(axis=1)
    return 0.5 * (kl_ws + kl_sw)


@dataclass
class TrackerSnapshot:
    """Frozen copy of tracker statistics with UCBs and scores precomputed.

    counts carries each sample's appearance count when the snapshot comes
    straight from a TrackerStore; it is not part of the CSV format, so
    snapshots loaded from disk leave it None.
    """

    ids: np.ndarray
    u_mean: np.ndarray
    u_var: np.ndarray
    u_ucb: np.ndarray
    i_mean: np.ndarray
    i_var: np.ndarray
    i_ucb: np.ndarray
    score: np.ndarray
    counts: np.ndarray | None = None

    def export_csv(self, path) -> None:
        write_table(path, SNAPSHOT_COLUMNS, [
            self.ids, self.u_mean, self.u_var, self.u_ucb,
            self.i_mean, self.i_var, self.i_ucb, self.score,
        ])


SNAPSHOT_COLUMNS = {
    "sample_id": int, "u_mean": float, "u_var": float, "u_ucb": float,
    "i_mean": float, "i_var": float, "i_ucb": float, "score": float,
}


def load_snapshot_csv(path) -> TrackerSnapshot:
    columns = read_table(path, SNAPSHOT_COLUMNS)
    if not all(np.isfinite(column).all() for column in columns):
        raise InputError(f"{path}: non-finite statistic, which no TrackerStore holds")
    return TrackerSnapshot(*columns)


def _int_array(values, what: str) -> np.ndarray:
    """values as a 1-d int64 array; TrackerError unless each is an integer."""
    a = np.asarray(values)
    if a.ndim != 1 or (a.size and not np.issubdtype(a.dtype, np.integer)):
        raise TrackerError(f"{what} must be a 1-d array of integers, got {a.dtype} {a.shape}")
    return a.astype(np.int64, copy=False)


class TrackerStore:
    """(uncertainty, inconsistency) EMAs in (n, 2) arrays, row j for ids[j].

    Holds exactly the current unlabeled pool, sorted; acquired ids are
    removed by the caller between rounds. Single owner, no locking.
    """

    def __init__(
        self,
        ids,
        alpha: float = 0.8,
        c_u: float = 0.5,
        c_i: float = 2.0,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        if not (0.0 <= c_u < np.inf and 0.0 <= c_i < np.inf):
            raise ConfigError(
                f"confidence multipliers must be finite and nonnegative, got {c_u}, {c_i}"
            )
        ids = np.sort(_int_array(ids, "tracker ids"))
        if np.any(ids[1:] == ids[:-1]):
            raise ConfigError("tracker ids must be unique")
        self.alpha = alpha
        self.c_u = c_u
        self.c_i = c_i
        self.ids = ids
        self._mean = np.zeros((len(ids), 2))
        self._var = np.zeros((len(ids), 2))
        self._count = np.zeros(len(ids), dtype=np.int64)

    def ingest_batch(
        self, pos: np.ndarray, probs_weak: np.ndarray, probs_strong: np.ndarray
    ) -> None:
        """Fold one mini-batch of weak/strong prediction pairs into the streams.

        Each stream follows mean' = alpha*value + (1-alpha)*mean, then
        var' = alpha*(value - mean')^2 + (1-alpha)*var, from zero with no
        bias correction.

        pos holds positions in ids and must be unique within the call: the
        EMA recurrence is sequential per sample, and a fancy-indexed update
        would silently keep only the last duplicate. Both views hold one
        row of class probabilities per position.
        """
        pos = _int_array(pos, "positions")
        probs_weak = np.asarray(probs_weak, dtype=np.float64)
        probs_strong = np.asarray(probs_strong, dtype=np.float64)
        if (probs_weak.ndim != 2 or probs_weak.shape != probs_strong.shape
                or probs_weak.shape[0] != len(pos) or probs_weak.shape[1] == 0):
            raise TrackerError(
                f"views of shape {probs_weak.shape} and {probs_strong.shape}"
                f" for {len(pos)} positions; need (n_positions, n_classes) each"
            )
        if len(pos):
            lo, hi = pos.min(), pos.max()
            if lo < 0 or hi >= len(self.ids):
                raise TrackerError(f"positions {lo}..{hi} outside [0, {len(self.ids)})")
            counts = np.bincount(pos)
            if counts.max() > 1:
                dup = int(self.ids[np.argmax(counts > 1)])
                raise TrackerError(f"sample id {dup} twice in one ingest batch")
        # An inf or nan probability makes a non-finite statistic, refused
        # below; numpy's warning about it (inf + -inf) would come first.
        vals = np.empty((len(pos), 2))
        with np.errstate(invalid="ignore", over="ignore"):
            vals[:, 0] = uncertainty_batch(probs_weak)
            vals[:, 1] = inconsistency_batch(probs_weak, probs_strong)
        finite = np.isfinite(vals).all(axis=1)
        if not np.all(finite):
            raise TrackerError(
                f"non-finite statistics for sample id {int(self.ids[pos[~finite][0]])}"
            )
        a = self.alpha
        mean = a * vals + (1.0 - a) * self._mean[pos]
        self._var[pos] = a * (vals - mean) ** 2 + (1.0 - a) * self._var[pos]
        self._mean[pos] = mean
        self._count[pos] += 1

    def remove(self, ids) -> None:
        """Drop acquired ids; the store then matches the shrunken pool."""
        ids = _int_array(ids, "sample ids")
        known = np.isin(ids, self.ids)
        if not np.all(known):
            raise TrackerError(f"unknown sample id {int(ids[~known][0])}")
        keep = ~np.isin(self.ids, ids)
        if keep.size - np.count_nonzero(keep) < ids.size:  # an id given twice
            s = np.sort(ids)
            raise TrackerError(f"sample id {int(s[1:][s[1:] == s[:-1]][0])} twice in one remove")
        self.ids = self.ids[keep]
        self._mean = self._mean[keep]
        self._var = self._var[keep]
        self._count = self._count[keep]

    def snapshot(self) -> TrackerSnapshot:
        """UCB of each stream, mean + c * sqrt(var) with the variance clamped
        at zero, and their product as the acquisition score."""
        mean, var = self._mean.T.copy(), self._var.T.copy()
        u_ucb, i_ucb = mean + [[self.c_u], [self.c_i]] * np.sqrt(np.maximum(var, 0.0))
        return TrackerSnapshot(
            ids=self.ids.copy(), u_mean=mean[0], u_var=var[0], u_ucb=u_ucb,
            i_mean=mean[1], i_var=var[1], i_ucb=i_ucb, score=u_ucb * i_ucb,
            counts=self._count.copy(),
        )
