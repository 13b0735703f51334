"""Consistency-based semi-supervised training for one acquisition round.

Each step draws a labeled batch and an epoch-shuffled unlabeled batch,
weakly augments both, pseudo-labels confident weak-view predictions, and
penalizes strong-view disagreement with those pseudo-labels. Every
unlabeled appearance feeds one weak/strong prediction pair to the tracker
before the parameter update, and periodic snapshots of the whole unlabeled
pool are collected for post-hoc analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .analysis import SnapshotSeries
from .config import DictConfig
from .data import Augmenter, Dataset, SamplePools
from .errors import ConfigError, TrainingError
from .tracker import TrackerStore, uncertainty_batch

INIT_MODES = ("rand_init", "con_init")


@dataclass
class SslConfig(DictConfig):
    steps_per_round: int = 2000
    batch_size: int = 16  # labeled examples per step
    mu: int = 4  # unlabeled batch = mu * batch_size
    tau: float = 0.95  # pseudo-label confidence threshold, strict
    lambda_u: float = 1.0  # unsupervised loss weight
    lr: float = 0.03
    momentum: float = 0.0
    init_mode: str = "rand_init"  # fresh fixed weights vs carry per round
    snapshot_interval: int = 200
    hidden_dims: list[int] = field(default_factory=lambda: [64, 64])
    weak_augment_labeled: bool = True
    carry_tracker: bool = False  # keep tracker streams across rounds

    def _check_ranges(self):
        if self.steps_per_round < 1:
            raise ConfigError("steps_per_round must be at least 1")
        if self.batch_size < 1 or self.mu < 1:
            raise ConfigError("batch_size and mu must be at least 1")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")
        if self.lambda_u < 0:
            raise ConfigError("lambda_u must be nonnegative")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")
        if self.snapshot_interval < 1:
            raise ConfigError("snapshot_interval must be at least 1")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ConfigError("hidden_dims must be positive")


@dataclass
class RoundMetrics:
    test_accuracy: float
    supervised_loss: float  # mean over steps
    unsupervised_loss: float  # mean over steps, before lambda_u weighting
    mask_rate: float  # fraction of unlabeled appearances that were pseudo-labeled
    series: SnapshotSeries | None
    n_events: int


def pseudo_label_batch(probs_weak: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row (argmax class, mask), ties to the lowest index; mask is 1.0
    only when the max prob strictly exceeds tau."""
    p = np.asarray(probs_weak, dtype=np.float64)
    labels = np.argmax(p, axis=1)
    mask = (p[np.arange(len(p)), labels] > tau).astype(np.float64)
    return labels, mask


class _UnlabeledIterator:
    """Epoch-shuffled stream over positions 0..n-1 of the unlabeled pool.

    Yields each step's positions as one or two chunks: a step that crosses
    an epoch boundary finishes the old permutation first, then continues
    in a fresh one. Each chunk lies within a single permutation and is
    therefore free of duplicate positions.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self._perm = rng.permutation(n)
        self._cursor = 0

    def next_chunks(self, m: int) -> list[np.ndarray]:
        chunks = []
        while m > 0:
            remaining = len(self._perm) - self._cursor
            if remaining == 0:
                self._perm = self.rng.permutation(self.n)
                self._cursor = 0
                remaining = len(self._perm)
            take = min(m, remaining)
            chunks.append(self._perm[self._cursor : self._cursor + take])
            self._cursor += take
            m -= take
        return chunks


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    t = np.zeros((len(labels), k))
    t[np.arange(len(labels)), labels] = 1.0
    return t


def evaluate_accuracy(params: nn.ModelParams, dataset: Dataset, ids: np.ndarray) -> float:
    if len(ids) == 0:
        return float("nan")
    pred = nn.predict_batch(params, dataset.x[ids])
    return float(np.mean(pred == dataset.y[ids]))


def _pool_snapshot(params, x_pool):
    probs = nn.forward_batch(params, x_pool).probs
    return (
        np.argmax(probs, axis=1),
        uncertainty_batch(probs),
        probs.max(axis=1),
    )


def train_round(
    params: nn.ModelParams,
    pools: SamplePools,
    dataset: Dataset,
    cfg: SslConfig,
    tracker: TrackerStore,
    rng: np.random.Generator,
    augmenter: Augmenter | None = None,
    event_sink=None,
) -> tuple[nn.ModelParams, RoundMetrics]:
    """Run one round of semi-supervised training.

    The first draw on rng seeds a separate generator for snapshot views,
    so the training stream's consumption is independent of the snapshot
    cadence. Per step, in fixed rng order: labeled ids, unlabeled
    position chunks, weak augmentation of the labeled batch, weak then
    strong augmentation of the unlabeled batch. The supervised and
    unsupervised gradients come from separate backward passes so that
    lambda_u = 0 reproduces a purely supervised run bit for bit on the
    same rng stream.

    Pool snapshots record predictions on a fresh weak view, the same kind
    of view pseudo-labels are read from.

    event_sink, when given, receives (step, ids, probs_weak, probs_strong)
    for every chunk, which the tracker ingests by position in the pool.
    """
    cfg.validate()
    if not pools.labeled or not pools.unlabeled:
        raise ConfigError("labeled and unlabeled pools must both be nonempty")
    labeled_ids = pools.sorted_labeled()
    unlabeled_ids = pools.sorted_unlabeled()
    mu_b = cfg.mu * cfg.batch_size
    if len(unlabeled_ids) < mu_b:
        raise ConfigError(
            f"unlabeled pool size {len(unlabeled_ids)} below unlabeled batch {mu_b}"
        )
    if not np.array_equal(tracker.ids, unlabeled_ids):
        raise ConfigError("tracker ids must match the unlabeled pool")
    if augmenter is None:
        augmenter = Augmenter.for_data(dataset.x)
    k = dataset.n_classes
    x_unlabeled_pool = dataset.x[unlabeled_ids]
    snap_rng = np.random.default_rng(int(rng.integers(2**63)))
    iterator = _UnlabeledIterator(len(unlabeled_ids), rng)

    sup_losses = np.empty(cfg.steps_per_round)
    unsup_losses = np.empty(cfg.steps_per_round)
    masked_count = 0
    snap_steps, snap_labels, snap_u, snap_mp = [], [], [], []
    optimizer = nn.SgdOptimizer(cfg.lr, cfg.momentum)

    for step in range(1, cfg.steps_per_round + 1):
        batch_lab = rng.choice(labeled_ids, size=cfg.batch_size, replace=True)
        chunks = iterator.next_chunks(mu_b)
        x_unl = x_unlabeled_pool[np.concatenate(chunks)]

        x_lab = dataset.x[batch_lab]
        if cfg.weak_augment_labeled:
            x_lab = augmenter.weak_batch(x_lab, rng)
        x_unl_weak = augmenter.weak_batch(x_unl, rng)
        x_unl_strong = augmenter.strong_batch(x_unl, rng)

        sup_loss, sup_grads, _ = nn.loss_and_grads(
            params, x_lab, one_hot(dataset.y[batch_lab], k)
        )
        probs_weak = nn.forward_batch(params, x_unl_weak).probs
        pl, mask = pseudo_label_batch(probs_weak, cfg.tau)
        unsup_loss, unsup_grads, probs_strong = nn.loss_and_grads(
            params, x_unl_strong, one_hot(pl, k), weights=mask
        )
        grads = sup_grads.add_scaled(unsup_grads, cfg.lambda_u)

        total = sup_loss + cfg.lambda_u * unsup_loss
        if not np.isfinite(total):
            raise TrainingError(f"non-finite loss {total} at step {step}", step=step)

        offset = 0
        for chunk in chunks:
            sel = slice(offset, offset + len(chunk))
            tracker.ingest_batch(chunk, probs_weak[sel], probs_strong[sel])
            if event_sink is not None:
                event_sink(step, unlabeled_ids[chunk], probs_weak[sel], probs_strong[sel])
            offset += len(chunk)
        masked_count += int(mask.sum())
        sup_losses[step - 1] = sup_loss
        unsup_losses[step - 1] = unsup_loss
        params = optimizer.step(params, grads)

        if step % cfg.snapshot_interval == 0:
            labels, u_vals, mp = _pool_snapshot(
                params, augmenter.weak_batch(x_unlabeled_pool, snap_rng)
            )
            if not np.all(np.isfinite(u_vals)):
                raise TrainingError(f"non-finite pool snapshot at step {step}", step=step)
            snap_steps.append(step)
            snap_labels.append(labels)
            snap_u.append(u_vals)
            snap_mp.append(mp)

    series = None
    if snap_steps:
        series = SnapshotSeries(
            ids=unlabeled_ids.copy(),
            steps=np.asarray(snap_steps, dtype=np.int64),
            labels=np.stack(snap_labels),
            uncertainty=np.stack(snap_u),
            max_prob=np.stack(snap_mp),
        )
    n_events = cfg.steps_per_round * mu_b
    metrics = RoundMetrics(
        test_accuracy=evaluate_accuracy(params, dataset, pools.sorted_test()),
        supervised_loss=float(sup_losses.mean()),
        unsupervised_loss=float(unsup_losses.mean()),
        mask_rate=masked_count / n_events,
        series=series,
        n_events=n_events,
    )
    return params, metrics
