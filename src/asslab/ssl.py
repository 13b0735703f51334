"""Consistency-based semi-supervised training for one acquisition round.

Each step draws a labeled batch and the next unlabeled batch of an
epoch-shuffled stream over the pool, weakly augments both, pseudo-labels
confident weak-view predictions, and penalizes strong-view disagreement
with those pseudo-labels. Every unlabeled appearance yields one
weak/strong prediction pair, made before that step's parameter update;
the tracker folds in each epoch's pairs at once when the epoch ends (a
step may finish one epoch and start the next), and the rest when the
round ends. Periodic
snapshots of the whole unlabeled pool are collected for post-hoc analysis;
the harness asks for them in round 0 only, the one round whose series it
emits.
"""

from __future__ import annotations

import math
import sys
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
    snapshot_interval: int = 200  # a sweep uses it for round 0's series only
    hidden_dims: list[int] = field(default_factory=lambda: [64, 64])
    carry_tracker: bool = False  # keep tracker streams across rounds

    def _check_ranges(self):
        for name in ("steps_per_round", "batch_size", "mu", "snapshot_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.steps_per_round > sys.maxsize // 8:  # its float64 losses are past numpy's largest
            raise ConfigError(f"steps_per_round {self.steps_per_round} exceeds the largest array")
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


def evaluate_accuracy(params: nn.ModelParams, dataset: Dataset, ids: np.ndarray,
                      step: int) -> float:
    """Accuracy on ids of the model after step; ties go to the lowest class.

    Non-finite probabilities mean the last update diverged, which no loss
    has seen yet, so they raise TrainingError at that step.
    """
    if len(ids) == 0:
        return float("nan")
    probs = nn.forward_batch(params, dataset.x[ids]).probs
    if not np.all(np.isfinite(probs)):
        raise TrainingError(f"non-finite test predictions after step {step}", step=step)
    return float(np.mean(np.argmax(probs, axis=1) == dataset.y[ids]))


def _pool_snapshot(params, x_pool):
    probs = nn.forward_batch(params, x_pool).probs
    return np.argmax(probs, axis=1), uncertainty_batch(probs), probs.max(axis=1)


def _backprop_rows(mask: np.ndarray) -> np.ndarray:
    """The strong-batch rows to backpropagate: the pseudo-labeled ones.

    Every other row has weight zero and adds nothing to the gradient. A
    lone pseudo-labeled row goes with a second, zero-weight row, since
    BLAS computes a one-row product as gemv, which rounds differently
    from the gemm over the whole batch.
    """
    rows = mask.nonzero()[0]
    if len(rows) == 1 and len(mask) > 1:
        rows = np.array([0, rows[0]] if rows[0] else [0, 1])
    return rows


def _ingest_epoch(tracker: TrackerStore, parts: list[tuple]) -> None:
    """One ingest_batch call for the (positions, probs_weak, probs_strong)
    parts of one epoch."""
    tracker.ingest_batch(*(np.concatenate(rows) for rows in zip(*parts)))


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
    cadence. The second is the first permutation of the unlabeled
    positions. Per step, in fixed rng order: labeled ids, a fresh
    permutation if the step runs past the end of the current one, weak
    augmentation of the labeled batch, weak then strong augmentation of
    the unlabeled batch. The supervised and unsupervised gradients come
    from separate backward passes so that lambda_u = 0 reproduces a purely
    supervised run bit for bit on the same rng stream.

    The strong batch's loss and probabilities cover every row, but only
    its pseudo-labeled rows are backpropagated: the others have weight
    zero. A step with none steps on the supervised gradient alone, and a
    lone pseudo-labeled row goes with a zero-weight row (_backprop_rows).
    With OpenBLAS this gives the bits of the gradient over every row for
    2-d inputs, hidden widths 2-8, 64 and 256, and batches of at most 256
    rows; a 1-wide layer, width 17 or 512 rows and more may differ in the
    last bits, reproducibly from run to run.

    Pool snapshots record predictions on a fresh weak view, the same kind
    of view pseudo-labels are read from.

    The tracker ingests the prediction pairs by position in the pool, one
    call per epoch of the unlabeled stream. A step that runs past the end
    of a permutation takes its last positions, then the first ones of the
    fresh permutation: its leading rows finish the old epoch. Each epoch's
    rows are kept and folded in together at the step that uses up its
    permutation, and a partial last epoch when the round ends. Nothing
    reads the tracker during a round, and a position appears once per
    epoch, so every sample gets the same EMA updates in the same order as
    with one call per step. A non-finite statistic raises TrackerError
    when its epoch is folded in, not at its step.

    event_sink, when given, receives (step, ids, probs_weak, probs_strong)
    once per step, as the step makes them: mu * batch_size rows, which
    repeat an id only in a step that crosses an epoch end. The arrays are
    new every step and never written afterwards, so a sink may keep them
    without copying.
    """
    cfg.validate()
    labeled_ids = pools.sorted_labeled()
    unlabeled_ids = pools.sorted_unlabeled()
    if not labeled_ids.size or not unlabeled_ids.size:
        raise ConfigError("labeled and unlabeled pools must both be nonempty")
    n, mu_b = len(unlabeled_ids), cfg.mu * cfg.batch_size
    if n < mu_b:
        raise ConfigError(f"unlabeled pool size {n} below unlabeled batch {mu_b}")
    if not np.array_equal(tracker.ids, unlabeled_ids):
        raise ConfigError("tracker ids must match the unlabeled pool")
    if augmenter is None:
        augmenter = Augmenter.for_data(dataset.x)
    x_unlabeled_pool = dataset.x[unlabeled_ids]
    snap_rng = np.random.default_rng(int(rng.integers(2**63)))
    perm, taken = rng.permutation(n), 0  # this epoch's positions; how many are drawn

    sup_losses = np.empty(cfg.steps_per_round)
    unsup_losses = np.empty(cfg.steps_per_round)
    masked_count = 0
    snap_steps, snap_labels, snap_u, snap_mp = [], [], [], []
    optimizer = nn.SgdOptimizer(cfg.lr, cfg.momentum)
    epoch: list[tuple] = []  # (positions, probs_weak, probs_strong) of this epoch's steps

    for step in range(1, cfg.steps_per_round + 1):
        # Same values and generator state as rng.choice(labeled_ids, ...,
        # replace=True), without its argument handling.
        batch_lab = labeled_ids[rng.integers(0, len(labeled_ids), size=cfg.batch_size)]
        pos = perm[taken:taken + mu_b]
        cut, taken = len(pos), taken + mu_b  # cut: the rows from the old permutation
        if taken > n:  # continue in a fresh one
            perm, taken = rng.permutation(n), taken - n
            pos = np.concatenate((pos, perm[:taken]))
        x_unl = x_unlabeled_pool[pos]

        x_lab = augmenter.weak_batch(dataset.x[batch_lab], rng)
        x_unl_weak = augmenter.weak_batch(x_unl, rng)
        x_unl_strong = augmenter.strong_batch(x_unl, rng)

        sup_loss, grads, _ = nn.loss_and_grads(params, x_lab, dataset.y[batch_lab])
        probs_weak = nn.forward_batch(params, x_unl_weak).probs
        pl, mask = pseudo_label_batch(probs_weak, cfg.tau)
        unsup_loss, probs_strong, strong_cache = nn.loss_forward(
            params, x_unl_strong, pl, weights=mask
        )
        rows = _backprop_rows(mask)
        if rows.size:
            # grads += lambda_u * unsup_grads, in place in the fresh arrays,
            # with the two roundings of add_scaled.
            unsup_grads = nn.backward(params, strong_cache,
                                      None if rows.size == len(mask) else rows)
            for g, u in zip(grads.weights + grads.biases,
                            unsup_grads.weights + unsup_grads.biases):
                np.add(g, np.multiply(u, cfg.lambda_u, out=u), out=g)
        del strong_cache  # its activations stay out of the pool snapshot's peak

        total = sup_loss + cfg.lambda_u * unsup_loss
        if not math.isfinite(total):
            raise TrainingError(f"non-finite loss {total} at step {step}", step=step)

        if event_sink is not None:
            event_sink(step, unlabeled_ids[pos], probs_weak, probs_strong)
        if 0 < cut < mu_b:  # the first cut rows finish the old epoch
            epoch.append((pos[:cut], probs_weak[:cut], probs_strong[:cut]))
            _ingest_epoch(tracker, epoch)
            epoch = [(pos[cut:], probs_weak[cut:], probs_strong[cut:])]
        else:  # cut is 0 only right after an exact end, already folded in
            epoch.append((pos, probs_weak, probs_strong))
        if taken == n:  # an exact end
            _ingest_epoch(tracker, epoch)
            epoch = []
        masked_count += np.count_nonzero(mask)
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

    if epoch:
        _ingest_epoch(tracker, epoch)
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
        test_accuracy=evaluate_accuracy(params, dataset, pools.sorted_test(),
                                        cfg.steps_per_round),
        supervised_loss=float(sup_losses.mean()),
        unsupervised_loss=float(unsup_losses.mean()),
        mask_rate=masked_count / n_events,
        series=series,
        n_events=n_events,
    )
    return params, metrics
