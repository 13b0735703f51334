"""Synthetic 2-d datasets, pool bookkeeping, and point augmentations.

Three generators (gaussian blobs, two moons, concentric rings) produce
balanced labeled point clouds. Weak augmentation is small Gaussian jitter;
strong augmentation composes larger jitter, per-coordinate scaling, and
occasional coordinate dropout, so strongly augmented views can cross the
decision boundary while weak views stay close to the sample.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import DictConfig
from .errors import ConfigError, InputError
from .table import write_table

WEAK_SCALE = 0.05  # weak jitter sigma as a fraction of each feature's std
STRONG_MULT = 4.0  # strong jitter sigma as a multiple of the weak one
BLOB_RADIUS = 5.0  # gaussian-blobs centers sit on a circle of this radius
RING_SPACING = 2.0  # concentric-rings ring c has radius (c + 1) * RING_SPACING
UNLABELED, LABELED, TEST = 0, 1, 2  # the pool codes of SamplePools.state

GENERATOR_KINDS = ("gaussian-blobs", "two-moons", "concentric-rings")


@dataclass
class GeneratorSpec(DictConfig):
    kind: str = "two-moons"
    size: int = 2000
    n_classes: int = 2
    noise: float = 0.25  # enough class overlap that uncertainty rankings differ

    def _check_ranges(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.kind == "two-moons" and self.n_classes != 2:
            raise ConfigError("two-moons generates exactly 2 classes")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.size < 10 * self.n_classes:
            raise ConfigError(f"size {self.size} below 10 per class minimum")
        if self.noise < 0:
            raise ConfigError("noise must be nonnegative")
        if self.size > sys.maxsize // 16:  # (size, 2) float64 is past numpy's largest array
            raise ConfigError(f"size {self.size} exceeds the largest numpy array")


@dataclass
class Dataset:
    """Labeled point cloud; a sample's id is its row index.

    Labels are the integer classes 0..k-1, each with at least one row, so the
    class count is y.max() + 1.
    """

    x: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) int class labels

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise InputError(f"x {self.x.shape} and y {self.y.shape} must agree on length")
        if self.n == 0:
            raise InputError("dataset has no rows")
        if self.y.dtype.kind not in "iu" or self.y.min() < 0:
            raise InputError("labels must be nonnegative integers")
        # More classes than rows leaves one empty; bincount after that check
        # allocates at most n counts, and the cast is safe for uint64.
        if (self.n_classes > self.n
                or not np.bincount(self.y.astype(np.intp, copy=False)).all()):
            raise InputError("every class must be nonempty")

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1


def _balanced_counts(size: int, k: int) -> list[int]:
    base, extra = divmod(size, k)
    return [base + (1 if c < extra else 0) for c in range(k)]


def _seeded_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def generate(spec: GeneratorSpec, seed: int) -> Dataset:
    """Sample a balanced labeled dataset; rows are shuffled after generation."""
    spec.validate()
    rng = _seeded_rng(seed)
    counts = _balanced_counts(spec.size, spec.n_classes)
    xs, ys = [], []
    for c, n_c in enumerate(counts):
        if spec.kind == "gaussian-blobs":
            theta = 2.0 * np.pi * c / spec.n_classes
            pts = np.tile(BLOB_RADIUS * np.array([np.cos(theta), np.sin(theta)]), (n_c, 1))
        elif spec.kind == "two-moons":
            t = rng.uniform(0.0, np.pi, size=n_c)
            if c == 0:
                pts = np.column_stack([np.cos(t), np.sin(t)])
            else:
                pts = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
        else:  # concentric-rings
            radius = (c + 1) * RING_SPACING
            theta = rng.uniform(0.0, 2.0 * np.pi, size=n_c)
            pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
        if spec.noise > 0:
            pts = pts + rng.normal(scale=spec.noise, size=pts.shape)
        xs.append(pts)
        ys.append(np.full(n_c, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(spec.size)
    return Dataset(x=x[perm], y=y[perm])


def standardize(dataset: Dataset) -> Dataset:
    """Shift/scale features to zero mean and unit variance per dimension."""
    mean = dataset.x.mean(axis=0)
    std = dataset.x.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return replace(dataset, x=(dataset.x - mean) / std)


@dataclass(frozen=True, eq=False)
class SamplePools:
    """Labeled / unlabeled / test pools over one dataset: one read-only int8 pool
    code per row, so the pools are disjoint by construction and lanes can share
    them (updated copies). == is identity; compare the state arrays instead."""

    state: np.ndarray  # (n,) int8: UNLABELED, LABELED or TEST per row

    def __post_init__(self):
        self.state.flags.writeable = False

    def updated(self, acquired_ids) -> "SamplePools":
        """Move acquired ids from the unlabeled pool into the labeled pool."""
        ids = np.asarray(acquired_ids)
        if ids.ndim != 1 or (ids.size and not np.issubdtype(ids.dtype, np.integer)):
            raise InputError(f"acquired ids must be a 1-d array of integers, got {ids.dtype}")
        ids = ids.astype(np.intp)  # a uint64 id past intp's range wraps below 0
        n = len(self.state)
        if ids.size and (ids.min() < 0 or ids.max() >= n):  # before -1 can index row n - 1
            raise InputError(f"acquired ids {ids.min()}..{ids.max()} outside [0, {n})")
        if (self.state[ids] != UNLABELED).any():
            raise InputError("acquired ids must come from the unlabeled pool")
        state = self.state.copy()
        state[ids] = LABELED
        if np.count_nonzero(state != self.state) != ids.size:  # a repeated id moves once
            raise InputError("acquired ids must be unique")
        return SamplePools(state)

    def sorted_labeled(self) -> np.ndarray:
        return np.flatnonzero(self.state == LABELED)

    def sorted_unlabeled(self) -> np.ndarray:
        return np.flatnonzero(self.state == UNLABELED)

    def sorted_test(self) -> np.ndarray:
        return np.flatnonzero(self.state == TEST)


def split_pools(
    dataset: Dataset,
    n_init: int,
    n_test: int,
    seed: int,
    stratify: bool = True,
) -> SamplePools:
    """Draw a random test set, then a (stratified) initial labeled set.

    Stratification takes labeled samples round-robin across classes in
    random within-class order, so n_init == k yields one per class: the
    first n_init samples by (rank within their class, class).
    """
    k = dataset.n_classes
    if n_init + n_test >= dataset.n:
        raise ConfigError("n_init + n_test must leave a nonempty unlabeled pool")
    if n_init < k:
        raise ConfigError(f"n_init {n_init} below class count {k}")
    if n_test < 0:
        raise ConfigError("n_test must be nonnegative")
    rng = _seeded_rng(seed)
    perm = rng.permutation(dataset.n)
    test = perm[:n_test]
    rest = perm[n_test:]
    if stratify:
        y = dataset.y[rest]
        by_class = np.argsort(y, kind="stable")
        rank = np.empty_like(by_class)
        rank[by_class] = np.arange(len(y)) - np.searchsorted(y[by_class], y[by_class])
        labeled = rest[np.lexsort((y, rank))[:n_init]]
    else:
        labeled = rest[:n_init]
    state = np.full(dataset.n, UNLABELED, dtype=np.int8)
    state[test] = TEST
    state[labeled] = LABELED
    return SamplePools(state)


@dataclass
class Augmenter:
    """Weak/strong augmentation pair for point data.

    Weak: additive Gaussian jitter with per-dimension sigma_w. Strong:
    larger jitter, then per-coordinate scaling drawn from
    [scale_low, scale_high], then with probability drop_prob one random
    coordinate zeroed. All random draws happen unconditionally so the rng
    stream advances by a fixed amount per call regardless of outcomes.
    """

    sigma_w: np.ndarray  # (d,)
    sigma_s: np.ndarray  # (d,)
    scale_low: float = 0.7
    scale_high: float = 1.3
    drop_prob: float = 0.2

    @classmethod
    def for_data(cls, x: np.ndarray) -> "Augmenter":
        sigma_w = WEAK_SCALE * x.std(axis=0)
        return cls(sigma_w=sigma_w, sigma_s=STRONG_MULT * sigma_w)

    def weak_batch(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x + self.sigma_w * rng.standard_normal(x.shape)

    def strong_batch(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, d = x.shape
        out = x + self.sigma_s * rng.standard_normal((n, d))
        out *= rng.uniform(self.scale_low, self.scale_high, size=(n, d))
        u = rng.random(size=n)
        j = rng.integers(0, d, size=n)
        dropped = u < self.drop_prob
        out[dropped, j[dropped]] = 0.0
        return out


def export_dataset(dataset: Dataset, path) -> None:
    """Write `id,x0,...,y` rows; id is the row index."""
    write_table(path, ["id", *(f"x{j}" for j in range(dataset.dim)), "y"],
                [np.arange(dataset.n), *dataset.x.T, dataset.y])
