"""Synthetic 2-d datasets, pool bookkeeping, and point augmentations.

Three generators (gaussian blobs, two moons, concentric rings) produce
balanced labeled point clouds. Weak augmentation is small Gaussian jitter;
strong augmentation composes larger jitter, per-coordinate scaling, and
occasional coordinate dropout, so strongly augmented views can cross the
decision boundary while weak views stay close to the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import DictConfig
from .errors import ConfigError, InputError
from .table import read_table, write_table

WEAK_SCALE = 0.05  # weak jitter sigma as a fraction of each feature's std
STRONG_MULT = 4.0  # strong jitter sigma as a multiple of the weak one

GENERATOR_KINDS = ("gaussian-blobs", "two-moons", "concentric-rings")


@dataclass
class GeneratorSpec(DictConfig):
    kind: str = "two-moons"
    size: int = 2000
    n_classes: int = 2
    noise: float = 0.25  # enough class overlap that uncertainty rankings differ
    blob_radius: float = 5.0  # blob centers sit on a circle of this radius
    ring_spacing: float = 2.0  # ring c has radius (c + 1) * spacing

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


@dataclass
class Dataset:
    """Point cloud where row index equals sample id (contiguous from 0)."""

    ids: np.ndarray  # (n,) int
    x: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) int class labels
    spec: GeneratorSpec | None = None
    seed: int | None = None

    def __post_init__(self):
        if not np.array_equal(self.ids, np.arange(len(self.ids))):
            raise InputError("ids must be contiguous from 0 in row order")
        if self.x.shape[0] != len(self.ids) or self.y.shape[0] != len(self.ids):
            raise InputError("ids, x, y must agree on length")
        k = self.n_classes
        if np.any(self.y < 0) or np.any(self.y >= k):
            raise InputError("labels out of range")
        if len(np.unique(self.y)) != k:
            raise InputError("every class must be nonempty")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_classes(self) -> int:
        if self.spec is not None:
            return self.spec.n_classes
        return int(self.y.max()) + 1


def _balanced_counts(size: int, k: int) -> list[int]:
    base, extra = divmod(size, k)
    return [base + (1 if c < extra else 0) for c in range(k)]


def generate(spec: GeneratorSpec, seed: int) -> Dataset:
    """Sample a balanced labeled dataset; rows are shuffled after generation."""
    spec.validate()
    rng = np.random.default_rng(seed)
    counts = _balanced_counts(spec.size, spec.n_classes)
    xs, ys = [], []
    for c, n_c in enumerate(counts):
        if spec.kind == "gaussian-blobs":
            theta = 2.0 * np.pi * c / spec.n_classes
            pts = np.tile(spec.blob_radius * np.array([np.cos(theta), np.sin(theta)]), (n_c, 1))
        elif spec.kind == "two-moons":
            t = rng.uniform(0.0, np.pi, size=n_c)
            if c == 0:
                pts = np.column_stack([np.cos(t), np.sin(t)])
            else:
                pts = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
        else:  # concentric-rings
            radius = (c + 1) * spec.ring_spacing
            theta = rng.uniform(0.0, 2.0 * np.pi, size=n_c)
            pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
        if spec.noise > 0:
            pts = pts + rng.normal(scale=spec.noise, size=pts.shape)
        xs.append(pts)
        ys.append(np.full(n_c, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(spec.size)
    return Dataset(ids=np.arange(spec.size), x=x[perm], y=y[perm], spec=spec, seed=seed)


def standardize(dataset: Dataset) -> Dataset:
    """Shift/scale features to zero mean and unit variance per dimension."""
    mean = dataset.x.mean(axis=0)
    std = dataset.x.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return replace(dataset, x=(dataset.x - mean) / std)


@dataclass(frozen=True)
class SamplePools:
    """Disjoint labeled / unlabeled / test id sets over one dataset."""

    labeled: frozenset[int]
    unlabeled: frozenset[int]
    test: frozenset[int]

    def __post_init__(self):
        if self.labeled & self.unlabeled or self.labeled & self.test or self.unlabeled & self.test:
            raise InputError("pools must be pairwise disjoint")

    def updated(self, acquired_ids) -> "SamplePools":
        """Move acquired ids from the unlabeled pool into the labeled pool."""
        ids = np.asarray(acquired_ids)
        if ids.ndim != 1 or (ids.size and not np.issubdtype(ids.dtype, np.integer)):
            raise InputError(f"acquired ids must be a 1-d array of integers, got {ids.dtype}")
        acquired = frozenset(ids.tolist())
        if not acquired <= self.unlabeled:
            raise InputError("acquired ids must come from the unlabeled pool")
        return SamplePools(
            labeled=self.labeled | acquired,
            unlabeled=self.unlabeled - acquired,
            test=self.test,
        )

    def sorted_labeled(self) -> np.ndarray:
        return np.fromiter(sorted(self.labeled), dtype=np.int64, count=len(self.labeled))

    def sorted_unlabeled(self) -> np.ndarray:
        return np.fromiter(sorted(self.unlabeled), dtype=np.int64, count=len(self.unlabeled))

    def sorted_test(self) -> np.ndarray:
        return np.fromiter(sorted(self.test), dtype=np.int64, count=len(self.test))


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
    rng = np.random.default_rng(seed)
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
    labeled_set = frozenset(int(i) for i in labeled)
    test_set = frozenset(int(i) for i in test)
    unlabeled_set = frozenset(int(i) for i in dataset.ids) - labeled_set - test_set
    return SamplePools(labeled=labeled_set, unlabeled=unlabeled_set, test=test_set)


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
        out = out * rng.uniform(self.scale_low, self.scale_high, size=(n, d))
        u = rng.random(size=n)
        j = rng.integers(0, d, size=n)
        dropped = u < self.drop_prob
        out[dropped, j[dropped]] = 0.0
        return out


def _dataset_columns(dim: int) -> dict:
    return {"id": int, **{f"x{j}": float for j in range(dim)}, "y": int}


def export_dataset(dataset: Dataset, path) -> None:
    """Write `id,x0,...,y` rows."""
    write_table(path, _dataset_columns(dataset.dim), [dataset.ids, *dataset.x.T, dataset.y])


def import_dataset(path) -> Dataset:
    # Expect at least one x column, so an `id,y` header is rejected.
    ids, *xs, y = read_table(path, lambda names: _dataset_columns(max(len(names) - 2, 1)))
    return Dataset(ids=ids, x=np.stack(xs, axis=1), y=y)
