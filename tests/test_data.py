import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from asslab.data import (
    LABELED,
    RING_SPACING,
    TEST,
    UNLABELED,
    Augmenter,
    Dataset,
    GeneratorSpec,
    SamplePools,
    export_dataset,
    generate,
    split_pools,
    standardize,
)
from asslab.errors import ConfigError, InputError


def dataset_equal(a, b):
    return np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def as_sets(pools):
    """pools in the form of the frozenset oracle."""
    return oracles.SetPools(*(frozenset(ids.tolist()) for ids in (
        pools.sorted_labeled(), pools.sorted_unlabeled(), pools.sorted_test())))


class TestGenerate:
    def test_noiseless_blobs_linearly_separable(self):
        spec = GeneratorSpec(kind="gaussian-blobs", size=100, n_classes=2, noise=0.0)
        ds = generate(spec, seed=0)
        # Centers at (5,0) and (-5,0): thresholding x0 at 0 is perfect.
        pred = np.where(ds.x[:, 0] > 0, 0, 1)
        assert np.all(pred == ds.y)

    @settings(deadline=None)
    @given(st.data())
    def test_stratified_matches_round_robin_oracle(self, data):
        k = data.draw(st.integers(2, 7))
        extra = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=50))
        labels = data.draw(st.permutations(list(range(k)) + extra))  # every class present
        n = len(labels)
        n_init = data.draw(st.integers(k, n - 1))
        n_test = data.draw(st.integers(0, n - n_init - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        stratify = data.draw(st.booleans())
        ds = Dataset(x=np.zeros((n, 2)), y=np.asarray(labels))
        pools = split_pools(ds, n_init=n_init, n_test=n_test, seed=seed, stratify=stratify)
        assert as_sets(pools) == oracles.split_pools(labels, n_init, n_test, seed, stratify)

    @settings(deadline=None)
    @given(st.data())
    def test_stratified_state_matches_lexsort_oracle(self, data):
        # Skewed classes, one of them possibly all in the test pool, so a
        # class can run out of rest rows before the first n_init rows by
        # (rank, class) are taken, and those must skip it; label dtypes
        # other than int64 must rank the same.
        k = data.draw(st.integers(2, 6))
        weights = data.draw(st.lists(st.integers(1, 40), min_size=k, max_size=k))
        n = data.draw(st.integers(k + 1, 400))
        labels = np.concatenate([np.arange(k), np.random.default_rng(n).choice(
            k, size=n - k, p=np.asarray(weights) / sum(weights))])
        n_init = data.draw(st.integers(k, n - 1))
        n_test = data.draw(st.integers(0, n - n_init - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        y = labels.astype(data.draw(st.sampled_from([np.int64, np.uint64, np.int8])))
        pools = split_pools(Dataset(x=np.zeros((n, 1)), y=y), n_init, n_test, seed)
        labeled, test = oracles.lexsort_split(labels, n_init, n_test, seed)
        state = np.full(n, UNLABELED, dtype=np.int8)
        state[test], state[labeled] = TEST, LABELED
        assert pools.state.tobytes() == state.tobytes()

    # SHA-256 of x then y bytes for size 301, seed 7; pinned so that the
    # generator's draws and arithmetic stay fixed for every kind.
    @pytest.mark.parametrize("kind,k,noise,digest", [
        ("gaussian-blobs", 3, 0.0, "a0eb7cb20154e13e8d2922d9ddd1ebaf7632d8ee4e3007cdb57ee952b57f26c6"),
        ("gaussian-blobs", 3, 0.25, "52fab147a18cc2648c9047b53d09784b00ff5757d2fec2e3c4224d808d49a467"),
        ("two-moons", 2, 0.0, "bb76babb4a2348b196caa0ed94f70014acc614021c23f31edc209925b9c96781"),
        ("two-moons", 2, 0.25, "77a8fcae8498cb071212359a3c28247eba9ca6018ba67f46fa4a399cba4a4c05"),
        ("concentric-rings", 3, 0.0, "82904128a49c9e4a757ca8560ff5be7654c59b9cfe5dfe71dd5eb7d41ca5acdb"),
        ("concentric-rings", 3, 0.25, "aff44fd86b53fc9d74802c9a58b416b6ee34f893c9ce34454342c77cce5e4057"),
    ])
    def test_output_pinned(self, kind, k, noise, digest):
        ds = generate(GeneratorSpec(kind=kind, size=301, n_classes=k, noise=noise), seed=7)
        assert hashlib.sha256(ds.x.tobytes() + ds.y.tobytes()).hexdigest() == digest

    def test_same_seed_identical(self):
        for kind in ["gaussian-blobs", "two-moons", "concentric-rings"]:
            spec = GeneratorSpec(kind=kind, size=120, n_classes=2, noise=0.15)
            assert dataset_equal(generate(spec, seed=3), generate(spec, seed=3))

    def test_two_moons_balanced(self):
        ds = generate(GeneratorSpec(kind="two-moons", size=2000, noise=0.2), seed=1)
        counts = np.bincount(ds.y)
        assert counts.tolist() == [1000, 1000]

    def test_balanced_odd_size(self):
        spec = GeneratorSpec(kind="gaussian-blobs", size=101, n_classes=3, noise=0.1)
        counts = np.bincount(generate(spec, seed=2).y)
        assert counts.tolist() == [34, 34, 33]

    def test_ids_contiguous(self, tmp_path):
        # A sample's id is its row index: the pools and the exported id
        # column both count 0..n-1.
        ds = generate(GeneratorSpec(size=50, noise=0.1), seed=4)
        pools = split_pools(ds, n_init=4, n_test=10, seed=0)
        sets = as_sets(pools)
        assert sets.labeled | sets.unlabeled | sets.test == set(range(50))
        export_dataset(ds, tmp_path / "d.csv")
        rows = (tmp_path / "d.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(50))

    def test_rings_radii(self):
        spec = GeneratorSpec(kind="concentric-rings", size=90, n_classes=3, noise=0.0)
        ds = generate(spec, seed=5)
        r = np.linalg.norm(ds.x, axis=1)
        for c in range(3):
            np.testing.assert_allclose(r[ds.y == c], (c + 1) * RING_SPACING, rtol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="spiral", size=100), seed=0)

    def test_size_floor(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="gaussian-blobs", size=25, n_classes=3), seed=0)

    def test_negative_noise(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(size=100, noise=-0.1), seed=0)
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(size=100, noise=math.nan), seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="nonnegative"):
            generate(GeneratorSpec(size=100), seed=-1)

    def test_moons_need_two_classes(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="two-moons", size=100, n_classes=3), seed=0)

    def test_standardize(self):
        ds = generate(GeneratorSpec(kind="gaussian-blobs", size=400, noise=0.5), seed=6)
        std = standardize(ds)
        np.testing.assert_allclose(std.x.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(std.x.std(axis=0), 1.0, rtol=1e-12)
        np.testing.assert_array_equal(std.y, ds.y)

    def test_standardize_constant_dim(self):
        ds = Dataset(
            x=np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]),
            y=np.array([0, 1, 0, 1]),
        )
        std = standardize(ds)
        np.testing.assert_array_equal(std.x[:, 0], np.zeros(4))


class TestDataset:
    @pytest.mark.parametrize("kind,k", [("two-moons", 2), ("gaussian-blobs", 5),
                                        ("concentric-rings", 3)])
    def test_class_count_matches_spec(self, kind, k):
        ds = generate(GeneratorSpec(kind=kind, size=50, n_classes=k), seed=0)
        assert (ds.n, ds.dim, ds.n_classes) == (50, 2, k)

    @pytest.mark.parametrize("x,y", [
        (np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),  # no rows
        (np.zeros((3, 2)), np.array([0, -1, 1])),  # negative label
        (np.zeros((2, 2)), np.array([0.0, 1.0])),  # float labels
        (np.zeros((3, 2)), np.array([0, 2, 0])),  # class 1 missing
        (np.zeros((3, 2)), np.array([0, 1])),  # mismatched lengths
        (np.zeros((2, 2)), np.array([[0], [1]])),  # 2-d labels
    ], ids=["empty", "negative", "float", "missing-class", "mismatched", "2-d-labels"])
    def test_invalid_rejected(self, x, y):
        with pytest.raises(InputError):
            Dataset(x=x, y=y)

    @pytest.mark.parametrize("y", [np.array([0, 2**40]),
                                   np.array([0, 2**64 - 1], dtype=np.uint64)],
                             ids=["int64", "uint64"])
    def test_huge_label_rejected_without_counting_classes(self, y, peak_bytes):
        # A count per class up to 2**40 would take 8 TB.
        def build():
            with pytest.raises(InputError, match="every class must be nonempty"):
                Dataset(x=np.zeros((2, 2)), y=y)

        assert peak_bytes(build) < 2**20

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_integer_label_dtypes_accepted(self, dtype):
        ds = Dataset(x=np.zeros((3, 2)), y=np.array([2, 0, 1], dtype=dtype))
        assert ds.n_classes == 3


class TestSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = GeneratorSpec(kind="concentric-rings", size=333, n_classes=3, noise=0.3)
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorSpec.from_dict({"kind": "two-moons", "n_moons": 2})


class TestAugmenter:
    def test_weak_zero_sigma_identity(self):
        aug = Augmenter(sigma_w=np.zeros(2), sigma_s=np.zeros(2))
        X = np.array([[0.3, -1.7], [2.0, 0.5]])
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(aug.weak_batch(X, rng), X)

    def test_weak_zero_mean(self):
        aug = Augmenter(sigma_w=np.full(2, 0.05), sigma_s=np.full(2, 0.2))
        x = np.array([1.0, 2.0])
        rng = np.random.default_rng(1)
        draws = aug.weak_batch(np.tile(x, (20000, 1)), rng)
        np.testing.assert_allclose(draws.mean(axis=0), x, atol=3 * 0.05 / math.sqrt(20000))

    def test_weak_displacement_matches_chi(self):
        # ||eps|| for isotropic sigma in d dims has mean
        # sigma * sqrt(2) * Gamma((d+1)/2) / Gamma(d/2).
        sigma, d = 0.05, 2
        aug = Augmenter(sigma_w=np.full(d, sigma), sigma_s=np.full(d, 4 * sigma))
        X = np.zeros((10000, d))
        rng = np.random.default_rng(2)
        disp = np.linalg.norm(aug.weak_batch(X, rng) - X, axis=1)
        analytic = sigma * math.sqrt(2.0) * math.gamma((d + 1) / 2) / math.gamma(d / 2)
        assert abs(np.mean(disp) - analytic) / analytic < 0.05

    def test_strong_identity_config(self):
        aug = Augmenter(sigma_w=np.zeros(2), sigma_s=np.zeros(2),
                        scale_low=1.0, scale_high=1.0, drop_prob=0.0)
        X = np.array([[0.4, -2.2], [-1.0, 3.0]])
        np.testing.assert_array_equal(aug.strong_batch(X, np.random.default_rng(3)), X)

    def test_strong_displaces_more_than_weak(self):
        ds = standardize(generate(GeneratorSpec(size=500, noise=0.2), seed=7))
        aug = Augmenter.for_data(ds.x)
        X = np.tile(ds.x[0], (10000, 1))
        rng = np.random.default_rng(4)
        weak_d = np.linalg.norm(aug.weak_batch(X, rng) - X, axis=1)
        strong_d = np.linalg.norm(aug.strong_batch(X, rng) - X, axis=1)
        assert np.mean(strong_d) > np.mean(weak_d)

    def test_same_stream_identical(self):
        aug = Augmenter(sigma_w=np.full(2, 0.05), sigma_s=np.full(2, 0.2))
        X = np.array([[1.0, -1.0], [0.5, 2.0]])
        a = aug.strong_batch(X, np.random.default_rng(5))
        b = aug.strong_batch(X, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_shapes_and_determinism(self):
        aug = Augmenter(sigma_w=np.full(2, 0.05), sigma_s=np.full(2, 0.2))
        X = np.random.default_rng(6).normal(size=(15, 2))
        a = aug.strong_batch(X, np.random.default_rng(7))
        b = aug.strong_batch(X, np.random.default_rng(7))
        assert a.shape == X.shape
        np.testing.assert_array_equal(a, b)
        w = aug.weak_batch(X, np.random.default_rng(8))
        assert w.shape == X.shape

    def test_stream_advances_even_without_drop(self):
        # The dropout coordinate index is drawn every call, so later draws
        # do not depend on whether earlier calls actually dropped.
        aug_lo = Augmenter(sigma_w=np.zeros(2), sigma_s=np.zeros(2), drop_prob=0.0)
        aug_hi = Augmenter(sigma_w=np.zeros(2), sigma_s=np.zeros(2), drop_prob=1.0)
        X = np.ones((5, 2))
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        np.testing.assert_array_equal(aug_lo.strong_batch(X, rng_a) == 0.0, False)
        np.testing.assert_array_equal((aug_hi.strong_batch(X, rng_b) == 0.0).sum(axis=1), 1)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_for_data_sigma(self):
        x = np.random.default_rng(10).normal(scale=[1.0, 3.0], size=(4000, 2))
        aug = Augmenter.for_data(x)
        np.testing.assert_allclose(aug.sigma_w, 0.05 * x.std(axis=0))
        np.testing.assert_allclose(aug.sigma_s, 4 * aug.sigma_w)


class TestPools:
    def make(self):
        ds = generate(GeneratorSpec(kind="gaussian-blobs", size=100, n_classes=4,
                                    noise=0.3), seed=11)
        return ds, split_pools(ds, n_init=8, n_test=20, seed=12)

    def test_partition(self):
        ds, pools = self.make()
        sets = as_sets(pools)
        assert len(sets.labeled) == 8
        assert len(sets.test) == 20
        assert len(sets.unlabeled) == 72
        assert sets.labeled | sets.unlabeled | sets.test == set(range(100))

    def test_stratification_floor(self):
        ds = generate(GeneratorSpec(kind="gaussian-blobs", size=100, n_classes=4,
                                    noise=0.3), seed=13)
        pools = split_pools(ds, n_init=4, n_test=10, seed=14)
        assert np.sort(ds.y[pools.sorted_labeled()]).tolist() == [0, 1, 2, 3]

    def test_stratified_near_balanced(self):
        ds = generate(GeneratorSpec(kind="gaussian-blobs", size=200, n_classes=3,
                                    noise=0.3), seed=15)
        pools = split_pools(ds, n_init=7, n_test=0, seed=16)
        counts = np.bincount(ds.y[pools.sorted_labeled()], minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_same_seed_identical(self):
        ds, _ = self.make()
        a = split_pools(ds, n_init=8, n_test=20, seed=17)
        b = split_pools(ds, n_init=8, n_test=20, seed=17)
        assert np.array_equal(a.state, b.state)

    def test_infeasible_sizes(self):
        ds, _ = self.make()
        with pytest.raises(ConfigError):
            split_pools(ds, n_init=90, n_test=20, seed=0)
        with pytest.raises(ConfigError):
            split_pools(ds, n_init=2, n_test=5, seed=0)

    def test_negative_seed_rejected(self):
        ds, _ = self.make()
        with pytest.raises(InputError, match="nonnegative"):
            split_pools(ds, n_init=8, n_test=20, seed=-1)

    def test_update_identities(self):
        ds, pools = self.make()
        acquired = pools.sorted_unlabeled()[:5].tolist()
        before, after = as_sets(pools), as_sets(pools.updated(acquired))
        assert after.labeled == before.labeled | set(acquired)
        assert after.unlabeled == before.unlabeled - set(acquired)
        assert after.test == before.test
        assert len(after.labeled) == len(before.labeled) + 5
        assert len(after.unlabeled) == len(before.unlabeled) - 5

    def test_update_rejects_foreign_ids(self):
        _, pools = self.make()
        bad = pools.sorted_labeled()[0]
        with pytest.raises(InputError):
            pools.updated([bad])

    def test_update_rejects_duplicate_ids(self):
        _, pools = self.make()
        first = pools.sorted_unlabeled()[0]
        with pytest.raises(InputError, match="unique"):
            pools.updated(np.array([first, first]))

    def test_update_rejects_non_integer_ids(self):
        _, pools = self.make()
        first = int(pools.sorted_unlabeled()[0])
        for bad in ([first + 0.7], [float(first)], [[first]], [True]):
            with pytest.raises(InputError):
                pools.updated(bad)
        for good in ([first], np.array([first], dtype=np.int32), range(first, first + 1), []):
            assert as_sets(pools.updated(good)).labeled == as_sets(pools).labeled | set(good)

    @settings(deadline=None)
    @given(st.data())
    def test_update_invariants(self, data):
        # Valid or not, an update does what the frozenset model does: the
        # same pools after, or a typed error where the model refuses.
        # Either way the pools it was called on stay as they were.
        codes = data.draw(st.lists(st.sampled_from([UNLABELED, LABELED, TEST]), max_size=40))
        pools = SamplePools(np.array(codes, dtype=np.int8))
        model = oracles.SetPools(*(frozenset(i for i, c in enumerate(codes) if c == code)
                                   for code in (LABELED, UNLABELED, TEST)))
        acquired = data.draw(st.one_of(
            st.lists(st.sampled_from(sorted(model.unlabeled)), unique=True)
            if model.unlabeled else st.just([]),
            st.lists(st.integers(-2, len(codes) + 1), max_size=5),
        ))
        try:
            expected = model.updated(acquired)
        except ValueError:
            with pytest.raises(InputError):
                pools.updated(np.asarray(acquired, dtype=np.int64))
        else:
            assert as_sets(pools.updated(np.asarray(acquired, dtype=np.int64))) == expected
        assert pools.state.tolist() == codes

    def test_update_rejects_ids_outside_the_dataset(self):
        # The last row is unlabeled, so an id of -1 must not wrap to it.
        pools = SamplePools(np.array([LABELED, TEST, UNLABELED, UNLABELED], dtype=np.int8))
        for bad in ([-1], [4], [2, 2**40], np.array([2**64 - 1], dtype=np.uint64)):
            with pytest.raises(InputError, match=r"outside \[0, 4\)"):
                pools.updated(bad)
        assert pools.state.tolist() == [LABELED, TEST, UNLABELED, UNLABELED]

    def test_state_is_read_only(self):
        _, pools = self.make()
        after = pools.updated(pools.sorted_unlabeled()[:3])
        for p in (pools, after):
            with pytest.raises(ValueError, match="read-only"):
                p.state[0] = LABELED
        assert pools.state.dtype == after.state.dtype == np.int8

    def test_update_leaves_shared_pools_unchanged(self):
        _, pools0 = self.make()
        state0 = pools0.state.copy()
        lane = pools0
        for k in range(3):  # one lane's rounds, from the pools every lane shares
            lane = lane.updated(lane.sorted_unlabeled()[k::20])
        assert np.array_equal(pools0.state, state0)
        assert len(lane.sorted_labeled()) > len(pools0.sorted_labeled())

    def test_sorted_views(self):
        _, pools = self.make()
        views = [pools.sorted_unlabeled(), pools.sorted_labeled(), pools.sorted_test()]
        for code, view in zip((UNLABELED, LABELED, TEST), views):
            assert view.dtype == np.int64
            assert np.all(np.diff(view) > 0)
            assert np.all(pools.state[view] == code)
        assert np.array_equal(np.sort(np.concatenate(views)), np.arange(100))


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        ds = standardize(generate(GeneratorSpec(size=60, noise=0.2), seed=18))
        path = tmp_path / "data.csv"
        export_dataset(ds, path)
        back = oracles.import_dataset(path)
        assert dataset_equal(ds, back)

    def test_import_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InputError):
            oracles.import_dataset(path)
