import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from asslab.data import (
    Augmenter,
    Dataset,
    GeneratorSpec,
    SamplePools,
    export_dataset,
    generate,
    import_dataset,
    split_pools,
    standardize,
)
from asslab.errors import ConfigError, InputError


def dataset_equal(a, b):
    return (
        np.array_equal(a.ids, b.ids)
        and np.array_equal(a.x, b.x)
        and np.array_equal(a.y, b.y)
    )


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
        ds = Dataset(ids=np.arange(n), x=np.zeros((n, 2)), y=np.asarray(labels))
        pools = split_pools(ds, n_init=n_init, n_test=n_test, seed=seed)
        rest = np.random.default_rng(seed).permutation(n)[n_test:]
        picks = oracles.round_robin(ds.y[rest].tolist(), n_init)
        assert pools.labeled == {int(rest[p]) for p in picks}
        assert pools.test == {int(i) for i in np.random.default_rng(seed).permutation(n)[:n_test]}

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

    def test_ids_contiguous(self):
        ds = generate(GeneratorSpec(size=50, noise=0.1), seed=4)
        np.testing.assert_array_equal(ds.ids, np.arange(50))

    def test_rings_radii(self):
        spec = GeneratorSpec(kind="concentric-rings", size=90, n_classes=3, noise=0.0,
                             ring_spacing=2.0)
        ds = generate(spec, seed=5)
        r = np.linalg.norm(ds.x, axis=1)
        for c in range(3):
            np.testing.assert_allclose(r[ds.y == c], (c + 1) * 2.0, rtol=1e-12)

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
            ids=np.arange(4),
            x=np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]),
            y=np.array([0, 1, 0, 1]),
        )
        std = standardize(ds)
        np.testing.assert_array_equal(std.x[:, 0], np.zeros(4))


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
        assert len(pools.labeled) == 8
        assert len(pools.test) == 20
        assert len(pools.unlabeled) == 72
        union = pools.labeled | pools.unlabeled | pools.test
        assert union == set(range(100))

    def test_stratification_floor(self):
        ds = generate(GeneratorSpec(kind="gaussian-blobs", size=100, n_classes=4,
                                    noise=0.3), seed=13)
        pools = split_pools(ds, n_init=4, n_test=10, seed=14)
        labels = sorted(ds.y[i] for i in pools.labeled)
        assert labels == [0, 1, 2, 3]

    def test_stratified_near_balanced(self):
        ds = generate(GeneratorSpec(kind="gaussian-blobs", size=200, n_classes=3,
                                    noise=0.3), seed=15)
        pools = split_pools(ds, n_init=7, n_test=0, seed=16)
        counts = np.bincount([ds.y[i] for i in pools.labeled], minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_same_seed_identical(self):
        ds, _ = self.make()
        a = split_pools(ds, n_init=8, n_test=20, seed=17)
        b = split_pools(ds, n_init=8, n_test=20, seed=17)
        assert a == b

    def test_infeasible_sizes(self):
        ds, _ = self.make()
        with pytest.raises(ConfigError):
            split_pools(ds, n_init=90, n_test=20, seed=0)
        with pytest.raises(ConfigError):
            split_pools(ds, n_init=2, n_test=5, seed=0)

    def test_update_identities(self):
        ds, pools = self.make()
        acquired = sorted(pools.unlabeled)[:5]
        after = pools.updated(acquired)
        assert after.labeled == pools.labeled | set(acquired)
        assert after.unlabeled == pools.unlabeled - set(acquired)
        assert after.test == pools.test
        assert len(after.labeled) == len(pools.labeled) + 5
        assert len(after.unlabeled) == len(pools.unlabeled) - 5

    def test_update_rejects_foreign_ids(self):
        _, pools = self.make()
        bad = next(iter(pools.labeled))
        with pytest.raises(InputError):
            pools.updated([bad])

    def test_update_rejects_non_integer_ids(self):
        _, pools = self.make()
        first = min(pools.unlabeled)
        for bad in ([first + 0.7], [float(first)], [[first]], [True]):
            with pytest.raises(InputError):
                pools.updated(bad)
        for good in ([first], np.array([first], dtype=np.int32), range(first, first + 1), []):
            assert pools.updated(good).labeled == pools.labeled | set(good)

    @settings(deadline=None)
    @given(st.data())
    def test_update_invariants(self, data):
        # The pools stay disjoint, their union stays the same, and exactly
        # the acquired ids move from unlabeled to labeled.
        ids = data.draw(st.lists(st.integers(0, 10**6), unique=True, max_size=40))
        pool_of = data.draw(st.lists(st.sampled_from("lut"), min_size=len(ids),
                                     max_size=len(ids)))
        pools = SamplePools(*(frozenset(i for i, p in zip(ids, pool_of) if p == name)
                              for name in "lut"))
        acquired = data.draw(st.lists(st.sampled_from(sorted(pools.unlabeled)), unique=True)
                             if pools.unlabeled else st.just([]))
        after = pools.updated(np.asarray(acquired, dtype=np.int64))
        assert not (after.labeled & after.unlabeled or after.labeled & after.test
                    or after.unlabeled & after.test)
        assert after.labeled | after.unlabeled | after.test == set(ids)
        assert after.labeled - pools.labeled == set(acquired)
        assert pools.unlabeled - after.unlabeled == set(acquired)
        assert after.test == pools.test

    def test_pools_reject_overlap(self):
        with pytest.raises(InputError):
            SamplePools(labeled=frozenset({1}), unlabeled=frozenset({1}),
                        test=frozenset())

    def test_sorted_views(self):
        _, pools = self.make()
        lab = pools.sorted_labeled()
        assert np.all(np.diff(lab) > 0)
        assert set(lab.tolist()) == pools.labeled


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        ds = standardize(generate(GeneratorSpec(size=60, noise=0.2), seed=18))
        path = tmp_path / "data.csv"
        export_dataset(ds, path)
        back = import_dataset(path)
        assert dataset_equal(ds, back)

    def test_import_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InputError):
            import_dataset(path)
