import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from asslab import acquisition, nn
from asslab.acquisition import (
    STRATEGIES,
    AcquisitionRequest,
    _coreset,
    _diverse,
    _entropy,
    _top_k,
    acquire,
)
from asslab.data import Dataset, GeneratorSpec, SamplePools, generate, split_pools, standardize
from asslab.errors import AcquisitionError, ConfigError, InputError
from asslab.tracker import TrackerSnapshot, TrackerStore


def make_snapshot(scores, ids=None, counts=None):
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
    zero = np.zeros(n)
    return TrackerSnapshot(
        ids=ids, u_mean=zero, u_var=zero, u_ucb=zero, i_mean=zero, i_var=zero,
        i_ucb=zero, score=scores,
        counts=np.ones(n, dtype=np.int64) if counts is None else np.asarray(counts),
    )


@st.composite
def scored_pools(draw):
    """(scores, k): scores from a few values, 1 <= k <= n."""
    n = draw(st.integers(1, 40))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
    scores = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return np.asarray(scores, dtype=np.float64), k


@st.composite
def coreset_cases(draw):
    """(emb, labeled_emb, k): integer-valued (tied) or real embeddings, 1 <= k <= n."""
    n, m, d = draw(st.integers(1, 30)), draw(st.integers(0, 8)), draw(st.integers(1, 12))
    elements = draw(st.sampled_from([
        st.integers(-2, 2).map(float),
        st.floats(-1e3, 1e3),
        st.floats(0.0, 5.0),  # ReLU-like
    ]))
    emb = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    labeled = draw(hnp.arrays(np.float64, (m, d), elements=elements))
    return emb, labeled, draw(st.integers(1, n))


def broadcast_coreset(emb, labeled_emb, k):
    """Greedy k-center over one (n, m, d) difference tensor, ties to the lower position."""
    if len(labeled_emb):
        diff = emb[:, None, :] - labeled_emb[None, :, :]
        min_dist = np.sqrt((diff**2).sum(axis=2)).min(axis=1)
    else:
        min_dist = np.full(len(emb), np.inf)
    picked, dists = [], []
    for _ in range(k):
        best = np.flatnonzero(min_dist == min_dist.max())[0]
        picked.append(best)
        dists.append(min_dist[best])
        min_dist = np.minimum(min_dist, np.linalg.norm(emb - emb[best], axis=1))
        min_dist[best] = -np.inf
    return np.asarray(picked), np.asarray(dists)


def probs_model(prob_rows):
    """Zero-weight-free linear net mapping one-hot input i to probs row i."""
    logits = np.log(np.asarray(prob_rows, dtype=np.float64).T)
    return nn.ModelParams([logits], [np.zeros(logits.shape[0])])


def request(strategy, k, unlabeled=None, snapshot=None, prob_rows=None, rng=None):
    """A request over samples 0..n-1 with one-hot inputs.

    The unlabeled pool is `unlabeled` (default: the snapshot's ids, else
    every sample) and every other sample is labeled. prob_rows, when
    given, is the model's prediction for each sample.
    """
    if unlabeled is None:
        unlabeled = snapshot.ids if snapshot is not None else range(len(prob_rows))
    unlabeled = frozenset(int(i) for i in unlabeled)
    n = len(prob_rows) if prob_rows is not None else max(unlabeled) + 1
    rows = prob_rows if prob_rows is not None else np.full((n, 2), 0.5)
    return AcquisitionRequest(
        strategy=strategy, k=k, snapshot=snapshot, params=probs_model(rows),
        dataset=Dataset(x=np.eye(n), y=np.zeros(n, dtype=np.int64)),
        pools=SamplePools(labeled=frozenset(range(n)) - unlabeled, unlabeled=unlabeled,
                          test=frozenset()),
        rng=np.random.default_rng(0) if rng is None else rng,
    )


def acquire_ids(*args, **kwargs):
    return acquire(request(*args, **kwargs))[0]


class TestTopKScore:
    def test_full_pool(self):
        snap = make_snapshot([0.3, 0.9, 0.1, 0.5])
        ids = acquire_ids("ucb-product", 4, snapshot=snap)
        assert set(ids.tolist()) == {0, 1, 2, 3}
        assert ids.tolist() == [1, 3, 0, 2]  # ranked by score

    def test_equal_scores_lowest_ids(self):
        snap = make_snapshot(np.ones(6))
        np.testing.assert_array_equal(acquire_ids("ucb-product", 3, snapshot=snap), [0, 1, 2])

    def test_simple_ordering(self):
        snap = make_snapshot([0.9, 0.5, 0.7], ids=[10, 11, 12])
        ids, scores = acquire(request("ucb-product", 2, snapshot=snap))
        np.testing.assert_array_equal(ids, [10, 12])
        np.testing.assert_array_equal(scores, [0.9, 0.7])

    def test_zero_count_rejected(self):
        snap = make_snapshot([0.5, 0.5, 0.5], counts=[1, 0, 2])
        with pytest.raises(AcquisitionError):
            acquire(request("ucb-product", 1, snapshot=snap))

    def test_no_forward_passes(self, forward_rows):
        snap = make_snapshot(np.random.default_rng(0).uniform(size=500))
        acquire(request("ucb-product", 20, snapshot=snap))
        assert forward_rows == []

    def test_k_validation(self):
        snap = make_snapshot([0.1, 0.2])
        with pytest.raises(InputError):
            acquire(request("ucb-product", 3, snapshot=snap))
        with pytest.raises(InputError):
            acquire(request("ucb-product", 0, snapshot=snap))

    def test_matches_full_sort(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(3, 60))
            scores = np.round(rng.uniform(size=n), 2)  # force ties
            k = int(rng.integers(1, n + 1))
            got = _top_k(scores, k)
            ref = np.lexsort((np.arange(n), -scores))[:k]
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(scores[got], np.sort(scores)[::-1][:k])

    @settings(deadline=None)
    @given(scored_pools())
    @example((np.zeros(3), 3))
    @example((np.zeros(3), 1))
    def test_matches_full_lexsort_property(self, pool):
        scores, k = pool
        order = np.lexsort((np.arange(len(scores)), -scores))[:k]
        got = _top_k(scores, k)
        np.testing.assert_array_equal(got, order)
        np.testing.assert_array_equal(scores[got], scores[order])

    def test_increasing_transform_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            scores = rng.uniform(size=40)
            base = _top_k(scores, 7)
            for f in (np.exp, lambda s: 3.0 * s + 1.0, np.cbrt):
                trans = _top_k(f(scores), 7)
                assert set(base.tolist()) == set(trans.tolist())


class TestRandom:
    def test_full_pool(self):
        ids, scores = acquire(request("random", 10, unlabeled=range(50, 60)))
        assert sorted(ids.tolist()) == list(range(50, 60))
        assert scores is None

    def test_deterministic(self):
        a = acquire_ids("random", 10, unlabeled=range(100), rng=np.random.default_rng(4))
        b = acquire_ids("random", 10, unlabeled=range(100), rng=np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)

    def test_distinct_and_bounded(self):
        got = acquire_ids("random", 12, unlabeled=range(30), rng=np.random.default_rng(5))
        assert len(set(got.tolist())) == 12
        assert set(got.tolist()) <= set(range(30))

    def test_uniform_frequencies(self):
        req = request("random", 1, unlabeled=range(10), rng=np.random.default_rng(6))
        counts = np.zeros(10, dtype=int)
        for _ in range(10000):
            counts[acquire(req)[0][0]] += 1
        sigma = math.sqrt(10000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 1000) <= 3 * sigma)

    def test_k_too_large(self):
        with pytest.raises(InputError):
            acquire(request("random", 6, unlabeled=range(5)))


class TestEntropy:
    def test_score_values(self):
        one_hot = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(_entropy(one_hot), [0.0])
        uniform = np.full((1, 4), 0.25)
        np.testing.assert_allclose(_entropy(uniform), [math.log(4.0)], rtol=1e-12)
        np.testing.assert_allclose(
            _entropy(np.array([[0.5, 0.25, 0.25]])), [1.5 * math.log(2.0)], rtol=1e-12
        )

    def test_uncertain_beats_confident(self):
        rows = [[0.98, 0.01, 0.01], [0.4, 0.3, 0.3], [0.9, 0.05, 0.05]]
        ids, scores = acquire(request("entropy", 1, prob_rows=rows))
        assert ids.tolist() == [1]
        np.testing.assert_allclose(scores[0], _entropy(np.array([rows[1]]))[0], rtol=1e-9)


class TestMargin:
    def test_ordering(self):
        rows = [
            [1.0 - 2e-9, 1e-9, 1e-9],  # near one-hot: margin about 1
            [0.45, 0.45, 0.10],  # top-2 tie: margin 0
            [0.6, 0.3, 0.1],  # margin 0.3
        ]
        ids, scores = acquire(request("margin", 3, prob_rows=rows))
        assert ids.tolist() == [1, 2, 0]
        np.testing.assert_allclose(scores, [0.0, 0.3, 1.0], atol=1e-7)
        assert not np.signbit(scores).any()  # a tied gap is logged as 0.0, not -0.0


class TestSnapshotEl2n:
    def test_selects_least_confident(self):
        rows = [[0.99, 0.01], [0.55, 0.45], [0.8, 0.2]]
        ids, scores = acquire(request("snapshot-el2n", 2, prob_rows=rows))
        assert ids.tolist() == [1, 2]
        expected = math.sqrt(0.45**2 + 0.45**2)
        np.testing.assert_allclose(scores[0], expected, rtol=1e-9)


class TestCoreset:
    def test_outlier_first(self):
        unl_emb = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0]])
        lab_emb = np.array([[0.0, 0.0]])
        pos, dists = _coreset(unl_emb, lab_emb, 1)
        assert pos.tolist() == [2]
        np.testing.assert_allclose(dists, [math.hypot(9, 9)])

    def test_one_dimensional_example(self):
        unl_emb = np.array([[1.0], [2.0], [10.0]])
        lab_emb = np.array([[0.0]])
        got, dists = _coreset(unl_emb, lab_emb, 2)
        assert got.tolist() == [2, 1]
        np.testing.assert_allclose(dists, [10.0, 2.0])

    def test_full_pool_greedy_order(self):
        rng = np.random.default_rng(7)
        unl_emb = rng.normal(size=(8, 3))
        lab_emb = rng.normal(size=(2, 3))
        got, dists = _coreset(unl_emb, lab_emb, 8)
        assert sorted(got.tolist()) == list(range(8))
        # Covering distances never increase along the greedy order.
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_tie_breaks_to_lower_id(self):
        unl_emb = np.array([[1.0], [1.0], [-1.0]])
        lab_emb = np.array([[0.0]])
        got, _ = _coreset(unl_emb, lab_emb, 1)
        assert got.tolist() == [0]

    @settings(deadline=None)
    @given(coreset_cases())
    @example((np.ones((3, 2)), np.ones((1, 2)), 3))  # every distance tied at 0
    @example((np.zeros((2, 1)), np.zeros((0, 1)), 2))  # no labeled rows
    def test_matches_broadcast_form(self, case):
        emb, labeled, k = case
        got, dists = _coreset(emb, labeled, k)
        ref, ref_dists = broadcast_coreset(emb, labeled, k)
        np.testing.assert_array_equal(got, ref)
        assert dists.tobytes() == ref_dists.tobytes()  # bit for bit
        assert len(set(got.tolist())) == k

    @settings(deadline=None)
    @given(coreset_cases(), st.sampled_from(["below", "equal", "above"]), st.integers(1, 40))
    @example((np.ones((6, 3)), np.ones((2, 3)), 6), "above", 4)  # all-equal rows
    @example((np.ones((6, 3)), np.zeros((0, 3)), 3), "equal", 1)
    @example((np.array([[1.0], [-1.0], [1.0], [-1.0]]), np.zeros((1, 1)), 4), "above", 1)
    def test_blocks_match_broadcast_form(self, case, side, offset):
        # Any block size gives the broadcast form's picks and distances bit
        # for bit, with the pool below, equal to or above one block.
        emb, labeled, k = case
        n = len(emb)
        block_rows = {"below": n + offset, "equal": n, "above": max(1, n - offset)}[side]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(acquisition, "_BLOCK_ROWS", block_rows)
            got, dists = _coreset(emb, labeled, k)
        ref, ref_dists = broadcast_coreset(emb, labeled, k)
        np.testing.assert_array_equal(got, ref)
        assert dists.tobytes() == ref_dists.tobytes()

    @settings(deadline=None)
    @given(coreset_cases(), st.integers(1, 40))
    @example((np.ones((3, 2)), np.ones((1, 2)), 3), 1)  # every distance tied at 0
    @example((np.zeros((2, 1)), np.zeros((0, 1)), 2), 256)  # no labeled rows
    def test_matches_form_with_a_pass_after_the_last_pick(self, case, block_rows):
        # Skipping the distance pass after the k-th pick changes no pick
        # and no distance, bit for bit, whatever the block size.
        emb, labeled, k = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(acquisition, "_BLOCK_ROWS", block_rows)
            got, dists = _coreset(emb, labeled, k)
        ref, ref_dists = oracles.coreset(emb, labeled, k, block_rows)
        np.testing.assert_array_equal(got, ref)
        assert dists.tobytes() == ref_dists.tobytes()

    def test_pool_of_several_default_blocks(self):
        rng = np.random.default_rng(19)
        n = 2 * acquisition._BLOCK_ROWS + 3
        emb = np.maximum(rng.normal(size=(n, 16)), 0.0)
        labeled = np.maximum(rng.normal(size=(5, 16)), 0.0)
        got, dists = _coreset(emb, labeled, 12)
        ref, ref_dists = broadcast_coreset(emb, labeled, 12)
        np.testing.assert_array_equal(got, ref)
        assert dists.tobytes() == ref_dists.tobytes()

    def test_peak_memory_below_two_megabytes(self, peak_bytes):
        # A pool-sized difference array alone would be 8 MB.
        rng = np.random.default_rng(20)
        emb = rng.normal(size=(4000, 256))
        labeled = rng.normal(size=(40, 256))
        assert peak_bytes(_coreset, emb, labeled, 10) < 2_000_000


ORACLE_KMEANS = {
    "_dsq_to_centers": lambda points, sq_norms, centers: oracles.dsq_to_centers(points, centers),
    "_kmeanspp_seed": lambda points, sq_norms, k, rng: oracles.kmeanspp_seed(points, k, rng),
    "_lloyd": lambda points, sq_norms, centers: oracles.lloyd(
        points, centers, acquisition.LLOYD_MAX_ITER, acquisition.LLOYD_TOL),
}


@st.composite
def diverse_cases(draw):
    """(scores, emb, k): tied, duplicated or real embeddings, 1 <= k <= n."""
    n, d = draw(st.integers(1, 25)), draw(st.integers(1, 4))
    elements = draw(st.sampled_from([
        st.integers(-2, 2).map(float),
        st.floats(-1e3, 1e3),
        st.just(1.0),  # every point the same
    ]))
    emb = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    scores = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 0.5, 2.0, 0.3])))
    return scores, emb, draw(st.one_of(st.just(n), st.integers(1, n)))


@st.composite
def distance_matrices(draw):
    """(n, k) centroid distances with ties, -0.0 and non-finite entries, k <= n."""
    n = draw(st.integers(1, 12))
    return draw(hnp.arrays(np.float64, (n, draw(st.integers(1, n))), elements=st.sampled_from(
        [0.0, -0.0, 0.5, 1.0, 2.0, np.inf, -np.inf, np.nan])))


class TestDiverse:
    def test_k1_nearest_to_weighted_mean(self):
        rng = np.random.default_rng(8)
        emb = rng.normal(size=(20, 4))
        scores = rng.uniform(0.1, 1.0, size=20)
        weighted = scores[:, None] * emb
        expected = int(np.argmin(np.linalg.norm(weighted - weighted.mean(axis=0), axis=1)))
        pos = _diverse(scores, emb, 1, np.random.default_rng(9))
        assert pos.tolist() == [expected]

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        emb = rng.normal(size=(30, 3))
        scores = rng.uniform(0.1, 1.0, size=30)
        base = _diverse(scores, emb, 5, np.random.default_rng(11))
        for factor in [2.0, 4.0, 0.5]:  # powers of two keep float math exact
            scaled = _diverse(factor * scores, emb, 5, np.random.default_rng(11))
            np.testing.assert_array_equal(base, scaled)

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(12)
        a = rng.normal(scale=0.05, size=(10, 2))
        b = np.array([50.0, 50.0]) + rng.normal(scale=0.05, size=(10, 2))
        emb = np.concatenate([a, b])
        pos = _diverse(np.ones(20), emb, 2, np.random.default_rng(13))
        assert len(pos) == 2
        sides = {int(i) < 10 for i in pos.tolist()}
        assert sides == {True, False}

    def test_duplicate_centroids_fill_distinct(self):
        # All points identical: every centroid maps to the same nearest
        # sample; the fill must still return K distinct positions.
        pos = _diverse(np.ones(6), np.ones((6, 2)), 4, np.random.default_rng(14))
        assert len(set(pos.tolist())) == 4

    @settings(deadline=None)
    @given(data=st.data())
    def test_k_unique_positions(self, data):
        # For every K <= n, including tied, constant and all-zero weighted
        # embeddings, the picks are K distinct positions of the pool.
        n, d = data.draw(st.integers(1, 25)), data.draw(st.integers(1, 4))
        elements = data.draw(st.sampled_from([
            st.integers(-2, 2).map(float),
            st.floats(-1e3, 1e3),
            st.just(1.0),  # constant embeddings
        ]))
        emb = data.draw(hnp.arrays(np.float64, (n, d), elements=elements))
        scores = data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 0.5, 2.0])))
        k = data.draw(st.integers(1, n))
        pos = _diverse(scores, emb, k, np.random.default_rng(data.draw(st.integers(0, 99))))
        assert len(pos) == k
        assert len(set(pos.tolist())) == k
        assert pos.min() >= 0 and pos.max() < n

    @settings(deadline=None)
    @given(diverse_cases(), st.integers(0, 99))
    # Two places, three centers: the third center repeats one of the
    # others, so its cluster is empty.
    @example((np.ones(6), np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]] * 3), 3), 0)
    @example((np.ones(6), np.ones((6, 2)), 4), 1)  # every point the same
    @example((np.linspace(0.5, 1.0, 5), np.arange(10.0).reshape(5, 2), 5), 2)  # k = n
    @example((np.zeros(7), np.arange(14.0).reshape(7, 2), 3), 3)  # all-zero scores
    def test_matches_kmeans_oracle(self, case, seed):
        # Centres and picks equal, bit for bit, those of the k-means that
        # recomputes norms per call and masks each cluster.
        scores, emb, k = case
        weighted = scores[:, None] * emb
        sq_norms = (weighted**2).sum(axis=1)
        centers = acquisition._lloyd(weighted, sq_norms, acquisition._kmeanspp_seed(
            weighted, sq_norms, k, np.random.default_rng(seed)))
        want = oracles.lloyd(
            weighted, oracles.kmeanspp_seed(weighted, k, np.random.default_rng(seed)),
            acquisition.LLOYD_MAX_ITER, acquisition.LLOYD_TOL)
        assert centers.tobytes() == want.tobytes()
        got = _diverse(scores, emb, k, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            for name, oracle in ORACLE_KMEANS.items():
                mp.setattr(acquisition, name, oracle)
            want_picks = _diverse(scores, emb, k, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want_picks)

    @settings(deadline=None)
    @given(distance_matrices())
    @example(np.array([[np.nan, 0.0], [np.nan, -0.0], [np.nan, 0.0]]))  # the fill sorts both
    def test_nearest_picks_match_full_argsorts(self, d2):
        # Taking each centroid's first candidate by one pass, and sorting a
        # column only when the fill reaches it, picks what k full stable
        # argsorts pick: ties to the lower position, NaN last, infinities
        # and -0.0 in place.
        k = d2.shape[1]
        got = acquisition._nearest_picks(d2, k)
        np.testing.assert_array_equal(got, oracles.nearest_picks(d2, k))
        assert len(set(got.tolist())) == k

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        emb = rng.normal(size=(40, 3))
        scores = rng.uniform(size=40)
        a = _diverse(scores, emb, 8, np.random.default_rng(18))
        b = _diverse(scores, emb, 8, np.random.default_rng(18))
        np.testing.assert_array_equal(a, b)


class TestDispatcher:
    def setup_method(self):
        ds = standardize(generate(GeneratorSpec(size=80, noise=0.2), seed=20))
        self.ds = ds
        self.pools = split_pools(ds, n_init=6, n_test=14, seed=21)
        self.params = nn.init_params([2, 16, 2], np.random.default_rng(22))
        store = TrackerStore(self.pools.sorted_unlabeled())
        rng = np.random.default_rng(23)
        for _ in range(4):
            pos = rng.choice(len(store.ids), size=30, replace=False)
            store.ingest_batch(
                pos, rng.dirichlet(np.ones(2), size=30), rng.dirichlet(np.ones(2), size=30)
            )
        # Ensure full coverage so the scored strategies are valid.
        store.ingest_batch(
            np.arange(len(store.ids)),
            rng.dirichlet(np.ones(2), size=len(store.ids)),
            rng.dirichlet(np.ones(2), size=len(store.ids)),
        )
        self.snapshot = store.snapshot()

    def request(self, strategy, k=5, seed=24):
        return AcquisitionRequest(
            strategy=strategy, k=k, snapshot=self.snapshot, params=self.params,
            dataset=self.ds, pools=self.pools, rng=np.random.default_rng(seed),
        )

    def test_every_strategy_returns_k_distinct_pool_ids(self):
        for strategy in STRATEGIES:
            ids, scores = acquire(self.request(strategy))
            assert len(ids) == 5, strategy
            assert len(set(ids.tolist())) == 5, strategy
            assert set(ids.tolist()) <= self.pools.unlabeled, strategy
            if scores is not None:
                assert len(scores) == 5

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_forward_budget(self, strategy, forward_rows):
        acquire(self.request(strategy))
        pool = len(self.pools.unlabeled)
        expected = {"random": [], "ucb-product": [],
                    "coreset": [pool, len(self.pools.labeled)]}.get(strategy, [pool])
        assert forward_rows == expected

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_k_outside_pool_rejected(self, strategy, forward_rows):
        for k in (0, len(self.pools.unlabeled) + 1):
            with pytest.raises(InputError):
                acquire(self.request(strategy, k=k))
        assert forward_rows == []  # K is checked before any inference

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            acquire(self.request("badge"))

    @pytest.mark.parametrize("strategy", ["ucb-product", "ucb-product-div"])
    def test_unvisited_sample_rejected(self, strategy):
        counts = self.snapshot.counts.copy()
        counts[3] = 0
        self.snapshot = dataclasses.replace(self.snapshot, counts=counts)
        with pytest.raises(AcquisitionError):
            acquire(self.request(strategy))

    @pytest.mark.parametrize("strategy", ["ucb-product", "ucb-product-div"])
    @pytest.mark.parametrize("change", ["labeled id added", "pool id missing"])
    def test_snapshot_of_another_pool_rejected(self, strategy, change):
        ids = self.pools.sorted_unlabeled()
        if change == "labeled id added":  # scored highest, so it would be picked
            ids = np.sort(np.append(ids, min(self.pools.labeled)))
            scores = np.where(ids == min(self.pools.labeled), 9.0, 1.0)
        else:
            ids, scores = ids[1:], np.ones(len(ids) - 1)
        self.snapshot = make_snapshot(scores, ids=ids)
        with pytest.raises(InputError):
            acquire(self.request(strategy))
