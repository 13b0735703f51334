import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from asslab.errors import ConfigError, TrackerError
from asslab.ssl import _UnlabeledIterator
from asslab.tracker import (
    TrackerStore,
    inconsistency_batch,
    load_snapshot_csv,
    uncertainty_batch,
)


def random_dist(rng, k):
    return rng.dirichlet(np.ones(k))


def stream(store, pos, pairs):
    """Ingest (probs_weak, probs_strong) pairs for the sample at one
    position, one step each."""
    for pw, ps in pairs:
        store.ingest_batch([pos], np.asarray([pw], float), np.asarray([ps], float))


def state(store, pos):
    """(u_mean, u_var, i_mean, i_var, count) of the sample at one position,
    from a snapshot."""
    snap = store.snapshot()
    return (snap.u_mean[pos], snap.u_var[pos], snap.i_mean[pos], snap.i_var[pos],
            snap.counts[pos])


class TestUncertainty:
    def test_one_hot_zero(self):
        for k in [2, 3, 5]:
            np.testing.assert_array_equal(uncertainty_batch(np.eye(k)), np.zeros(k))

    def test_uniform(self):
        for k in [2, 3, 4, 10]:
            u = uncertainty_batch(np.full((1, k), 1.0 / k))
            np.testing.assert_allclose(u, [math.sqrt(1.0 - 1.0 / k)], rtol=1e-12)
        np.testing.assert_allclose(uncertainty_batch([[0.5, 0.5]]), [0.70710678], atol=5e-9)

    def test_hand_value(self):
        np.testing.assert_allclose(uncertainty_batch([[0.8, 0.2]]), [0.28284271], atol=5e-9)

    def test_range_and_zero_iff_onehot(self):
        rng = np.random.default_rng(0)
        for k in range(2, 6):
            P = rng.dirichlet(np.ones(k), size=50)
            u = uncertainty_batch(P)
            assert np.all((u >= 0.0) & (u < math.sqrt(2.0)))
            assert np.all((u == 0.0) == (P.max(axis=1) == 1.0))

    def test_tie_goes_to_lowest_index(self):
        # Tied argmax candidates give the same norm; the batch version must
        # still agree exactly with the scalar reference on exact ties.
        P = np.array([[0.5, 0.5, 0.0], [0.4, 0.4, 0.2], [0.2, 0.4, 0.4]])
        np.testing.assert_array_equal(uncertainty_batch(P), [oracles.uncertainty(p) for p in P])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        P = rng.dirichlet(np.ones(4), size=30)
        np.testing.assert_allclose(
            uncertainty_batch(P), [oracles.uncertainty(p) for p in P], rtol=1e-14
        )


class TestInconsistency:
    def test_identical_zero(self):
        P = np.random.default_rng(2).dirichlet(np.ones(3), size=20)
        np.testing.assert_array_equal(inconsistency_batch(P, P), np.zeros(20))

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        P, Q = rng.dirichlet(np.ones(4), size=20), rng.dirichlet(np.ones(4), size=20)
        np.testing.assert_allclose(inconsistency_batch(P, Q), inconsistency_batch(Q, P),
                                   rtol=1e-12)

    def test_hand_value(self):
        (val,) = inconsistency_batch([[0.9, 0.1]], [[0.1, 0.9]])
        np.testing.assert_allclose(val, 0.8 * math.log(9.0), rtol=1e-12)
        assert abs(val - 1.75778) < 1e-5

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        P, Q = rng.dirichlet(np.ones(3), size=100), rng.dirichlet(np.ones(3), size=100)
        assert np.all(inconsistency_batch(P, Q) >= 0.0)

    def test_zero_probability_floored(self):
        (val,) = inconsistency_batch([[1.0, 0.0]], [[0.5, 0.5]])
        assert np.isfinite(val)
        # The zero entry contributes 0 * log(eps/0.5) = 0 on the weak side.
        expected = 0.5 * (math.log(2.0) + (0.5 * math.log(0.5 / 1.0) + 0.5 * math.log(0.5 / 1e-12)))
        np.testing.assert_allclose(val, expected, rtol=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        P = rng.dirichlet(np.ones(3), size=25)
        Q = rng.dirichlet(np.ones(3), size=25)
        P[0] = [1.0, 0.0, 0.0]  # one floored zero on each side
        Q[1] = [0.0, 0.5, 0.5]
        np.testing.assert_allclose(
            inconsistency_batch(P, Q),
            [oracles.inconsistency(p, q) for p, q in zip(P, Q)],
            rtol=1e-12,
        )


class TestEmaUpdate:
    """The moving mean/variance recurrence, read back through snapshot()."""

    HALF = ([0.5, 0.5], [0.5, 0.5])  # u = sqrt(0.5), i = 0
    ONE_HOT = ([1.0, 0.0], [1.0, 0.0])  # u = 0, i = 0

    def test_alpha_one_full_replacement(self):
        store = TrackerStore([0], alpha=1.0)
        stream(store, 0, [self.HALF, self.HALF, ([0.8, 0.2], [0.3, 0.7])])
        u_mean, u_var, i_mean, i_var, count = state(store, 0)
        assert u_mean == uncertainty_batch([[0.8, 0.2]])[0]
        assert i_mean == inconsistency_batch([[0.8, 0.2]], [[0.3, 0.7]])[0]
        assert (u_var, i_var, count) == (0.0, 0.0, 3)

    def test_constant_stream_geometric(self):
        store = TrackerStore([0], alpha=0.8)
        stream(store, 0, [self.HALF] * 3)
        np.testing.assert_allclose(state(store, 0)[0], 0.992 * math.sqrt(0.5), rtol=1e-12)

    def test_hand_rolled_two_steps(self):
        # u stream [r, 0] with r = sqrt(0.5): the [1, 0] example scaled by r.
        store = TrackerStore([0], alpha=0.8)
        stream(store, 0, [self.HALF])
        u_mean, u_var = state(store, 0)[:2]
        np.testing.assert_allclose(u_mean, 0.8 * math.sqrt(0.5), rtol=1e-12)
        np.testing.assert_allclose(u_var, 0.032 * 0.5, rtol=1e-12)
        stream(store, 0, [self.ONE_HOT])
        u_mean, u_var = state(store, 0)[:2]
        np.testing.assert_allclose(u_mean, 0.16 * math.sqrt(0.5), rtol=1e-12)
        np.testing.assert_allclose(u_var, 0.026880 * 0.5, rtol=1e-12)

    def test_pre_mean_variant(self):
        store = TrackerStore([0], alpha=0.8, variance_mean="pre")
        stream(store, 0, [self.HALF])
        u_mean, u_var = state(store, 0)[:2]
        np.testing.assert_allclose(u_mean, 0.8 * math.sqrt(0.5), rtol=1e-12)
        np.testing.assert_allclose(u_var, 0.8 * 0.5, rtol=1e-12)

    def test_monotone_response(self):
        # The mean rises exactly when the new value exceeds it.
        rng = np.random.default_rng(6)
        for _ in range(50):
            store = TrackerStore([0], alpha=0.8)
            p, q = random_dist(rng, 3), random_dist(rng, 3)
            stream(store, 0, [(p, p)])
            before = state(store, 0)[0]
            stream(store, 0, [(q, q)])
            after = state(store, 0)[0]
            assert (after > before) == (uncertainty_batch([q])[0] > before)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            TrackerStore([0], alpha=0.0)
        with pytest.raises(ConfigError):
            TrackerStore([0], alpha=1.5)

    def test_rejects_non_finite(self):
        store = TrackerStore([0, 1], alpha=0.8)
        with pytest.raises(TrackerError):
            store.ingest_batch([0, 1], np.array([[0.5, 0.5], [np.nan, 0.5]]),
                               np.full((2, 2), 0.5))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("view", ["weak", "strong"])
    def test_rejects_non_finite_views(self, view, value):
        # The typed error, not a numpy warning (inf + -inf in the KL sum),
        # reaches the caller, and no stream changes.
        store = TrackerStore([0, 1])
        bad = np.array([[0.5, 0.5], [value, 0.0]])
        good = np.full((2, 2), 0.5)
        weak, strong = (bad, good) if view == "weak" else (good, bad)
        with pytest.raises(TrackerError, match="sample id 1"):
            store.ingest_batch([0, 1], weak, strong)
        np.testing.assert_array_equal(store.snapshot().counts, [0, 0])


class TestUcbAndScore:
    """UCBs and scores as snapshot() computes them."""

    def fed_store(self, seed, **kw):
        rng = np.random.default_rng(seed)
        store = TrackerStore(range(8), **kw)
        for _ in range(10):
            ids = rng.choice(8, size=4, replace=False)
            store.ingest_batch(ids, rng.dirichlet(np.ones(3), size=4),
                               rng.dirichlet(np.ones(3), size=4))
        return store

    def test_c_zero(self):
        snap = self.fed_store(7, c_u=0.0, c_i=0.0).snapshot()
        np.testing.assert_array_equal(snap.u_ucb, snap.u_mean)
        np.testing.assert_array_equal(snap.i_ucb, snap.i_mean)

    def test_arithmetic(self):
        # One value r = sqrt(0.5) from zero, alpha 0.8: mean 0.8 r and
        # var 0.8 (0.2 r)^2 = 0.016, so u_ucb = 0.8 r + 0.5 sqrt(0.016).
        store = TrackerStore([0], alpha=0.8, c_u=0.5, c_i=2.0)
        stream(store, 0, [([0.5, 0.5], [0.5, 0.5])])
        snap = store.snapshot()
        np.testing.assert_allclose(snap.u_ucb, [0.8 * math.sqrt(0.5) + 0.5 * math.sqrt(0.016)],
                                   rtol=1e-12)
        np.testing.assert_allclose(snap.u_ucb, [0.6289310], atol=1e-7)

    def test_zero_var(self):
        # alpha = 1 keeps only the latest value, so the variance is zero.
        for c in [0.0, 0.5, 2.0, 10.0]:
            snap = self.fed_store(8, alpha=1.0, c_u=c, c_i=c).snapshot()
            np.testing.assert_array_equal(snap.u_var, 0.0)
            np.testing.assert_array_equal(snap.u_ucb, snap.u_mean)
            np.testing.assert_array_equal(snap.i_ucb, snap.i_mean)

    def test_negative_var_clamped(self):
        store = TrackerStore([0], c_u=2.0, c_i=2.0)
        store._mean[:, 0], store._var[:, 0] = 0.3, -1e-18
        store._mean[:, 1], store._var[:, 1] = 0.2, -1e-18
        snap = store.snapshot()
        assert snap.u_ucb[0] == 0.3
        assert snap.i_ucb[0] == 0.2

    def test_ucb_at_least_mean(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            c_u, c_i = rng.uniform(0, 3, size=2)
            snap = self.fed_store(seed, c_u=float(c_u), c_i=float(c_i)).snapshot()
            assert np.all(snap.u_ucb >= snap.u_mean)
            assert np.all(snap.i_ucb >= snap.i_mean)

    def test_rejects_negative_c(self):
        with pytest.raises(ConfigError):
            TrackerStore([0], c_u=-0.5)
        with pytest.raises(ConfigError):
            TrackerStore([0], c_i=-0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                TrackerStore([1, 2], c_u=bad)
            with pytest.raises(ConfigError):
                TrackerStore([1, 2], c_i=bad)

    def test_final_score(self):
        # alpha = 1, c = 0: u_ucb = u, i_ucb = i, score = u * i.
        store = TrackerStore([0, 1], alpha=1.0, c_u=0.0, c_i=0.0)
        store.ingest_batch([0, 1], [[0.5, 0.5], [1.0, 0.0]], [[0.9, 0.1], [0.1, 0.9]])
        snap = store.snapshot()
        # i = (1/2) sum (p_w - p_s)(ln p_w - ln p_s) = 0.2 ln 9 for sample 0.
        want = math.sqrt(0.5) * 0.2 * math.log(9.0)
        np.testing.assert_allclose(snap.score[0], want, rtol=1e-12)
        np.testing.assert_allclose(snap.score[0], 0.3107345, atol=1e-7)
        assert snap.score[1] == 0.0
        np.testing.assert_array_equal(snap.score, snap.u_ucb * snap.i_ucb)

    def test_final_score_rejects_non_finite(self):
        # A non-finite inconsistency is refused before any stream of the
        # batch changes, so every score stays finite.
        store = TrackerStore([0, 1])
        with pytest.raises(TrackerError):
            store.ingest_batch([0, 1], np.full((2, 2), 0.5), [[0.5, 0.5], [np.nan, 0.5]])
        snap = store.snapshot()
        np.testing.assert_array_equal(snap.score, [0.0, 0.0])
        np.testing.assert_array_equal(snap.counts, [0, 0])


class TestTrackerStore:
    def make(self, n=6, **kw):
        return TrackerStore(range(n), **kw)

    def test_quiet_event_decays_toward_zero(self):
        store = self.make()
        p = [1.0, 0.0, 0.0]
        stream(store, 2, [(p, p)] * 5)
        u_mean, _, i_mean, _, count = state(store, 2)
        assert u_mean == 0.0 and i_mean == 0.0
        assert count == 5

    def test_count_after_n_ingests(self):
        store = self.make()
        rng = np.random.default_rng(8)
        stream(store, 3, [(random_dist(rng, 3), random_dist(rng, 3)) for _ in range(7)])
        np.testing.assert_array_equal(store.snapshot().counts, [0, 0, 0, 7, 0, 0])

    def test_unknown_id(self):
        # Ingest takes positions, so an unknown sample is a position past
        # the pool; remove takes ids.
        store = self.make()
        p = np.array([[0.5, 0.5]])
        with pytest.raises(TrackerError):
            store.ingest_batch([99], p, p)
        with pytest.raises(TrackerError):
            store.remove([99])
        empty = TrackerStore([])
        with pytest.raises(TrackerError):
            empty.ingest_batch([0], p, p)
        with pytest.raises(TrackerError):
            empty.remove([3])

    @pytest.mark.parametrize("variance_mean", ["post", "pre"])
    def test_streaming_matches_offline_replay(self, variance_mean):
        # Replay a random event log through the store, then recompute every
        # sample's final state directly from the log with the scalar
        # reference recurrences; both must agree to 1e-12.
        rng = np.random.default_rng(9)
        ids = list(range(10))
        store = TrackerStore(ids, alpha=0.8, c_u=0.5, c_i=2.0, variance_mean=variance_mean)
        log = []
        for _ in range(300):
            sid = int(rng.integers(0, 10))
            pw, ps = random_dist(rng, 4), random_dist(rng, 4)
            log.append((sid, pw, ps))
            stream(store, sid, [(pw, ps)])
        snap = store.snapshot()
        for j, sid in enumerate(ids):
            u_ref, i_ref = oracles.EmaState(), oracles.EmaState()
            for e_sid, pw, ps in log:
                if e_sid == sid:
                    u_ref = oracles.ema_update(u_ref, oracles.uncertainty(pw), 0.8,
                                               variance_mean)
                    i_ref = oracles.ema_update(i_ref, oracles.inconsistency(pw, ps), 0.8,
                                               variance_mean)
            np.testing.assert_allclose(snap.u_mean[j], u_ref.mean, atol=1e-12)
            np.testing.assert_allclose(snap.u_var[j], u_ref.var, atol=1e-12)
            np.testing.assert_allclose(snap.i_mean[j], i_ref.mean, atol=1e-12)
            np.testing.assert_allclose(snap.i_var[j], i_ref.var, atol=1e-12)
            assert snap.counts[j] == u_ref.count == i_ref.count

    @settings(deadline=None)
    @given(ids=st.sets(st.integers(0, 10**6), min_size=1, max_size=12),
           m=st.integers(1, 15), steps=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           variance_mean=st.sampled_from(["post", "pre"]))
    @example(ids={3, 10, 11, 40, 41}, m=3, steps=4, seed=0, variance_mean="post")
    def test_iterator_chunks_match_offline_replay(self, ids, m, steps, seed, variance_mean):
        # The training stream's chunks, ingested by position, against a
        # per-id replay of the same log through the scalar references. A
        # step splits into two chunks exactly when it crosses an epoch end.
        rng = np.random.default_rng(seed)
        store = TrackerStore(list(ids), variance_mean=variance_mean)
        iterator = _UnlabeledIterator(len(ids), rng)
        log, split = [], False
        for _ in range(steps):
            chunks = iterator.next_chunks(m)
            split |= len(chunks) > 1
            for chunk in chunks:
                pw, ps = rng.dirichlet(np.ones(3), size=(2, len(chunk)))
                store.ingest_batch(chunk, pw, ps)
                log += zip(store.ids[chunk].tolist(), pw, ps)
        assert split == (steps * m > len(ids) and len(ids) % m != 0)
        snap = store.snapshot()
        for j, sid in enumerate(snap.ids.tolist()):
            u_ref, i_ref = oracles.EmaState(), oracles.EmaState()
            for e_sid, pw, ps in log:
                if e_sid == sid:
                    u_ref = oracles.ema_update(u_ref, oracles.uncertainty(pw), 0.8,
                                               variance_mean)
                    i_ref = oracles.ema_update(i_ref, oracles.inconsistency(pw, ps), 0.8,
                                               variance_mean)
            np.testing.assert_allclose(
                [snap.u_mean[j], snap.u_var[j], snap.i_mean[j], snap.i_var[j]],
                [u_ref.mean, u_ref.var, i_ref.mean, i_ref.var], rtol=1e-12, atol=1e-15,
            )
            assert snap.counts[j] == u_ref.count

    def test_ingest_batch_matches_scalar(self):
        # Multi-row batches against per-sample scalar replays.
        rng = np.random.default_rng(10)
        store = self.make(20)
        refs = {sid: (oracles.EmaState(), oracles.EmaState()) for sid in range(20)}
        for _ in range(30):
            ids = rng.choice(20, size=8, replace=False)
            Pw = rng.dirichlet(np.ones(3), size=8)
            Ps = rng.dirichlet(np.ones(3), size=8)
            store.ingest_batch(ids, Pw, Ps)
            for j, sid in enumerate(ids):
                u_ref, i_ref = refs[int(sid)]
                refs[int(sid)] = (
                    oracles.ema_update(u_ref, oracles.uncertainty(Pw[j]), 0.8),
                    oracles.ema_update(i_ref, oracles.inconsistency(Pw[j], Ps[j]), 0.8),
                )
        snap = store.snapshot()
        for j, sid in enumerate(snap.ids):
            u_ref, i_ref = refs[int(sid)]
            np.testing.assert_allclose(
                [snap.u_mean[j], snap.u_var[j], snap.i_mean[j], snap.i_var[j]],
                [u_ref.mean, u_ref.var, i_ref.mean, i_ref.var], rtol=1e-12, atol=1e-15,
            )
            assert snap.counts[j] == u_ref.count

    def test_ingest_batch_rejects_duplicates(self):
        store = self.make()
        P = np.full((2, 2), 0.5)
        with pytest.raises(TrackerError, match="sample id 1 twice"):
            store.ingest_batch(np.array([1, 1]), P, P)

    VIEW_CASES = [
        ([[0.9, 0.1]], [[0.5, 0.5]]),  # one row for two positions, once broadcast to both
        ([[0.9, 0.1]] * 3, [[0.5, 0.5]] * 3),  # three rows for two positions
        ([0.9, 0.1], [0.5, 0.5]),  # 1-d views
        ([[0.9, 0.1]] * 2, [[0.5, 0.3, 0.2]] * 2),  # views of different widths
        ([[0.9, 0.1]] * 2, [[0.5, 0.5]]),  # strong view one row short
        (np.zeros((2, 0)), np.zeros((2, 0))),  # no classes
        (np.full((2, 2, 1), 0.5), np.full((2, 2, 1), 0.5)),  # 3-d views
    ]
    POSITION_CASES = [
        [1, 6],  # one past the last of six positions
        [-1, 3],  # negative
        [3, 3],  # duplicate
        [1.0, 3.0],  # floats, even integral ones
        [1.5, 3.0],  # not integral
        [[1, 3]],  # 2-d
        [True, False],  # booleans are a mask, not positions
    ]

    @pytest.mark.parametrize(
        "pos, weak, strong",
        [([1, 3], weak, strong) for weak, strong in VIEW_CASES]
        + [(pos, [[0.9, 0.1]] * 2, [[0.5, 0.5]] * 2) for pos in POSITION_CASES],
        ids=[f"weak{i}-strong{i}" for i in range(len(VIEW_CASES))]
        + [f"pos{i}" for i in range(len(POSITION_CASES))],
    )
    def test_ingest_batch_checks_view_shapes(self, pos, weak, strong):
        store = self.make()
        with pytest.raises(TrackerError):
            store.ingest_batch(pos, weak, strong)
        np.testing.assert_array_equal(store.snapshot().counts, np.zeros(6))

    def test_remove(self):
        # Removing ids renumbers the positions of the samples kept.
        store = self.make(5)
        stream(store, 3, [([0.6, 0.4], [0.3, 0.7])])
        before = state(store, 3)
        store.remove([1, 3])
        np.testing.assert_array_equal(store.ids, [0, 2, 4])
        np.testing.assert_array_equal(store.snapshot().ids, [0, 2, 4])
        with pytest.raises(TrackerError):
            store.ingest_batch([3], [[0.5, 0.5]], [[0.5, 0.5]])
        stream(store, 1, [([0.6, 0.4], [0.3, 0.7])])  # id 2
        assert state(store, 1) == before
        np.testing.assert_array_equal(store.snapshot().counts, [0, 1, 0])

    def test_rejects_non_integer_ids(self):
        with pytest.raises(TrackerError):
            TrackerStore([1.5, 2.7])
        with pytest.raises(TrackerError):
            TrackerStore([[1, 2]])
        store = TrackerStore([0, 1])
        with pytest.raises(TrackerError):
            store.remove([0.5])
        np.testing.assert_array_equal(store.ids, [0, 1])
        for ids in ([5, 3], np.array([5, 3], dtype=np.int32), range(3, 7, 2)):
            np.testing.assert_array_equal(TrackerStore(ids).ids, [3, 5])
        assert TrackerStore([]).ids.dtype == np.int64

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            TrackerStore([0, 1], alpha=0.0)
        with pytest.raises(ConfigError):
            TrackerStore([0, 1], c_u=-1.0)
        with pytest.raises(ConfigError):
            TrackerStore([0, 0])

    def test_snapshot_values_and_csv(self, tmp_path):
        rng = np.random.default_rng(11)
        store = self.make(8)
        for _ in range(20):
            ids = rng.choice(8, size=4, replace=False)
            store.ingest_batch(
                ids, rng.dirichlet(np.ones(3), size=4), rng.dirichlet(np.ones(3), size=4)
            )
        snap = store.snapshot()
        for j in range(len(snap.ids)):
            u = oracles.EmaState(mean=snap.u_mean[j], var=snap.u_var[j])
            i = oracles.EmaState(mean=snap.i_mean[j], var=snap.i_var[j])
            np.testing.assert_allclose(snap.u_ucb[j], oracles.ucb(u, 0.5), rtol=1e-12)
            np.testing.assert_allclose(snap.i_ucb[j], oracles.ucb(i, 2.0), rtol=1e-12)
            np.testing.assert_allclose(
                snap.score[j],
                oracles.final_score(oracles.ucb(u, 0.5), oracles.ucb(i, 2.0)),
                rtol=1e-12,
            )
        path = tmp_path / "snap.csv"
        snap.export_csv(path)
        back = load_snapshot_csv(path)
        np.testing.assert_array_equal(back.ids, snap.ids)
        np.testing.assert_array_equal(back.score, snap.score)
        np.testing.assert_array_equal(back.u_var, snap.u_var)
