import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from asslab import nn, ssl
from asslab.data import Augmenter, GeneratorSpec, generate, split_pools, standardize
from asslab.errors import ConfigError, TrainingError
from asslab.ssl import (
    SslConfig,
    _UnlabeledIterator,
    pseudo_label_batch,
    train_round,
)
from asslab.tracker import TrackerStore, inconsistency_batch, uncertainty_batch


def make_problem(kind="two-moons", size=300, noise=0.2, n_classes=2, n_init=10,
                 n_test=50, seed=0):
    spec = GeneratorSpec(kind=kind, size=size, noise=noise, n_classes=n_classes)
    ds = standardize(generate(spec, seed=seed))
    pools = split_pools(ds, n_init=n_init, n_test=n_test, seed=seed + 1)
    return ds, pools


def fresh_params(cfg, ds, seed=7):
    dims = [ds.dim] + list(cfg.hidden_dims) + [ds.n_classes]
    return nn.init_params(dims, np.random.default_rng(seed))


def run_once(cfg, ds, pools, train_seed=3, param_seed=7, event_sink=None):
    params = fresh_params(cfg, ds, seed=param_seed)
    tracker = TrackerStore(pools.sorted_unlabeled())
    aug = Augmenter.for_data(ds.x)
    out, metrics = train_round(
        params, pools, ds, cfg, tracker, np.random.default_rng(train_seed),
        augmenter=aug, event_sink=event_sink,
    )
    return out, metrics, tracker


class TestPseudoLabel:
    def test_confident(self):
        labels, mask = pseudo_label_batch([[0.97, 0.02, 0.01]], 0.95)
        assert (labels.tolist(), mask.tolist()) == ([0], [1.0])

    def test_uniform_unmasked(self):
        for k in [2, 3, 5]:
            _, mask = pseudo_label_batch(np.full((1, k), 1.0 / k), 0.95)
            assert mask.tolist() == [0.0]

    def test_boundary_strict(self):
        labels, mask = pseudo_label_batch([[0.95, 0.05], [0.05, 0.95]], 0.95)
        assert (labels.tolist(), mask.tolist()) == ([0, 1], [0.0, 0.0])

    def test_tie_lowest_index(self):
        labels, _ = pseudo_label_batch([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4]], 0.3)
        assert labels.tolist() == [0, 1]

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        P = rng.dirichlet(np.ones(3), size=40)
        P[0] = [0.25, 0.5, 0.25]  # max prob exactly at tau
        P[1] = [0.3, 0.3, 0.4]
        labels, mask = pseudo_label_batch(P, 0.5)
        for j in range(40):
            assert (labels[j], mask[j]) == oracles.pseudo_label(P[j], 0.5)


class TestUnlabeledIterator:
    def test_epoch_coverage(self):
        it = _UnlabeledIterator(40, np.random.default_rng(1))
        seen = []
        for _ in range(10):
            chunks = it.next_chunks(8)
            assert sum(len(c) for c in chunks) == 8
            for c in chunks:
                assert len(np.unique(c)) == len(c)
            seen.extend(np.concatenate(chunks).tolist())
        # 80 draws over 40 positions = exactly two shuffled epochs.
        assert min(seen) >= 0
        counts = np.bincount(np.asarray(seen), minlength=40)
        assert np.all(counts == 2)

    @given(ids=st.lists(st.integers(-2**40, 2**40), unique=True, max_size=60),
           seed=st.integers(0, 2**32 - 1))
    def test_positions_index_the_id_permutation(self, ids, seed):
        # Permuting positions and indexing ids with them draws the same
        # stream as permuting the ids, so training by position changes no
        # output.
        ids = np.asarray(sorted(ids), dtype=np.int64)
        by_pos, by_id = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(ids[by_pos.permutation(len(ids))], by_id.permutation(ids))
        assert by_pos.bit_generator.state == by_id.bit_generator.state

    def test_boundary_split(self):
        it = _UnlabeledIterator(10, np.random.default_rng(2))
        it.next_chunks(7)
        chunks = it.next_chunks(7)  # crosses the epoch boundary at 10
        assert [len(c) for c in chunks] == [3, 4]


class TestLabeledDraw:
    @given(ids=st.lists(st.integers(-2**40, 2**40), unique=True, min_size=1, max_size=60),
           size=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
    def test_integers_index_the_id_choice(self, ids, size, seed):
        # Indexing the labeled ids with drawn integers gives the same batch
        # and leaves the generator where rng.choice(..., replace=True) does.
        ids = np.asarray(sorted(ids), dtype=np.int64)
        by_pos, by_id = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(ids[by_pos.integers(0, len(ids), size=size)],
                                      by_id.choice(ids, size=size, replace=True))
        assert by_pos.bit_generator.state == by_id.bit_generator.state


class TestEpochFold:
    """train_round folds each epoch of the unlabeled stream into the
    tracker in one call. Replaying its event stream chunk by chunk into
    another store must give the same state bit for bit."""

    # 120 - 8 - 20 = 92 unlabeled samples, drawn 8 per step: step 12 crosses
    # the first epoch's end, step 23 ends the second exactly. The case ids
    # name the variance's centre, the updated mean ("post").
    @pytest.mark.parametrize("steps,carried", [
        pytest.param(30, False, id="30-post-False"),  # ends mid-epoch
        pytest.param(12, False, id="12-post-False"),  # its last step crosses an epoch end
        pytest.param(23, False, id="23-post-False"),  # ends exactly at an epoch end
        pytest.param(30, True, id="30-post-True"),
    ])
    def test_replayed_events_match_the_trained_store(self, monkeypatch, steps, carried):
        ds, pools = make_problem(size=120, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=steps, batch_size=4, mu=2,
                        snapshot_interval=10, hidden_dims=[8])
        ids = pools.sorted_unlabeled()
        tracker = TrackerStore(ids)
        if carried:
            train_round(fresh_params(cfg, ds, seed=1), pools, ds, cfg, tracker,
                        np.random.default_rng(2))
        replay = copy.deepcopy(tracker)

        calls = []
        ingest = TrackerStore.ingest_batch

        def counting(store, *args):
            calls.append(store)
            return ingest(store, *args)

        monkeypatch.setattr(TrackerStore, "ingest_batch", counting)
        events = []
        train_round(fresh_params(cfg, ds), pools, ds, cfg, tracker,
                    np.random.default_rng(3), event_sink=lambda *e: events.append(e))
        assert len(calls) == math.ceil(steps * 8 / len(ids))  # epochs touched
        assert all(store is tracker for store in calls)

        for _, chunk_ids, pw, ps in events:
            replay.ingest_batch(np.searchsorted(ids, chunk_ids), pw, ps)
        for name in ("_mean", "_var", "_count"):
            assert getattr(tracker, name).tobytes() == getattr(replay, name).tobytes()


class TestStrongBackward:
    """The strong batch backpropagates only its pseudo-labeled rows."""

    @pytest.fixture
    def restricted_rows(self, monkeypatch):
        # The rows of each nn.backward call that picks rows; the supervised
        # loss_and_grads backpropagates every row and passes none.
        seen = []
        real = nn.backward

        def recording(params, cache, rows=None):
            if rows is not None:
                seen.append(rows.tolist())
            return real(params, cache, rows)

        monkeypatch.setattr(nn, "backward", recording)
        return seen

    def test_no_pseudo_labeled_row_runs_no_unsupervised_backward(self, restricted_rows):
        ds, pools = make_problem(size=200, n_init=8, n_test=30)
        cfg = SslConfig(steps_per_round=20, batch_size=4, mu=2, tau=1.0,
                        snapshot_interval=10, hidden_dims=[8])
        _, metrics, _ = run_once(cfg, ds, pools)
        assert metrics.mask_rate == 0.0
        assert restricted_rows == []

    @pytest.mark.parametrize("row", [0, 5, 7])
    def test_one_pseudo_labeled_row_backpropagates_two(self, monkeypatch, restricted_rows, row):
        real = ssl.pseudo_label_batch

        def one_row(probs_weak, tau):
            labels, _ = real(probs_weak, tau)
            mask = np.zeros(len(labels))
            mask[row] = 1.0
            return labels, mask

        monkeypatch.setattr(ssl, "pseudo_label_batch", one_row)
        ds, pools = make_problem(size=200, n_init=8, n_test=30)
        cfg = SslConfig(steps_per_round=6, batch_size=4, mu=2,
                        snapshot_interval=10, hidden_dims=[8])
        run_once(cfg, ds, pools)
        assert restricted_rows == [[0, row] if row else [0, 1]] * cfg.steps_per_round

    def test_one_row_batch_backpropagates_its_row(self):
        assert ssl._backprop_rows(np.ones(1)).tolist() == [0]

    def test_matches_the_full_row_backward(self, monkeypatch):
        # The default net on a 64-row strong batch whose steps pseudo-label
        # no row, one row, two rows and many rows: the same params bit for
        # bit as a round that backpropagates every row of every step.
        pseudo_labeled = []
        real = ssl._backprop_rows

        def counting(mask):
            pseudo_labeled.append(int(mask.sum()))
            return real(mask)

        monkeypatch.setattr(ssl, "_backprop_rows", counting)
        ds, pools = make_problem(size=400, n_init=16, n_test=40)
        cfg = SslConfig(steps_per_round=120, batch_size=16, mu=4, tau=0.99,
                        snapshot_interval=1000, momentum=0.9)
        out, metrics, tracker = run_once(cfg, ds, pools)
        assert {0, 1, 2} < set(pseudo_labeled) and max(pseudo_labeled) > 2

        monkeypatch.setattr(ssl, "_backprop_rows", lambda mask: np.arange(len(mask)))
        want, want_metrics, want_tracker = run_once(cfg, ds, pools)
        for a, b in zip(out.weights + out.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()
        assert metrics == want_metrics
        assert tracker._mean.tobytes() == want_tracker._mean.tobytes()


class TestConfig:
    def test_defaults_valid(self):
        SslConfig().validate()

    def test_round_trip(self):
        cfg = SslConfig(steps_per_round=100, tau=0.9, init_mode="con_init")
        assert SslConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            SslConfig.from_dict({"stepz": 5})

    def test_invalid_values(self):
        for kw in [
            {"steps_per_round": 0},
            {"mu": 0},
            {"tau": 0.0},
            {"tau": 1.5},
            {"lambda_u": -1.0},
            {"lr": 0.0},
            {"init_mode": "warm"},
            {"snapshot_interval": 0},
            {"hidden_dims": []},
            {"lr": math.nan, "lambda_u": math.nan},
            {"hidden_dims": [8, True]},
        ]:
            with pytest.raises(ConfigError):
                SslConfig(**kw).validate()


class TestTrainRound:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_lambda_zero_matches_supervised_reference(self, momentum):
        ds, pools = make_problem(size=200, n_init=8, n_test=30)
        cfg = SslConfig(steps_per_round=40, batch_size=4, mu=4, lambda_u=0.0,
                        snapshot_interval=20, hidden_dims=[8], momentum=momentum)
        out, _, _ = run_once(cfg, ds, pools, train_seed=11)

        # Reference: identical rng consumption, supervised updates only.
        params = fresh_params(cfg, ds)
        optimizer = nn.SgdOptimizer(cfg.lr, momentum)
        aug = Augmenter.for_data(ds.x)
        rng = np.random.default_rng(11)
        rng.integers(2**63)  # snapshot view seed
        labeled_ids = pools.sorted_labeled()
        unlabeled_ids = pools.sorted_unlabeled()
        mu_b = cfg.mu * cfg.batch_size
        perm, cursor = rng.permutation(unlabeled_ids), 0
        for _ in range(cfg.steps_per_round):
            batch_lab = rng.choice(labeled_ids, size=cfg.batch_size, replace=True)
            need, parts = mu_b, []
            while need > 0:
                if cursor == len(perm):
                    perm, cursor = rng.permutation(unlabeled_ids), 0
                take = min(need, len(perm) - cursor)
                parts.append(perm[cursor : cursor + take])
                cursor += take
                need -= take
            batch_unl = np.concatenate(parts)
            x_lab = aug.weak_batch(ds.x[batch_lab], rng)
            aug.weak_batch(ds.x[batch_unl], rng)
            aug.strong_batch(ds.x[batch_unl], rng)
            _, grads, _ = nn.loss_and_grads(params, x_lab, ds.y[batch_lab])
            params = optimizer.step(params, grads)
        for a, b in zip(out.weights + out.biases, params.weights + params.biases):
            np.testing.assert_array_equal(a, b)

    def test_tau_one_mask_rate_zero(self):
        ds, pools = make_problem(size=200, n_init=8, n_test=30)
        cfg = SslConfig(steps_per_round=30, batch_size=4, mu=2, tau=1.0,
                        snapshot_interval=10, hidden_dims=[8])
        _, metrics, _ = run_once(cfg, ds, pools)
        assert metrics.mask_rate == 0.0

    def test_separable_blobs_full_accuracy(self):
        ds, pools = make_problem(kind="gaussian-blobs", size=300, noise=0.3,
                                 n_init=10, n_test=60, seed=4)
        cfg = SslConfig(steps_per_round=300, snapshot_interval=100)
        _, metrics, _ = run_once(cfg, ds, pools)
        assert metrics.test_accuracy == 1.0

    def test_every_unlabeled_sample_gets_events(self):
        ds, pools = make_problem(size=120, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=30, batch_size=4, mu=4,
                        snapshot_interval=10, hidden_dims=[8])
        _, metrics, tracker = run_once(cfg, ds, pools)
        counts = tracker.snapshot().counts
        assert counts.min() >= 1
        assert counts.sum() == metrics.n_events
        assert metrics.n_events == cfg.steps_per_round * cfg.mu * cfg.batch_size

    def test_mask_rate_bounds(self):
        ds, pools = make_problem(size=160, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=25, batch_size=4, mu=2, tau=0.6,
                        snapshot_interval=25, hidden_dims=[8])
        _, metrics, _ = run_once(cfg, ds, pools)
        assert 0.0 <= metrics.mask_rate <= 1.0

    def test_events_precede_update(self):
        # With a single step, tracker state must reflect the initial
        # parameters, not the post-step ones.
        ds, pools = make_problem(size=120, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=1, batch_size=4, mu=2,
                        snapshot_interval=1, hidden_dims=[8])
        captured = []
        _, _, tracker = run_once(
            cfg, ds, pools, train_seed=13,
            event_sink=lambda step, ids, pw, ps: captured.append((ids, pw, ps)),
        )
        params = fresh_params(cfg, ds)
        aug = Augmenter.for_data(ds.x)
        rng = np.random.default_rng(13)
        rng.integers(2**63)  # snapshot view seed
        unlabeled_ids = pools.sorted_unlabeled()
        perm = rng.permutation(unlabeled_ids)
        batch_lab = rng.choice(pools.sorted_labeled(), size=4, replace=True)
        batch_unl = perm[:8]
        aug.weak_batch(ds.x[batch_lab], rng)
        x_w = aug.weak_batch(ds.x[batch_unl], rng)
        probs_w = nn.forward_batch(params, x_w).probs
        u_ref = uncertainty_batch(probs_w)
        snap = tracker.snapshot()
        pos = np.searchsorted(snap.ids, batch_unl)
        np.testing.assert_allclose(snap.u_mean[pos], 0.8 * u_ref, rtol=1e-12)
        # The sink sees sample ids, not positions in the pool.
        np.testing.assert_array_equal(np.concatenate([c[0] for c in captured]), batch_unl)

    def test_event_sink_receives_all_events(self):
        ds, pools = make_problem(size=120, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=12, batch_size=4, mu=2,
                        snapshot_interval=6, hidden_dims=[8])
        rows = []
        _, metrics, _ = run_once(
            cfg, ds, pools,
            event_sink=lambda step, ids, pw, ps: rows.append(len(ids)),
        )
        assert sum(rows) == metrics.n_events

    def test_snapshot_cadence(self):
        ds, pools = make_problem(size=160, n_init=8, n_test=20)
        base = dict(batch_size=4, mu=2, hidden_dims=[8])
        cfg = SslConfig(steps_per_round=60, snapshot_interval=20, **base)
        _, metrics, _ = run_once(cfg, ds, pools)
        assert metrics.series.steps.tolist() == [20, 40, 60]
        assert metrics.series.n_samples == len(pools.sorted_unlabeled())
        cfg = SslConfig(steps_per_round=10, snapshot_interval=11, **base)
        _, metrics, _ = run_once(cfg, ds, pools)
        assert metrics.series is None

    def test_snapshot_values_match_pool_inference(self):
        ds, pools = make_problem(size=150, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=15, batch_size=4, mu=2,
                        snapshot_interval=15, hidden_dims=[8])
        out, metrics, _ = run_once(cfg, ds, pools, train_seed=3)
        # The only snapshot coincides with the final parameters, evaluated
        # on the weak view drawn from the dedicated snapshot stream.
        ids = metrics.series.ids
        snap_rng = np.random.default_rng(int(np.random.default_rng(3).integers(2**63)))
        x_view = Augmenter.for_data(ds.x).weak_batch(ds.x[ids], snap_rng)
        probs = nn.forward_batch(out, x_view).probs
        np.testing.assert_array_equal(metrics.series.labels[-1], probs.argmax(axis=1))
        np.testing.assert_allclose(metrics.series.max_prob[-1], probs.max(axis=1), rtol=1e-12)

    def test_input_params_not_mutated(self):
        ds, pools = make_problem(size=120, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=5, batch_size=4, mu=2,
                        snapshot_interval=5, hidden_dims=[8])
        params = fresh_params(cfg, ds)
        ref = params.copy()
        tracker = TrackerStore(pools.sorted_unlabeled())
        train_round(params, pools, ds, cfg, tracker, np.random.default_rng(5))
        for a, b in zip(params.weights + params.biases, ref.weights + ref.biases):
            np.testing.assert_array_equal(a, b)

    def test_deterministic(self):
        ds, pools = make_problem(size=150, n_init=8, n_test=25)
        cfg = SslConfig(steps_per_round=20, batch_size=4, mu=2,
                        snapshot_interval=10, hidden_dims=[8])
        a, ma, _ = run_once(cfg, ds, pools, train_seed=17)
        b, mb, _ = run_once(cfg, ds, pools, train_seed=17)
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            np.testing.assert_array_equal(wa, wb)
        assert ma.test_accuracy == mb.test_accuracy
        np.testing.assert_array_equal(ma.series.uncertainty, mb.series.uncertainty)

    def test_finite_losses_across_generators(self):
        for kind, k in [("gaussian-blobs", 3), ("two-moons", 2), ("concentric-rings", 3)]:
            for seed in [0, 1]:
                ds, pools = make_problem(kind=kind, size=200, n_classes=k,
                                         n_init=8, n_test=30, seed=seed)
                cfg = SslConfig(steps_per_round=40, batch_size=4, mu=2,
                                snapshot_interval=20, hidden_dims=[16])
                _, metrics, _ = run_once(cfg, ds, pools, train_seed=seed)
                assert np.isfinite(metrics.supervised_loss)
                assert np.isfinite(metrics.unsupervised_loss)
                assert np.isfinite(metrics.test_accuracy)

    def test_unlabeled_pool_too_small(self):
        ds, pools = make_problem(size=120, n_init=8, n_test=20)  # |U| = 92
        cfg = SslConfig(steps_per_round=5, batch_size=16, mu=8, hidden_dims=[8])
        params = fresh_params(cfg, ds)
        tracker = TrackerStore(pools.sorted_unlabeled())
        with pytest.raises(ConfigError):
            train_round(params, pools, ds, cfg, tracker, np.random.default_rng(0))

    def test_tracker_pool_mismatch(self):
        ds, pools = make_problem(size=120, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=5, batch_size=4, mu=2, hidden_dims=[8])
        params = fresh_params(cfg, ds)
        tracker = TrackerStore(range(5))
        with pytest.raises(ConfigError):
            train_round(params, pools, ds, cfg, tracker, np.random.default_rng(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_step(self):
        ds, pools = make_problem(size=120, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=50, batch_size=4, mu=2, lr=1e8,
                        snapshot_interval=50, hidden_dims=[8])
        with pytest.raises(TrainingError, match="non-finite loss nan at step 28") as exc:
            run_once(cfg, ds, pools)
        assert exc.value.step == 28

    def test_divergence_seen_first_by_a_snapshot(self):
        # The last step's update overflows the weights; the pool snapshot
        # right after it is the first to see that, and training fails there.
        ds, pools = make_problem(size=120, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=1, batch_size=4, mu=2, lr=1e200,
                        snapshot_interval=1, hidden_dims=[8])
        with pytest.raises(TrainingError) as exc, np.errstate(all="ignore"):
            run_once(cfg, ds, pools)
        assert exc.value.step == 1

    def test_divergence_seen_first_by_the_test_pass(self):
        # The same overflowing last step with no snapshot after it: the
        # weights stay finite but the test probabilities do not.
        ds, pools = make_problem(size=120, n_init=8, n_test=20)
        cfg = SslConfig(steps_per_round=1, batch_size=4, mu=2, lr=1e200,
                        snapshot_interval=1000, hidden_dims=[8])
        with pytest.raises(TrainingError) as exc, np.errstate(all="ignore"):
            run_once(cfg, ds, pools)
        assert exc.value.step == 1

    def test_empty_test_pool_gives_nan(self):
        ds = standardize(generate(GeneratorSpec(size=120, noise=0.2), seed=0))
        pools = split_pools(ds, n_init=8, n_test=0, seed=1)
        cfg = SslConfig(steps_per_round=5, batch_size=4, mu=2,
                        snapshot_interval=5, hidden_dims=[8])
        _, metrics, _ = run_once(cfg, ds, pools)
        assert np.isnan(metrics.test_accuracy)

    def test_inconsistency_stream_nonnegative(self):
        ds, pools = make_problem(size=150, n_init=8, n_test=25)
        cfg = SslConfig(steps_per_round=20, batch_size=4, mu=2,
                        snapshot_interval=10, hidden_dims=[8])
        seen = []
        run_once(cfg, ds, pools,
                 event_sink=lambda step, ids, pw, ps: seen.append(
                     inconsistency_batch(pw, ps)))
        assert all(np.all(v >= 0) for v in seen)
