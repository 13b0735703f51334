import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

import oracles
from asslab import harness, nn, ssl, table
from asslab.acquisition import STRATEGIES, AcquisitionRequest, acquire
from asslab.data import Augmenter, GeneratorSpec, generate, split_pools, standardize
from asslab.errors import ConfigError, InputError, TrainingError
from asslab.harness import (
    ExperimentConfig,
    ExperimentResult,
    TrackerParams,
    analyze_dir,
    derive_rng,
    derive_seed,
    emit,
    run_and_emit,
    run_experiment,
)
from asslab.ssl import SslConfig, train_round
from asslab.tracker import TrackerStore


# Mistyped or non-finite values; each must raise ConfigError both from
# from_dict and from the dataclass constructors plus validate().
MISTYPED = [
    {"rounds": "5"},
    {"rounds": 5.0},
    {"acquire_k": True},
    {"seeds": [1.5]},
    {"seeds": [-1]},
    {"seeds": 3},
    {"strategies": "random"},
    {"strategies": ["random", 1]},
    {"out_dir": 3},
    {"stratify_init": 1},
    {"dataset": {"size": "2000"}},
    {"dataset": {"noise": math.nan}},
    {"dataset": []},
    {"ssl": {"hidden_dims": 64}},
    {"ssl": {"hidden_dims": [64, True]}},
    {"ssl": {"lr": math.nan}},
    {"ssl": {"lr": True}},
    {"ssl": {"steps_per_round": 2.5}},
    {"ssl": {"carry_tracker": "yes"}},
    {"ssl": {"init_mode": None}},
    {"tracker": {"c_u": math.inf}},
    {"tracker": "post"},
    {"rounds": True},
    {"acquire_k": 2.0},
]
SECTIONS = {"dataset": GeneratorSpec, "ssl": SslConfig, "tracker": TrackerParams}


def small_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        dataset=GeneratorSpec(size=200),
        n_init=10,
        acquire_k=5,
        rounds=2,
        n_test=40,
        ssl=SslConfig(steps_per_round=20, snapshot_interval=10, hidden_dims=[8, 8]),
        strategies=["ucb-product", "random"],
        seeds=[0],
        out_dir="unused",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_params_equal(a: nn.ModelParams, b: nn.ModelParams):
    assert len(a.weights) == len(b.weights)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        np.testing.assert_array_equal(ba, bb)


def tree_bytes(root):
    """{relative path: bytes} of every file under root."""
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(base, name), "rb") as f:
                out[os.path.relpath(os.path.join(base, name), root)] = f.read()
    return out


def assert_dirs_match(dir_a, dir_b):
    tree_a, tree_b = tree_bytes(dir_a), tree_bytes(dir_b)
    assert sorted(tree_a) == sorted(tree_b)
    for rel, bytes_a in tree_a.items():
        bytes_b = tree_b[rel]
        if rel == "manifest.json":
            doc_a, doc_b = json.loads(bytes_a), json.loads(bytes_b)
            doc_a.pop("nondeterministic")
            doc_b.pop("nondeterministic")
            assert doc_a == doc_b
        else:
            assert bytes_a == bytes_b, f"{rel} differs between reruns"


class TestSeedDerivation:
    def test_streams_are_reproducible(self):
        a = derive_rng(3, harness.TRAIN_STREAM, 1).normal(size=5)
        b = derive_rng(3, harness.TRAIN_STREAM, 1).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        draws = {
            name: derive_rng(*args).normal(size=8).tobytes()
            for name, args in {
                "data": (0, harness.DATA_STREAM),
                "split": (0, harness.SPLIT_STREAM),
                "init": (0, harness.INIT_STREAM),
                "train0": (0, harness.TRAIN_STREAM, 0),
                "train1": (0, harness.TRAIN_STREAM, 1),
                "acq00": (0, harness.ACQUIRE_STREAM, 0, 0),
                "acq01": (0, harness.ACQUIRE_STREAM, 0, 1),
                "other_seed": (1, harness.DATA_STREAM),
            }.items()
        }
        assert len(set(draws.values())) == len(draws)

    def test_derive_seed_deterministic(self):
        assert derive_seed(5, 2) == derive_seed(5, 2)
        assert derive_seed(5, 2) != derive_seed(5, 3)

    @pytest.mark.parametrize("args", [(-1, 0), (0, -1), (0, harness.ACQUIRE_STREAM, 0, -1)])
    def test_negative_seed_or_stream_rejected(self, args):
        with pytest.raises(InputError, match="nonnegative"):
            derive_rng(*args)
        with pytest.raises(InputError, match="nonnegative"):
            derive_seed(*args)


class TestExperimentConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        cfg.validate()
        assert cfg.dataset.kind == "two-moons"
        assert cfg.seeds == [0, 1, 2, 3, 4]
        assert list(cfg.strategies) == list(STRATEGIES)
        assert cfg.n_init == 20 and cfg.acquire_k == 20
        assert cfg.rounds == 5 and cfg.n_test == 500

    def test_round_trip(self):
        cfg = small_cfg()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_top_level_key(self):
        d = ExperimentConfig().to_dict()
        d["budget"] = 3
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_unknown_nested_keys(self):
        for section in ("dataset", "ssl", "tracker"):
            d = ExperimentConfig().to_dict()
            d[section]["oops"] = 1
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(d)

    def test_label_budget_over_pool(self):
        with pytest.raises(ConfigError):
            small_cfg(acquire_k=50, rounds=4).validate()

    def test_final_round_unlabeled_too_small(self):
        # pool 160, last round would leave 62 unlabeled < mu * B = 64
        cfg = small_cfg(acquire_k=22, rounds=5,
                        ssl=SslConfig(steps_per_round=20, snapshot_interval=10))
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("steps,ok", [(25, True), (24, False)])
    def test_ucb_needs_round0_to_visit_every_sample(self, monkeypatch, steps, ok):
        # Round 0's pool is 200 - 40 - 10 = 150 samples and each step draws
        # 3 * 2 = 6, so 25 steps visit every sample and 24 leave some out.
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return train_round(*args, **kwargs)

        monkeypatch.setattr(harness, "train_round", counting)
        ssl = SslConfig(steps_per_round=steps, batch_size=2, mu=3, snapshot_interval=10,
                        hidden_dims=[4])
        cfg = small_cfg(rounds=1, ssl=ssl, strategies=["random", "ucb-product"])
        if ok:
            assert run_experiment(cfg).errors == []
            assert len(calls) == 1
        else:
            with pytest.raises(ConfigError, match="ucb"):
                run_experiment(cfg)
            assert calls == []
            small_cfg(rounds=1, ssl=ssl, strategies=["random", "coreset"]).validate()

    def test_bad_lists(self):
        with pytest.raises(ConfigError):
            small_cfg(seeds=[]).validate()
        with pytest.raises(ConfigError):
            small_cfg(seeds=[1, 1]).validate()
        with pytest.raises(ConfigError):
            small_cfg(strategies=[]).validate()
        with pytest.raises(ConfigError):
            small_cfg(strategies=["random", "random"]).validate()
        with pytest.raises(ConfigError):
            small_cfg(strategies=["oracle"]).validate()

    @pytest.mark.parametrize("key, retired", [
        ("export_datasets", {"export_datasets": True}),
        ("blob_radius", {"dataset": {"blob_radius": 5.0}}),
        ("ring_spacing", {"dataset": {"ring_spacing": 2.0}}),
        ("weak_augment_labeled", {"ssl": {"weak_augment_labeled": True}}),
        ("variance_mean", {"tracker": {"variance_mean": "post"}}),
    ])
    def test_retired_keys_are_unknown(self, key, retired):
        # A config or manifest written before these became constants names
        # a key that no longer exists, even at its old default.
        with pytest.raises(ConfigError, match=f"unknown .*{key}"):
            ExperimentConfig.from_dict(retired)

    @pytest.mark.parametrize("override", MISTYPED)
    def test_typed_fields(self, override):
        d = ExperimentConfig().to_dict()
        for key, value in override.items():
            if isinstance(value, dict) and isinstance(d[key], dict):
                d[key].update(value)
            else:
                d[key] = value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("override", MISTYPED)
    def test_typed_fields_built_in_python(self, override):
        cfg = ExperimentConfig(**{
            key: SECTIONS[key](**value) if isinstance(value, dict) else value
            for key, value in override.items()
        })
        with pytest.raises(ConfigError):
            cfg.validate()
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_int_in_float_field_kept_as_given(self):
        cfg = ExperimentConfig.from_dict({"ssl": {"lr": 1, "tau": 0.5}})
        assert cfg.ssl.to_dict()["lr"] == 1 and type(cfg.ssl.lr) is int

    def test_readme_defaults_block(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as f:
            text = f.read()
        after = text.split("The full field set with defaults", 1)[1]
        block = re.search(r"```json\n(.*?)```", after, re.S).group(1)
        assert ExperimentConfig.from_dict(json.loads(block)) == ExperimentConfig()

    def test_default_serialization_pinned(self):
        # Manifests embed this dict, and analyze_dir reads old run
        # directories back through from_dict.
        assert json.dumps(ExperimentConfig().to_dict(), sort_keys=True) == (
            '{"acquire_k": 20, "dataset": {"kind": "two-moons", "n_classes": 2, '
            '"noise": 0.25, "size": 2000}, '
            '"log_events": false, "n_init": 20, "n_test": 500, '
            '"out_dir": "runs/default", "rounds": 5, "seeds": [0, 1, 2, 3, 4], '
            '"ssl": {"batch_size": 16, "carry_tracker": false, "hidden_dims": [64, 64], '
            '"init_mode": "rand_init", "lambda_u": 1.0, "lr": 0.03, "momentum": 0.0, '
            '"mu": 4, "snapshot_interval": 200, "steps_per_round": 2000, "tau": 0.95}, '
            '"strategies": ["random", "entropy", "margin", "snapshot-el2n", "coreset", '
            '"ucb-product", "ucb-product-div"], "stratify_init": true, '
            '"tracker": {"alpha": 0.8, "c_i": 2.0, "c_u": 0.5}}'
        )

    def test_tracker_params_round_trip(self):
        params = TrackerParams(alpha=0.5, c_u=1.0, c_i=0.0)
        assert TrackerParams.from_dict(params.to_dict()) == params
        with pytest.raises(ConfigError):
            TrackerParams.from_dict({"alpha": 0.5, "beta": 1.0})
        with pytest.raises(ConfigError):
            TrackerParams.from_dict({"alpha": 1.5})
        with pytest.raises(ConfigError):
            TrackerParams(c_u=math.inf).validate()


class TestRunExperiment:
    def test_single_round_random_shape(self):
        cfg = small_cfg(strategies=["random"], rounds=1)
        result = run_experiment(cfg)
        assert len(result.reports) == 1
        report = result.reports[0]
        assert report.strategy == "random"
        assert report.round_index == 0
        assert report.n_labeled_after == cfg.n_init + cfg.acquire_k
        assert len(report.acquired_ids) == cfg.acquire_k
        assert report.acquisition_scores is None
        assert report.acquisition_seconds >= 0.0

    def test_accuracies_in_unit_interval(self):
        result = run_experiment(small_cfg(seeds=[0, 1]))
        assert result.reports
        for report in result.reports:
            assert 0.0 <= report.test_accuracy <= 1.0
            assert 0.0 <= report.mask_rate <= 1.0

    def test_round0_model_identical_across_strategies(self):
        # shared seed: same data, split, init weights, and round-0 training
        # stream, so every strategy trains the same round-0 model
        result = run_experiment(small_cfg(strategies=["random", "ucb-product", "entropy"]))
        round0 = [r for r in result.reports if r.round_index == 0]
        assert len(round0) == 3
        for other in round0[1:]:
            assert_params_equal(round0[0].params, other.params)
            assert round0[0].test_accuracy == other.test_accuracy
            assert round0[0].supervised_loss == other.supervised_loss

    def test_acquired_ids_disjoint_across_rounds(self):
        result = run_experiment(small_cfg(rounds=3, strategies=["margin"]))
        seen = set()
        for report in result.reports:
            ids = set(int(i) for i in report.acquired_ids)
            assert not ids & seen
            seen |= ids

    def test_all_strategies_run(self):
        cfg = small_cfg(strategies=list(STRATEGIES), rounds=1)
        result = run_experiment(cfg)
        assert {r.strategy for r in result.reports} == set(STRATEGIES)

    def test_artifacts_kept_for_first_strategy_only(self):
        result = run_experiment(small_cfg())
        for report in result.reports:
            if report.strategy == "ucb-product":
                assert report.tracker_snapshot is not None
                assert (report.series is not None) == (report.round_index == 0)
            else:
                assert report.tracker_snapshot is None
                assert report.series is None

    def test_progress_callback(self):
        seen = []
        run_experiment(small_cfg(strategies=["random"]), progress=seen.append)
        assert [r.round_index for r in seen] == [0, 1]

    @pytest.mark.parametrize("init_mode", ["rand_init", "con_init"])
    def test_round0_trained_once_per_seed(self, monkeypatch, init_mode):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return train_round(*args, **kwargs)

        monkeypatch.setattr(harness, "train_round", counting)
        cfg = small_cfg(
            strategies=["ucb-product", "random", "entropy"], seeds=[0, 1],
            ssl=SslConfig(steps_per_round=20, snapshot_interval=10,
                          hidden_dims=[8, 8], init_mode=init_mode),
        )
        result = run_experiment(cfg)
        seeds, strategies = len(cfg.seeds), len(cfg.strategies)
        assert len(calls) == seeds * (1 + strategies * (cfg.rounds - 1)) == 8
        assert len(result.reports) == seeds * strategies * cfg.rounds
        # Reports stay lane-major: seed, then strategy, then round.
        assert [(r.seed, r.strategy, r.round_index) for r in result.reports] == [
            (seed, s, k) for seed in cfg.seeds for s in cfg.strategies
            for k in range(cfg.rounds)
        ]

    @pytest.mark.parametrize("init_mode", ["rand_init", "con_init"])
    def test_each_distinct_history_trained_once(self, monkeypatch, init_mode):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return train_round(*args, **kwargs)

        monkeypatch.setattr(harness, "train_round", counting)
        cfg = small_cfg(
            strategies=["ucb-product", "entropy", "margin", "snapshot-el2n"], rounds=3,
            ssl=SslConfig(steps_per_round=20, snapshot_interval=10,
                          hidden_dims=[8, 8], init_mode=init_mode),
            seeds=[3],
        )
        result = run_experiment(cfg)
        assert result.errors == []
        histories = set()
        for strategy in cfg.strategies:
            lane = [r for r in result.reports if r.strategy == strategy]
            assert [r.round_index for r in lane] == list(range(cfg.rounds))
            acquired = [frozenset(r.acquired_ids.tolist()) for r in lane]
            histories.update(tuple(acquired[:k]) for k in range(cfg.rounds))
        # Some later round is shared, or this would only test round 0.
        assert len(histories) < 1 + len(cfg.strategies) * (cfg.rounds - 1)
        assert len(calls) == len(histories)

    @pytest.mark.parametrize("carry", [False, True])
    @pytest.mark.parametrize("init_mode", ["rand_init", "con_init"])
    def test_only_round0_snapshots_the_pool(self, monkeypatch, init_mode, carry):
        cfg = small_cfg(
            strategies=["ucb-product", "entropy", "random"], rounds=3, log_events=True,
            ssl=SslConfig(steps_per_round=20, snapshot_interval=10, hidden_dims=[8, 8],
                          init_mode=init_mode, carry_tracker=carry),
        )
        trainings = []  # [is round 0, pool snapshots taken] per train_round call
        pool_snapshot = ssl._pool_snapshot

        def counting_snapshot(*args):
            trainings[-1][1] += 1
            return pool_snapshot(*args)

        def counting(start, pools, dataset, ssl_cfg, *args, **kwargs):
            trainings.append([len(pools.sorted_labeled()) == cfg.n_init, 0])
            return train_round(start, pools, dataset, ssl_cfg, *args, **kwargs)

        def every_round(start, pools, dataset, _, *args, **kwargs):
            return counting(start, pools, dataset, cfg.ssl, *args, **kwargs)

        def run(train):
            trainings.clear()
            monkeypatch.setattr(harness, "train_round", train)
            result = run_experiment(cfg)
            assert result.reports and result.events
            return exact((result.reports, result.errors, sorted(result.events.items())))

        monkeypatch.setattr(ssl, "_pool_snapshot", counting_snapshot)
        per_round = cfg.ssl.steps_per_round // cfg.ssl.snapshot_interval
        got = run(counting)
        assert trainings == [[True, per_round]] + [[False, 0]] * (len(trainings) - 1)
        assert len(trainings) > 1
        # Snapshots only observe: taking them in every round, at the
        # sweep's own interval, changes no report, error or event.
        assert run(every_round) == got
        assert trainings == [[True, per_round]] + [[False, per_round]] * (len(trainings) - 1)

    def test_divergence_recorded_with_partial_results(self):
        cfg = small_cfg(
            strategies=["random", "ucb-product", "entropy"],
            ssl=SslConfig(steps_per_round=20, snapshot_interval=10,
                          hidden_dims=[8, 8], lr=1e200),
        )
        with np.errstate(all="ignore"):
            result = run_experiment(cfg)
        assert result.reports == []
        # The shared round 0 diverged: every lane records it.
        assert [e["strategy"] for e in result.errors] == cfg.strategies
        steps = {e["step"] for e in result.errors}
        assert len(steps) == 1 and None not in steps
        for err in result.errors:
            assert err["seed"] == 0 and err["round"] == 0


def exact(value):
    """A value's exact content, for == between runs: arrays by bytes,
    dataclasses, lists and tuples item by item; timings left out."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            (f.name, exact(getattr(value, f.name))) for f in dataclasses.fields(value)
            if f.name != "acquisition_seconds")
    if isinstance(value, (list, tuple)):
        return tuple(exact(v) for v in value)
    return value


class TestSeedIndependence:
    """A seed's results do not depend on which other seeds run, or in what
    order, or on another seed failing: the contract that running seeds in
    separate processes relies on."""

    A, B = 4, 9

    def cfg(self, seeds):
        return small_cfg(
            strategies=["ucb-product", "coreset", "random"], seeds=seeds, log_events=True,
            ssl=SslConfig(steps_per_round=20, snapshot_interval=10, hidden_dims=[8, 8],
                          carry_tracker=True),
        )

    def seed_view(self, result, seed):
        return exact((
            [r for r in result.reports if r.seed == seed],
            [e for e in result.errors if e["seed"] == seed],
            sorted(((k, v) for k, v in result.events.items() if k[0] == seed),
                   key=lambda item: item[0]),
            result.datasets[seed],
        ))

    def test_seed_results_do_not_depend_on_other_seeds(self):
        alone = run_experiment(self.cfg([self.B]))
        expected = self.seed_view(alone, self.B)
        assert alone.reports and alone.events
        for seeds in ([self.A, self.B], [self.B, self.A]):
            cfg = self.cfg(seeds)
            seen = []
            result = run_experiment(cfg, progress=seen.append)
            assert self.seed_view(result, self.B) == expected
            # progress arrives seed-major, then lane-major, then by round
            assert [(r.seed, r.strategy, r.round_index) for r in seen] == [
                (seed, s, k) for seed in seeds for s in cfg.strategies
                for k in range(cfg.rounds)]
            assert all(a is b for a, b in zip(seen, result.reports))
            assert len(seen) == len(result.reports)

    def test_failing_seed_leaves_the_other_unchanged(self, monkeypatch):
        expected = self.seed_view(run_experiment(self.cfg([self.B])), self.B)
        cfg = self.cfg([self.A, self.B])
        x_a = standardize(generate(cfg.dataset, derive_seed(self.A, harness.DATA_STREAM))).x

        def failing(start, pools, dataset, *args, **kwargs):
            if np.array_equal(dataset.x, x_a) and len(pools.sorted_labeled()) > cfg.n_init:
                raise TrainingError("forced", step=1)  # seed A after round 0
            return train_round(start, pools, dataset, *args, **kwargs)

        monkeypatch.setattr(harness, "train_round", failing)
        for seeds in ([self.A, self.B], [self.B, self.A]):
            result = run_experiment(self.cfg(seeds))
            assert [(e["seed"], e["round"]) for e in result.errors] == [(self.A, 1)] * 3
            assert self.seed_view(result, self.B) == expected


class TestInitModes:
    def replay_lane(self, cfg, seed, strategy, strategy_index):
        # independent re-derivation of one (seed, strategy) lane from the
        # documented stream layout
        dataset = standardize(generate(cfg.dataset, derive_seed(seed, harness.DATA_STREAM)))
        pools = split_pools(
            dataset, cfg.n_init, cfg.n_test, derive_seed(seed, harness.SPLIT_STREAM),
            stratify=cfg.stratify_init,
        )
        augmenter = Augmenter.for_data(dataset.x)
        dims = [dataset.dim, *cfg.ssl.hidden_dims, dataset.n_classes]
        init_params = nn.init_params(dims, derive_rng(seed, harness.INIT_STREAM))
        carried = init_params
        tracker = None
        per_round = []
        for round_index in range(cfg.rounds):
            start = init_params if cfg.ssl.init_mode == "rand_init" else carried
            if tracker is None or not cfg.ssl.carry_tracker:
                tracker = TrackerStore(
                    pools.sorted_unlabeled(), alpha=cfg.tracker.alpha,
                    c_u=cfg.tracker.c_u, c_i=cfg.tracker.c_i,
                )
            events = []
            carried, _ = train_round(
                start, pools, dataset, cfg.ssl, tracker,
                derive_rng(seed, harness.TRAIN_STREAM, round_index),
                augmenter=augmenter,
                event_sink=lambda step, ids, pw, ps: events.append(
                    (step, np.array(ids), pw.copy(), ps.copy())),
            )
            snapshot = tracker.snapshot()
            ids, _ = acquire(AcquisitionRequest(
                strategy, cfg.acquire_k, snapshot, carried, dataset,
                pools, derive_rng(seed, harness.ACQUIRE_STREAM, round_index, strategy_index),
            ))
            pools = pools.updated(ids)
            if cfg.ssl.carry_tracker:
                tracker.remove(ids)
            per_round.append((carried, ids, snapshot.counts, events))
        return per_round

    @pytest.mark.parametrize("init_mode", ["rand_init", "con_init"])
    def test_lane_matches_manual_replay(self, init_mode):
        cfg = small_cfg(
            strategies=["ucb-product", "entropy"],
            ssl=SslConfig(steps_per_round=20, snapshot_interval=10,
                          hidden_dims=[8, 8], init_mode=init_mode),
            seeds=[3],
        )
        result = run_experiment(cfg)
        for strategy_index, strategy in enumerate(cfg.strategies):
            expected = self.replay_lane(cfg, 3, strategy, strategy_index)
            got = [r for r in result.reports if r.strategy == strategy]
            assert len(got) == len(expected)
            for report, (params, ids, _, _) in zip(got, expected):
                assert_params_equal(report.params, params)
                np.testing.assert_array_equal(report.acquired_ids, ids)

    @pytest.mark.parametrize("init_mode", ["rand_init", "con_init"])
    def test_carried_lanes_match_independent_replays(self, monkeypatch, tmp_path, init_mode):
        # Rounds with the same history, round 0 and the later rounds that
        # entropy and margin pick alike, share one training and tracker;
        # each lane must still end up exactly where a replay that trains
        # every round itself does, so no lane sees another's removals or
        # later ingests.
        seen = {}

        def recording(request):
            seen.setdefault(request.strategy, []).append(request.snapshot.counts)
            return acquire(request)

        monkeypatch.setattr(harness, "acquire", recording)
        cfg = small_cfg(
            strategies=["ucb-product", "entropy", "random", "margin"], rounds=3,
            log_events=True,
            ssl=SslConfig(steps_per_round=20, snapshot_interval=10, hidden_dims=[8, 8],
                          init_mode=init_mode, carry_tracker=True),
            seeds=[3],
        )
        out = tmp_path / "run"
        result = run_and_emit(cfg, out_dir=str(out))
        assert result.errors == []
        for strategy_index, strategy in enumerate(cfg.strategies):
            expected = self.replay_lane(cfg, 3, strategy, strategy_index)
            got = [r for r in result.reports if r.strategy == strategy]
            assert len(got) == len(expected) == cfg.rounds
            for report, counts, (params, ids, want_counts, _) in zip(
                    got, seen[strategy], expected):
                assert_params_equal(report.params, params)
                np.testing.assert_array_equal(report.acquired_ids, ids)
                np.testing.assert_array_equal(counts, want_counts)
                if report.tracker_snapshot is not None:
                    np.testing.assert_array_equal(report.tracker_snapshot.counts, want_counts)
            assert oracles.lane_events_csv(out / "seed_3", cfg.strategies, strategy,
                                           cfg.rounds) \
                == oracles.events_csv([events for *_, events in expected])
        # Each trained round has one entry, under the first lane to reach it.
        acquired = {s: [frozenset(r.acquired_ids.tolist()) for r in result.reports
                        if r.strategy == s] for s in cfg.strategies}
        assert set(result.events) == {
            (3, next(t for t in cfg.strategies if acquired[t][:k] == acquired[s][:k]), k)
            for s in cfg.strategies for k in range(cfg.rounds)}
        assert [key for key in result.events if key[2] == 0] == [(3, "ucb-product", 0)]
        assert acquired["entropy"] == acquired["margin"]  # so their later rounds are shared
        assert not [key for key in result.events if key[1] == "margin"]

    def test_init_modes_differ_after_round0(self):
        runs = {}
        for mode in ("rand_init", "con_init"):
            cfg = small_cfg(
                strategies=["random"],
                ssl=SslConfig(steps_per_round=20, snapshot_interval=10,
                              hidden_dims=[8, 8], init_mode=mode),
            )
            runs[mode] = run_experiment(cfg).reports
        assert_params_equal(runs["rand_init"][0].params, runs["con_init"][0].params)
        w_rand = runs["rand_init"][1].params.weights[0]
        w_con = runs["con_init"][1].params.weights[0]
        assert not np.array_equal(w_rand, w_con)


class TestCarryTracker:
    def test_carried_counts_accumulate(self):
        fresh_cfg = small_cfg(strategies=["ucb-product"])
        carry_cfg = small_cfg(
            strategies=["ucb-product"],
            ssl=SslConfig(steps_per_round=20, snapshot_interval=10,
                          hidden_dims=[8, 8], carry_tracker=True),
        )
        fresh = run_experiment(fresh_cfg).reports
        carry = run_experiment(carry_cfg).reports
        snap0, snap1_fresh = fresh[0].tracker_snapshot, fresh[1].tracker_snapshot
        snap1_carry = carry[1].tracker_snapshot
        np.testing.assert_array_equal(snap1_carry.ids, snap1_fresh.ids)
        # identical training streams, so the carried counts are exactly the
        # fresh round-1 counts plus each surviving sample's round-0 count
        pos = np.searchsorted(snap0.ids, snap1_fresh.ids)
        np.testing.assert_array_equal(
            snap1_carry.counts, snap1_fresh.counts + snap0.counts[pos]
        )


class TestEmit:
    def test_tree_layout(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_cfg(seeds=[0, 2])
        run_and_emit(cfg, out_dir=str(out))
        assert (out / "rounds.csv").exists()
        assert (out / "manifest.json").exists()
        for seed in (0, 2):
            assert (out / f"seed_{seed}" / "acquisitions.csv").exists()
            assert (out / f"seed_{seed}" / "dataset.csv").exists()
            assert (out / f"seed_{seed}" / "snapshots_round0.csv").exists()
            assert (out / f"seed_{seed}" / "scores" / "round0.csv").exists()
            assert (out / f"seed_{seed}" / "scores" / "round1.csv").exists()
            assert (out / "analysis" / f"ti_profile_seed{seed}.csv").exists()
            assert (out / "analysis" / f"spearman_series_seed{seed}.csv").exists()
            assert (out / "analysis" / f"pseudo_ratio_seed{seed}.csv").exists()
        assert (out / "analysis" / "pairwise_matrix.csv").exists()

    def test_rounds_csv_contents(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_cfg(strategies=["random"], rounds=1)
        result = run_and_emit(cfg, out_dir=str(out))
        lines = (out / "rounds.csv").read_text().splitlines()
        assert lines[0] == "seed,strategy,round,test_accuracy,supervised_loss,unsupervised_loss,mask_rate,n_events,n_labeled"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "0" and cells[1] == "random" and cells[2] == "0"
        assert float(cells[3]) == result.reports[0].test_accuracy
        assert cells[8] == str(cfg.n_init + cfg.acquire_k)

    def test_acquisitions_csv_contents(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_cfg(rounds=1)
        result = run_and_emit(cfg, out_dir=str(out))
        lines = (out / "seed_0" / "acquisitions.csv").read_text().splitlines()
        assert lines[0] == "round,strategy,rank,sample_id,score"
        assert len(lines) == 1 + 2 * cfg.acquire_k
        by_strategy = {r.strategy: r for r in result.reports}
        for line in lines[1:]:
            round_index, strategy, rank, sample_id, score = line.split(",")
            report = by_strategy[strategy]
            assert int(sample_id) == int(report.acquired_ids[int(rank)])
            if strategy == "random":
                assert score == ""
            else:
                assert float(score) == report.acquisition_scores[int(rank)]

    def test_empty_result_writes_header_only(self, tmp_path):
        out = tmp_path / "empty"
        cfg = small_cfg()
        emit(ExperimentResult([], [], {}, {}), cfg, str(out))
        assert sorted(os.listdir(out)) == ["manifest.json", "rounds.csv"]
        lines = (out / "rounds.csv").read_text().splitlines()
        assert lines == ["seed,strategy,round,test_accuracy,supervised_loss,unsupervised_loss,mask_rate,n_events,n_labeled"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_cfg(seeds=[0, 1])
        run_and_emit(cfg, out_dir=str(tmp_path / "a"))
        run_and_emit(cfg, out_dir=str(tmp_path / "b"))
        assert_dirs_match(tmp_path / "a", tmp_path / "b")

    def test_rerun_into_same_dir_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_cfg()
        run_and_emit(cfg, out_dir=str(out))
        first = tree_bytes(out)
        run_and_emit(cfg, out_dir=str(out))
        second = tree_bytes(out)
        del first["manifest.json"], second["manifest.json"]  # hold the run's timings
        assert second == first

    def test_dir_of_another_config_refused(self, tmp_path):
        out = tmp_path / "run"
        result = run_and_emit(small_cfg(seeds=[0, 1]), out_dir=str(out))
        before = tree_bytes(out)
        other = small_cfg(seeds=[0])
        trained = []
        with pytest.raises(InputError, match="different config"):
            run_and_emit(other, out_dir=str(out), progress=trained.append)
        assert trained == []  # refused before any training
        with pytest.raises(InputError, match="different config"):
            emit(result, other, str(out))
        assert tree_bytes(out) == before

    def test_dir_with_old_layout_event_logs_refused(self, tmp_path):
        # A tree emitted before events/ kept one events_<strategy>.csv per
        # lane, and one before the .npy tables one events/round<r>_<strategy>.csv
        # per trained round; a new emit would leave either beside its own.
        cfg = small_cfg()
        for i, old in enumerate(["events_random.csv", "events/round0_random.csv"]):
            out = tmp_path / f"run{i}"
            result = run_and_emit(cfg, out_dir=str(out))
            (out / "seed_0" / old).parent.mkdir(exist_ok=True)
            (out / "seed_0" / old).write_text("step,sample_id\r\n")
            before = tree_bytes(out)
            trained = []
            with pytest.raises(InputError, match="older layout"):
                run_and_emit(cfg, out_dir=str(out), progress=trained.append)
            assert trained == []  # refused before any training
            with pytest.raises(InputError, match=re.escape(os.path.basename(old))):
                emit(result, cfg, str(out))
            assert tree_bytes(out) == before

    def test_out_dir_below_a_file_fails_before_training(self, tmp_path, monkeypatch):
        (tmp_path / "file").write_bytes(b"")
        trained = []
        monkeypatch.setattr(harness, "train_round", lambda *a, **k: trained.append(a))
        with pytest.raises(OSError):
            run_and_emit(small_cfg(), out_dir=str(tmp_path / "file" / "run"))
        assert trained == []

    def test_invalid_config_makes_no_out_dir(self, tmp_path):
        with pytest.raises(ConfigError):
            run_and_emit(ExperimentConfig(seeds=[-1]), out_dir=str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    def test_manifest_round_trip(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_cfg()
        run_and_emit(cfg, out_dir=str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert "out_dir" not in manifest["config"]
        assert ExperimentConfig.from_dict(manifest["config"]) == dataclasses.replace(
            cfg, out_dir=ExperimentConfig().out_dir)
        assert manifest["config"]["seeds"] == cfg.seeds
        assert "seeds" not in manifest and "strategies" not in manifest
        assert manifest["completed_rounds"] == len(cfg.strategies) * cfg.rounds
        assert manifest["errors"] == []
        timings = manifest["nondeterministic"]["acquisition_seconds"]
        assert len(timings) == len(cfg.strategies) * cfg.rounds
        assert all(t["seconds"] >= 0 for t in timings)

    def test_manifest_records_no_path(self, tmp_path):
        # The same result emitted into two directories, each its config's
        # out_dir, gives the same manifest bytes but for the timings.
        cfg = small_cfg()
        result = run_experiment(cfg)
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / name
            emit(result, dataclasses.replace(cfg, out_dir=str(out)), str(out))
            raw = (out / "manifest.json").read_bytes()
            assert str(tmp_path).encode() not in raw
            doc = json.loads(raw)
            del doc["nondeterministic"]
            manifests.append(doc)
        assert manifests[0] == manifests[1]

    def test_no_timestamps_outside_manifest(self, tmp_path):
        out = tmp_path / "run"
        run_and_emit(small_cfg(), out_dir=str(out))
        year = "20"  # any wall-clock formatted value would contain a year
        for base, _, names in os.walk(out):
            for name in names:
                if name == "manifest.json":
                    continue
                with open(os.path.join(base, name)) as f:
                    text = f.read()
                assert "seconds" not in text.splitlines()[0]
                assert not any(cell.startswith(year) and "-" in cell
                               for cell in text.splitlines()[0].split(","))

    def test_events_logged_when_enabled(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_cfg(
            strategies=["random"], rounds=1, log_events=True,
            ssl=SslConfig(steps_per_round=5, snapshot_interval=5,
                          hidden_dims=[8, 8], batch_size=4, mu=2),
        )
        run_and_emit(cfg, out_dir=str(out))
        events = np.load(out / "seed_0" / "events" / "round0_random.npy")
        assert events.dtype == np.dtype([("step", "<i8"), ("sample_id", "<i8"), ("p_w0", "<f8"),
                                         ("p_w1", "<f8"), ("p_s0", "<f8"), ("p_s1", "<f8")])
        assert events.shape == (5 * 8,)  # steps * mu * batch_size
        np.testing.assert_array_equal(events["step"], np.repeat(np.arange(1, 6), 8))
        np.testing.assert_allclose(events["p_w0"] + events["p_w1"], 1.0, rtol=1e-9)
        np.testing.assert_allclose(events["p_s0"] + events["p_s1"], 1.0, rtol=1e-9)

    def test_shared_rounds_formatted_once_per_emit(self, tmp_path, event_blocks):
        cfg = small_cfg(strategies=["ucb-product", "entropy", "random"], log_events=True,
                        ssl=SslConfig(steps_per_round=20, snapshot_interval=10,
                                      hidden_dims=[8, 8], batch_size=4, mu=2))
        result = run_experiment(cfg)
        # Round 0 is shared and every round 1 differs: 4 distinct rounds
        # among the 6 lane-rounds.
        assert sorted(result.events) == [(0, "entropy", 1), (0, "random", 1),
                                         (0, "ucb-product", 0), (0, "ucb-product", 1)]
        out = tmp_path / "run"
        emit(result, cfg, str(out))
        assert event_blocks == [20 * 8] * 4
        first = tree_bytes(out)
        emit(result, cfg, str(out))
        assert event_blocks == [20 * 8] * 8  # nothing is kept between calls
        second = tree_bytes(out)
        del first["manifest.json"], second["manifest.json"]  # hold the run's timings
        assert second == first
        assert len(os.listdir(out / "seed_0" / "events")) == 4
        for strategy in cfg.strategies:
            lines = oracles.lane_events_csv(out / "seed_0", cfg.strategies, strategy,
                                            cfg.rounds).decode().splitlines()
            assert len(lines) == 1 + cfg.rounds * 20 * 8
            assert [line.split(",")[0] for line in lines[1::20 * 8]] == ["0", "1"]

    def test_lane_failing_before_any_event_writes_no_events(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise TrainingError("diverged", step=1)

        monkeypatch.setattr(harness, "train_round", failing)
        out = tmp_path / "run"
        result = run_and_emit(small_cfg(log_events=True), out_dir=str(out))
        assert [(e["round"], e["step"]) for e in result.errors] == [(0, 1), (0, 1)]
        assert result.events == {}
        assert not list(out.glob("seed_*/events"))

    def test_no_series_when_interval_exceeds_steps(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_cfg(
            strategies=["ucb-product"], rounds=1,
            ssl=SslConfig(steps_per_round=5, snapshot_interval=50, hidden_dims=[8, 8]),
        )
        run_and_emit(cfg, out_dir=str(out))
        assert not (out / "seed_0" / "snapshots_round0.csv").exists()
        assert not (out / "analysis" / "ti_profile_seed0.csv").exists()
        assert (out / "analysis" / "pairwise_matrix.csv").exists()

    def test_diverged_run_still_emits(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_cfg(
            strategies=["random"],
            ssl=SslConfig(steps_per_round=20, snapshot_interval=10,
                          hidden_dims=[8, 8], lr=1e200),
        )
        with np.errstate(all="ignore"):
            run_and_emit(cfg, out_dir=str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["errors"]) == 1
        assert manifest["completed_rounds"] == 0


def synthetic_round(rng, steps, step_rows=64, k=3):
    """One round's (step, ids, probs_weak, probs_strong) events."""
    return [(step, rng.integers(0, 5000, size=step_rows),
             rng.dirichlet(np.ones(k), size=step_rows), rng.dirichlet(np.ones(k), size=step_rows))
            for step in range(1, steps + 1)]


def event_columns(events):
    """One round's events as ExperimentResult.events holds them."""
    steps, ids, pw, ps = zip(*events)
    return [np.repeat(steps, [len(c) for c in ids]), np.concatenate(ids),
            *np.concatenate(pw).T, *np.concatenate(ps).T]


def shared_prefix(a, b) -> int:
    """How many leading round lists two lanes share."""
    return next((j for j, (x, y) in enumerate(zip(a, b)) if x is not y), min(len(a), len(b)))


class EventBlocks(list):
    """The row count of each block of rows written to an event file, in
    call order. With fail_at set, the write of the fail_at-th block (from
    1) raises OSError instead."""
    fail_at = None


@pytest.fixture
def event_blocks(monkeypatch):
    """An EventBlocks filled by every event file written while it lives.
    An event file's first write is its .npy header; every later one is a
    block of whole rows of 8 bytes a column."""
    blocks, row_bytes = EventBlocks(), []
    atomic_open, write_events = table.atomic_open, harness._write_events_csv

    class Recording:
        def __init__(self, f):
            self.f, self.header = f, None

        def write(self, data):
            if self.header is None:
                assert data.startswith(b"\x93NUMPY") and data.endswith(b"\n")
                self.header = data
            else:
                assert len(data) % row_bytes[-1] == 0
                blocks.append(len(data) // row_bytes[-1])
                if len(blocks) == blocks.fail_at:
                    raise OSError("disk full")
            return self.f.write(data)

    @contextlib.contextmanager
    def opening(path, mode, **kwargs):
        with atomic_open(path, mode, **kwargs) as f:
            yield Recording(f) if row_bytes else f

    def events_writer(path, columns):
        row_bytes.append(8 * len(columns))
        try:
            write_events(path, columns)
        finally:
            row_bytes.pop()

    monkeypatch.setattr(table, "atomic_open", opening)
    monkeypatch.setattr(harness, "_write_events_csv", events_writer)
    return blocks


def event_fields(k: int) -> list:
    """The fields of an event file of k classes, as the README lists them."""
    return [("step", "<i8"), ("sample_id", "<i8")] + [
        (f"p_{v}{j}", "<f8") for v in "ws" for j in range(k)]


class TestStreamedEmit:
    def test_peak_memory_does_not_grow_with_event_rows(self, tmp_path, peak_bytes):
        # 60,000 event rows in four trained rounds, two lanes that share two
        # of them; formatted as one string they would take over 15 MB.
        rng = np.random.default_rng(3)
        rounds = {(0, "random", r): synthetic_round(rng, 15_000 // 64) for r in range(3)}
        rounds[0, "entropy", 2] = synthetic_round(rng, 15_000 // 64)
        result = ExperimentResult([], [], {}, {
            key: event_columns(events) for key, events in rounds.items()})
        cfg = small_cfg(strategies=["random", "entropy"])
        assert peak_bytes(emit, result, cfg, str(tmp_path / "run")) < 3_000_000
        for (_, strategy, r), events in rounds.items():
            assert oracles.round_events_csv(
                tmp_path / "run" / "seed_0" / "events" / f"round{r}_{strategy}.npy") \
                == oracles.events_csv([events], round_column=False)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [1, table.BLOCK_ROWS, table.BLOCK_ROWS + 1])
    def test_event_file_is_np_save_of_one_structured_array(self, tmp_path, k, n):
        rng = np.random.default_rng(10 * n + k)
        columns = [np.arange(n) // 64 + 1, rng.integers(0, 2**40, size=n),
                   *rng.dirichlet(np.ones(k), size=n).T, *rng.dirichlet(np.ones(k), size=n).T]
        columns[2][0] = -0.0  # a sign bit that value comparisons would miss
        harness._write_events_csv(tmp_path / "written.npy", columns)
        np.save(tmp_path / "saved.npy",
                np.array(list(zip(*(c.tolist() for c in columns))), dtype=event_fields(k)))
        assert (tmp_path / "written.npy").read_bytes() == (tmp_path / "saved.npy").read_bytes()
        loaded = np.load(tmp_path / "written.npy")
        assert loaded.dtype == np.dtype(event_fields(k)) and loaded.shape == (n,)
        for (name, _), column in zip(event_fields(k), columns):
            assert loaded[name].tobytes() == column.tobytes()

    @pytest.mark.parametrize("block_rows", [5, table.BLOCK_ROWS])
    def test_shared_prefixes_match_whole_string_form(self, tmp_path, monkeypatch, event_blocks,
                                                     block_rows):
        # Three rounds. margin acquires as entropy does (shares 3 rounds),
        # snapshot-el2n as entropy in round 0 only (shares 2), random on
        # its own (shares round 0), and coreset's round-2 training fails
        # after 7 steps, so its last round is cut short. Every lane's
        # events, rebuilt from the per-round files and acquisitions.csv,
        # must equal the one-file form of the events its training streamed.
        cfg = small_cfg(strategies=["entropy", "margin", "snapshot-el2n", "random", "coreset"],
                        rounds=3, log_events=True,
                        ssl=SslConfig(steps_per_round=20, snapshot_interval=10,
                                      hidden_dims=[8, 8], batch_size=4, mu=2))
        real_acquire, real_train = harness.acquire, harness.train_round
        doomed = []  # the labeled set coreset's round 2 trains on
        trained_on = {}  # strategy -> the labeled set of each round it reached
        streamed = {}  # labeled set -> the events its training streamed

        def acquiring(req):
            labeled = frozenset(req.pools.sorted_labeled().tolist())
            trained_on.setdefault(req.strategy, []).append(labeled)
            round_index = (len(labeled) - cfg.n_init) // cfg.acquire_k
            as_ = {"margin": "entropy",
                   "snapshot-el2n": "random" if round_index else "entropy"}
            ids, scores = real_acquire(
                dataclasses.replace(req, strategy=as_.get(req.strategy, req.strategy)))
            if req.strategy == "coreset" and round_index == 1:
                doomed.append(labeled | set(ids.tolist()))
            return ids, scores

        def training(params, pools, *args, event_sink=None, **kwargs):
            labeled = frozenset(pools.sorted_labeled().tolist())
            events = streamed.setdefault(labeled, [])

            def sink(step, *event):
                if labeled in doomed and len(events) == 7:
                    raise TrainingError("forced divergence", step=step)
                events.append((step, *event))
                event_sink(step, *event)

            return real_train(params, pools, *args, event_sink=sink, **kwargs)

        monkeypatch.setattr(harness, "acquire", acquiring)
        monkeypatch.setattr(harness, "train_round", training)
        result = run_experiment(cfg)
        trained_on["coreset"] += doomed  # it diverged there, so acquired nothing
        lanes = {s: [streamed[labeled] for labeled in trained_on[s]] for s in cfg.strategies}
        assert [shared_prefix(lanes["entropy"], lanes[s]) for s in cfg.strategies] \
            == [3, 3, 2, 1, 1]
        assert len(lanes["coreset"][2]) == 7  # one event per step
        assert [(e["strategy"], e["round"]) for e in result.errors] == [("coreset", 2)]
        distinct = {id(events): sum(len(ids) for _, ids, _, _ in events)
                    for lane in lanes.values() for events in lane}
        assert len(result.events) == len(distinct)

        monkeypatch.setattr(table, "BLOCK_ROWS", block_rows)
        out = tmp_path / "run"
        emit(result, cfg, str(out))
        for strategy, lane in lanes.items():
            assert oracles.lane_events_csv(out / "seed_0", cfg.strategies, strategy,
                                           cfg.rounds) == oracles.events_csv(lane)
        assert len(os.listdir(out / "seed_0" / "events")) == len(distinct)
        assert sum(event_blocks) == sum(distinct.values())  # each distinct round formatted once
        assert max(event_blocks) <= block_rows

    def test_failed_write_keeps_the_old_file(self, tmp_path, event_blocks):
        rng = np.random.default_rng(4)
        result = ExperimentResult([], [], {}, {
            (0, "random", 0): event_columns(synthetic_round(rng, 40))})
        cfg = small_cfg(strategies=["random"])
        out = tmp_path / "run"
        emit(result, cfg, str(out))
        before = tree_bytes(out)
        event_blocks.clear()
        event_blocks.fail_at = 2
        with pytest.raises(OSError, match="disk full"):
            emit(result, cfg, str(out))
        assert event_blocks == [table.BLOCK_ROWS, 40 * 64 - table.BLOCK_ROWS]
        assert tree_bytes(out) == before  # the old events bytes and manifest
        assert not list(out.glob("seed_0/events/*.tmp"))
        event_blocks.fail_at = None
        emit(result, cfg, str(out))
        after = tree_bytes(out)
        del before["manifest.json"], after["manifest.json"]  # hold the run's timings
        assert after == before

    def test_failed_manifest_keeps_the_old_one(self, tmp_path):
        cfg = small_cfg()
        out = tmp_path / "run"
        emit(ExperimentResult([], [], {}, {}), cfg, str(out))
        before = tree_bytes(out)
        with pytest.raises(TypeError):  # json.dump fails partway through the manifest
            emit(ExperimentResult([], [{"message": object()}], {}, {}), cfg, str(out))
        assert tree_bytes(out) == before


def golden_cfg() -> ExperimentConfig:
    """Two rounds of ucb-product and coreset with a carried tracker and the
    event log; 64 draws per step from pools of 150 and 145, so steps cross
    epoch boundaries and round 1 starts from a filled tracker."""
    return small_cfg(
        strategies=["ucb-product", "coreset"], log_events=True,
        ssl=SslConfig(steps_per_round=20, snapshot_interval=10, hidden_dims=[8, 8],
                      carry_tracker=True),
    )


def tree_sha256(root) -> dict[str, str]:
    """{relative path: sha256} of every file under root. The manifest is
    hashed without its timings and the versions of the environment that
    wrote it, re-serialized the way emit writes it. It records no path."""
    out = {}
    for rel, raw in tree_bytes(root).items():
        if rel == "manifest.json":
            doc = json.loads(raw)
            for key in ("nondeterministic", "package_version", "python_version",
                        "numpy_version"):
                doc.pop(key)
            assert "out_dir" not in doc["config"]
            raw = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        out[rel.replace(os.sep, "/")] = hashlib.sha256(raw).hexdigest()
    return out


# Pinned from the code before the tracker folded each epoch's events in one
# call; manifest.json re-pinned when it stopped recording out_dir, the
# top-level seeds and strategies, and five config keys that became
# constants at their defaults. The event entries moved when the two lane
# files events_<strategy>.csv became one file per trained round: round 0
# once, then each lane's round 1, with no round column. Prepending each
# row's round and joining a lane's round files in order gives the old
# lane file byte for byte. They moved again when each round file became
# a .npy table; GOLDEN_EVENTS_CSV_SHA256 keeps the round CSVs pinned before.
# Floating-point bytes depend on the numpy and BLAS build; the pin holds
# for the one the tier-1 suite runs on.
GOLDEN_SHA256 = {
    "analysis/pairwise_matrix.csv":
        "569353813130d4714e30ab9e24d7daba8003a6f79ed01754ae1aec7aa3bad22d",
    "analysis/pseudo_ratio_seed0.csv":
        "ef7f5627f4beaa57470b54f1c53933643bcb303fe2a78a0ab4c9adccb0ef6562",
    "analysis/spearman_series_seed0.csv":
        "580495f905ad0dbf3a2db38315126b2a0756e4f0cdb9bff4e7fe18c0622f34fa",
    "analysis/ti_profile_seed0.csv":
        "36728489ee122a4888a775a01d64d75f0110048b7f5f365bdf5ff2d4787edc3c",
    "manifest.json":
        "f861cc998b945d09c86dc29e9ae243f3c8173a22fe748551e1a36dc176e3465e",
    "rounds.csv":
        "b15d4e358bd0cbecc5a89f8a47770917032079201fb5e909746bd85ba827cc42",
    "seed_0/acquisitions.csv":
        "3fa84ab5dbcebe52c90b8ef879d08770f4b93c2727383ed3abfe49993fa4e574",
    "seed_0/dataset.csv":
        "cec684ffca6d5561db6c814dcda5d56f3568c20c67922f8cd96752ab546e5775",
    "seed_0/events/round0_ucb-product.npy":
        "535d6cc2dafcfb3c3fc396ade7ac542b32f5f02d926b310737857efebc1a3d42",
    "seed_0/events/round1_coreset.npy":
        "c9196d7a120197c94f93a18471bbdc43dbab987426ab2e82c3c9ea555bc2c98e",
    "seed_0/events/round1_ucb-product.npy":
        "8e739df063627732b6935815490f4c37b368ae0bc51f5da547918a86b26b1a09",
    "seed_0/scores/round0.csv":
        "89895d7c0ac283ebfb6e4520f89ab56a1ec480fee43a17b08d41ac9eb2395119",
    "seed_0/scores/round1.csv":
        "5d66ead25fe4e23df4f68c553c0966a5d352ccda412a0407fc0ee58bd26d14d0",
    "seed_0/snapshots_round0.csv":
        "64a344199c27dadba8eab4b59bf3d47b63dd3986cf751c2f422c1a46cb816456",
}


# The event files' pins when they were CSV tables; each .npy table, read
# by np.load and formatted as CSV, gives the same bytes.
GOLDEN_EVENTS_CSV_SHA256 = {
    "round0_ucb-product": "94d294ac7c3d7d88c1608d49c651879724ab1860eaaf852f8a3ae282e7d0b051",
    "round1_coreset": "bde32351fa60745ed660781ace9dba81c5f031c9b299168f39f7120ee90fb64d",
    "round1_ucb-product": "c431017d0eb9c0612cafe8516dcaeae718418ccefa8408dc866ef40faa3cbd6b",
}


class TestGoldenDigest:
    def test_tiny_sweep_bytes_pinned(self, tmp_path):
        run_and_emit(golden_cfg(), out_dir=str(tmp_path / "run"))
        assert tree_sha256(tmp_path / "run") == GOLDEN_SHA256
        events = tmp_path / "run" / "seed_0" / "events"
        assert {path.stem: hashlib.sha256(oracles.round_events_csv(path)).hexdigest()
                for path in events.iterdir()} == GOLDEN_EVENTS_CSV_SHA256


class TestEventReplay:
    @pytest.mark.parametrize("carry", [False, True])
    def test_round0_events_fold_into_round0_scores(self, tmp_path, carry):
        # The emitted round-0 scores are the fold of the emitted round-0
        # events: their rows, as positions in the round-0 pool and in file
        # order, one epoch (pool-size rows) per ingest_batch call, into a
        # store built from the manifest's tracker params.
        cfg = golden_cfg()
        cfg = dataclasses.replace(cfg, ssl=dataclasses.replace(cfg.ssl, carry_tracker=carry))
        out = tmp_path / "run"
        run_and_emit(cfg, out_dir=str(out))
        k = cfg.dataset.n_classes
        events = np.load(out / "seed_0" / "events" / f"round0_{cfg.strategies[0]}.npy")
        assert events.dtype == np.dtype(event_fields(k))
        ids = events["sample_id"]
        pool = np.unique(ids)  # round 0 draws every sample at least once (ucb-* validation)
        pos = np.searchsorted(pool, ids)
        pw, ps = (np.array([events[f"p_{v}{j}"] for j in range(k)]).T for v in "ws")
        assert len(pos) > 2 * len(pool)  # so more than one epoch is folded
        store = TrackerStore(pool, **harness.load_manifest(str(out))["config"]["tracker"])
        for lo in range(0, len(pos), len(pool)):
            hi = lo + len(pool)
            store.ingest_batch(pos[lo:hi], pw[lo:hi], ps[lo:hi])
        store.snapshot().export_csv(tmp_path / "replayed.csv")
        assert (tmp_path / "replayed.csv").read_bytes() \
            == (out / "seed_0" / "scores" / "round0.csv").read_bytes()


class TestAnalyzeDir:
    def test_rebuild_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        run_and_emit(small_cfg(seeds=[0, 1]), out_dir=str(out))
        originals = {}
        analysis = out / "analysis"
        for name in os.listdir(analysis):
            originals[name] = (analysis / name).read_bytes()
            os.remove(analysis / name)
        analyze_dir(str(out))
        rebuilt = {name: (analysis / name).read_bytes() for name in os.listdir(analysis)}
        assert rebuilt == originals

    def test_rebuild_after_lane_error_is_byte_identical(self, tmp_path, monkeypatch):
        # The 2nd training is seed 0's round 1 of random, so rounds.csv
        # lists ucb-product's final row first while the config lists random first.
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise TrainingError("diverged", step=1)
            return train_round(*args, **kwargs)

        monkeypatch.setattr(harness, "train_round", failing)
        out = tmp_path / "run"
        result = run_and_emit(small_cfg(strategies=["random", "ucb-product"], seeds=[0, 1]),
                              out_dir=str(out))
        assert [(e["seed"], e["strategy"], e["round"]) for e in result.errors] == [
            (0, "random", 1)]
        path = out / "analysis" / "pairwise_matrix.csv"
        original = path.read_bytes()
        assert original.startswith(b"strategy,random,ucb-product\r\n")
        os.remove(path)
        analyze_dir(str(out))
        assert path.read_bytes() == original

    def test_repeated_rounds_row_is_refused(self, tmp_path):
        # A second copy of random's final row with another accuracy would
        # otherwise replace the first in the rebuilt pairwise matrix.
        out = tmp_path / "run"
        run_and_emit(small_cfg(strategies=["random", "ucb-product"]), out_dir=str(out))
        rounds = out / "rounds.csv"
        text = rounds.read_bytes()
        row = next(r for r in text.split(b"\r\n") if r.startswith(b"0,random,1,")).split(b",")
        rounds.write_bytes(text + b",".join(row[:3] + [b"0.123"] + row[4:]) + b"\r\n")
        matrix = out / "analysis" / "pairwise_matrix.csv"
        original = matrix.read_bytes()
        with pytest.raises(InputError, match="seed 0, strategy 'random', round 1 twice"):
            analyze_dir(str(out))
        assert matrix.read_bytes() == original

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(InputError):
            analyze_dir(str(tmp_path))

    def test_manifest_is_a_directory(self, tmp_path):
        (tmp_path / "manifest.json").mkdir()
        with pytest.raises(InputError, match="cannot read manifest"):
            analyze_dir(str(tmp_path))
