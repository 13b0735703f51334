import json
import math
import os
import re

import numpy as np
import pytest

from asslab import harness, nn
from asslab.acquisition import STRATEGIES, AcquisitionRequest, acquire
from asslab.data import Augmenter, GeneratorSpec, generate, split_pools, standardize
from asslab.errors import ConfigError, InputError
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


def assert_dirs_match(dir_a, dir_b):
    def listing(root):
        files = []
        for base, _, names in os.walk(root):
            for name in names:
                files.append(os.path.relpath(os.path.join(base, name), root))
        return sorted(files)

    files_a, files_b = listing(dir_a), listing(dir_b)
    assert files_a == files_b
    for rel in files_a:
        with open(os.path.join(dir_a, rel), "rb") as f:
            bytes_a = f.read()
        with open(os.path.join(dir_b, rel), "rb") as f:
            bytes_b = f.read()
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

    @pytest.mark.parametrize("override", [
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
        {"ssl": {"weak_augment_labeled": "yes"}},
        {"ssl": {"init_mode": None}},
        {"tracker": {"c_u": math.inf}},
        {"tracker": "post"},
    ])
    def test_typed_fields(self, override):
        d = ExperimentConfig().to_dict()
        for key, value in override.items():
            if isinstance(value, dict) and isinstance(d[key], dict):
                d[key].update(value)
            else:
                d[key] = value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

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
            '{"acquire_k": 20, "dataset": {"blob_radius": 5.0, "kind": "two-moons", '
            '"n_classes": 2, "noise": 0.25, "ring_spacing": 2.0, "size": 2000}, '
            '"export_datasets": true, "log_events": false, "n_init": 20, "n_test": 500, '
            '"out_dir": "runs/default", "rounds": 5, "seeds": [0, 1, 2, 3, 4], '
            '"ssl": {"batch_size": 16, "carry_tracker": false, "hidden_dims": [64, 64], '
            '"init_mode": "rand_init", "lambda_u": 1.0, "lr": 0.03, "momentum": 0.0, '
            '"mu": 4, "snapshot_interval": 200, "steps_per_round": 2000, "tau": 0.95, '
            '"weak_augment_labeled": true}, '
            '"strategies": ["random", "entropy", "margin", "snapshot-el2n", "coreset", '
            '"ucb-product", "ucb-product-div"], "stratify_init": true, '
            '"tracker": {"alpha": 0.8, "c_i": 2.0, "c_u": 0.5, "variance_mean": "post"}}'
        )

    def test_tracker_params_round_trip(self):
        params = TrackerParams(alpha=0.5, c_u=1.0, c_i=0.0, variance_mean="pre")
        assert TrackerParams.from_dict(params.to_dict()) == params
        with pytest.raises(ConfigError):
            TrackerParams.from_dict({"alpha": 0.5, "beta": 1.0})
        with pytest.raises(ConfigError):
            TrackerParams.from_dict({"alpha": 1.5})


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

    def test_divergence_recorded_with_partial_results(self):
        cfg = small_cfg(
            strategies=["random"],
            ssl=SslConfig(steps_per_round=20, snapshot_interval=10,
                          hidden_dims=[8, 8], lr=1e200),
        )
        with np.errstate(all="ignore"):
            result = run_experiment(cfg)
        assert result.reports == []
        assert len(result.errors) == 1
        err = result.errors[0]
        assert err["seed"] == 0 and err["strategy"] == "random"
        assert err["round"] == 0 and err["step"] is not None


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
        per_round = []
        for round_index in range(cfg.rounds):
            start = init_params if cfg.ssl.init_mode == "rand_init" else carried
            tracker = TrackerStore(
                pools.sorted_unlabeled(), alpha=cfg.tracker.alpha,
                c_u=cfg.tracker.c_u, c_i=cfg.tracker.c_i,
                variance_mean=cfg.tracker.variance_mean,
            )
            carried, _ = train_round(
                start, pools, dataset, cfg.ssl, tracker,
                derive_rng(seed, harness.TRAIN_STREAM, round_index),
                augmenter=augmenter,
            )
            ids, _ = acquire(AcquisitionRequest(
                strategy, cfg.acquire_k, tracker.snapshot(), carried, dataset,
                pools, derive_rng(seed, harness.ACQUIRE_STREAM, round_index, strategy_index),
            ))
            pools = pools.updated(ids)
            per_round.append((carried, ids))
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
            for report, (params, ids) in zip(got, expected):
                assert_params_equal(report.params, params)
                np.testing.assert_array_equal(report.acquired_ids, ids)

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

    def test_manifest_round_trip(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_cfg()
        run_and_emit(cfg, out_dir=str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert ExperimentConfig.from_dict(manifest["config"]) == cfg
        assert manifest["seeds"] == cfg.seeds
        assert manifest["completed_rounds"] == len(cfg.strategies) * cfg.rounds
        assert manifest["errors"] == []
        timings = manifest["nondeterministic"]["acquisition_seconds"]
        assert len(timings) == len(cfg.strategies) * cfg.rounds
        assert all(t["seconds"] >= 0 for t in timings)

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
        lines = (out / "seed_0" / "events_random.csv").read_text().splitlines()
        assert lines[0] == "round,step,sample_id,p_w0,p_w1,p_s0,p_s1"
        assert len(lines) == 1 + 5 * 8  # steps * mu * batch_size
        probs = [sum(float(v) for v in line.split(",")[3:5]) for line in lines[1:]]
        np.testing.assert_allclose(probs, 1.0, rtol=1e-9)

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

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(InputError):
            analyze_dir(str(tmp_path))
