"""Experiment harness: seeded sweeps over strategies, disk layout, re-analysis.

Reproducibility contract: every rng in a run is derived from the experiment
seed through a named stream, so with a shared seed the dataset, the pool
split, the initial weights, and the round-0 training stream are identical
across strategies. Acquisition draws live in a stream keyed by strategy
position, so one strategy's consumption never perturbs another's.

All emitted CSVs format floats with repr and contain no timestamps; wall
clocks and creation times live only in manifest.json.
"""

from __future__ import annotations

import csv
import importlib.metadata
import json
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .acquisition import STRATEGIES, AcquisitionRequest, acquire
from .analysis import (
    SnapshotSeries,
    consecutive_snapshot_spearman,
    load_series,
    export_series,
    pairwise_matrix,
    pseudo_labeled_ratio,
    ti_uncertainty_profile,
    write_pairwise_matrix,
    write_pseudo_ratio,
    write_spearman_series,
    write_ti_profile,
)
from .config import DictConfig
from .data import (
    Augmenter,
    Dataset,
    GeneratorSpec,
    export_dataset,
    generate,
    split_pools,
    standardize,
)
from .errors import ConfigError, InputError, TrainingError
from .ssl import SslConfig, train_round
from .tracker import TrackerSnapshot, TrackerStore, load_snapshot_csv

# Named rng streams; each is an independent child of the experiment seed.
DATA_STREAM = 0
SPLIT_STREAM = 1
INIT_STREAM = 2
TRAIN_STREAM = 3
ACQUIRE_STREAM = 4

ROUNDS_COLUMNS = [
    "seed", "strategy", "round", "test_accuracy", "supervised_loss",
    "unsupervised_loss", "mask_rate", "n_events", "n_labeled",
]
ACQUISITION_COLUMNS = ["round", "strategy", "rank", "sample_id", "score"]
PSEUDO_RATIO_FRACS = (0.01, 0.05, 0.1)
PSEUDO_RATIO_METRICS = ("u_ucb", "i_ucb")


def derive_seed_sequence(seed: int, stream: int, *extra: int) -> np.random.SeedSequence:
    key = (int(stream),) + tuple(int(e) for e in extra)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def derive_rng(seed: int, stream: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed_sequence(seed, stream, *extra))


def derive_seed(seed: int, stream: int, *extra: int) -> int:
    return int(derive_seed_sequence(seed, stream, *extra).generate_state(1)[0])


@dataclass
class TrackerParams(DictConfig):
    alpha: float = 0.8
    c_u: float = 0.5
    c_i: float = 2.0
    variance_mean: str = "post"

    def validate(self):
        # TrackerStore revalidates; constructing one surfaces errors early.
        TrackerStore([], self.alpha, self.c_u, self.c_i, self.variance_mean)


@dataclass
class ExperimentConfig(DictConfig):
    dataset: GeneratorSpec = field(default_factory=GeneratorSpec)
    n_init: int = 20
    acquire_k: int = 20
    rounds: int = 5
    n_test: int = 500
    ssl: SslConfig = field(default_factory=SslConfig)
    tracker: TrackerParams = field(default_factory=TrackerParams)
    strategies: list[str] = field(default_factory=lambda: list(STRATEGIES))
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    out_dir: str = "runs/default"
    stratify_init: bool = True
    export_datasets: bool = True
    log_events: bool = False

    def validate(self):
        self.dataset.validate()
        self.ssl.validate()
        self.tracker.validate()
        if self.rounds < 1:
            raise ConfigError("rounds must be at least 1")
        if self.acquire_k < 1:
            raise ConfigError("acquire_k must be at least 1")
        if self.n_init < 1:
            raise ConfigError("n_init must be at least 1")
        if self.n_test < 0:
            raise ConfigError("n_test must be nonnegative")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be unique")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be nonnegative")
        if not self.strategies:
            raise ConfigError("strategies must be nonempty")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("strategies must be unique")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ConfigError(f"unknown strategies {unknown}; choose from {list(STRATEGIES)}")
        pool = self.dataset.size - self.n_test
        budget = self.n_init + self.rounds * self.acquire_k
        if budget > pool:
            raise ConfigError(
                f"label budget {budget} exceeds the non-test pool of {pool} samples"
            )
        mu_b = self.ssl.mu * self.ssl.batch_size
        last_unlabeled = pool - self.n_init - (self.rounds - 1) * self.acquire_k
        if last_unlabeled < mu_b:
            raise ConfigError(
                f"final round would leave {last_unlabeled} unlabeled samples, "
                f"below the unlabeled batch size {mu_b}"
            )


@dataclass
class RoundReport:
    seed: int
    strategy: str
    round_index: int
    test_accuracy: float
    supervised_loss: float
    unsupervised_loss: float
    mask_rate: float
    n_events: int
    n_labeled_after: int
    acquired_ids: np.ndarray  # ranked, best first
    acquisition_scores: np.ndarray | None
    acquisition_seconds: float
    params: nn.ModelParams  # model at the end of the round
    series: SnapshotSeries | None = None
    tracker_snapshot: TrackerSnapshot | None = None


@dataclass
class ExperimentResult:
    reports: list[RoundReport]
    errors: list[dict]
    datasets: dict[int, Dataset]
    events: dict[tuple[int, str], list]


def run_experiment(cfg: ExperimentConfig, progress=None) -> ExperimentResult:
    """Run every (seed, strategy) lane of the configured sweep.

    A lane that diverges during training is cut short: its completed
    rounds stay in the report list and the failure is recorded in the
    error list, so partial results survive.

    progress, when given, is called with each finished RoundReport.
    """
    cfg.validate()
    reports: list[RoundReport] = []
    errors: list[dict] = []
    datasets: dict[int, Dataset] = {}
    events: dict[tuple[int, str], list] = {}
    rand_init = cfg.ssl.init_mode == "rand_init"

    for seed in cfg.seeds:
        dataset = standardize(generate(cfg.dataset, derive_seed(seed, DATA_STREAM)))
        datasets[seed] = dataset
        pools0 = split_pools(
            dataset, cfg.n_init, cfg.n_test, derive_seed(seed, SPLIT_STREAM),
            stratify=cfg.stratify_init,
        )
        augmenter = Augmenter.for_data(dataset.x)
        dims = [dataset.dim, *cfg.ssl.hidden_dims, dataset.n_classes]
        init_params = nn.init_params(dims, derive_rng(seed, INIT_STREAM))

        for si, strategy in enumerate(cfg.strategies):
            pools = pools0
            carried = init_params
            tracker = None
            keep_artifacts = si == 0
            lane_events: list = []
            round_index = 0
            try:
                for round_index in range(cfg.rounds):
                    start = init_params if rand_init else carried
                    if tracker is None or not cfg.ssl.carry_tracker:
                        tracker = TrackerStore(
                            pools.sorted_unlabeled(),
                            alpha=cfg.tracker.alpha,
                            c_u=cfg.tracker.c_u,
                            c_i=cfg.tracker.c_i,
                            variance_mean=cfg.tracker.variance_mean,
                        )
                    sink = (
                        _event_recorder(lane_events, round_index)
                        if cfg.log_events else None
                    )
                    trained, metrics = train_round(
                        start, pools, dataset, cfg.ssl, tracker,
                        derive_rng(seed, TRAIN_STREAM, round_index),
                        augmenter=augmenter, event_sink=sink,
                    )
                    carried = trained
                    snapshot = tracker.snapshot()
                    acq_rng = derive_rng(seed, ACQUIRE_STREAM, round_index, si)
                    t0 = time.perf_counter()
                    ids, scores = acquire(AcquisitionRequest(
                        strategy, cfg.acquire_k, snapshot, trained, dataset,
                        pools, acq_rng,
                    ))
                    seconds = time.perf_counter() - t0
                    pools = pools.updated(ids)
                    if cfg.ssl.carry_tracker:
                        tracker.remove(ids)
                    report = RoundReport(
                        seed=seed,
                        strategy=strategy,
                        round_index=round_index,
                        test_accuracy=metrics.test_accuracy,
                        supervised_loss=metrics.supervised_loss,
                        unsupervised_loss=metrics.unsupervised_loss,
                        mask_rate=metrics.mask_rate,
                        n_events=metrics.n_events,
                        n_labeled_after=len(pools.labeled),
                        acquired_ids=ids,
                        acquisition_scores=scores,
                        acquisition_seconds=seconds,
                        params=trained,
                        series=metrics.series if keep_artifacts and round_index == 0 else None,
                        tracker_snapshot=snapshot if keep_artifacts else None,
                    )
                    reports.append(report)
                    if progress is not None:
                        progress(report)
            except TrainingError as e:
                errors.append({
                    "seed": seed,
                    "strategy": strategy,
                    "round": round_index,
                    "step": e.step,
                    "message": str(e),
                })
            if lane_events:
                events[(seed, strategy)] = lane_events
    return ExperimentResult(
        reports=reports, errors=errors, datasets=datasets, events=events,
    )


def _event_recorder(store: list, round_index: int):
    def sink(step, ids, probs_weak, probs_strong):
        store.append((
            round_index, int(step), np.asarray(ids, dtype=np.int64).copy(),
            probs_weak.copy(), probs_strong.copy(),
        ))
    return sink


def _seed_dir(out_dir: str, seed: int) -> str:
    return os.path.join(out_dir, f"seed_{seed}")


def _package_version() -> str:
    try:
        return importlib.metadata.version("asslab")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def _write_rounds_csv(path, reports: list[RoundReport]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(ROUNDS_COLUMNS)
        for r in reports:
            writer.writerow([
                r.seed, r.strategy, r.round_index,
                repr(float(r.test_accuracy)),
                repr(float(r.supervised_loss)),
                repr(float(r.unsupervised_loss)),
                repr(float(r.mask_rate)),
                r.n_events, r.n_labeled_after,
            ])


def _write_acquisitions_csv(path, reports: list[RoundReport]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(ACQUISITION_COLUMNS)
        for r in reports:
            for rank, sample_id in enumerate(r.acquired_ids):
                score = ""
                if r.acquisition_scores is not None:
                    score = repr(float(r.acquisition_scores[rank]))
                writer.writerow([r.round_index, r.strategy, rank, int(sample_id), score])


def _write_events_csv(path, lane_events: list) -> None:
    k = lane_events[0][3].shape[1]
    header = (["round", "step", "sample_id"]
              + [f"p_w{j}" for j in range(k)] + [f"p_s{j}" for j in range(k)])
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for round_index, step, ids, pw, ps in lane_events:
            for j, sample_id in enumerate(ids):
                writer.writerow(
                    [round_index, step, int(sample_id)]
                    + [repr(float(v)) for v in pw[j]]
                    + [repr(float(v)) for v in ps[j]]
                )


def _snapshot_scores(snapshot: TrackerSnapshot, metric: str) -> dict[int, float]:
    values = getattr(snapshot, metric)
    return {int(i): float(v) for i, v in zip(snapshot.ids, values)}


def _write_seed_analysis(
    analysis_dir: str,
    seed: int,
    series: SnapshotSeries,
    snapshot: TrackerSnapshot,
    tau: float,
) -> None:
    write_ti_profile(
        os.path.join(analysis_dir, f"ti_profile_seed{seed}.csv"),
        ti_uncertainty_profile(series),
    )
    if series.n_snapshots >= 2:
        write_spearman_series(
            os.path.join(analysis_dir, f"spearman_series_seed{seed}.csv"),
            consecutive_snapshot_spearman(series),
        )
    rows = []
    for metric in PSEUDO_RATIO_METRICS:
        scores = _snapshot_scores(snapshot, metric)
        for frac in PSEUDO_RATIO_FRACS:
            rows.append((metric, frac, pseudo_labeled_ratio(series, scores, frac, tau)))
    write_pseudo_ratio(os.path.join(analysis_dir, f"pseudo_ratio_seed{seed}.csv"), rows)


def _write_pairwise(analysis_dir: str, acc_table: dict[str, dict]) -> None:
    """Win-count matrix over the settings every strategy completed."""
    if not acc_table:
        return
    shared = set.intersection(*(set(v) for v in acc_table.values()))
    if not shared:
        return
    table = {s: {key: acc[key] for key in shared} for s, acc in acc_table.items()}
    write_pairwise_matrix(
        os.path.join(analysis_dir, "pairwise_matrix.csv"), pairwise_matrix(table)
    )


def emit(result: ExperimentResult, cfg: ExperimentConfig, out_dir: str) -> None:
    """Write the run's artifact tree.

    rounds.csv, per-seed acquisition logs, round-0 snapshot series and
    per-round score snapshots for the first strategy, derived analysis
    CSVs, and manifest.json. Every file except the manifest is a pure
    function of the config, so reruns are byte-identical.
    """
    os.makedirs(out_dir, exist_ok=True)
    _write_rounds_csv(os.path.join(out_dir, "rounds.csv"), result.reports)

    by_seed: dict[int, list[RoundReport]] = {}
    for r in result.reports:
        by_seed.setdefault(r.seed, []).append(r)

    first_strategy = cfg.strategies[0]
    analysis_dir = os.path.join(out_dir, "analysis")
    acc_table: dict[str, dict] = {s: {} for s in cfg.strategies}

    for seed, seed_reports in by_seed.items():
        seed_dir = _seed_dir(out_dir, seed)
        os.makedirs(seed_dir, exist_ok=True)
        _write_acquisitions_csv(os.path.join(seed_dir, "acquisitions.csv"), seed_reports)
        if cfg.export_datasets and seed in result.datasets:
            export_dataset(result.datasets[seed], os.path.join(seed_dir, "dataset.csv"))

        first = [r for r in seed_reports if r.strategy == first_strategy]
        scored = [r for r in first if r.tracker_snapshot is not None]
        if scored:
            scores_dir = os.path.join(seed_dir, "scores")
            os.makedirs(scores_dir, exist_ok=True)
            for r in scored:
                r.tracker_snapshot.export_csv(
                    os.path.join(scores_dir, f"round{r.round_index}.csv")
                )
        round0 = next((r for r in first if r.round_index == 0), None)
        if round0 is not None and round0.series is not None:
            export_series(round0.series, os.path.join(seed_dir, "snapshots_round0.csv"))
            if round0.tracker_snapshot is not None:
                os.makedirs(analysis_dir, exist_ok=True)
                _write_seed_analysis(
                    analysis_dir, seed, round0.series, round0.tracker_snapshot,
                    cfg.ssl.tau,
                )

        for r in seed_reports:
            if r.round_index == cfg.rounds - 1:
                acc_table[r.strategy][f"{cfg.dataset.kind}-seed{seed}"] = r.test_accuracy

    for (seed, strategy), lane_events in result.events.items():
        seed_dir = _seed_dir(out_dir, seed)
        os.makedirs(seed_dir, exist_ok=True)
        _write_events_csv(os.path.join(seed_dir, f"events_{strategy}.csv"), lane_events)

    acc_table = {s: acc for s, acc in acc_table.items() if acc}
    if acc_table:
        os.makedirs(analysis_dir, exist_ok=True)
        _write_pairwise(analysis_dir, acc_table)

    manifest = {
        "config": cfg.to_dict(),
        "package_version": _package_version(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "seeds": list(cfg.seeds),
        "strategies": list(cfg.strategies),
        "completed_rounds": len(result.reports),
        "errors": result.errors,
        "nondeterministic": {
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "acquisition_seconds": [
                {
                    "seed": r.seed,
                    "strategy": r.strategy,
                    "round": r.round_index,
                    "seconds": r.acquisition_seconds,
                }
                for r in result.reports
            ],
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def run_and_emit(cfg: ExperimentConfig, out_dir: str | None = None,
                 progress=None) -> ExperimentResult:
    result = run_experiment(cfg, progress=progress)
    emit(result, cfg, out_dir if out_dir is not None else cfg.out_dir)
    return result


def load_manifest(in_dir: str) -> dict:
    path = os.path.join(in_dir, "manifest.json")
    if not os.path.exists(path):
        raise InputError(f"no manifest.json under {in_dir!r}")
    with open(path) as f:
        return json.load(f)


def _final_accuracies(rounds_path: str, rounds: int) -> dict[tuple[str, int], float]:
    """(strategy, seed) -> accuracy from the final-round rows of rounds.csv."""
    out: dict[tuple[str, int], float] = {}
    with open(rounds_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ROUNDS_COLUMNS:
            raise InputError(f"unexpected rounds header {header!r}")
        for row in reader:
            seed, strategy, round_index = int(row[0]), row[1], int(row[2])
            if round_index == rounds - 1:
                out[(strategy, seed)] = float(row[3])
    return out


def analyze_dir(in_dir: str) -> None:
    """Rebuild the analysis CSVs of an emitted run directory from its logs.

    Produces byte-identical files to the original emit because every log
    stores floats via repr and is therefore an exact round trip.
    """
    manifest = load_manifest(in_dir)
    cfg = ExperimentConfig.from_dict(manifest["config"])
    analysis_dir = os.path.join(in_dir, "analysis")

    for seed in cfg.seeds:
        seed_dir = _seed_dir(in_dir, seed)
        series_path = os.path.join(seed_dir, "snapshots_round0.csv")
        scores_path = os.path.join(seed_dir, "scores", "round0.csv")
        if not (os.path.exists(series_path) and os.path.exists(scores_path)):
            continue
        os.makedirs(analysis_dir, exist_ok=True)
        _write_seed_analysis(
            analysis_dir, seed, load_series(series_path),
            load_snapshot_csv(scores_path), cfg.ssl.tau,
        )

    rounds_path = os.path.join(in_dir, "rounds.csv")
    if os.path.exists(rounds_path):
        finals = _final_accuracies(rounds_path, cfg.rounds)
        acc_table: dict[str, dict] = {}
        for (strategy, seed), acc in finals.items():
            acc_table.setdefault(strategy, {})[f"{cfg.dataset.kind}-seed{seed}"] = acc
        if acc_table:
            os.makedirs(analysis_dir, exist_ok=True)
            _write_pairwise(analysis_dir, acc_table)
