"""Experiment harness: seeded sweeps over strategies, disk layout, re-analysis.

Reproducibility contract: every rng in a run is derived from the experiment
seed through a named stream, so with a shared seed the dataset, the pool
split, the initial weights, and every round's training stream are
identical across strategies. A lane's training input is therefore fixed
by the ids it acquired in earlier rounds, and each distinct history is
trained once per seed. Acquisition draws live in a stream keyed by
strategy position, so one strategy's consumption never perturbs another's.

Every emitted table is written, and read back, by the table module, which
owns the formats: CSV with CRLF rows, repr floats and empty cells for None,
and for the event logs .npy. The tables contain no timestamps; wall
clocks and creation times live only in manifest.json, beside the asslab,
Python and numpy versions. Every file, the manifest included, is written
through table.atomic_open, so an interrupted emit leaves no half-written
file.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import platform
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, nn
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
from .config import DictConfig, read_json
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
from .table import atomic_open, read_table, write_npy, write_table
from .tracker import TrackerSnapshot, TrackerStore, load_snapshot_csv

# Named rng streams; each is an independent child of the experiment seed.
DATA_STREAM = 0
SPLIT_STREAM = 1
INIT_STREAM = 2
TRAIN_STREAM = 3
ACQUIRE_STREAM = 4

ROUNDS_COLUMNS = {
    "seed": int, "strategy": str, "round": int, "test_accuracy": float,
    "supervised_loss": float, "unsupervised_loss": float, "mask_rate": float,
    "n_events": int, "n_labeled": int,
}
ROUNDS_FIELDS = [  # the RoundReport attribute behind each rounds.csv column
    "seed", "strategy", "round_index", "test_accuracy", "supervised_loss",
    "unsupervised_loss", "mask_rate", "n_events", "n_labeled_after",
]
ACQUISITION_COLUMNS = ["round", "strategy", "rank", "sample_id", "score"]
PSEUDO_RATIO_FRACS = (0.01, 0.05, 0.1)
PSEUDO_RATIO_METRICS = ("u_ucb", "i_ucb")


def derive_seed_sequence(seed: int, stream: int, *extra: int) -> np.random.SeedSequence:
    key = (int(stream),) + tuple(int(e) for e in extra)
    if int(seed) < 0 or min(key) < 0:
        raise InputError(f"seed and streams must be nonnegative, got {seed} and {key}")
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

    def _check_ranges(self):
        # TrackerStore revalidates; constructing one surfaces errors early.
        TrackerStore([], **self.to_dict())


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
    log_events: bool = False

    def _check_ranges(self):
        for name, floor in (("rounds", 1), ("acquire_k", 1), ("n_init", 1), ("n_test", 0)):
            if getattr(self, name) < floor:
                raise ConfigError(f"{name} must be at least {floor}")
        for name, values in (("seeds", self.seeds), ("strategies", self.strategies)):
            if not values or len(set(values)) != len(values):
                raise ConfigError(f"{name} must be nonempty and unique")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be nonnegative")
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
        # The ucb-* scores need an event for every sample, and round 0,
        # with the largest pool, covers it iff its draws span one epoch.
        first_unlabeled = pool - self.n_init
        draws = self.ssl.steps_per_round * mu_b
        if draws < first_unlabeled and any(s.startswith("ucb-") for s in self.strategies):
            raise ConfigError(
                f"ucb-* strategies need every sample tracked, but round 0 draws {draws} "
                f"unlabeled samples from a pool of {first_unlabeled}; raise steps_per_round"
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
    # (seed, strategy, round) -> the event columns of that trained round:
    # step, sample_id, then the weak and the strong probability of each
    # class, as emit writes them to events/round<r>_<strategy>.npy.
    # strategy is the first lane, in config order, that reached the round;
    # a round with no events has no entry.
    events: dict[tuple[int, str, int], list[np.ndarray]]


def run_experiment(cfg: ExperimentConfig, progress=None) -> ExperimentResult:
    """Run every (seed, strategy) lane of the configured sweep.

    Seeds share nothing: _run_seed runs each alone, and their results are
    joined in config order. Reports, and the calls to progress (when given,
    with each RoundReport as it is made), come seed-major, then lane-major.
    """
    cfg.validate()
    seeds = [_run_seed(cfg, seed, progress) for seed in cfg.seeds]
    return ExperimentResult(
        reports=[r for s in seeds for r in s.reports],
        errors=[e for s in seeds for e in s.errors],
        datasets={k: v for s in seeds for k, v in s.datasets.items()},
        events={k: v for s in seeds for k, v in s.events.items()},
    )


def _run_seed(cfg: ExperimentConfig, seed: int, progress) -> ExperimentResult:
    """Run every strategy's lane of one seed and return that seed's result.

    Everything the lanes share lives here and nowhere else, so seeds share
    nothing: the dataset, the pool split, the augmenter, the init params
    and the memo of trained rounds. Each round is looked up in the memo by
    the lane's history, the sorted ids it acquired in each earlier round,
    so every distinct history (round 0's empty one included) is trained
    once, under either init_mode, and every lane with it acquires from that
    result. With carry_tracker each lane carries its own copy of the memo's
    tracker. With log_events, events[(seed, strategy, round)] holds the
    event columns of each trained round that made events, a diverged one
    included, under the strategy that trained it; the lanes that share the
    round share that one entry.

    A lane that diverges during training is cut short: its completed
    rounds stay in the report list and the failure is recorded in the
    error list, so partial results survive. A shared divergence is
    recorded for every lane that reaches its history.

    Only the first strategy's reports carry artifacts: every round its
    tracker snapshot, round 0 also its snapshot series. emit writes
    whatever the reports carry. progress is called with each report, in
    lane-major order.

    Only round 0's snapshot series is kept, so every later round trains
    with no pool snapshots. train_round draws its snapshot rng either way,
    so nothing else moves. A later-round divergence that a snapshot would
    have seen first is seen by the next step's loss or the test pass, so
    its error's step and message (and the manifest's errors) can differ
    from a run that snapshots every round.
    """
    dataset = standardize(generate(cfg.dataset, derive_seed(seed, DATA_STREAM)))
    pools0 = split_pools(
        dataset, cfg.n_init, cfg.n_test, derive_seed(seed, SPLIT_STREAM),
        stratify=cfg.stratify_init,
    )
    augmenter = Augmenter.for_data(dataset.x)
    dims = [dataset.dim, *cfg.ssl.hidden_dims, dataset.n_classes]
    init_params = nn.init_params(dims, derive_rng(seed, INIT_STREAM))
    rand_init = cfg.ssl.init_mode == "rand_init"
    carry = cfg.ssl.carry_tracker
    # A snapshot interval past the round's last step takes no snapshots.
    later_ssl = replace(cfg.ssl, snapshot_interval=cfg.ssl.steps_per_round + 1)
    result = ExperimentResult(reports=[], errors=[], datasets={seed: dataset}, events={})
    memo: dict[tuple, tuple] = {}  # history -> (outcome, tracker)

    for si, strategy in enumerate(cfg.strategies):
        pools, trained, tracker, history = pools0, init_params, None, ()
        keep_artifacts = si == 0
        try:
            for round_index in range(cfg.rounds):
                if history not in memo:
                    if tracker is None or not carry:
                        tracker = TrackerStore(pools.sorted_unlabeled(), **cfg.tracker.to_dict())
                    made: list = []  # (step, ids, probs_weak, probs_strong), equal rows per step
                    sink = (lambda *event: made.append(event)) if cfg.log_events else None
                    try:
                        outcome = train_round(
                            init_params if rand_init else trained, pools, dataset,
                            later_ssl if history else cfg.ssl,
                            tracker, derive_rng(seed, TRAIN_STREAM, round_index),
                            augmenter=augmenter, event_sink=sink)
                    except TrainingError as e:
                        outcome = e
                    memo[history] = outcome, tracker
                    if made:
                        steps, ids, pw, ps = zip(*made)
                        result.events[(seed, strategy, round_index)] = [
                            np.repeat(steps, len(ids[0])), np.concatenate(ids),
                            *np.concatenate(pw).T, *np.concatenate(ps).T]
                outcome, tracker = memo[history]
                if isinstance(outcome, TrainingError):
                    raise outcome  # recorded for this lane below
                trained, metrics = outcome
                if carry:  # remove() and later ingests write into the store
                    tracker = copy.deepcopy(tracker)
                snapshot = tracker.snapshot()
                acq_rng = derive_rng(seed, ACQUIRE_STREAM, round_index, si)
                t0 = time.perf_counter()
                ids, scores = acquire(AcquisitionRequest(
                    strategy, cfg.acquire_k, snapshot, trained, dataset, pools, acq_rng,
                ))
                seconds = time.perf_counter() - t0
                pools = pools.updated(ids)
                if carry:
                    tracker.remove(ids)
                history += (np.sort(ids).tobytes(),)
                report = RoundReport(
                    seed=seed,
                    strategy=strategy,
                    round_index=round_index,
                    test_accuracy=metrics.test_accuracy,
                    supervised_loss=metrics.supervised_loss,
                    unsupervised_loss=metrics.unsupervised_loss,
                    mask_rate=metrics.mask_rate,
                    n_events=metrics.n_events,
                    n_labeled_after=len(pools.sorted_labeled()),
                    acquired_ids=ids,
                    acquisition_scores=scores,
                    acquisition_seconds=seconds,
                    params=trained,
                    series=metrics.series if keep_artifacts and round_index == 0 else None,
                    tracker_snapshot=snapshot if keep_artifacts else None,
                )
                result.reports.append(report)
                if progress is not None:
                    progress(report)
        except TrainingError as e:
            result.errors.append({
                "seed": seed,
                "strategy": strategy,
                "round": round_index,
                "step": e.step,
                "message": str(e),
            })
    return result


def _seed_dir(out_dir: str, seed: int) -> str:
    return os.path.join(out_dir, f"seed_{seed}")


def _write_rounds_csv(path, reports: list[RoundReport]) -> None:
    write_table(path, ROUNDS_COLUMNS,
                [[getattr(r, name) for r in reports] for name in ROUNDS_FIELDS])


def _write_acquisitions_csv(path, reports: list[RoundReport]) -> None:
    ranked = [(r, rank) for r in reports for rank in range(len(r.acquired_ids))]
    write_table(path, ACQUISITION_COLUMNS, [
        [r.round_index for r, _ in ranked], [r.strategy for r, _ in ranked],
        [rank for _, rank in ranked], [int(r.acquired_ids[rank]) for r, rank in ranked],
        [None if r.acquisition_scores is None else float(r.acquisition_scores[rank])
         for r, rank in ranked],
    ])


def _write_events_csv(path, columns) -> None:
    """Write one trained round's event columns (see ExperimentResult.events)
    as a .npy table: one structured array whose fields are step and
    sample_id (<i8), then p_w0.. and p_s0.. (<f8).

    The name is the CSV writer's it replaced: bench/layers.py traces the
    call under it, and it is renamed with that trace (ROADMAP item 1).
    """
    k = (len(columns) - 2) // 2
    write_npy(path, np.dtype([("step", "<i8"), ("sample_id", "<i8")]
                             + [(f"p_{v}{j}", "<f8") for v in "ws" for j in range(k)]), columns)


def _write_seed_analysis(
    analysis_dir: str,
    seed: int,
    series: SnapshotSeries,
    snapshot: TrackerSnapshot,
    tau: float,
) -> None:
    if not np.array_equal(series.ids, snapshot.ids):
        raise InputError(f"seed {seed}: the round-0 scores and snapshot series "
                         "cover different samples")
    write_ti_profile(
        os.path.join(analysis_dir, f"ti_profile_seed{seed}.csv"),
        ti_uncertainty_profile(series),
    )
    if series.n_snapshots >= 2:
        write_spearman_series(
            os.path.join(analysis_dir, f"spearman_series_seed{seed}.csv"),
            consecutive_snapshot_spearman(series),
        )
    rows = [(metric, frac, pseudo_labeled_ratio(series, getattr(snapshot, metric), frac, tau))
            for metric in PSEUDO_RATIO_METRICS for frac in PSEUDO_RATIO_FRACS]
    write_pseudo_ratio(os.path.join(analysis_dir, f"pseudo_ratio_seed{seed}.csv"), rows)


def _write_analysis(
    out_dir: str,
    cfg: ExperimentConfig,
    round0: dict[int, tuple[SnapshotSeries, TrackerSnapshot]],
    finals: dict[tuple[str, int], float],
) -> None:
    """Write analysis/, the one path for both emit and analyze_dir.

    round0 maps seed -> the first strategy's round-0 series and scores;
    finals maps (strategy, seed) -> final-round test accuracy. The win
    matrix lists the strategies with a final accuracy in config order,
    over the seeds that every one of them completed.
    """
    if not (round0 or finals):
        return
    analysis_dir = os.path.join(out_dir, "analysis")
    os.makedirs(analysis_dir, exist_ok=True)
    for seed, (series, snapshot) in round0.items():
        _write_seed_analysis(analysis_dir, seed, series, snapshot, cfg.ssl.tau)
    finished = [s for s in cfg.strategies if any(s == t for t, _ in finals)]
    shared = [seed for seed in cfg.seeds if all((s, seed) in finals for s in finished)]
    if finished and shared:
        write_pairwise_matrix(os.path.join(analysis_dir, "pairwise_matrix.csv"), pairwise_matrix({
            s: {f"{cfg.dataset.kind}-seed{seed}": finals[s, seed] for seed in shared}
            for s in finished
        }))


def _recorded_config(cfg: ExperimentConfig) -> dict:
    """cfg as manifest.json records it: every field but out_dir, so the
    same run written to two directories has the same bytes."""
    recorded = cfg.to_dict()
    del recorded["out_dir"]
    return recorded


def _check_out_dir(cfg: ExperimentConfig, out_dir: str) -> None:
    """InputError for an out_dir whose old files the new run would leave
    beside its own: another config's run, or the event logs of an older
    layout, one file per lane (seed_<s>/events_<strategy>.csv) or one CSV
    per trained round (seed_<s>/events/round<r>_<strategy>.csv)."""
    if (os.path.exists(os.path.join(out_dir, "manifest.json"))
            and load_manifest(out_dir)["config"] != _recorded_config(cfg)):
        raise InputError(f"{out_dir} holds the run of a different config")
    seeds = os.path.join(glob.escape(out_dir), "seed_*")
    old_events = (glob.glob(os.path.join(seeds, "events_*.csv"))
                  + glob.glob(os.path.join(seeds, "events", "round*_*.csv")))
    if old_events:
        raise InputError(f"{out_dir} holds event logs of an older layout, "
                         f"such as {min(old_events)}")


def emit(result: ExperimentResult, cfg: ExperimentConfig, out_dir: str) -> None:
    """Write the run's artifact tree.

    rounds.csv, per-seed datasets and acquisition logs, the round-0
    snapshot series and per-round score snapshots of the reports that
    carry them (the first strategy's, see _run_seed), the event log of
    each trained round (events/round<r>_<strategy>.npy, keyed as
    ExperimentResult.events, see _write_events_csv), derived analysis
    CSVs, and manifest.json.
    Every file is a pure function of the config and the code, so reruns
    are byte-identical, except the manifest's Python and numpy versions
    and its "nondeterministic" key. The manifest records the code's own
    asslab.__version__, whether or not the package is installed, and no
    path, so the same run has the same bytes in any out_dir. An out_dir
    whose manifest records a different config, or that holds event logs
    of an older layout (see _check_out_dir), raises InputError, since
    those files would stay beside the new ones.
    """
    _check_out_dir(cfg, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    _write_rounds_csv(os.path.join(out_dir, "rounds.csv"), result.reports)

    by_seed: dict[int, list[RoundReport]] = {}
    for r in result.reports:
        by_seed.setdefault(r.seed, []).append(r)

    round0: dict[int, tuple[SnapshotSeries, TrackerSnapshot]] = {}
    for seed, seed_reports in by_seed.items():
        seed_dir = _seed_dir(out_dir, seed)
        os.makedirs(seed_dir, exist_ok=True)
        _write_acquisitions_csv(os.path.join(seed_dir, "acquisitions.csv"), seed_reports)
        if seed in result.datasets:
            export_dataset(result.datasets[seed], os.path.join(seed_dir, "dataset.csv"))

        scored = [r for r in seed_reports if r.tracker_snapshot is not None]
        if scored:
            scores_dir = os.path.join(seed_dir, "scores")
            os.makedirs(scores_dir, exist_ok=True)
            for r in scored:
                r.tracker_snapshot.export_csv(
                    os.path.join(scores_dir, f"round{r.round_index}.csv")
                )
        first_round = next((r for r in scored if r.series is not None), None)
        if first_round is not None:
            export_series(first_round.series, os.path.join(seed_dir, "snapshots_round0.csv"))
            round0[seed] = (first_round.series, first_round.tracker_snapshot)

    for (seed, strategy, round_index), columns in result.events.items():
        events_dir = os.path.join(_seed_dir(out_dir, seed), "events")
        os.makedirs(events_dir, exist_ok=True)
        _write_events_csv(os.path.join(events_dir, f"round{round_index}_{strategy}.npy"),
                          columns)

    _write_analysis(out_dir, cfg, round0, {
        (r.strategy, r.seed): r.test_accuracy
        for r in result.reports if r.round_index == cfg.rounds - 1
    })

    manifest = {
        "config": _recorded_config(cfg),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
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
    with atomic_open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def run_and_emit(cfg: ExperimentConfig, out_dir: str | None = None,
                 progress=None) -> ExperimentResult:
    cfg.validate()  # before out_dir is made
    out_dir = out_dir if out_dir is not None else cfg.out_dir
    _check_out_dir(cfg, out_dir)  # before any training, and so is a bad output path
    os.makedirs(out_dir, exist_ok=True)
    result = run_experiment(cfg, progress=progress)
    emit(result, cfg, out_dir)
    return result


def load_manifest(in_dir: str) -> dict:
    path = os.path.join(in_dir, "manifest.json")
    manifest = read_json(path, "manifest")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise InputError(f"{path} has no \"config\" object")
    return manifest


def _final_accuracies(rounds_path: str, rounds: int) -> dict[tuple[str, int], float]:
    """(strategy, seed) -> accuracy from the final-round rows of rounds.csv;
    InputError for a row whose round is outside [0, rounds) or a repeated
    (seed, strategy, round)."""
    seed, strategy, round_index, accuracy, *_ = read_table(rounds_path, ROUNDS_COLUMNS)
    if not np.all((0 <= round_index) & (round_index < rounds)):
        raise InputError(f"{rounds_path}: a round outside [0, {rounds})")
    keys = list(zip(seed.tolist(), strategy, round_index.tolist()))
    if len(set(keys)) < len(keys):
        sd, s, r = next(k for k in keys if keys.count(k) > 1)
        raise InputError(f"{rounds_path}: seed {sd}, strategy {s!r}, round {r} twice")
    return {(s, sd): acc for (sd, s, r), acc in zip(keys, accuracy.tolist()) if r == rounds - 1}


def analyze_dir(in_dir: str) -> None:
    """Rebuild the analysis CSVs of an emitted run directory from its logs.

    Loads the round-0 series and scores of each seed and the final-round
    accuracies of rounds.csv, then writes them through the same function
    as emit, so the files match the originals byte for byte: every log
    stores floats via repr, an exact round trip. A lane that the
    manifest's errors do not list must have its final round in rounds.csv.
    A seed may lack its round-0 series only if round 0 takes no snapshot.
    """
    manifest = load_manifest(in_dir)
    cfg = ExperimentConfig.from_dict(manifest["config"])
    round0 = {}
    for seed in cfg.seeds:
        seed_dir = _seed_dir(in_dir, seed)
        series_path = os.path.join(seed_dir, "snapshots_round0.csv")
        scores_path = os.path.join(seed_dir, "scores", "round0.csv")
        has_series, has_scores = os.path.exists(series_path), os.path.exists(scores_path)
        if has_series and has_scores:
            round0[seed] = (load_series(series_path), load_snapshot_csv(scores_path))
        elif has_series or (has_scores and cfg.ssl.snapshot_interval <= cfg.ssl.steps_per_round):
            raise InputError(f"{seed_dir} has only one of its two round-0 files")
    rounds_path = os.path.join(in_dir, "rounds.csv")
    finals = _final_accuracies(rounds_path, cfg.rounds)
    errors = manifest.get("errors")
    diverged = [(e.get("strategy"), e.get("seed"))
                for e in (errors if isinstance(errors, list) else []) if isinstance(e, dict)]
    missing = [(s, sd) for sd in cfg.seeds for s in cfg.strategies
               if (s, sd) not in finals and (s, sd) not in diverged]
    if missing:
        raise InputError(f"{rounds_path}: lane {missing[0]} has no final round and no error")
    _write_analysis(in_dir, cfg, round0, finals)
