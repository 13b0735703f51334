"""The benchmark's workloads, each an ExperimentConfig built from a seed.

Every workload visits each unlabeled sample at least once per round
(steps_per_round * mu * batch_size exceeds the unlabeled pool), because
tracked scores are meaningless otherwise and ucb-product refuses them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from asslab import ExperimentConfig, GeneratorSpec, SslConfig


@dataclass(frozen=True)
class Workload:
    name: str
    n_seeds: int
    # Distinct train_round inputs per sweep. Round 0 of a seed is the same
    # for every strategy, and on two classes entropy, margin and
    # snapshot-el2n rank the pool identically, so they repeat later rounds.
    expected_distinct_rounds: int
    build: Callable[[list[int], str], ExperimentConfig]
    # Arguments of speed.step_kernel, shaped like this workload's training
    # step, and the seconds of one call at nominal speed, when the step is
    # limited by matmul compute. None when it is limited by per-call
    # overhead, which speed.text_kernel tracks better.
    step_kernel: dict | None = None
    step_nominal_s: float = 0.0

    def config(self, seed: int, out_dir: str) -> ExperimentConfig:
        return self.build(derived_seeds(self.name, seed, self.n_seeds), out_dir)


def derived_seeds(workload: str, seed: int, n: int) -> list[int]:
    """n master seeds for a sweep, a pure function of the workload seed."""
    return [
        int.from_bytes(hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()[:4], "little")
        for i in range(n)
    ]


def _sweep_small_batch(seeds: list[int], out_dir: str) -> ExperimentConfig:
    # The default config, shortened. Training is nearly all of the run and
    # each 16-row step costs many small numpy calls. One pool snapshot per
    # 150 steps stays close to the default's one per 200.
    return ExperimentConfig(
        rounds=2,
        ssl=SslConfig(steps_per_round=300, snapshot_interval=150),
        seeds=seeds,
        out_dir=out_dir,
    )


def _wide_carry_events(seeds: list[int], out_dir: str) -> ExperimentConfig:
    # 64-row batches on a 256-wide net are limited by matmul compute, not
    # call overhead, and coreset's pairwise distances over 256-wide
    # embeddings set peak memory. Also the only workload with momentum, a
    # carried tracker (TrackerStore.remove) and event logging, whose emit
    # writes over 10 MB.
    return ExperimentConfig(
        dataset=GeneratorSpec(kind="concentric-rings", size=3000, n_classes=3),
        rounds=2,
        ssl=SslConfig(
            steps_per_round=60,
            batch_size=64,
            momentum=0.9,
            init_mode="con_init",
            snapshot_interval=20,
            hidden_dims=[256, 256],
            carry_tracker=True,
        ),
        strategies=["entropy", "coreset", "ucb-product"],
        seeds=seeds,
        out_dir=out_dir,
        log_events=True,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-small-batch",
            n_seeds=2,
            expected_distinct_rounds=12,
            build=_sweep_small_batch,
        ),
        Workload(
            "wide-carry-events",
            n_seeds=1,
            expected_distinct_rounds=4,
            build=_wide_carry_events,
            step_kernel={"dims": [2, 256, 256, 3], "rows": 64, "repeat": 1},
            step_nominal_s=260e-6,
        ),
    )
}
