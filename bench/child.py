"""One repetition of a workload in a fresh process; prints one JSON line.

Imports asslab, builds the config and generates the datasets (set-up),
runs the sweep, emits the run tree, rebuilds its analysis with
analyze_dir, digests the tree and checks the outputs. With --trace 1 the
calls into each module are wrapped in spans for the whole repetition, the
per-layer metrics are added, and emit and analyze_dir run once each.

Each timing is reported as (seconds, speed factor) samples: seconds
without the speed sampler's own time (bench/speed.py), and the host's
slowness around them. The sampler runs from the first line on; a traced
repetition stops it once set-up ends, so it stays out of the spans, and
its factors are 1.

    python3 bench/child.py --workload NAME --seed N --out DIR --trace 0|1 [--spans CSV]
"""

import time

T_START = time.perf_counter()

import speed  # noqa: E402

SAMPLER = speed.Sampler({"text": (speed.text_kernel, speed.TEXT_NOMINAL_S)})
SAMPLER.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import asslab  # noqa: E402
from asslab import harness, nn  # noqa: E402
from asslab.data import generate, split_pools, standardize  # noqa: E402

import digest  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A call shorter than this is timed again on the same inputs, to have
# enough samples of it.
REPEAT_BUDGET_S = 0.5
MAX_REPEATS = 20


def _timed_calls(fn, repeat: bool) -> list[tuple[float, float]]:
    """(start, end) of each call to fn."""
    calls: list[tuple[float, float]] = []
    while not calls or (repeat and len(calls) < MAX_REPEATS
                        and sum(b - a for a, b in calls) < REPEAT_BUDGET_S):
        t0 = time.perf_counter()
        fn()
        calls.append((t0, time.perf_counter()))
    return calls


def _read_tree(root: str) -> dict[str, bytes]:
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _, names in os.walk(root) for name in names)


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def run(workload_name: str, seed: int, out: str, trace: bool, spans_path: str | None) -> dict:
    workload = WORKLOADS[workload_name]
    cfg = workload.config(seed, out)
    cfg.validate()
    for s in cfg.seeds:
        dataset = standardize(generate(cfg.dataset, harness.derive_seed(s, harness.DATA_STREAM)))
        split_pools(dataset, cfg.n_init, cfg.n_test,
                    harness.derive_seed(s, harness.SPLIT_STREAM), stratify=cfg.stratify_init)
    setup_end = time.perf_counter()
    if trace:
        SAMPLER.stop()
    elif workload.step_kernel:
        SAMPLER.kernels["step"] = (speed.step_kernel(**workload.step_kernel),
                                   workload.step_nominal_s)

    failures: list[str] = []
    attempted = 0
    tracer = spans.Tracer(f"{workload_name}/{seed}/{os.getpid()}", nn.forward_counter)
    # The run splits into parts at each finished round; each round's
    # acquisition call ends right before its report is made.
    marks: list[float] = []
    acquisitions: list[tuple[float, float]] = []

    def round_done(report) -> None:
        marks.append(time.perf_counter())
        acquisitions.append((marks[-1] - report.acquisition_seconds, marks[-1]))

    with spans.patched(tracer, layers.hooks()) if trace else contextlib.nullcontext():
        marks.append(time.perf_counter())
        result = harness.run_experiment(cfg, progress=round_done)
        marks.append(time.perf_counter())
        emit_calls = _timed_calls(lambda: harness.emit(result, cfg, out), not trace)

        analysis_dir = os.path.join(out, "analysis")
        emitted = _read_tree(analysis_dir)
        shutil.rmtree(analysis_dir)
        analyze_calls = _timed_calls(lambda: harness.analyze_dir(out), not trace)
    # Let the last interval's window fill with samples.
    time.sleep(speed.WINDOW_S)
    SAMPLER.stop()

    def timed(kernel: str, intervals) -> list[tuple[float, float]]:
        return [(SAMPLER.net_seconds(a, b), 1.0 if trace else SAMPLER.factor(kernel, a, b))
                for a, b in intervals]

    # A training step limited by per-call overhead runs interpreter code
    # like the text kernel; one limited by matmul compute has its own.
    step = "step" if workload.step_kernel else "text"
    samples = {
        "setup_s": timed("text", [(T_START, setup_end)]),
        "run_s": timed(step, zip(marks, marks[1:])),
        "acquire_s": timed(step, acquisitions),
        "emit_s": timed("text", emit_calls),
        "analyze_s": timed("text", analyze_calls),
        "peak_rss_mb": [(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1.0)],
    }
    lanes = len(cfg.seeds) * len(cfg.strategies)
    attempted += lanes
    failures += [f"lane error: {e}" for e in result.errors]

    attempted += 1
    if _read_tree(analysis_dir) != emitted:
        failures.append("analyze_dir did not rebuild the emitted analysis CSVs byte for byte")

    attempted += 1
    if len(result.reports) != lanes * cfg.rounds:
        failures.append(f"{len(result.reports)} round reports, expected {lanes * cfg.rounds}")

    attempted += 1
    final = [r.test_accuracy for r in result.reports if r.round_index == cfg.rounds - 1]
    chance = 1.0 / cfg.dataset.n_classes
    if not final or not np.mean(final) > chance:
        failures.append(f"mean final test accuracy {np.mean(final) if final else None} "
                        f"not above chance {chance}")

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        selfs = spans.self_times(tracer.spans)
        metrics.update(layers.layer_metrics(tracer.spans, selfs, cfg))
        metrics["harness.emit.bytes"] = (_tree_bytes(out), "bytes")

        attempted += 1
        roots = sum(s.seconds for s in tracer.spans if s.parent < 0)
        if abs(sum(selfs) - roots) > 1e-6 * roots:
            failures.append(f"self times sum to {sum(selfs)} s, root spans to {roots} s")
        if "ucb-product" in cfg.strategies:
            attempted += 1
            rows = metrics["acquisition.ucb-product.forward_rows"][0]
            if rows != 0:
                failures.append(f"ucb-product pushed {rows} rows through the net, expected 0")
        attempted += 1
        distinct = metrics["harness.train_round.distinct"][0]
        if distinct != workload.expected_distinct_rounds:
            failures.append(f"{distinct} distinct training rounds, expected "
                            f"{workload.expected_distinct_rounds}")
        if spans_path:
            spans.write_csv(spans_path, tracer.spans, selfs)

    return {
        "digest": digest.tree_digest(out),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "asslab": os.path.dirname(asslab.__file__),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    report = run(args.workload, args.seed, args.out, bool(args.trace), args.spans)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
