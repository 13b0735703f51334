"""The asslab benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. Each repetition of the workload runs in a fresh child
process (closed loop, one at a time) with single-threaded BLAS, and new
repetitions start while the next one is expected to end close to --seconds.
Every repetition must emit the same tree digest and pass its checks.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported.
Their timings are normalized to a fixed host speed (bench/speed.py): each
timed interval's seconds divided by the host's slowness sampled around
it. setup_s, run_s and acquire_s are medians over repetitions of each
repetition's total, emit_s and analyze_s medians over every timed call,
peak_rss_mb the median over repetitions; raw medians are printed beside
them. With --trace 1 untraced and traced repetitions alternate; the
per-layer metrics are medians over the traced ones, in raw seconds, and
harness.tracing_overhead is the traced over the untraced raw run_s.
Spans of the last traced repetition are written to
.bench_out/spans-<workload>.csv.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_UNTRACED = 3
# End-to-end metrics that a repetition reports as parts of a total; the
# others report one sample per call, or one per repetition.
SUMMED = ("setup_s", "run_s", "acquire_s")
# Every run ends well within the 180 s a run may take.
HARD_LIMIT_S = 170.0


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    # Compile from source in every child, so set-up time does not depend
    # on whether an earlier run left bytecode behind.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, trace: bool, started: float) -> tuple[dict, float]:
    tree = os.path.join(OUT, f"tree-{args.workload}")
    shutil.rmtree(tree, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", tree, "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}.csv")]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, HARD_LIMIT_S - (t0 - started)))
    except subprocess.TimeoutExpired:
        fail("a repetition did not finish within the run's time limit")
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"a repetition exited with code {proc.returncode}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("a repetition printed no result")
    if not report["env"]["asslab"].startswith(SRC + os.sep):
        fail(f"imported asslab from {report['env']['asslab']}, not from {SRC}")
    return report, time.perf_counter() - t0


def per_repetition(name: str, samples: list[list[float]], normalize: bool = True) -> list[float]:
    """One repetition's values of an end-to-end metric from its
    (seconds, speed factor) samples: a total for the metrics in SUMMED,
    one value per call otherwise. normalize=False gives raw seconds."""
    values = [s / f if normalize else s for s, f in samples]
    return [sum(values)] if name in SUMMED else values


def end_to_end(name: str, reports: list[dict], normalize: bool = True) -> list[float]:
    """The values of an end-to-end metric over the given repetitions."""
    return [v for r in reports for v in per_repetition(name, r["samples"][name], normalize)]


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "no percentile has 10 samples beyond it"
    q = math.floor(100 * (n - 10) / n)
    ranked = sorted(values)
    return f"p{q} {ranked[math.ceil(q / 100 * n) - 1]:.6g}"


def main() -> None:
    parser = argparse.ArgumentParser(description="asslab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "asslab", "__init__.py")):
        fail(f"no asslab package under {SRC}")
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("seed must be nonnegative")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    load_before = os.getloadavg()

    reports: dict[bool, list[dict]] = {False: [], True: []}
    durations: dict[bool, list[float]] = {False: [], True: []}
    while True:
        trace = bool(args.trace) and len(reports[True]) < len(reports[False])
        enough = len(reports[False]) >= (1 if args.trace else MIN_UNTRACED) and (
            not args.trace or reports[True])
        elapsed = time.perf_counter() - started
        # Start another repetition while it would end near the deadline
        # rather than after it, so runs last --seconds on average.
        expected = statistics.median(durations[trace]) if durations[trace] else 0.0
        if enough and elapsed + expected / 2 > args.seconds:
            break
        report, seconds = run_child(args, trace, started)
        reports[trace].append(report)
        durations[trace].append(seconds)

    every = reports[False] + reports[True]
    failures = [f for r in every for f in r["failures"]]
    attempted = sum(r["attempted"] for r in every) + len(every) - 1
    digests = sorted({r["digest"] for r in every})
    if len(digests) > 1:
        failures.append(f"{len(digests)} different output digests over {len(every)} repetitions")

    metrics = {}
    for m in wanted:
        name = m["name"]
        if args.trace == 0:
            value = statistics.median(end_to_end(name, reports[False]))
        elif name == "harness.tracing_overhead":
            value = (statistics.median(end_to_end("run_s", reports[True], normalize=False))
                     / statistics.median(end_to_end("run_s", reports[False], normalize=False)))
        else:
            units = {r["metrics"][name]["unit"] for r in reports[True]}
            if units != {m["unit"]}:
                failures.append(f"{name} measured in {sorted(units)}, declared {m['unit']}")
            value = statistics.median(r["metrics"][name]["value"] for r in reports[True])
        metrics[name] = {"value": value, "unit": m["unit"]}

    env = every[0]["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reports[False])} untraced and {len(reports[True])} traced repetitions "
          f"in {time.perf_counter() - started:.1f} s")
    print(f"env: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {env['numpy']}, blas {env['blas']}, BLAS threads 1, "
          f"load average {load_before[0]:.2f} before / {os.getloadavg()[0]:.2f} after")
    print(f"digest {digests[0]}")
    for m in wanted:
        name = m["name"]
        line = f"{name:42s} {metrics[name]['value']:14.6g} {m['unit']}"
        if not args.trace:
            values = end_to_end(name, reports[False])
            raw = end_to_end(name, reports[False], normalize=False)
            line += (f"  (n={len(values)}, {percentile_note(values)}; "
                     f"raw median {statistics.median(raw):.6g})")
        print(line)
    failed = len(failures)
    print(f"{'failed_frac':42s} {failed / attempted:14.6g} ratio  ({failed} of {attempted})")
    for f in failures:
        print(f"FAILED: {f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
