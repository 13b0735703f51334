"""Where the traced run hooks into asslab, and the per-layer metrics it yields.

Each hook wraps a function at the place its caller looks it up: the
harness calls train_round, acquire and the writers through its own module
namespace, ssl calls nn through the nn module, and methods are looked up
on their class.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict

import numpy as np

from asslab import data, harness, nn, ssl, tracker
from asslab.acquisition import STRATEGIES

MODULES = ("nn", "ssl", "data", "tracker", "acquisition", "analysis", "harness")
STEP_PHASES = ("labeled_fwd_bwd", "weak_fwd", "strong_fwd_bwd", "augment",
               "tracker_ingest", "optimizer", "other")


def _update(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


def round_input_digest(params, pools, dataset, cfg, store, rng, augmenter=None,
                       event_sink=None) -> str:
    """SHA-256 of everything a train_round call's result depends on.

    Start params, pools, dataset, config, every field of the tracker and
    of the augmenter, and the rng state. event_sink only observes.
    """
    h = hashlib.sha256()
    for array in (*params.weights, *params.biases, pools.sorted_labeled(),
                  pools.sorted_unlabeled(), pools.sorted_test(), dataset.x, dataset.y):
        _update(h, array)
    h.update(json.dumps(cfg.to_dict(), sort_keys=True).encode())
    h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    for obj in (store, augmenter):
        for key, value in sorted(vars(obj).items()) if obj is not None else ():
            h.update(key.encode())
            _update(h, value)
    return h.hexdigest()


def _rows(self, x, *_args, **_kwargs):
    return "", len(x)


def hooks() -> list[tuple]:
    """(owner, attribute, span name, describe) for every traced call site."""
    return [
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "emit", "harness.emit", None),
        (harness, "analyze_dir", "harness.analyze_dir", None),
        (harness, "_write_events_csv", "harness.events_csv", None),
        (harness, "train_round", "ssl.train_round",
         lambda *a, **k: (round_input_digest(*a, **k), 0)),
        (harness, "acquire", lambda req: f"acquisition.{req.strategy}", None),
        (harness, "generate", "data.generate", None),
        (harness, "split_pools", "data.split_pools", None),
        (harness, "export_dataset", "data.export_dataset", None),
        (harness, "export_series", "analysis.export_series", None),
        (harness, "load_series", "analysis.load_series", None),
        (harness, "_write_seed_analysis", "analysis.seed_analysis", None),
        (harness, "pairwise_matrix", "analysis.pairwise_matrix", None),
        (ssl, "_pool_snapshot", "ssl.pool_snapshot", None),
        (ssl, "evaluate_accuracy", "ssl.evaluate_accuracy", None),
        (nn, "loss_and_grads", "nn.loss_and_grads",
         lambda params, inputs, targets, weights=None:
             ("" if weights is None else "weighted", 0)),
        (nn, "forward_batch", "nn.forward_batch", None),
        (nn, "sgd_step", "nn.sgd_step", None),
        (nn.SgdOptimizer, "step", "nn.SgdOptimizer.step", None),
        (data.Augmenter, "weak_batch", "data.weak_batch", _rows),
        (data.Augmenter, "strong_batch", "data.strong_batch", _rows),
        (tracker.TrackerStore, "ingest_batch", "tracker.ingest_batch", _rows),
        (tracker.TrackerStore, "snapshot", "tracker.snapshot", None),
        (tracker.TrackerStore, "remove", "tracker.remove", None),
        (tracker.TrackerSnapshot, "export_csv", "tracker.export_csv", None),
    ]


def _step_phase(span, step_rows) -> str:
    """The training-step phase of a span directly under train_round.

    Pool snapshots feed a weak view of the whole pool, which is told
    apart from a step's batches by its row count.
    """
    if span.name == "nn.loss_and_grads":
        return "strong_fwd_bwd" if span.tag == "weighted" else "labeled_fwd_bwd"
    if span.name == "nn.forward_batch":
        return "weak_fwd"
    if span.name in ("data.weak_batch", "data.strong_batch"):
        return "augment" if span.rows in step_rows else "pool_snapshot"
    if span.name == "tracker.ingest_batch":
        return "tracker_ingest"
    if span.name in ("nn.sgd_step", "nn.SgdOptimizer.step"):
        return "optimizer"
    if span.name in ("ssl.pool_snapshot", "ssl.evaluate_accuracy"):
        return span.name.split(".", 1)[1]
    return "other"


def layer_metrics(spans, selfs, cfg) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) pairs from one traced sweep's spans."""
    by_name = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        by_name[span.name].append((span, self_s))

    def seconds(name):
        return sum(s.seconds for s, _ in by_name[name])

    def self_seconds(name):
        return sum(self_s for _, self_s in by_name[name])

    m: dict[str, tuple[float, str]] = {}
    for fn in ("loss_and_grads", "forward_batch"):
        calls = by_name[f"nn.{fn}"]
        m[f"nn.{fn}.calls"] = (len(calls), "count")
        m[f"nn.{fn}.rows"] = (sum(s.forward_rows for s, _ in calls), "rows")
        m[f"nn.{fn}.s"] = (seconds(f"nn.{fn}"), "s")
    m["nn.sgd_step.s"] = (seconds("nn.sgd_step"), "s")
    m["nn.SgdOptimizer.step.s"] = (seconds("nn.SgdOptimizer.step"), "s")

    rounds = by_name["ssl.train_round"]
    steps = len(rounds) * cfg.ssl.steps_per_round
    step_rows = {cfg.ssl.batch_size, cfg.ssl.mu * cfg.ssl.batch_size}
    phase_s = dict.fromkeys(STEP_PHASES + ("pool_snapshot", "evaluate_accuracy"), 0.0)
    phase_s["other"] = self_seconds("ssl.train_round")
    for span in spans:
        if span.parent >= 0 and spans[span.parent].name == "ssl.train_round":
            phase_s[_step_phase(span, step_rows)] += span.seconds
    m["ssl.train_round.s"] = (seconds("ssl.train_round"), "s")
    m["ssl.train_round.self_s"] = (self_seconds("ssl.train_round"), "s")
    m["ssl.steps"] = (steps, "count")
    for phase in STEP_PHASES:
        m[f"ssl.step.{phase}_us"] = (phase_s[phase] / max(steps, 1) * 1e6, "us")
    m["ssl.pool_snapshot.s"] = (phase_s["pool_snapshot"], "s")
    m["ssl.pool_snapshot.rows"] = (
        sum(s.forward_rows for s, _ in by_name["ssl.pool_snapshot"]), "rows")
    m["ssl.evaluate_accuracy.s"] = (seconds("ssl.evaluate_accuracy"), "s")

    for fn in ("weak_batch", "strong_batch", "generate", "split_pools", "export_dataset"):
        m[f"data.{fn}.s"] = (seconds(f"data.{fn}"), "s")

    ingest = by_name["tracker.ingest_batch"]
    m["tracker.ingest_batch.calls"] = (len(ingest), "count")
    m["tracker.ingest_batch.rows"] = (sum(s.rows for s, _ in ingest), "rows")
    m["tracker.ingest_batch.s"] = (seconds("tracker.ingest_batch"), "s")
    for fn in ("snapshot", "remove", "export_csv"):
        m[f"tracker.{fn}.s"] = (seconds(f"tracker.{fn}"), "s")

    for strategy in STRATEGIES:
        name = f"acquisition.{strategy}"
        m[f"{name}.s"] = (seconds(name), "s")
        m[f"{name}.forward_rows"] = (sum(s.forward_rows for s, _ in by_name[name]), "rows")

    for fn in ("export_series", "load_series", "seed_analysis", "pairwise_matrix"):
        m[f"analysis.{fn}.s"] = (seconds(f"analysis.{fn}"), "s")

    distinct = len({s.tag for s, _ in rounds})
    m["harness.train_round.calls"] = (len(rounds), "count")
    m["harness.train_round.distinct"] = (distinct, "count")
    m["harness.train_round.useful_ratio"] = (distinct / max(len(rounds), 1), "ratio")
    m["harness.emit.self_s"] = (self_seconds("harness.emit"), "s")
    m["harness.events_csv.s"] = (seconds("harness.events_csv"), "s")
    m["harness.analyze_dir.s"] = (seconds("harness.analyze_dir"), "s")

    module_self = dict.fromkeys(MODULES, 0.0)
    for span, self_s in zip(spans, selfs):
        module_self[span.name.split(".", 1)[0]] += self_s
    for module, value in module_self.items():
        m[f"{module}.self_s"] = (value, "s")
    return m
