import numpy as np
import pytest

from asslab import harness, nn
from asslab.data import GeneratorSpec, generate, split_pools, standardize
from asslab.harness import ExperimentConfig
from asslab.ssl import SslConfig
from asslab.tracker import TrackerStore

import layers
from digest import tree_digest
from spans import Tracer, patched, self_times


def _tiny_cfg() -> ExperimentConfig:
    return ExperimentConfig(
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


def _sweep(cfg, out):
    result = harness.run_experiment(cfg)
    harness.emit(result, cfg, str(out))
    harness.analyze_dir(str(out))
    return tree_digest(str(out))


def test_traced_sweep_matches_untraced_and_restores_every_wrapper(tmp_path):
    cfg = _tiny_cfg()
    plain = _sweep(cfg, tmp_path / "plain")

    hooks = layers.hooks()
    originals = [vars(owner)[attr] for owner, attr, _, _ in hooks]
    tracer = Tracer("tiny", nn.forward_counter)
    with patched(tracer, hooks):
        traced = _sweep(cfg, tmp_path / "traced")
    assert traced == plain
    assert [vars(owner)[attr] for owner, attr, _, _ in hooks] == originals

    selfs = self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in roots] == ["harness.run_experiment", "harness.emit",
                                       "harness.analyze_dir"]
    assert sum(selfs) == pytest.approx(sum(s.seconds for s in roots), rel=1e-9)

    m = {k: v for k, (v, _) in layers.layer_metrics(tracer.spans, selfs, cfg).items()}
    assert m["acquisition.ucb-product.forward_rows"] == 0
    assert m["acquisition.random.forward_rows"] == 0
    # Round 0 is shared by both strategies; round 1 differs.
    assert (m["harness.train_round.calls"], m["harness.train_round.distinct"]) == (4, 3)
    assert m["ssl.steps"] == 80
    assert m["nn.loss_and_grads.calls"] == 160
    assert m["tracker.ingest_batch.rows"] == 80 * 64
    step_us = sum(m[f"ssl.step.{p}_us"] for p in layers.STEP_PHASES)
    assert step_us * 80 / 1e6 + m["ssl.pool_snapshot.s"] + m["ssl.evaluate_accuracy.s"] \
        == pytest.approx(m["ssl.train_round.s"], rel=1e-9)
    assert sum(m[f"{mod}.self_s"] for mod in layers.MODULES) == pytest.approx(sum(selfs))

    # The weak view fed to each pool snapshot counts as snapshot time, not
    # as step augmentation.
    snapshot_calls = sum(s.seconds for s in tracer.spans if s.name == "ssl.pool_snapshot")
    view = m["ssl.pool_snapshot.s"] - snapshot_calls
    assert view > 0
    assert m["data.weak_batch.s"] + m["data.strong_batch.s"] == pytest.approx(
        m["ssl.step.augment_us"] * 80 / 1e6 + view, rel=1e-9)


def test_round_input_digest_follows_rng_and_tracker_state():
    cfg = _tiny_cfg()
    dataset = standardize(generate(cfg.dataset, 0))
    pools = split_pools(dataset, cfg.n_init, cfg.n_test, 1)
    params = nn.init_params([2, 8, 2], np.random.default_rng(2))

    def digest(rng_seed=3, store=None, **kwargs):
        store = store or TrackerStore(pools.sorted_unlabeled())
        return layers.round_input_digest(params, pools, dataset, cfg.ssl, store,
                                         np.random.default_rng(rng_seed), **kwargs)

    base = digest()
    assert digest(event_sink=print) == base
    assert digest(rng_seed=4) != base
    store = TrackerStore(pools.sorted_unlabeled())
    ids = pools.sorted_unlabeled()[:2]
    store.ingest_batch(ids, np.full((2, 2), 0.5), np.full((2, 2), 0.5))
    assert digest(store=store) != base
