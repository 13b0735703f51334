"""The names the benchmark in bench/ reaches into asslab by.

bench/layers.py wraps functions at the place their callers look them up,
bench/child.py reads a few module attributes directly, and both read
fields of the config that bench/workloads.py builds. A renamed function,
a new train_round parameter or a retired config field would otherwise
only show up as a failed benchmark run. bench/ is imported and read,
never changed.
"""

import ast
import collections
import functools
import importlib.util
import inspect
import pathlib
import sys

import pytest

import asslab
from asslab import ExperimentConfig, GeneratorSpec, SslConfig, harness, ssl

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclass fields are resolved
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def layers():
    return _load("layers")


@pytest.fixture(scope="module")
def workload_configs(tmp_path_factory):
    workloads = _load("workloads").WORKLOADS
    out = tmp_path_factory.mktemp("bench")
    return {name: w.config(0, str(out / name)) for name, w in workloads.items()}


def test_every_hook_is_defined_where_it_is_looked_up(layers):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers.hooks() if attr not in vars(owner)]
    assert missing == []


def test_every_hook_is_called_by_a_sweep_that_uses_every_feature(layers, monkeypatch, tmp_path):
    # A refactor that keeps a hooked name but stops calling it there would
    # leave that span, and its per-layer metrics, silently empty.
    calls = collections.Counter()

    def counted(key, real):
        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    keys = []
    for owner, attr, *_ in layers.hooks():
        key = f"{owner.__name__}.{attr}"
        keys.append(key)
        monkeypatch.setattr(owner, attr, counted(key, vars(owner)[attr]))
    cfg = ExperimentConfig(
        dataset=GeneratorSpec(size=200), n_init=10, acquire_k=5, rounds=2, n_test=40,
        ssl=SslConfig(steps_per_round=20, snapshot_interval=10, hidden_dims=[8, 8],
                      momentum=0.9, carry_tracker=True),
        strategies=["ucb-product", "coreset"], seeds=[0], out_dir=str(tmp_path / "run"),
        log_events=True,
    )
    harness.run_and_emit(cfg)
    harness.analyze_dir(cfg.out_dir)
    assert [key for key in keys if not calls[key]] == []


def test_round_input_digest_takes_every_train_round_argument(layers):
    params = inspect.signature(ssl.train_round).parameters.values()
    digest = inspect.signature(layers.round_input_digest)
    # The harness passes the required arguments by position and the rest by
    # keyword; bind raises TypeError for one the digest would refuse.
    digest.bind(*(p.name for p in params if p.default is p.empty),
                **{p.name: p.name for p in params if p.default is not p.empty})


def test_names_read_by_the_child_exist():
    tree = ast.parse((BENCH / "child.py").read_text())
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("harness", "nn"):
                read.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("asslab."):
            read.update((node.module.split(".", 1)[1], alias.name) for alias in node.names)
    assert {("nn", "forward_counter"), ("harness", "derive_seed"),
            ("harness", "DATA_STREAM"), ("harness", "SPLIT_STREAM")} <= read
    missing = [f"{module}.{name}" for module, name in sorted(read)
               if not hasattr(getattr(asslab, module), name)]
    assert missing == []


def test_every_workload_config_validates(workload_configs):
    assert sorted(workload_configs) == ["sweep-small-batch", "wide-carry-events"]
    for cfg in workload_configs.values():
        cfg.validate()


def _cfg_chains(path) -> set[str]:
    """Every attribute chain read off a name cfg in the file, e.g. "ssl.mu"."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        names, value = [], node
        while isinstance(value, ast.Attribute):
            names.append(value.attr)
            value = value.value
        if names and isinstance(value, ast.Name) and value.id == "cfg":
            chains.add(".".join(reversed(names)))
    return chains


def _has_chain(obj, chain: str) -> bool:
    try:
        functools.reduce(getattr, chain.split("."), obj)
    except AttributeError:
        return False
    return True


def test_config_fields_read_by_the_bench_exist(workload_configs):
    chains = _cfg_chains(BENCH / "child.py") | _cfg_chains(BENCH / "layers.py")
    assert {"stratify_init", "dataset.n_classes", "ssl.steps_per_round", "ssl.mu"} <= chains
    missing = [f"{name}: cfg.{chain}" for name, cfg in sorted(workload_configs.items())
               for chain in sorted(chains)
               if not _has_chain(cfg, chain)]
    assert missing == []
