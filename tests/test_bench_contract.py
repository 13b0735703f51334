"""The names the benchmark in bench/ reaches into asslab by.

bench/layers.py wraps functions at the place their callers look them up,
and bench/child.py reads a few module attributes directly. A renamed
function or a new train_round parameter would otherwise only show up as
a failed traced benchmark run. bench/ is imported and read, never changed.
"""

import ast
import importlib.util
import inspect
import pathlib

import pytest

import asslab
from asslab import ssl

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_defined_where_it_is_looked_up(layers):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers.hooks() if attr not in vars(owner)]
    assert missing == []


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
