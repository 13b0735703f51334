import argparse
import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import asslab
from asslab import ExperimentConfig, ExperimentResult, cli, emit

SRC = pathlib.Path(asslab.__file__).resolve().parent

# Modules that no asslab process needs; each costs milliseconds of start-up.
COLD_MODULES = ("numpy.ma", "importlib.metadata", "email")

# Imports asslab, runs a tiny all-strategy sweep with its event log, rebuilds
# its analysis, once directly and once through the CLI, then prints which
# of COLD_MODULES got imported.
COLD_START = """
import contextlib, io, sys
from asslab import ExperimentConfig, GeneratorSpec, SslConfig, analyze_dir, cli, run_and_emit
cfg = ExperimentConfig(
    dataset=GeneratorSpec(size=200), n_init=10, acquire_k=5, rounds=2, n_test=40,
    ssl=SslConfig(steps_per_round=20, snapshot_interval=10, hidden_dims=[8, 8]),
    seeds=[0], log_events=True)
run_and_emit(cfg, sys.argv[2])
analyze_dir(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze", "--in", sys.argv[2]]) == 0
print([name for name in sys.argv[1].split(",") if name in sys.modules])
"""


def test_all_is_pinned():
    # Any change to the public API shows up in this literal's diff.
    assert sorted(asslab.__all__) == [
        "AcquisitionError", "AcquisitionRequest", "AsslabError", "Augmenter",
        "ConfigError", "Dataset", "ExperimentConfig", "ExperimentResult",
        "GeneratorSpec", "InputError", "InternalError", "RoundReport", "STRATEGIES",
        "SamplePools", "SnapshotSeries", "SslConfig", "TrackerError", "TrackerParams",
        "TrackerSnapshot", "TrackerStore", "TrainingError", "acquire", "acquisition",
        "analysis", "analyze_dir", "consecutive_snapshot_spearman", "data",
        "derive_rng", "derive_seed", "emit", "generate", "harness", "nn",
        "pairwise_matrix", "pseudo_labeled_ratio", "run_and_emit", "run_experiment",
        "spearman", "split_pools", "ssl", "standardize", "temporal_instability_batch",
        "ti_uncertainty_profile", "tracker", "train_round",
    ]
    assert all(hasattr(asslab, name) for name in asslab.__all__)


def test_cli_is_pinned():
    # Any new subcommand or option shows up in this literal's diff.
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {name: sorted(opt for action in parser._actions for opt in action.option_strings
                         if opt not in ("-h", "--help"))
            for name, parser in sub.choices.items()} == {
        "analyze": ["--in"], "run": ["--config", "--out", "--seed"]}


def test_every_definition_is_used_by_the_package():
    # A top-level function or class that nothing in src/ refers to, and
    # that is not public, serves only the tests and belongs with them.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used and node.name not in asslab.__all__]
    assert unused == []


def test_cold_start_imports_nothing_it_does_not_use(tmp_path):
    # A fresh interpreter, since pytest and its plugins import these
    # modules themselves.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-c", COLD_START, ",".join(COLD_MODULES), str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_one_version_source(tmp_path):
    # pyproject.toml is read with a regex: tomllib needs Python 3.11.
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]*)"$', project, re.M).group(1) == asslab.__version__
    emit(ExperimentResult([], [], {}, {}), ExperimentConfig(), str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["package_version"] == asslab.__version__
