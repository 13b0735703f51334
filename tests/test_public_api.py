import ast
import pathlib

import asslab

SRC = pathlib.Path(asslab.__file__).resolve().parent


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
