import asslab


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
