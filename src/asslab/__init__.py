"""Active semi-supervised learning laboratory on synthetic 2-d data.

Small float64 numpy feed-forward nets trained with confidence-thresholded
consistency regularization, streaming per-sample uncertainty and
weak/strong inconsistency statistics, inference-free acquisition from
those statistics, and a fully seeded experiment harness.
"""

# Set before the submodules load: harness records it in every manifest.
__version__ = "0.1.0"

from .errors import (
    AcquisitionError,
    AsslabError,
    ConfigError,
    InputError,
    InternalError,
    TrackerError,
    TrainingError,
)
from . import acquisition, analysis, data, harness, nn, ssl, tracker
from .acquisition import STRATEGIES, AcquisitionRequest, acquire
from .analysis import (
    SnapshotSeries,
    consecutive_snapshot_spearman,
    pairwise_matrix,
    pseudo_labeled_ratio,
    spearman,
    temporal_instability_batch,
    ti_uncertainty_profile,
)
from .data import Augmenter, Dataset, GeneratorSpec, SamplePools, generate, split_pools, standardize
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    RoundReport,
    TrackerParams,
    analyze_dir,
    derive_rng,
    derive_seed,
    emit,
    run_and_emit,
    run_experiment,
)
from .ssl import SslConfig, train_round
from .tracker import TrackerSnapshot, TrackerStore

__all__ = [
    "AcquisitionError",
    "AcquisitionRequest",
    "AsslabError",
    "Augmenter",
    "ConfigError",
    "Dataset",
    "ExperimentConfig",
    "ExperimentResult",
    "GeneratorSpec",
    "InputError",
    "InternalError",
    "RoundReport",
    "SamplePools",
    "SnapshotSeries",
    "SslConfig",
    "STRATEGIES",
    "TrackerError",
    "TrackerParams",
    "TrackerSnapshot",
    "TrackerStore",
    "TrainingError",
    "acquire",
    "acquisition",
    "analysis",
    "analyze_dir",
    "consecutive_snapshot_spearman",
    "data",
    "derive_rng",
    "derive_seed",
    "emit",
    "generate",
    "harness",
    "nn",
    "pairwise_matrix",
    "pseudo_labeled_ratio",
    "run_and_emit",
    "run_experiment",
    "spearman",
    "split_pools",
    "ssl",
    "standardize",
    "temporal_instability_batch",
    "ti_uncertainty_profile",
    "tracker",
    "train_round",
]
