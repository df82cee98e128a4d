"""Multi-task affect training on images with partially missing labels.

Three heads over one backbone: valence/arousal regression scored by
concordance, 8-class expression recognition, and 12 binary action units.
Supervised losses are masked per task; expression-unlabeled samples can
additionally train through confidence-gated pseudo-labels and a weak/strong
consistency term.
"""

from .augmentation import AugConfig, augment_views
from .config import RunConfig, dump_run_config, parse_run_config
from .data_model import (
    AnnotationSet,
    Dataset,
    Sample,
    SynthConfig,
    dataset_stats,
    generate_synthetic,
    parse_manifest,
    serialize_manifest,
)
from .errors import ConfigError, DataError, DivergenceError
from .losses import LossBreakdown, LossWeights, TrainMode
from .metrics import MtlScore, au_macro_f1, macro_f1, mtl_score
from .network import ModelConfig, Params, forward_with_cache, init_params
from .pseudo_label import ThresholdConfig, adaptive_thresholds, partition_confident
from .trainer import pack_dataset, run_training

__all__ = [
    "AnnotationSet",
    "AugConfig",
    "ConfigError",
    "DataError",
    "Dataset",
    "DivergenceError",
    "LossBreakdown",
    "LossWeights",
    "ModelConfig",
    "MtlScore",
    "Params",
    "RunConfig",
    "Sample",
    "SynthConfig",
    "ThresholdConfig",
    "TrainMode",
    "adaptive_thresholds",
    "augment_views",
    "au_macro_f1",
    "dataset_stats",
    "dump_run_config",
    "forward_with_cache",
    "generate_synthetic",
    "init_params",
    "macro_f1",
    "mtl_score",
    "pack_dataset",
    "parse_manifest",
    "parse_run_config",
    "partition_confident",
    "run_training",
    "serialize_manifest",
]
