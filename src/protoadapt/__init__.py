"""Prototype-based partial domain adaptation with ensemble negative
learning, confidence-adjusted certainty filtering, and cosine-geometry
class alignment — on feature vectors, in plain numpy."""

from .adaptation import AdaptConfig, AdaptResult, adapt
from .datasets import (Dataset, SyntheticSpec, generate_synthetic,
                       read_feature_file, write_feature_file)
from .errors import (ConfigError, DataFormatError, EvaluationUnavailableError,
                     NumericError)
from .harness import (ExperimentConfig, ModelConfig, apply_ablation, evaluate,
                      load_config, run_ablation, run_experiment)
from .model import Encoder, PrototypeMatrix, load_checkpoint, save_checkpoint
from .source_trainer import SourcePhaseConfig, train_source

__version__ = "0.1.0"
