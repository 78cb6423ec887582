"""Prototype-based partial domain adaptation with ensemble negative
learning, confidence-adjusted certainty filtering, and cosine-geometry
class alignment — on feature vectors, in plain numpy."""

from .adaptation import (AdaptConfig, AdaptResult, ConfidentSubset,
                         EnsembleState, PseudoLabelTable, adapt,
                         build_confident_subset, cac, gen_complement_sets,
                         loss_align, loss_inter, loss_intra, loss_nl,
                         update_pseudo_labels)
from .datasets import (Dataset, SyntheticSpec, epoch_batches,
                       generate_synthetic, read_feature_file,
                       write_feature_file)
from .errors import (ConfigError, DataFormatError, DegenerateVectorError,
                     EvaluationUnavailableError, NumericError)
from .harness import (ExperimentConfig, ModelConfig, apply_ablation, evaluate,
                      load_config, run_experiment)
from .model import (Encoder, PrototypeMatrix, apply_sgd_momentum, classify,
                    load_checkpoint, lr_schedule, save_checkpoint)
from .numerics import (cosine_distance, entropy, finite_diff_grad,
                       one_hot, softmax)
from .source_trainer import SourcePhaseConfig, loss_ce, loss_comp, train_source

__version__ = "0.1.0"
