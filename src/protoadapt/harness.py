"""Experiment orchestration: strict config parsing, the evaluator, the
ablation modes, the source and adaptation phases that both the CLI and
the end-to-end runners run, and the runners of one experiment and of
an ablation study.

The evaluator is the only code in the package that reads a target
dataset's hidden labels.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, replace
from pathlib import Path

import numpy as np

from .adaptation import AdaptConfig, AdaptResult, adapt, check_complement_capacity
from .datasets import (Dataset, SyntheticSpec, generate_synthetic,
                       read_feature_file, write_feature_file)
from .errors import ConfigError, DataFormatError, EvaluationUnavailableError, parse_digits
from .model import Encoder, PrototypeMatrix, predict, save_checkpoint
from .source_trainer import SourceEpochMetrics, SourcePhaseConfig, train_source

_ABLATION_OVERRIDES = {
    "full": {},
    "no_EL": {"n_e": 1},
    "no_TSCS": {"use_confident_subset": False},
    "no_CLS": {"n_cl": 1, "share_complement_set": True},
    "no_DO": {"alpha": 0.0, "beta": 0.0},
}
ABLATION_MODES = tuple(_ABLATION_OVERRIDES)
SEED_ENV_VAR = "PDA_SEED"


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple[int, ...] = (64, 64)
    d_z: int = 32


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    out_dir: str
    synthetic: SyntheticSpec | None = None
    source_file: str | None = None
    target_file: str | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    source: SourcePhaseConfig = field(default_factory=SourcePhaseConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)

    def __post_init__(self):
        n_files = (self.source_file is not None) + (self.target_file is not None)
        if n_files != (2 if self.synthetic is None else 0):
            raise ConfigError("config needs either a synthetic spec or both "
                              "source and target file paths, not a mix")


ROLES = ("source", "target")
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "dict": dict}


def _is(kind: str, value) -> bool:
    """Whether a parsed JSON value has the type a config field names."""
    if isinstance(value, bool) and kind != "bool":
        return False
    if kind.startswith("tuple["):
        item = kind[len("tuple["):].split(",")[0]
        return isinstance(value, (list, tuple)) and all(_is(item, v) for v in value)
    return (isinstance(value, _JSON_TYPES[kind])
            and (kind != "float" or math.isfinite(value)))


def _fields(section: str, raw, kinds: dict[str, str] | type, required=()) -> dict:
    """Check a JSON object against ``kinds`` (key -> type name): unknown
    keys, missing required keys and values of the wrong type are
    ConfigErrors. A dataclass stands for its fields; lists become tuples."""
    if dataclasses.is_dataclass(kinds):
        fields = dataclasses.fields(kinds)
        required = [f.name for f in fields
                    if f.default is MISSING and f.default_factory is MISSING]
        kinds = {f.name: str(f.type) for f in fields}
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be a JSON object")
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ConfigError(f"missing key(s) in {section}: {missing}")
    for key, value in raw.items():
        if not _is(kinds[key], value):
            raise ConfigError(f"{section}.{key} must be {kinds[key]}, got {value!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}


def derive_seeds(seed: int) -> tuple[int, int, int, int]:
    """The data, model, source-phase and adapt-phase seeds of a master seed."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed} (master seed or {SEED_ENV_VAR})")
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(4))


def _read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # bad UTF-8, JSONDecodeError and an over-long integer are ValueErrors
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def parse_synthetic_spec(raw, default_seed: int = 0) -> SyntheticSpec:
    """The strict synthetic-spec parser of configs and ``protoadapt gen``.

    ``raw`` is the spec's JSON object, or the path of a JSON file holding
    it. A spec without a seed gets ``default_seed``.
    """
    section = "data.synthetic"
    if not isinstance(raw, dict):
        section, raw = str(raw), _read_json(raw)
    return SyntheticSpec(**{"seed": default_seed,
                            **_fields(section, raw, SyntheticSpec)})


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config, rejecting unknown keys and values
    of the wrong type.

    The PDA_SEED environment variable, when set, overrides the seed; it
    must be ASCII digits only.
    """
    raw = _fields(str(path), _read_json(path),
                  {"seed": "int", "out_dir": "str", "data": "dict", "model": "dict",
                   "source": "dict", "adapt": "dict"}, ("seed", "out_dir", "data"))
    seed = raw["seed"]
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = parse_digits(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}: {exc}") from exc

    # Phase seeds not given explicitly derive from the master seed.
    data_seed, _, source_seed, adapt_seed = derive_seeds(seed)
    data = _fields("data", raw["data"], {"synthetic": "dict", "source_file": "str",
                                         "target_file": "str"})
    synthetic = None
    if "synthetic" in data:
        synthetic = parse_synthetic_spec(data.pop("synthetic"), data_seed)
    source = _fields("source", raw.get("source", {}), SourcePhaseConfig)
    adapt_cfg = _fields("adapt", raw.get("adapt", {}), AdaptConfig)
    return ExperimentConfig(
        seed=seed, out_dir=raw["out_dir"], synthetic=synthetic, **data,
        model=ModelConfig(**_fields("model", raw.get("model", {}), ModelConfig)),
        source=SourcePhaseConfig(**{"seed": source_seed, **source}),
        adapt=AdaptConfig(**{"seed": adapt_seed, **adapt_cfg}))


@dataclass
class EvalResult:
    accuracy: float
    per_class: dict[int, float]
    negative_transfer: float | None


def evaluate(encoder: Encoder, weights: np.ndarray, dataset: Dataset) -> EvalResult:
    """Classification accuracy against the dataset's evaluation labels.

    For target data these are the hidden labels; the negative-transfer
    indicator is the fraction of samples predicted into classes absent
    from the target label space. A class is present if some label names
    it; ``per_class`` holds each present class, in ascending order.
    """
    labels = dataset.hidden_labels if dataset.role == "target" else dataset.labels
    if labels is None:
        raise EvaluationUnavailableError("dataset carries no evaluation labels")
    if dataset.n == 0:
        raise EvaluationUnavailableError("dataset has no samples to evaluate")
    preds = predict(weights, encoder.encode(dataset.features))
    # per-class counts over the label range and every weight column, so each
    # prediction indexes ``present``; a class's accuracy is hits / count,
    # the bits of the mean of its rows' hit flags
    counts = np.bincount(labels, minlength=np.shape(weights)[1])
    hits = np.bincount(labels[preds == labels], minlength=counts.size)
    present = counts > 0
    per_class = {int(c): float(hits[c] / counts[c]) for c in np.flatnonzero(present)}
    negative_transfer = None
    if dataset.role == "target":
        negative_transfer = float((~present[preds]).mean())
    return EvalResult(float((preds == labels).mean()), per_class, negative_transfer)


def apply_ablation(cfg: ExperimentConfig, mode: str) -> ExperimentConfig:
    """Return a config with exactly one component disabled by the mode's
    row of ``_ABLATION_OVERRIDES``: no_EL shrinks the ensemble to one
    classifier; no_TSCS feeds every target sample to the geometry and
    supervision terms; no_CLS shares a single one-element complementary
    set across members; no_DO zeroes both geometry coefficients."""
    if mode not in _ABLATION_OVERRIDES:
        raise ConfigError(f"unknown ablation mode {mode!r}")
    return replace(cfg, adapt=replace(cfg.adapt, **_ABLATION_OVERRIDES[mode]))


@contextmanager
def _phase(name: str):
    try:
        yield
    except Exception as exc:
        try:
            wrapped = type(exc)(f"[{name}] {exc}")
        except Exception:  # a type that takes no message, such as numpy's MemoryError
            raise exc from None
        raise wrapped from exc


def _eval_summary(result: EvalResult) -> dict:
    return {"accuracy": result.accuracy,
            "negative_transfer": result.negative_transfer,
            "per_class": {str(k): v for k, v in sorted(result.per_class.items())}}


def write_synthetic(spec: SyntheticSpec, **paths) -> dict[str, Dataset]:
    """Generate the synthetic pair and write the role named by each
    keyword (``source=``, ``target=``) to its path."""
    datasets = dict(zip(ROLES, generate_synthetic(spec)))
    for role, path in paths.items():
        write_feature_file(datasets[role], path)
    return datasets


def load_experiment_data(cfg: ExperimentConfig, *roles: str) -> list[Dataset]:
    """The datasets of ``roles``, in that order, for training. Synthetic data
    is written to ``out_dir/<role>.features`` and read back, so every run
    trains on exactly what the file holds; otherwise only those roles' files
    are opened. A target read with a source must match its ``d`` and ``k``."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _phase("data"):
        if cfg.synthetic is None:
            paths = [getattr(cfg, f"{role}_file") for role in roles]
        else:
            paths = [out / f"{role}.features" for role in roles]
            write_synthetic(cfg.synthetic, **dict(zip(roles, paths)))
        datasets = [read_feature_file(path) for path in paths]
        for path, dataset in zip(paths, datasets):
            if dataset.n == 0:
                raise DataFormatError(f"{path}: no samples to train on")
            if (dataset.d_x, dataset.k_s) != (datasets[0].d_x, datasets[0].k_s):
                raise DataFormatError(f"{path}: d={dataset.d_x} k={dataset.k_s}, but the "
                                      f"source has d={datasets[0].d_x} k={datasets[0].k_s}")
    return datasets


def run_source_phase(cfg: ExperimentConfig, source: Dataset, ckpt_path
                     ) -> tuple[Encoder, PrototypeMatrix, list[SourceEpochMetrics]]:
    """Phase 1: build the encoder and prototypes from the master seed,
    train them on the source data, and save the source checkpoint.

    The adaptation ensemble's size is checked against the source classes
    first, so a config that cannot adapt trains nothing.
    """
    check_complement_capacity(cfg.adapt.n_e, cfg.adapt.n_cl, source.k_s)
    _, model_seed, _, _ = derive_seeds(cfg.seed)
    encoder = Encoder(source.d_x, list(cfg.model.hidden), cfg.model.d_z, seed=model_seed)
    prototypes = PrototypeMatrix.random(cfg.model.d_z, source.k_s,
                                        seed=model_seed + 1)
    with _phase("train-source"):
        history = train_source(encoder, prototypes, source, cfg.source,
                               log_path=Path(cfg.out_dir) / "source_metrics.csv")
        save_checkpoint(ckpt_path, encoder, prototypes)
    return encoder, prototypes, history


def check_fits(encoder: Encoder, prototypes: PrototypeMatrix, dataset: Dataset) -> None:
    """A model whose input width or class count differs from the data's."""
    if (encoder.d_x, prototypes.k_s) != (dataset.d_x, dataset.k_s):
        raise DataFormatError(
            f"model expects d_x={encoder.d_x}, K_s={prototypes.k_s}; "
            f"data has d_x={dataset.d_x}, K_s={dataset.k_s}")


def run_adapt_phase(cfg: ExperimentConfig, encoder: Encoder, prototypes: PrototypeMatrix,
                    target: Dataset, ckpt_path) -> AdaptResult:
    """Phase 2: adapt a source model to the target data, in place, and
    save the adapted checkpoint. The target must pass ``check_fits``.

    When the target carries evaluation labels, each epoch's accuracy, by
    ``predict`` as in ``evaluate``, is logged through the epoch hook, the one
    channel they reach training by.
    """
    hook = None
    if target.hidden_labels is not None:
        def hook(epoch, z_l2, ensemble):
            return float((predict(ensemble[0], z_l2) == target.hidden_labels).mean())

    with _phase("adapt"):
        result = adapt(encoder, prototypes, target, cfg.adapt, epoch_hook=hook,
                       log_path=Path(cfg.out_dir) / "adapt_metrics.csv")
        save_checkpoint(ckpt_path, encoder, prototypes, result.ensemble)
    return result


def _adapt_and_summarize(cfg: ExperimentConfig, source_encoder: Encoder,
                         prototypes: PrototypeMatrix, target: Dataset) -> dict:
    """Phase 2 on a copy of the source encoder, then the evaluation of
    the source and adapted models; writes ``summary.json`` and returns it."""
    out = Path(cfg.out_dir)
    encoder = source_encoder.copy()
    result = run_adapt_phase(cfg, encoder, prototypes, target, out / "adapted.ckpt")

    with _phase("evaluate"):
        baseline = evaluate(source_encoder, prototypes.weights, target)
        adapted = evaluate(encoder, result.ensemble[0], target)

    summary = {"seed": cfg.seed,
               "baseline": _eval_summary(baseline),
               "adapted": _eval_summary(adapted)}
    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def run_experiment(cfg: ExperimentConfig) -> dict:
    """generate/load -> train source -> adapt -> evaluate, fully seeded.

    Both datasets are read, and checked against each other, before any
    training. Writes metric CSVs, checkpoints, and summary.json into the
    output directory and returns the summary.
    """
    source, target = load_experiment_data(cfg, *ROLES)
    encoder, prototypes, _ = run_source_phase(cfg, source, Path(cfg.out_dir) / "source.ckpt")
    return _adapt_and_summarize(cfg, encoder, prototypes, target)


def run_ablation(cfg: ExperimentConfig) -> dict[str, dict]:
    """``run_experiment`` of every ablation mode into ``out_dir/<mode>``,
    with one source phase: the modes differ only in their adapt config.

    Both datasets are read once, before any training. The source phase
    runs on the ``full`` config, the one with the largest ``n_e * n_cl``,
    so a config that cannot adapt trains nothing. Its files, and a
    synthetic config's feature files, are copied into the other mode
    directories, and each mode adapts its own copy of the trained encoder.
    Each directory ends up with the bytes ``run_experiment`` of that mode
    would write. Returns each mode's summary.
    """
    modes = {mode: replace(apply_ablation(cfg, mode),
                           out_dir=str(Path(cfg.out_dir) / mode))
             for mode in ABLATION_MODES}
    full_out = Path(modes["full"].out_dir)
    source, target = load_experiment_data(modes["full"], *ROLES)
    encoder, prototypes, _ = run_source_phase(modes["full"], source, full_out / "source.ckpt")
    shared = ["source.ckpt", "source_metrics.csv"]
    if cfg.synthetic is not None:
        shared += [f"{role}.features" for role in ROLES]
    summaries = {}
    for mode, mode_cfg in modes.items():
        if mode != "full":
            out = Path(mode_cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for name in shared:
                shutil.copyfile(full_out / name, out / name)
        summaries[mode] = _adapt_and_summarize(mode_cfg, encoder, prototypes, target)
    return summaries
