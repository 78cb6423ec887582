"""Synthetic domain-shift benchmarks, feature-file I/O, and batching.

A source dataset carries training-visible labels; a target dataset never
does. Target ground truth lives only in ``hidden_labels``, which training
code must not read — the evaluator in :mod:`protoadapt.harness` is the
single consumer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError

FEATURE_HEADER_PREFIX = "#pda-features v1"


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with optional labels.

    features:      (n, d_x) float array, all finite
    labels:        (n,) int array for source data, None for target data
    hidden_labels: (n,) int array of evaluation labels (target only)
    """

    features: np.ndarray
    labels: np.ndarray | None
    d_x: int
    k_s: int
    role: str
    hidden_labels: np.ndarray | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[1] != self.d_x:
            raise ValueError(f"features must be (n, {self.d_x})")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        if self.role not in ("source", "target"):
            raise ValueError(f"unknown role {self.role!r}")
        if self.role == "source":
            if self.labels is None or len(self.labels) != len(feats):
                raise ValueError("source datasets must label every sample")
            if self.hidden_labels is not None:
                raise ValueError("hidden labels are a target-only field")
        elif self.labels is not None:
            raise ValueError("target datasets must not expose training labels")
        for arr in (self.labels, self.hidden_labels):
            if arr is not None and arr.size and (arr.min() < 0 or arr.max() >= self.k_s):
                raise ValueError(f"label index outside [0, {self.k_s})")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the two-domain Gaussian-cluster benchmark.

    Class means sit on a radius-5 sphere at seeded directions; the target
    domain draws only the first ``k_t`` classes and is shifted by a
    rotation in the first two coordinates followed by a translation.
    """

    k_s: int
    k_t: int
    d_x: int
    source_per_class: int
    target_per_class: int
    cluster_std: float = 1.0
    rotation_angle: float = 0.0
    translation: tuple[float, ...] = ()
    seed: int = 0

    MEAN_RADIUS = 5.0

    def __post_init__(self):
        if not 1 <= self.k_t <= self.k_s:
            raise ConfigError(f"need 1 <= k_t <= k_s, got k_t={self.k_t}, k_s={self.k_s}")
        if self.cluster_std <= 0:
            raise ConfigError("cluster_std must be positive")
        if not 0.0 <= self.rotation_angle < 2 * math.pi:
            raise ConfigError("rotation_angle must lie in [0, 2*pi)")
        if self.rotation_angle != 0.0 and self.d_x < 2:
            raise ConfigError("rotation requires d_x >= 2")
        if self.translation and len(self.translation) != self.d_x:
            raise ConfigError("translation length must equal d_x")
        if min(self.source_per_class, self.target_per_class) < 1:
            raise ConfigError("samples per class must be >= 1")


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Seeded source/target pair with a subset target label space.

    Identical specs produce bit-identical datasets: all draws come from a
    single generator in a fixed order.
    """
    rng = np.random.default_rng(spec.seed)
    directions = rng.standard_normal((spec.k_s, spec.d_x))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = spec.MEAN_RADIUS * directions

    src_feats, src_labels = [], []
    for c in range(spec.k_s):
        src_feats.append(means[c] + spec.cluster_std
                         * rng.standard_normal((spec.source_per_class, spec.d_x)))
        src_labels.append(np.full(spec.source_per_class, c, dtype=int))

    tgt_feats, tgt_labels = [], []
    for c in range(spec.k_t):
        tgt_feats.append(means[c] + spec.cluster_std
                         * rng.standard_normal((spec.target_per_class, spec.d_x)))
        tgt_labels.append(np.full(spec.target_per_class, c, dtype=int))

    target = np.vstack(tgt_feats)
    if spec.rotation_angle != 0.0:
        ct, st = math.cos(spec.rotation_angle), math.sin(spec.rotation_angle)
        x0 = target[:, 0] * ct - target[:, 1] * st
        x1 = target[:, 0] * st + target[:, 1] * ct
        target = target.copy()
        target[:, 0], target[:, 1] = x0, x1
    if spec.translation:
        target = target + np.asarray(spec.translation, dtype=float)

    source_ds = Dataset(np.vstack(src_feats), np.concatenate(src_labels),
                        spec.d_x, spec.k_s, "source")
    target_ds = Dataset(target, None, spec.d_x, spec.k_s, "target",
                        hidden_labels=np.concatenate(tgt_labels))
    return source_ds, target_ds


def _format_float(x: float) -> str:
    return format(float(x), ".9g")


def write_feature_file(dataset: Dataset, path) -> None:
    """Line-oriented text serialization, 9 significant digits per float."""
    lines = [f"{FEATURE_HEADER_PREFIX} d={dataset.d_x} k={dataset.k_s} role={dataset.role}"]
    for i in range(dataset.n):
        label = "?" if dataset.labels is None else str(int(dataset.labels[i]))
        row = ",".join(_format_float(v) for v in dataset.features[i])
        line = f"{label},{row}" if dataset.d_x else label
        if dataset.hidden_labels is not None:
            line += f"#{int(dataset.hidden_labels[i])}"
        lines.append(line)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_feature_file(path) -> Dataset:
    """Parse a feature file; errors name the offending line number."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or not raw[0].startswith(FEATURE_HEADER_PREFIX):
        raise DataFormatError(f"{path}: line 1: missing '{FEATURE_HEADER_PREFIX}' header")
    fields = raw[0][len(FEATURE_HEADER_PREFIX):].split()
    try:
        meta = dict(item.split("=", 1) for item in fields)
        d_x, k_s, role = int(meta["d"]), int(meta["k"]), meta["role"]
    except (ValueError, KeyError) as exc:
        raise DataFormatError(f"{path}: line 1: malformed header ({exc})") from exc
    if role not in ("source", "target"):
        raise DataFormatError(f"{path}: line 1: unknown role {role!r}")

    feats, labels, hidden = [], [], []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        body, _, comment = line.partition("#")
        parts = body.split(",")
        if len(parts) != d_x + 1:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {d_x} features, got {len(parts) - 1}")
        try:
            label = None if parts[0] == "?" else int(parts[0])
            row = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
        if label is not None and not 0 <= label < k_s:
            raise DataFormatError(f"{path}: line {lineno}: label {label} >= k={k_s}")
        if comment:
            try:
                hidden.append(int(comment))
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: bad hidden label") from exc
        feats.append(row)
        labels.append(label)

    if role == "source":
        if any(lb is None for lb in labels):
            bad = labels.index(None) + 2
            raise DataFormatError(f"{path}: line {bad}: source sample without label")
        if hidden:
            raise DataFormatError(f"{path}: hidden-label comments on source rows")
        labels_arr, hidden_arr = np.asarray(labels, dtype=int), None
    else:
        if any(lb is not None for lb in labels):
            bad = next(i for i, lb in enumerate(labels) if lb is not None) + 2
            raise DataFormatError(f"{path}: line {bad}: target sample with visible label")
        if hidden and len(hidden) != len(feats):
            raise DataFormatError(f"{path}: hidden labels on some but not all lines")
        labels_arr, hidden_arr = None, np.asarray(hidden, dtype=int) if hidden else None
    try:
        features = np.asarray(feats, dtype=float).reshape(len(feats), d_x)
        return Dataset(features, labels_arr, d_x, k_s, role, hidden_labels=hidden_arr)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def epoch_batches(dataset: Dataset, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A seeded permutation of all indices, split into consecutive chunks.

    Every index appears exactly once per epoch; the final chunk may be
    short.
    """
    if dataset.n == 0:
        raise ValueError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = rng.permutation(dataset.n)
    return [perm[i:i + batch_size] for i in range(0, dataset.n, batch_size)]
