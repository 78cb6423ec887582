"""Synthetic domain-shift benchmarks, feature-file I/O, and batching.

A source dataset carries training-visible labels; a target dataset never
does. Target ground truth lives only in ``hidden_labels``, which training
code must not read — the evaluator in :mod:`protoadapt.harness` is the
single consumer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, compress, islice

import numpy as np

from .errors import (ConfigError, DataFormatError, check_array_size, parse_digits,
                     parse_key_values)

FEATURE_HEADER_PREFIX = "#pda-features v1"


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with optional labels.

    features:      (n, d_x) float array, d_x >= 1, all finite
    labels:        (n,) int array for source data, None for target data
    hidden_labels: (n,) int array of evaluation labels (target only)
    """

    features: np.ndarray
    labels: np.ndarray | None
    k_s: int
    role: str
    hidden_labels: np.ndarray | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[1] < 1:
            raise ValueError("features must be a 2-D (n, d_x) array with d_x >= 1")
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

    @property
    def d_x(self) -> int:
        return self.features.shape[1]


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
        if min(self.d_x, self.source_per_class, self.target_per_class) < 1:
            raise ConfigError("d_x and samples per class must be >= 1")
        check_array_size("source features", self.k_s * self.source_per_class, self.d_x)
        check_array_size("target features", self.k_t * self.target_per_class, self.d_x)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Seeded source/target pair with a subset target label space.

    Identical specs produce bit-identical datasets: all draws come from a
    single generator in a fixed order.
    """
    rng = np.random.default_rng(spec.seed)
    directions = rng.standard_normal((spec.k_s, spec.d_x))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = spec.MEAN_RADIUS * directions
    source, labels = _draw_domain(rng, means, spec.source_per_class, spec.cluster_std)
    target, hidden = _draw_domain(rng, means[:spec.k_t], spec.target_per_class, spec.cluster_std)
    if spec.rotation_angle != 0.0:
        ct, st = math.cos(spec.rotation_angle), math.sin(spec.rotation_angle)
        x0 = target[:, 0] * ct - target[:, 1] * st
        x1 = target[:, 0] * st + target[:, 1] * ct
        target[:, 0], target[:, 1] = x0, x1
    if spec.translation:
        target += np.asarray(spec.translation, dtype=float)
    if not (np.isfinite(source).all() and np.isfinite(target).all()):
        raise ConfigError("synthetic spec overflows: generated features are not finite")

    source_ds = Dataset(source, labels, spec.k_s, "source")
    target_ds = Dataset(target, None, spec.k_s, "target", hidden_labels=hidden)
    return source_ds, target_ds


def _draw_domain(rng, means, per_class, cluster_std):
    """``per_class`` rows around each row of ``means``, class by class, and
    their labels. One draw fills the whole array: the generator fills it in
    order, so its values are those of one draw per class."""
    features = rng.standard_normal((len(means), per_class, means.shape[1]))
    features *= cluster_std
    features += means[:, None]
    return features.reshape(-1, means.shape[1]), np.repeat(np.arange(len(means)), per_class)


# Rows the writer formats, and the reader checks and converts, per chunk:
# the text held in memory stays a few hundred lines whatever the file size.
CHUNK_ROWS = 256
# Values the writer formats per chunk at most (one row, if a row holds more),
# so its memory does not grow with the row width either.
CHUNK_VALUES = CHUNK_ROWS * 64
# Characters the reader reads, then completes to a whole line, per block.
READ_HINT = 1 << 16


def write_feature_file(dataset: Dataset, path) -> None:
    """Line-oriented text serialization, floats as ``%.9g``: the text equals
    ``format(v, ".9g")`` per value. Rows go to the file in chunks of at most
    ``CHUNK_ROWS`` rows and ``CHUNK_VALUES`` values (one row, if a row holds
    more), each formatted by ``_format_chunk``.
    """
    line_fmt = (("?" if dataset.labels is None else "%d") + "%s"
                + ("" if dataset.hidden_labels is None else "#%d") + "\n")
    step = max(1, min(CHUNK_ROWS, CHUNK_VALUES // dataset.d_x))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{FEATURE_HEADER_PREFIX} d={dataset.d_x} k={dataset.k_s} "
                 f"role={dataset.role}\n")
        for start in range(0, dataset.n, step):
            chunk = slice(start, start + step)
            columns = [_format_chunk(dataset.features[chunk])]
            if dataset.labels is not None:
                columns.insert(0, dataset.labels[chunk].tolist())
            if dataset.hidden_labels is not None:
                columns.append(dataset.hidden_labels[chunk].tolist())
            fh.write("".join([line_fmt % args for args in zip(*columns)]))


# The doubles nearest 1e-4 ... 1e9 (literals, not pow) and, per bracket of
# ``np.searchsorted`` over them, the exact power of ten 10**(8-X) that brings
# a value in [10**X, 10**(X+1)) to [1e8, 1e9). The brackets outside
# [1e-4, 1e9), which ``%.9g`` writes in exponent form, get 1.0, so their
# significands fall outside [1e8, 1e9) and are never proven.
_POWERS = np.array([float(f"1e{e}") for e in range(-4, 10)])
_SCALES = np.array([1.0, *(float(f"1e{e}") for e in range(12, -1, -1)), 1.0])
_AT = np.arange(14, dtype=np.uint8)[:, None]  # character positions after the sign
_SPEC = np.frombuffer(b"%.9g".ljust(15, b"\0"), np.uint8)[:, None]  # an unproven value's column


def _prove(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which values of the flat array ``x`` the kernel proves, with each
    one's ``np.searchsorted`` bracket (X + 5) and 9-digit significand (0
    where not proven, and for ±0).

    For |x| in [1e-4, 1e9), ``np.searchsorted`` over ``_POWERS`` gives X =
    floor(log10 |x|), and y = |x| * 10**(8-X) is the correctly rounded
    product of |x| and an exact power of ten. Rounding is monotone and every
    half-integer below 2**52 is a double, so when y is not a half-integer,
    the exact product lies strictly between the same two half-integers as
    y: rint(y) is then its correctly rounded integer. When that has exactly
    9 digits, it is the significand ``%.9g`` prints, in fixed-point form.
    ±0 is proven too. Any other value -- exponent form, a tie in y, a
    rounding up to 10 digits -- is not; a wrong X would fail the 9-digit
    check too.
    """
    mag = np.abs(x)
    bracket = np.searchsorted(_POWERS, mag, side="right")
    y = mag * _SCALES[bracket]
    sig = np.rint(y)
    proven = ((sig >= 1e8) & (sig < 1e9) & (np.abs(y - sig) < 0.5)) | (mag == 0)
    return bracket, np.where(proven, sig, 0), proven


def _format_chunk(values: np.ndarray) -> list[str]:
    """Each row of ``values`` as ``",%.9g" * cols`` formats it.

    The text of the values ``_prove`` proves is laid out column-major, one
    ``uint8`` row per character position with every value along the long
    axis: ',', the sign, then "0000" and the 9 digits (from ``np.divmod`` on
    ``uint32``) with the '.' at 5+X; ±0 is "0" or "-0". Each value keeps one
    interval of those positions: the leading pad and the trailing zeros
    after the '.' fall outside it and become NUL. An unproven value's column
    is ",%.9g". One ``bytes.translate`` deletes the NULs, cumulative lengths
    cut the text into rows, and each row holding a "%.9g" is one ``%`` call
    on its unproven values.
    """
    rows, cols = values.shape
    x = values.ravel()
    bracket, sig, proven = _prove(x)
    unproven = np.flatnonzero(~proven)
    point = np.where(sig > 0, bracket, 5).astype(np.uint8)  # 0 is laid out as "0"
    sig = sig.astype(np.uint32)

    padded = np.empty((13, x.size), np.uint8)  # "0000" and the 9 digits
    padded[:4] = ord("0")
    trailing = np.zeros(x.size, np.uint8)  # trailing zero digits, 9 for 0
    nonzero = np.zeros(x.size, bool)
    for row in range(12, 3, -1):
        sig, padded[row] = np.divmod(sig, 10)
        nonzero |= padded[row] != 0
        trailing += ~nonzero
    padded[4:] += ord("0")

    grid = np.full((16, x.size), ord("."), np.uint8)
    grid[0] = ord(",")
    grid[1] = ord("-") * np.signbit(x)
    np.copyto(grid[2:15], padded, where=_AT[:13] < point)
    np.copyto(grid[3:16], padded, where=_AT[1:] > point)
    lead = np.minimum(4, point - 1)  # keep one '0' before the '.' of |x| < 1
    end = np.where(14 - trailing > point + 1, 14 - trailing, point)  # no bare '.'
    grid[2:] *= (_AT >= lead) & (_AT < end)
    lengths = (end - lead + 1).astype(np.intp) + np.signbit(x)
    grid[1:, unproven] = _SPEC
    lengths[unproven] = 5

    text = grid.T.tobytes().translate(None, b"\0").decode("ascii")
    ends = np.cumsum(lengths.reshape(rows, cols).sum(axis=1)).tolist()
    bodies = [text[a:b] for a, b in zip([0, *ends], ends)]
    fill = iter(x[unproven].tolist())
    for i, count in zip(*(a.tolist() for a in np.unique(unproven // cols, return_counts=True))):
        bodies[i] %= tuple(islice(fill, count))
    return bodies


def read_feature_file(path) -> Dataset:
    """Parse a feature file; errors name the offending line number. The file is
    streamed in blocks of whole lines of about ``READ_HINT`` characters, split
    as ``str.splitlines`` splits them, and read ``CHUNK_ROWS`` lines at a time,
    so a read peaks at about twice the array's size."""
    with open(path, encoding="utf-8") as fh:
        blocks = iter(lambda: fh.read(READ_HINT) + fh.readline(), "")
        try:
            return _parse_features(path, chain.from_iterable(map(str.splitlines, blocks)))
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _parse_features(path, lines) -> Dataset:
    header = next(lines, "")
    if not (header + " ").startswith(FEATURE_HEADER_PREFIX + " "):
        raise DataFormatError(f"{path}: line 1: missing '{FEATURE_HEADER_PREFIX}' header")
    try:
        meta = parse_key_values(header[len(FEATURE_HEADER_PREFIX):].split(), ("d", "k", "role"))
    except ValueError as exc:
        raise DataFormatError(f"{path}: line 1: malformed header ({exc})") from exc
    sizes, role = [meta["d"], meta["k"]], meta["role"]
    for i, key in enumerate(("d", "k")):
        try:
            sizes[i] = parse_digits(sizes[i])
        except ValueError:
            sizes[i] = 0
        if sizes[i] < 1:
            raise DataFormatError(f"{path}: line 1: {key}={meta[key]} must be ASCII digits >= 1")
    d_x, k_s = sizes
    label_end = min(k_s, 2**63)  # labels are held as int64
    if role not in ("source", "target"):
        raise DataFormatError(f"{path}: line 1: unknown role {role!r}")

    labels, hidden, blocks = [], [], [np.empty((0, d_x))]
    misrole_line = None  # the first unlabeled source row or labeled target row
    hidden_line = {}  # True/False -> the first row with/without a hidden label

    first = 2  # the line number of the first line of ``raw``
    while raw := list(islice(lines, CHUNK_ROWS)):
        rows = _whole_rows(raw, d_x, label_end, role)
        if rows is not None:
            blocks.append(rows[0])
            labels += rows[1]
            hidden += rows[2]
            hidden_line.setdefault(bool(rows[2]), first + rows[3])
        else:  # the walk, the only place a fault is named
            values = []
            for lineno, line in enumerate(raw, start=first):
                if not line.strip():
                    continue
                body, hash_sign, comment = line.partition("#")
                label, _, text = body.partition(",")
                try:
                    if body.count(",") != d_x:
                        raise ValueError(f"expected {d_x} features, got {body.count(',')}")
                    label = None if label == "?" else parse_digits(label)
                    values.append(_parse_floats(text))
                    hidden_label = parse_digits(comment) if hash_sign else None  # a bare '#' too
                    for lb in (label, hidden_label):
                        if lb is not None and not 0 <= lb < label_end:
                            raise ValueError(f"label {lb} not in [0, {label_end})")
                except ValueError as exc:
                    raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
                if hash_sign:
                    hidden.append(hidden_label)
                hidden_line.setdefault(bool(hash_sign), lineno)
                if misrole_line is None and (label is None) == (role == "source"):
                    misrole_line = lineno
                labels.append(label)
            blocks.append(np.array(values, dtype=float).reshape(len(values), d_x))
        first += len(raw)

    with_line, without_line = hidden_line.get(True), hidden_line.get(False)
    if role == "source":
        if misrole_line is not None:
            raise DataFormatError(f"{path}: line {misrole_line}: source sample without label")
        if with_line:
            raise DataFormatError(
                f"{path}: line {with_line}: hidden-label comment on a source row")
        labels_arr, hidden_arr = np.asarray(labels, dtype=int), None
    else:
        if misrole_line is not None:
            raise DataFormatError(f"{path}: line {misrole_line}: target sample with visible label")
        if with_line and without_line:
            raise DataFormatError(
                f"{path}: line {without_line}: target row without a hidden label "
                f"(line {with_line} has one)" if with_line < without_line else
                f"{path}: line {with_line}: target row with a hidden label "
                f"(line {without_line} has none)")
        labels_arr, hidden_arr = None, np.asarray(hidden, dtype=int) if hidden else None
    try:
        features = np.concatenate(blocks).reshape(len(labels), d_x)
        return Dataset(features, labels_arr, k_s, role, hidden_labels=hidden_arr)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _whole_rows(lines: list[str], d_x: int, label_end: int, role: str):
    """The features, labels and hidden labels of ``lines``, one chunk of a
    feature file, and the index of its first row, when one bulk check proves
    that the walk in ``_parse_features`` would read them with the same bits
    and find no fault; None otherwise. Blank lines are dropped, as the walk
    skips them, and at least one row is left. The rows are ASCII text free of
    ``_`` and ``\\x1c``-``\\x1f`` (``np.loadtxt`` strips them, ``float()``
    rejects them); each label is ``?`` on a target, or ASCII digits below
    ``label_end`` (the header's ``k``, capped at 2**63) on a source; either
    every row has ASCII digits below ``label_end`` after its ``#`` or no row
    has a ``#`` (a source row's comment is a fault the reader names after the
    last chunk, as for the walk); and one ``np.loadtxt`` of the value text,
    with warnings raised as errors, gives exactly ``(rows, d_x)`` finite
    values, which also proves each row's field count."""
    rows = list(compress(lines, map(str.strip, lines)))
    text = "\n".join(rows)
    if not (rows and text.isascii() and not any(c in text for c in "_\x1c\x1d\x1e\x1f")):
        return None
    bodies, hidden = rows, []
    if "#" in text:
        bodies, _, hidden = zip(*[row.partition("#") for row in rows])
        hidden = _labels_below(hidden, label_end)
    labels, _, values = zip(*[body.partition(",") for body in bodies])
    if role == "source":
        labels = _labels_below(labels, label_end)
    else:
        labels = [None] * len(labels) if labels.count("?") == len(labels) else None
    if labels is None or hidden is None:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            features = np.loadtxt(values, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):  # the walk words the fault
            return None
    if features.shape != (len(labels), d_x) or not np.isfinite(features).all():
        return None
    return features, labels, hidden, lines.index(rows[0])


def _labels_below(texts: tuple[str, ...], end: int) -> list[int] | None:
    """The ints of ``texts`` if each is ASCII digits for an int below ``end``,
    as ``parse_digits`` and the walk's range check take it; else None."""
    if not "".join(texts).isdigit():
        return None
    try:
        ints = list(map(int, texts))
    except ValueError:  # an empty text, or more digits than int() converts
        return None
    return ints if max(ints) < end else None


def _parse_floats(text: str) -> list[float]:
    """The comma-separated values of ``text``, one row. A valid value has
    ``float()``'s syntax and bits, no ``_`` (``float()`` reads "1_0" as
    10.0), and is finite; the first bad one raises ValueError."""
    if "_" in text:
        raise ValueError(f"'_' in {text!r}")
    values = text.split(",")
    row = [float(v) for v in values]
    for value, x in zip(values, row):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {value!r}")
    return row


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
