"""Exception types shared across the package, its integer, float and
``key=value`` parsers, and its array size check.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericError -> 3, DataFormatError, EvaluationUnavailableError and
OSError -> 4.
"""

import math
import warnings

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class NumericError(ArithmeticError):
    """Non-finite value encountered during computation."""


class DataFormatError(ValueError):
    """Malformed dataset or checkpoint file."""


class EvaluationUnavailableError(RuntimeError):
    """Evaluation requested on a dataset without evaluation labels or samples."""


def parse_digits(text: str) -> int:
    """ASCII digits 0-9 only, where ``int()`` also takes "+1", " 1 " and "1_0"."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not ASCII digits 0-9")
    return int(text)


def parse_key_values(tokens: list[str], keys: tuple[str, ...]) -> dict[str, str]:
    """The values of ``key=value`` tokens that name each of ``keys`` exactly
    once and nothing else, where a plain ``dict`` would keep a repeat's last value."""
    pairs = [token.partition("=") for token in tokens]
    meta = {key: value for key, sep, value in pairs if sep}
    if len(meta) != len(tokens) or meta.keys() != set(keys):
        raise ValueError(f"expected {', '.join(keys)}, each once as key=value")
    return meta


def parse_floats(lines: list[str], sep: str | None, cols: int, numbers) -> np.ndarray:
    """The (len(lines), cols) array of ``sep``-separated values, one row per line.
    A valid row has exactly ``cols`` values, each with ``float()``'s syntax and bits,
    no ``_`` (``float()`` reads "1_0" as 10.0), and all finite. ASCII text free of
    ``_`` and ``\\x1c``-``\\x1f`` (``np.loadtxt`` strips them, ``float()`` rejects
    them) goes through one ``np.loadtxt`` call, kept if it gave that shape, finite,
    with no error or warning. Otherwise ``float()`` walks the rows, and the first
    bad one raises ValueError("line N: ...") with N taken from ``numbers``."""
    text = "".join(lines)
    if text.isascii() and not any(c in text for c in "_\x1c\x1d\x1e\x1f"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rows = np.loadtxt(lines, delimiter=sep, comments=None, ndmin=2)
                if rows.shape == (len(lines), cols) and np.isfinite(rows).all():
                    return rows
            except (ValueError, Warning):  # float() below decides, and words the error
                pass
    rows = []
    for number, line in zip(numbers, lines):
        values = line.split(sep)
        try:
            if len(values) != cols:
                raise ValueError(f"expected {cols} values, got {len(values)}")
            if "_" in line:
                raise ValueError(f"'_' in {line!r}")
            rows.append([float(v) for v in values])
            for value, x in zip(values, rows[-1]):
                if not math.isfinite(x):
                    raise ValueError(f"non-finite value {value!r}")
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return np.array(rows, dtype=float).reshape(len(lines), cols)


def check_array_size(what: str, *shape: int) -> None:
    """A float64 array of ``shape`` larger than numpy can index is a ConfigError;
    numpy itself raises ValueError for it, where a merely large one is a MemoryError."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} of shape {shape} exceeds numpy's array size limit")
