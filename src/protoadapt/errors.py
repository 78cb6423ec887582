"""Exception types shared across the package, its integer and ``key=value``
parsers, and its array size check. The feature files' decimal row rule lives
beside its only reader, in :mod:`protoadapt.datasets`.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericError -> 3, DataFormatError, EvaluationUnavailableError and
OSError -> 4.
"""

import math

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


def check_array_size(what: str, *shape: int) -> None:
    """A float64 array of ``shape`` larger than numpy can index is a ConfigError;
    numpy itself raises ValueError for it, where a merely large one is a MemoryError."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} of shape {shape} exceeds numpy's array size limit")
