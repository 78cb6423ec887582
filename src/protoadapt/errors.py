"""Exception types shared across the package, and its integer and float parsers.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericError -> 3, DataFormatError, EvaluationUnavailableError and
OSError -> 4.
"""

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class NumericError(ArithmeticError):
    """Non-finite value encountered during computation."""


class DataFormatError(ValueError):
    """Malformed dataset or checkpoint file."""


class EvaluationUnavailableError(RuntimeError):
    """Evaluation requested on a dataset without evaluation labels."""


def parse_digits(text: str) -> int:
    """ASCII digits 0-9 only, where ``int()`` also takes "+1", " 1 " and "1_0"."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not ASCII digits 0-9")
    return int(text)


def parse_floats(text: str, sep: str | None) -> np.ndarray:
    """The ``sep``-separated values of ``text``, each read with ``float()``'s syntax,
    bits and error text (unlike ``np.loadtxt``), by one call for the whole text."""
    return np.array(text.split(sep), dtype=float)
