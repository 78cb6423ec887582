"""Exception types shared across the package, and its one integer parser.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericError -> 3, DataFormatError, EvaluationUnavailableError and
OSError -> 4.
"""


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
