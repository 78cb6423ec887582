"""Exception types shared across the package.

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


class DegenerateVectorError(ValueError):
    """A vector with (near-)zero norm where a direction is required."""


class EvaluationUnavailableError(RuntimeError):
    """Evaluation requested on a dataset without evaluation labels."""
