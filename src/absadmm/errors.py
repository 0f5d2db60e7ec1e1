"""Exception types shared across the package.

Each is a fault of the input: a data file, a config or a problem.  A run that
diverges raises none of them; it stops as "diverged" (see ``solvers``).
"""


class ParseError(ValueError):
    """Raised when an input data file cannot be parsed."""


class ConfigError(ValueError):
    """Raised when an experiment configuration is invalid."""


class SplitError(ValueError):
    """Raised when a train/test split is asked of fewer than two rows."""


class UnsupportedProblemError(ValueError):
    """Raised when a problem names a loss other than "logistic" or "sigmoid"."""

