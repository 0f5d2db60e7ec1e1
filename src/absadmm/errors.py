"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised when an input data file cannot be parsed."""


class ConfigError(ValueError):
    """Raised when an experiment configuration is invalid."""


class SplitError(ValueError):
    """Raised when a train/test split is asked of fewer than two rows."""


class UnsupportedProblemError(ValueError):
    """Raised when a problem falls outside the supported constraint/penalty forms."""


class DivergenceError(RuntimeError):
    """Raised when a solver iterate or an evaluation becomes non-finite.

    Carries the trace collected up to (not including) the bad iteration and,
    when the solver raises it, the run's oracle ledger ``tally`` (the bad
    row's charges included) and where the run broke down: ``block`` is the
    first non-finite block in update order ("y", "x" or "lam"), or
    "stationarity" when the iterates are finite but the row's evaluated
    objective or stationarity is not; ``row`` is the 1-based iteration,
    ``batch_size`` that row's scheduled draw, ``dx_sq`` its squared step
    ||x_{k+1} - x_k||^2, and ``last_stationarity`` the last finite
    stationarity evaluated (None before there is one).
    """

    def __init__(
        self,
        message,
        trace=None,
        *,
        tally=None,
        block=None,
        row=None,
        batch_size=None,
        dx_sq=None,
        last_stationarity=None,
    ):
        super().__init__(message)
        self.trace = trace if trace is not None else []
        self.tally = tally
        self.block = block
        self.row = row
        self.batch_size = batch_size
        self.dx_sq = dx_sq
        self.last_stationarity = last_stationarity
