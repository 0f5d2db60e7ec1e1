"""Mini-batch size rules: a fixed accuracy-driven size, and one adaptive rule
that shrinks the batch while the iterates are still moving fast."""

import math
from dataclasses import dataclass

__all__ = [
    "SchedulerParams",
    "TauAccumulator",
    "static_batch",
    "adaptive_batch",
    "tau_update",
]


@dataclass(frozen=True)
class SchedulerParams:
    """Constants of the batch-size rules.

    c_tau, c_eps  scale the progress-driven and accuracy-driven terms
    epsilon       target accuracy in the accuracy-driven term
    sigma2        gradient variance bound (estimated or supplied)
    n             number of components; every batch is capped here
    tau_init      progress value of the first adaptive anchor decision of the
                  variance-reduced methods (sadmm's first step reads 0)
    """

    c_tau: float
    c_eps: float
    epsilon: float
    sigma2: float
    n: int
    tau_init: float = 0.0

    def __post_init__(self):
        for name in ("c_tau", "c_eps", "epsilon"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.sigma2 >= 0.0:
            raise ValueError("sigma2 must be nonnegative")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.tau_init >= 0.0:
            raise ValueError("tau_init must be nonnegative")


@dataclass
class TauAccumulator:
    """Windowed sum of squared step lengths driving the adaptive anchor sizes.

    Each step adds ||x_{k+1} - x_k||^2 / divisor to running_sum; at an anchor
    window boundary the window closes: value_for_next_epoch takes running_sum
    and the sum restarts from zero.  With divisor 1 and a roll after every
    step, the value is the last squared step, as sadmm's rule needs.
    """

    divisor: int
    value_for_next_epoch: float
    running_sum: float = 0.0

    def __post_init__(self):
        if self.divisor < 1:
            raise ValueError("divisor must be at least 1")

    def roll_epoch(self):
        self.value_for_next_epoch = self.running_sum
        self.running_sum = 0.0


def _clamp(value: float, n: int) -> int:
    return max(1, math.ceil(min(value, n)))


def static_batch(sp: SchedulerParams) -> int:
    """ceil(min(c_eps*sigma2/epsilon, n)), at least 1."""
    return _clamp(sp.c_eps * sp.sigma2 / sp.epsilon, sp.n)


def adaptive_batch(sp: SchedulerParams, tau: float) -> int:
    """Adaptive size: min of the progress term c_tau*sigma2/tau and the static
    cap; a zero progress value makes the progress term inactive."""
    progress = math.inf if tau == 0.0 else sp.c_tau * sp.sigma2 / tau
    return _clamp(min(progress, sp.c_eps * sp.sigma2 / sp.epsilon), sp.n)


def tau_update(acc: TauAccumulator, step_diff_sq: float) -> TauAccumulator:
    """Accumulate one squared step length into the open window."""
    if not step_diff_sq >= 0.0:
        raise ValueError("step_diff_sq must be nonnegative")
    acc.running_sum += step_diff_sq / acc.divisor
    return acc
