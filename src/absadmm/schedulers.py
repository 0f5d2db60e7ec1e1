"""The mini-batch size rule.

One rule sizes every anchor batch: the minimum of a progress-driven term,
which shrinks the batch while the iterates are still moving fast, and an
accuracy-driven cap.  A progress value of 0 leaves the cap, so the static
methods are this rule at tau = 0.
"""

import math
from dataclasses import dataclass

__all__ = [
    "SchedulerParams",
    "adaptive_batch",
    "progress_binds_above",
]


@dataclass(frozen=True)
class SchedulerParams:
    """Constants of the batch-size rule.

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
        # finite, so that 0 * inf never reaches a batch size as NaN
        for name in ("c_tau", "c_eps", "epsilon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.sigma2 < math.inf:
            raise ValueError("sigma2 must be nonnegative and finite")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.tau_init < math.inf:
            raise ValueError("tau_init must be nonnegative and finite")


def adaptive_batch(sp: SchedulerParams, tau: float) -> int:
    """ceil(min(c_tau*sigma2/tau, c_eps*sigma2/epsilon, n)), at least 1.

    A zero progress value makes the progress term inactive, which leaves the
    static size ceil(min(c_eps*sigma2/epsilon, n)).
    """
    progress = math.inf if tau == 0.0 else sp.c_tau * sp.sigma2 / tau
    return max(1, math.ceil(min(progress, sp.c_eps * sp.sigma2 / sp.epsilon, sp.n)))


def progress_binds_above(sp: SchedulerParams) -> float:
    """The progress value above which ``adaptive_batch`` leaves its static cap.

    c_tau*sigma2/tau falls below min(c_eps*sigma2/epsilon, n) exactly when tau
    exceeds max(c_tau*epsilon/c_eps, c_tau*sigma2/n), for sigma2 > 0.
    """
    return max(sp.c_tau * sp.epsilon / sp.c_eps, sp.c_tau * sp.sigma2 / sp.n)
