"""One linearized ADMM iteration: y update, metric-linearized x update, dual update.

The problem is split as Ax - y = 0, and A enters only through the
constraint's O(nnz) products A x and A^T u.  Every function here takes A x of
its x as ``ax`` and forms none itself: the solver loop forms A x_{k+1} once
per iteration and hands it to the dual step, the next y and x steps and any
evaluation of x_{k+1}.  The x step forms the iteration's one A^T u, and an
evaluation one more, A^T lam.  The x update minimizes the linearization of
the augmented Lagrangian around x_k under the metric G = r*I - beta*eta*A^T A,
which reduces to the closed form
x_{k+1} = x_k - (eta/r) * (v + A^T (beta * (A x_k - y_{k+1}) - lam)), so no
linear solve is required.  The default r = beta*eta*||A^T A|| + 1 uses the
constraint's exact spectrum, so the smallest eigenvalue of G is 1.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problems import ProblemInstance, penalty_value, prox_g, smooth_value_and_gradient

__all__ = [
    "AdmmParams",
    "StationarityReport",
    "make_admm_params",
    "y_step",
    "x_step",
    "dual_step",
    "stationarity",
]


@dataclass(frozen=True)
class AdmmParams:
    """Penalty beta, step size eta, and metric constant r."""

    beta: float
    eta: float
    r: float

    def __post_init__(self):
        for name in ("beta", "eta", "r"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class StationarityReport:
    """Squared residuals of the three stationarity conditions, their sum, and
    the composite objective f(x) + g(Ax) at the same point.

    ``grad`` is the exact gradient of f at that point, from the same pass; it
    takes no part in comparisons.
    """

    grad_term: float
    subgrad_term: float
    feas_term: float
    total: float
    objective: float
    grad: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


def make_admm_params(constraint, beta: float, eta: float, r=None) -> AdmmParams:
    """Build AdmmParams, defaulting r to beta*eta*||A^T A|| + 1.

    An explicit r below that threshold (metric not positive definite enough)
    is rejected.
    """
    floor = beta * eta * constraint.spectrum[1] + 1.0
    if r is None:
        r = floor
    elif r < floor * (1.0 - 1e-9):
        raise ValueError(f"r={r} below beta*eta*||A^T A||+1 = {floor}")
    return AdmmParams(beta=beta, eta=eta, r=float(r))


def y_step(p: ProblemInstance, params: AdmmParams, ax, lam):
    """Exact y update: prox of g/beta at A x - lam/beta."""
    return prox_g(ax - lam / params.beta, 1.0 / params.beta, p.g)


def x_step(p: ProblemInstance, params: AdmmParams, x, ax, y_new, lam, v):
    """Linearized x update given gradient estimate v."""
    step = v + p.constraint.rmatvec(params.beta * (ax - y_new) - lam)
    return x - (params.eta / params.r) * step


def dual_step(params: AdmmParams, ax_new, y_new, lam):
    """Dual update lam - beta * (A x_{k+1} - y_{k+1})."""
    return lam - params.beta * (ax_new - y_new)


def stationarity(p: ProblemInstance, x, y, lam, ax) -> StationarityReport:
    """Squared stationarity residuals at (x, y, lam), and the objective at x.

    grad_term    ||grad f(x) - A^T lam||^2
    subgrad_term dist(-lam, subdiff g(y))^2 for the weighted L1 penalty
    feas_term    ||Ax - y||^2

    One pass over the data gives both f(x) and the exact full gradient, which
    the report keeps as ``grad``; callers account for its oracle cost.
    """
    f, grad = smooth_value_and_gradient(p, x)
    gt = grad - p.constraint.rmatvec(lam)
    grad_term = float(gt @ gt)
    u = -lam  # B^T lam with B = -I
    wgt = p.g.weight
    on = y != 0.0
    sub = np.where(on, u - wgt * np.sign(y), np.maximum(np.abs(u) - wgt, 0.0))
    subgrad_term = float(sub @ sub)
    res = ax - y
    feas_term = float(res @ res)
    return StationarityReport(
        grad_term=grad_term,
        subgrad_term=subgrad_term,
        feas_term=feas_term,
        total=grad_term + subgrad_term + feas_term,
        objective=f + penalty_value(p.g, ax),
        grad=grad,
    )
