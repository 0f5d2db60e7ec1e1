"""Stochastic gradient estimators and oracle-call accounting.

Two functions make every gradient estimate the solver loop takes.
``minibatch_grad`` is the mean gradient over a batch of distinct indices: an
anchor's gradient, and sadmm's whole estimate.  ``svrg_grad`` is the
variance-reduced estimate v = grad_I(x) - grad_I(ref_x) + ref_grad against a
reference the loop holds; it gathers its batch once and forms the difference
of the two batch gradients with one X_I^T product, so when x equals ref_x the
batch terms cancel exactly and v is ref_grad.  A whole-set anchor reduces the
whole set in place, in index order: ``full_grad``, the exact gradient at x
when the loop already holds it from an evaluation, is returned in place of a
second pass over the data and is charged as if it had made that pass.

All estimators reduce over their batch in sorted index order, so identical
index multisets give bitwise-identical results regardless of draw order.
"""

from dataclasses import dataclass

import numpy as np

from .problems import (
    ProblemInstance,
    batch_grad_difference,
    batch_mean_grad,
    full_gradient,
    _loss_slopes,
)

__all__ = [
    "OracleTally",
    "sample_indices",
    "minibatch_grad",
    "svrg_grad",
    "estimate_sigma2",
]


@dataclass
class OracleTally:
    """Cumulative component-gradient evaluations.

    solver_calls counts work charged to the algorithm; eval_calls counts the
    full gradients spent on stationarity diagnostics, kept separate so traces
    report pure solver cost.
    """

    solver_calls: int = 0
    eval_calls: int = 0


def sample_indices(n: int, size: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` indices from range(n), with or without replacement.

    Without replacement costs O(size) for a small draw (Floyd's algorithm in
    ``Generator.choice``), not the O(n) of a full permutation.
    """
    if size < 1:
        raise ValueError("batch size must be at least 1")
    if mode == "with_replacement":
        return rng.integers(0, n, size=size)
    if mode == "without_replacement":
        if size > n:
            raise ValueError(f"cannot draw {size} of {n} without replacement")
        return rng.choice(n, size, replace=False)
    raise ValueError(f"unknown sampling mode {mode!r}")


def minibatch_grad(p: ProblemInstance, x, batch, tally: OracleTally, full_grad=None):
    """Plain mini-batch gradient: mean of the component gradients over ``batch``.

    ``batch`` holds distinct indices, so a batch of n is the whole set, which
    needs no sort: the result is then ``full_grad``, the exact gradient at x,
    when it is given, and ``full_gradient`` otherwise.  Both reduce in index
    order like a sorted batch, so all three are bitwise equal.  The batch is
    charged either way.
    """
    idx = np.asarray(batch, dtype=np.intp)
    tally.solver_calls += idx.shape[0]
    if idx.shape[0] == p.n:
        return full_gradient(p, x) if full_grad is None else full_grad
    return batch_mean_grad(p, x, np.sort(idx))


def svrg_grad(p: ProblemInstance, x, batch, ref_x, ref_grad, tally: OracleTally):
    """Variance-reduced gradient v = grad_I(x) - grad_I(ref_x) + ref_grad.

    One gather of the sorted batch I and one X_I^T product give the batch
    difference (``batch_grad_difference``), and the step is charged 2|batch|
    component gradients.  The solver loop picks the reference (ref_x,
    ref_grad): SVRG holds its anchor for a whole window, SPIDER rolls it to
    the last iterate and estimate after every step.
    """
    idx = np.sort(np.asarray(batch, dtype=np.intp))
    tally.solver_calls += 2 * idx.shape[0]
    return batch_grad_difference(p, x, ref_x, idx) + ref_grad


def estimate_sigma2(p: ProblemInstance, x0, m: int, rng: np.random.Generator) -> float:
    """Mean of ||grad f_i(x0) - grad f(x0)||^2 over m uniform draws.

    With m >= n every component is used once, giving the exact population
    value of the gradient-variance bound.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    n = p.n
    idx = np.arange(n) if m >= n else rng.integers(0, n, size=m)
    g_full = full_gradient(p, x0)
    # the gather is a copy, so the per-row gradients and their squared
    # deviations are formed in its place
    dev = p.dataset.features[idx]
    labs = p.dataset.labels[idx]
    z = labs * (dev @ x0)
    dev *= (_loss_slopes(p.loss, z) * labs)[:, None]
    if p.ridge:
        dev += p.ridge * x0
    dev -= g_full
    np.square(dev, out=dev)
    return float(np.mean(np.sum(dev, axis=1)))
