"""Stochastic gradient estimators and oracle-call accounting.

The solver loop drives one estimator per run.  At the head of each anchor
window it calls ``anchor(x, batch, tally, full_grad)`` with a
without-replacement batch; that returns the step's gradient estimate v, or
None when an inner step must follow.  ``step(x, batch, tally)`` returns v for
an inner step on a with-replacement batch.  Anchors take a ``minibatch_grad``;
an inner step gathers its batch once and takes both of its gradients from
those rows.  ``full_grad`` is the exact gradient at x when the loop already
holds it from an evaluation; a whole-set anchor returns it in place of a
second pass over the data and is charged as if it had made that pass.

All estimators reduce over their batch in sorted index order, so identical
index multisets give bitwise-identical results regardless of draw order.
"""

from dataclasses import dataclass

import numpy as np

from .problems import (
    ProblemInstance,
    batch_mean_grad,
    batch_mean_grads,
    full_gradient,
    _loss_slopes,
)

__all__ = [
    "OracleTally",
    "sample_indices",
    "minibatch_grad",
    "FreshGradient",
    "SnapshotGradient",
    "RecursiveGradient",
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

    ``batch`` holds distinct indices.  When it is the whole set and
    ``full_grad``, the exact gradient at x, is given, that is the result: the
    whole set reduces in index order like ``full_gradient``, so the two are
    bitwise equal.  The batch is charged either way.
    """
    idx = np.asarray(batch, dtype=np.intp)
    tally.solver_calls += idx.shape[0]
    if full_grad is not None and idx.shape[0] == p.n:
        return full_grad
    return batch_mean_grad(p, x, np.sort(idx))


class FreshGradient:
    """sadmm: the anchor batch's mini-batch gradient is the whole estimate.

    Its anchor window is one step, so it never takes an inner step.
    """

    def __init__(self, p: ProblemInstance):
        self.p = p

    def anchor(self, x, batch, tally: OracleTally, full_grad=None):
        return minibatch_grad(self.p, x, batch, tally, full_grad)


class SnapshotGradient:
    """svrg: v = grad_I(x) - grad_I(ref_x) + ref_grad against the anchor point.

    The anchor sets ref_x and its anchor-batch gradient ref_grad, and returns
    None: the anchor row also takes an inner step.  An inner step charges
    2|batch| component gradients, with the same batch I in both terms.
    """

    def __init__(self, p: ProblemInstance):
        self.p = p
        self.ref_x = None
        self.ref_grad = None

    def anchor(self, x, batch, tally: OracleTally, full_grad=None):
        self.ref_x = x
        self.ref_grad = minibatch_grad(self.p, x, batch, tally, full_grad)
        return None

    def step(self, x, batch, tally: OracleTally):
        if self.ref_grad is None:
            raise ValueError("inner step taken before an anchor set the reference point")
        idx = np.sort(np.asarray(batch, dtype=np.intp))
        tally.solver_calls += 2 * idx.shape[0]
        g_x, g_ref = batch_mean_grads(self.p, (x, self.ref_x), idx)
        return g_x - g_ref + self.ref_grad


class RecursiveGradient(SnapshotGradient):
    """spider: the snapshot difference taken against the previous iterate.

    The anchor's gradient is the refresh row's estimate; each inner step then
    rolls the reference forward: ref_x <- x, ref_grad <- v.
    """

    def anchor(self, x, batch, tally: OracleTally, full_grad=None):
        super().anchor(x, batch, tally, full_grad)
        return self.ref_grad

    def step(self, x, batch, tally: OracleTally):
        v = super().step(x, batch, tally)
        self.ref_x, self.ref_grad = x, v
        return v


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
