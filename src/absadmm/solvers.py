"""The solver loop behind all six method variants.

Each method is an anchor window plus a rule for the gradient reference:

  sadmm          window 1   fresh mini-batch gradient
  svrg_admm      window T   v against the window's anchor point
  spider_admm    window q   v against the previous iterate and estimate

At the head of every window the loop draws an anchor batch without
replacement, and that batch's mini-batch gradient at x becomes the reference
(ref_x, ref_grad).  sadmm and spider take it as the row's estimate; svrg's
anchor row also takes an inner step.  An inner step's estimate is
``svrg_grad``, v = grad_I(x) - grad_I(ref_x) + ref_grad, formed with one
X_I^T product: svrg holds the reference for the whole window, and spider
rolls it to (x, v) after every inner step.  One rule, ``adaptive_batch``,
sizes every anchor: the ``_adaptive`` flavors pass it the mean squared step
of the previous window (for sadmm, the last step) as tau, and the static ones
pass tau = 0, which leaves the cap; a static run forms no step norms.  Inner
steps draw ``b`` indices with replacement from an independent stream, so
static and adaptive runs with the same seed see the same inner randomness.
Every iteration applies the kernel updates in the fixed order y -> x -> dual.

Only evaluation rows touch the whole data set: one pass there gives the
objective and the stationarity residual together.  Every other row costs its
batch plus the O(nnz(A)) kernel products: the loop carries A x from each dual
step into the next y and x steps, so a row forms one ``matvec`` and one
``rmatvec``.  The row that stops a run is always an evaluation row.

Each row tests only lam_{k+1} for non-finite values: a non-finite y_{k+1}
enters it directly, and a non-finite x_{k+1} through A x_{k+1}, since every
column of A holds a stored entry.  When the test fails, the error names the
first non-finite block in update order.

An evaluation's pass also yields the exact gradient at x_{k+1}.  When the
next row draws a whole-set anchor at that same point, ``minibatch_grad``
takes that gradient instead of a second pass; a whole-set anchor after an
unevaluated row makes its own pass in index order, without sorting the draw.
The draw still consumes the anchor stream, and both ledgers are charged as if
each side had made its own pass.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError
from .estimators import OracleTally, minibatch_grad, sample_indices, svrg_grad
from .kernel import AdmmParams, SolverState, dual_step, stationarity, x_step, y_step
from .problems import ProblemInstance
from .schedulers import SchedulerParams, adaptive_batch

__all__ = [
    "METHODS",
    "SolverConfig",
    "TraceRecord",
    "RunResult",
    "run",
]

METHODS = (
    "sadmm",
    "sadmm_adaptive",
    "svrg_admm",
    "svrg_admm_adaptive",
    "spider_admm",
    "spider_admm_adaptive",
)


@dataclass(frozen=True)
class SolverConfig:
    """Everything a single solver run needs besides the problem itself.

    max_iters bounds the iteration count; oracle_budget (solver component
    gradients) and target_epsilon (stationarity total) stop a run early when
    set.  eval_stride controls how often the objective and stationarity are
    measured: every that many iterations, or once per data pass when None.
    """

    method: str
    admm: AdmmParams
    sched: SchedulerParams
    max_iters: int
    b: int = 1
    T: int = 1
    q: int = 1
    seed: int = 0
    oracle_budget: Optional[int] = None
    target_epsilon: Optional[float] = None
    eval_stride: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        for name in ("b", "T", "q"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.oracle_budget is not None and self.oracle_budget < 1:
            raise ValueError("oracle_budget must be positive when set")
        if self.target_epsilon is not None and not self.target_epsilon > 0.0:
            raise ValueError("target_epsilon must be positive when set")
        if self.eval_stride is not None and self.eval_stride < 1:
            raise ValueError("eval_stride must be at least 1 when set")


@dataclass(frozen=True)
class TraceRecord:
    """One completed iteration.

    iter is 1-based; epoch is the anchor-window ordinal (0 for sadmm);
    batch_size is the scheduled draw of the step (anchor size on epoch-head
    and refresh rows); oracle_calls is cumulative solver cost; objective and
    stationarity are present only on evaluation rows, test_objective only
    there and when a held-out evaluator was attached.
    """

    iter: int
    epoch: int
    batch_size: int
    oracle_calls: int
    objective: Optional[float]
    stationarity: Optional[float]
    time_ms: float
    test_objective: Optional[float] = None


@dataclass
class RunResult:
    """What a run returns: its TraceRecord rows in order and its final state.

    state.k is the last completed iteration and state.tally the run's oracle
    ledger, solver and evaluation calls kept apart.
    """

    trace: list
    state: SolverState


@dataclass
class StepInfo:
    """Snapshot of one update handed to an optional step monitor."""

    k: int
    v: np.ndarray
    x_old: np.ndarray
    y_new: np.ndarray
    x_new: np.ndarray
    lam_new: np.ndarray


def _diverged(block, row, batch_size, x_old, x_new, last_stationarity, trace, tally):
    """Build the DivergenceError for a non-finite ``block`` on ``row``."""
    with np.errstate(all="ignore"):
        dx = x_new - x_old
        dx_sq = float(dx @ dx)
    last_text = "none" if last_stationarity is None else f"{last_stationarity:.6g}"
    what = "evaluation" if block == "stationarity" else "iterate"
    return DivergenceError(
        f"non-finite {what} at iteration {row}: block {block} "
        f"(batch size {batch_size}, ||dx||^2 = {dx_sq:.6g}, "
        f"last finite stationarity {last_text})",
        trace=trace,
        tally=tally,
        block=block,
        row=row,
        batch_size=batch_size,
        dx_sq=dx_sq,
        last_stationarity=last_stationarity,
    )


# the SolverConfig field holding the anchor window, per base method; sadmm's
# window is 1 and its epoch column stays 0
_KINDS = {"sadmm": None, "svrg_admm": "T", "spider_admm": "q"}


def run(
    p: ProblemInstance,
    cfg: SolverConfig,
    test_objective: Optional[Callable] = None,
    step_monitor: Optional[Callable] = None,
) -> RunResult:
    """Run cfg.method: its reference rule over anchor windows of its size."""
    base = cfg.method.removesuffix("_adaptive")
    window_field = _KINDS[base]
    adaptive = base != cfg.method
    window = getattr(cfg, window_field) if window_field else 1
    sp, admm, A = cfg.sched, cfg.admm, p.constraint
    tally = OracleTally()
    state = SolverState(x=np.zeros(A.d1), y=np.zeros(A.m), lam=np.zeros(A.m), tally=tally)
    # ax is A x at the current x (x_0 = 0), and full_grad the exact gradient
    # there when the last row was evaluated, else None
    ax, full_grad = np.zeros(A.m), None
    last_stationarity = None
    trace = []
    # without eval_stride, a row is evaluated once solver calls reach
    # next_pass, which then moves to the first multiple of n above them
    next_pass = p.n
    # the variance-reduced reference point and its gradient estimate
    ref_x = ref_grad = None
    t0 = time.perf_counter()
    anchor_ss, inner_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_anchor, rng_inner = np.random.default_rng(anchor_ss), np.random.default_rng(inner_ss)
    # tau is the mean squared step of the last closed window, window_sum that
    # of the open one; only the adaptive methods keep them.  sadmm's first
    # decision reads 0.0 (no step yet), so it takes the cap, and the static
    # methods read 0.0 at every anchor
    tau = sp.tau_init if adaptive and window_field else 0.0
    window_sum = 0.0
    for k in range(cfg.max_iters):
        row = k + 1
        batch_col = cfg.b
        anchored = k % window == 0
        if anchored:
            N = adaptive_batch(sp, tau)
            anchor = sample_indices(p.n, N, "without_replacement", rng_anchor)
            ref_x, ref_grad = state.x, minibatch_grad(p, state.x, anchor, tally, full_grad)
            v, batch_col = ref_grad, N
        # svrg's anchor row also takes an inner step, against the anchor it just set
        if not anchored or base == "svrg_admm":
            batch = sample_indices(p.n, cfg.b, "with_replacement", rng_inner)
            v = svrg_grad(p, state.x, batch, ref_x, ref_grad, tally)
            if base == "spider_admm":
                ref_x, ref_grad = state.x, v  # spider rolls the reference every step

        x_old = state.x
        y_new = y_step(p, admm, x_old, state.lam, ax=ax)
        x_new = x_step(p, admm, x_old, y_new, state.lam, v, ax=ax)
        ax = A.matvec(x_new)
        lam_new = dual_step(p, admm, x_new, y_new, state.lam, ax=ax)
        # a non-finite y or x reaches lam through A x - y, so one test covers
        # all three; only a failure looks for the first bad block
        if not np.isfinite(lam_new).all():
            block = next(
                name
                for name, arr in (("y", y_new), ("x", x_new), ("lam", lam_new))
                if not np.isfinite(arr).all()
            )
            raise _diverged(block, row, batch_col, x_old, x_new, last_stationarity, trace, tally)
        if step_monitor is not None:
            step_monitor(
                StepInfo(k=k, v=v, x_old=x_old, y_new=y_new, x_new=x_new, lam_new=lam_new)
            )
        state.x, state.y, state.lam, state.k = x_new, y_new, lam_new, row
        full_grad = None

        over_budget = cfg.oracle_budget is not None and tally.solver_calls >= cfg.oracle_budget
        if cfg.eval_stride is not None:
            due = row % cfg.eval_stride == 0
        else:
            due = tally.solver_calls >= next_pass
        obj = stat_total = test_val = None
        if due or row >= cfg.max_iters or over_budget:
            next_pass = (tally.solver_calls // p.n + 1) * p.n
            report = stationarity(p, state)
            tally.eval_calls += p.n
            obj, stat_total = report.objective, report.total
            if not (np.isfinite(obj) and np.isfinite(stat_total)):
                raise _diverged(
                    "stationarity", row, batch_col, x_old, x_new, last_stationarity, trace, tally
                )
            full_grad, last_stationarity = report.grad, stat_total
            if test_objective is not None:
                test_val = test_objective(x_new)
        trace.append(
            TraceRecord(
                iter=row,
                epoch=k // window + 1 if window_field else 0,
                batch_size=batch_col,
                oracle_calls=tally.solver_calls,
                objective=obj,
                stationarity=stat_total,
                time_ms=(time.perf_counter() - t0) * 1e3,
                test_objective=test_val,
            )
        )

        if adaptive:
            dx = x_new - x_old
            window_sum += float(dx @ dx) / window
            if row % window == 0:
                tau, window_sum = window_sum, 0.0
        if over_budget or (
            cfg.target_epsilon is not None
            and stat_total is not None
            and stat_total <= cfg.target_epsilon
        ):
            break
    return RunResult(trace=trace, state=state)
