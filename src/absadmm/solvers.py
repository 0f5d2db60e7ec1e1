"""The solver loop behind all six method variants.

Each method is an estimator kind plus an anchor window:

  sadmm          window 1   fresh mini-batch gradient
  svrg_admm      window T   snapshot gradient against the window's anchor point
  spider_admm    window q   recursive gradient, refreshed at every anchor

At the head of every window the loop draws an anchor batch without
replacement and hands it to the estimator.  One rule, ``adaptive_batch``,
sizes every anchor: the ``_adaptive`` flavors pass it the mean squared step
of the previous window (for sadmm, the last step) as tau, and the static ones
pass tau = 0, which leaves the cap.  Inner steps draw ``b`` indices with
replacement from an independent stream, so static and adaptive runs with the
same seed see the same inner randomness.  Every iteration applies the kernel
updates in the fixed order y -> x -> dual.

Only evaluation rows touch the whole data set: one pass there gives the
objective and the stationarity residual together.  Every other row costs its
batch plus the O(nnz(A)) kernel products: the loop carries A x from each dual
step into the next y and x steps, so a row forms one ``matvec`` and two
``rmatvec``s.  The row that stops a run is always an evaluation row.

An evaluation's pass also yields the exact gradient at x_{k+1}.  When the
next row draws a whole-set anchor at that same point, the estimator takes
that gradient instead of a second pass.  The draw still consumes the anchor
stream, and both ledgers are charged as if each side had made its own pass.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError
from .estimators import (
    FreshGradient,
    OracleTally,
    RecursiveGradient,
    SnapshotGradient,
    sample_indices,
)
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


class _EvalClock:
    """Decides on which rows the objective and stationarity get measured."""

    def __init__(self, stride, n):
        self.stride = stride
        self.n = n
        self.next_calls = n

    def due(self, row: int, solver_calls: int, last: bool) -> bool:
        if last:
            return True
        if self.stride is not None:
            return row % self.stride == 0
        if solver_calls >= self.next_calls:
            self.next_calls = (solver_calls // self.n + 1) * self.n
            return True
        return False


def _init_state(p: ProblemInstance) -> SolverState:
    x0 = np.zeros(p.constraint.d1)
    y0 = np.zeros(p.constraint.m)
    lam0 = np.zeros(p.constraint.m)
    return SolverState(x=x0, y=y0, lam=lam0, tally=OracleTally())


def _streams(seed):
    anchor_ss, inner_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(anchor_ss), np.random.default_rng(inner_ss)


class _Loop:
    """Per-iteration bookkeeping: kernel update, evaluation, trace row, stop flags.

    ``ax`` is A x at the current x, and ``full_grad`` the exact gradient there
    when the last row was evaluated, else None.
    """

    def __init__(self, p, cfg, test_objective, step_monitor):
        self.p = p
        self.cfg = cfg
        self.test_objective = test_objective
        self.monitor = step_monitor
        self.state = _init_state(p)
        self.ax = np.zeros(p.constraint.m)  # A x_0 with x_0 = 0
        self.full_grad = None
        self.last_stationarity = None
        self.trace = []
        self.clock = _EvalClock(cfg.eval_stride, p.n)
        self.t0 = time.perf_counter()
        self.stop = False

    def step(self, v, batch_col: int, epoch_col: int) -> float:
        """Apply one y/x/dual update, record the row, return ||dx||^2."""
        p, cfg, state = self.p, self.cfg, self.state
        y_new = y_step(p, cfg.admm, state.x, state.lam, ax=self.ax)
        x_new = x_step(p, cfg.admm, state.x, y_new, state.lam, v, ax=self.ax)
        ax_new = p.constraint.matvec(x_new)
        lam_new = dual_step(p, cfg.admm, x_new, y_new, state.lam, ax=ax_new)
        row = state.k + 1
        for block, arr in (("y", y_new), ("x", x_new), ("lam", lam_new)):
            if not np.isfinite(arr).all():
                self._diverged(block, row, batch_col, state.x, x_new)
        if self.monitor is not None:
            self.monitor(
                StepInfo(
                    k=state.k,
                    v=v,
                    x_old=state.x,
                    y_new=y_new,
                    x_new=x_new,
                    lam_new=lam_new,
                )
            )
        x_old = state.x
        state.x, state.y, state.lam = x_new, y_new, lam_new
        state.k = row
        self.ax, self.full_grad = ax_new, None

        over_budget = (
            cfg.oracle_budget is not None and state.tally.solver_calls >= cfg.oracle_budget
        )
        last = row >= cfg.max_iters or over_budget
        obj = stat_total = test_val = None
        if self.clock.due(row, state.tally.solver_calls, last):
            report = stationarity(p, state)
            state.tally.eval_calls += p.n
            obj, stat_total = report.objective, report.total
            if not (np.isfinite(obj) and np.isfinite(stat_total)):
                self._diverged("stationarity", row, batch_col, x_old, x_new)
            self.full_grad = report.grad
            self.last_stationarity = stat_total
            if self.test_objective is not None:
                test_val = self.test_objective(state.x)
        self.trace.append(
            TraceRecord(
                iter=row,
                epoch=epoch_col,
                batch_size=batch_col,
                oracle_calls=state.tally.solver_calls,
                objective=obj,
                stationarity=stat_total,
                time_ms=(time.perf_counter() - self.t0) * 1e3,
                test_objective=test_val,
            )
        )
        self.stop = over_budget or (
            cfg.target_epsilon is not None
            and stat_total is not None
            and stat_total <= cfg.target_epsilon
        )
        dx = x_new - x_old
        return float(dx @ dx)

    def _diverged(self, block: str, row: int, batch_size: int, x_old, x_new):
        with np.errstate(all="ignore"):
            dx = x_new - x_old
            dx_sq = float(dx @ dx)
        last = self.last_stationarity
        last_text = "none" if last is None else f"{last:.6g}"
        what = "evaluation" if block == "stationarity" else "iterate"
        raise DivergenceError(
            f"non-finite {what} at iteration {row}: block {block} "
            f"(batch size {batch_size}, ||dx||^2 = {dx_sq:.6g}, "
            f"last finite stationarity {last_text})",
            trace=self.trace,
            block=block,
            row=row,
            batch_size=batch_size,
            dx_sq=dx_sq,
            last_stationarity=last,
        )

    def result(self) -> RunResult:
        return RunResult(trace=self.trace, state=self.state)


# estimator kind and the SolverConfig field holding the anchor window, per
# base method; sadmm's window is 1 and its epoch column stays 0
_KINDS = {
    "sadmm": (FreshGradient, None),
    "svrg_admm": (SnapshotGradient, "T"),
    "spider_admm": (RecursiveGradient, "q"),
}


def run(
    p: ProblemInstance,
    cfg: SolverConfig,
    test_objective: Optional[Callable] = None,
    step_monitor: Optional[Callable] = None,
) -> RunResult:
    """Run cfg.method: its estimator kind over anchor windows of its size."""
    base = cfg.method.removesuffix("_adaptive")
    kind, window_field = _KINDS[base]
    adaptive = base != cfg.method
    window = getattr(cfg, window_field) if window_field else 1
    loop = _Loop(p, cfg, test_objective, step_monitor)
    state = loop.state
    est = kind(p)
    rng_anchor, rng_inner = _streams(cfg.seed)
    sp = cfg.sched
    # tau is the mean squared step of the last closed window, window_sum that
    # of the open one; sadmm's first decision reads 0.0 (no step yet), so it
    # takes the cap, and the static methods read 0.0 at every anchor
    tau = sp.tau_init if window_field else 0.0
    window_sum = 0.0
    for k in range(cfg.max_iters):
        v, batch_col = None, cfg.b
        if k % window == 0:
            N = adaptive_batch(sp, tau if adaptive else 0.0)
            anchor = sample_indices(p.n, N, "without_replacement", rng_anchor)
            v = est.anchor(state.x, anchor, state.tally, loop.full_grad)
            batch_col = N
        if v is None:
            batch = sample_indices(p.n, cfg.b, "with_replacement", rng_inner)
            v = est.step(state.x, batch, state.tally)
        epoch_col = k // window + 1 if window_field else 0
        window_sum += loop.step(v, batch_col=batch_col, epoch_col=epoch_col) / window
        if (k + 1) % window == 0:
            tau, window_sum = window_sum, 0.0
        if loop.stop:
            break
    return loop.result()
