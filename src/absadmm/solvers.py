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
batch plus the O(nnz(A)) kernel products: the loop holds the iterate and
A x, forms A x_{k+1} once for the dual step and hands it on to the next y and
x steps and to an evaluation, so a row forms one ``matvec`` and one
``rmatvec``, and an evaluation adds one ``rmatvec``.  The row that stops a run
is always an evaluation row.

Divergence is a stop reason like the others.  Each row tests only lam_{k+1}
for non-finite values: a non-finite y_{k+1} enters it directly, and a
non-finite x_{k+1} through A x_{k+1}, since every column of A holds a stored
entry.  An evaluation tests its objective and stationarity.  When a test
fails, the run stops as "diverged" before the row is written, and its
``Divergence`` names the first non-finite block in update order.

An evaluation's pass also yields the exact gradient at x_{k+1}.  When the
next row draws a whole-set anchor at that same point, ``minibatch_grad``
takes that gradient instead of a second pass; a whole-set anchor after an
unevaluated row makes its own pass in index order, without sorting the draw.
The draw still consumes the anchor stream, and both ledgers are charged as if
each side had made its own pass.

The loop alone keeps the oracle ledger: an anchor of N rows charges N solver
calls, an inner step 2b, and an evaluation n evaluation calls.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .estimators import minibatch_grad, sample_indices, svrg_grad
from .kernel import AdmmParams, StationarityReport, dual_step, stationarity, x_step, y_step
from .problems import ProblemInstance
from .schedulers import SchedulerParams, adaptive_batch

__all__ = [
    "METHODS",
    "SolverConfig",
    "TraceRecord",
    "RunResult",
    "Divergence",
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


@dataclass(frozen=True)
class Divergence:
    """Where a diverged run broke down: ``block`` is the first non-finite block
    in update order ("y", "x" or "lam"), or "stationarity" when the iterates
    are finite but the row's evaluated objective or stationarity is not;
    ``row`` is the 1-based iteration, ``batch_size`` that row's scheduled
    draw, ``dx_sq`` its squared step ||x_{k+1} - x_k||^2, and
    ``last_stationarity`` the last finite stationarity evaluated (None before
    there is one).  ``str()`` gives all five in one line."""

    block: str
    row: int
    batch_size: int
    dx_sq: float
    last_stationarity: Optional[float]

    def __str__(self):
        last = "none" if self.last_stationarity is None else f"{self.last_stationarity:.6g}"
        what = "evaluation" if self.block == "stationarity" else "iterate"
        return (
            f"non-finite {what} at iteration {self.row}: block {self.block} "
            f"(batch size {self.batch_size}, ||dx||^2 = {self.dx_sq:.6g}, "
            f"last finite stationarity {last})"
        )


@dataclass
class RunResult:
    """What a run returns: its TraceRecord rows in order, the final iterate
    (x, y, lam), the run's oracle ledger (``solver_calls`` charged to the
    method, ``eval_calls`` to its evaluations), ``final``, the
    StationarityReport of the final iterate (of x_0 when max_iters is 0,
    charged n evaluation calls), ``stop``, why the run ended ("target",
    "oracle_budget", "max_iters" or "diverged"; the target wins on a row that
    meets it and stops for another reason), ``divergence``, the Divergence of
    a diverged run and None otherwise, ``cap_hits``, how many of the trace's
    rows drew an anchor at the static cap ``adaptive_batch(sched, 0.0)``,
    and ``eval_ms``, the wall time spent in evaluations, the held-out
    objective included.

    A diverged run's trace ends before the row that broke down, its ledger
    and ``eval_ms`` include that row's charges (a non-finite evaluation
    included), its ``final`` is None, and (x, y, lam) is its last finite
    iterate.
    """

    trace: list
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    solver_calls: int
    eval_calls: int
    final: Optional[StationarityReport]
    stop: str
    divergence: Optional[Divergence]
    cap_hits: int
    eval_ms: float


@dataclass
class StepInfo:
    """Snapshot of one update handed to an optional step monitor."""

    k: int
    v: np.ndarray
    x_old: np.ndarray
    y_new: np.ndarray
    x_new: np.ndarray
    lam_new: np.ndarray


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
    solver_calls = eval_calls = cap_hits = 0
    cap = adaptive_batch(sp, 0.0)
    x, y, lam = np.zeros(A.d1), np.zeros(A.m), np.zeros(A.m)
    # ax is A x at the current x (x_0 = 0), and full_grad the exact gradient
    # there when the last row was evaluated, else None
    ax, full_grad = np.zeros(A.m), None
    last_stationarity = stop = None
    trace = []
    # the evaluation clock counts rows under eval_stride and solver calls
    # otherwise; a row is evaluated once it reaches next_eval, which then
    # moves to the first multiple of the period above the clock
    by_row = cfg.eval_stride is not None
    next_eval = period = cfg.eval_stride if by_row else p.n
    # the variance-reduced reference point and its gradient estimate
    ref_x = ref_grad = None
    t0 = time.perf_counter()
    eval_s = 0.0
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
            ref_x, ref_grad = x, minibatch_grad(p, x, anchor, full_grad)
            v, batch_col = ref_grad, N
            solver_calls += N
        # svrg's anchor row also takes an inner step, against the anchor it just set
        if not anchored or base == "svrg_admm":
            batch = sample_indices(p.n, cfg.b, "with_replacement", rng_inner)
            v = svrg_grad(p, x, batch, ref_x, ref_grad)
            solver_calls += 2 * cfg.b
            if base == "spider_admm":
                ref_x, ref_grad = x, v  # spider rolls the reference every step

        x_old = x
        y_new = y_step(p, admm, ax, lam)
        x_new = x_step(p, admm, x_old, ax, y_new, lam, v)
        ax = A.matvec(x_new)
        lam_new = dual_step(admm, ax, y_new, lam)
        # a non-finite y or x reaches lam through A x - y, so one test covers
        # all three; only a divergence looks for the first bad block
        if not np.isfinite(lam_new).all():
            stop = "diverged"
            break
        if step_monitor is not None:
            step_monitor(
                StepInfo(k=k, v=v, x_old=x_old, y_new=y_new, x_new=x_new, lam_new=lam_new)
            )
        x, y, lam = x_new, y_new, lam_new
        full_grad = None

        # the budget or the last row stops the run before the row's
        # evaluation and the target after it, so the stopping row is evaluated
        if cfg.oracle_budget is not None and solver_calls >= cfg.oracle_budget:
            stop = "oracle_budget"
        elif row == cfg.max_iters:
            stop = "max_iters"
        clock = row if by_row else solver_calls
        obj = stat_total = test_val = None
        if clock >= next_eval or stop:
            t_eval = time.perf_counter()
            next_eval = (clock // period + 1) * period
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result diverges
                report = stationarity(p, x, y, lam, ax)
            eval_calls += p.n
            obj, stat_total = report.objective, report.total
            if not (np.isfinite(obj) and np.isfinite(stat_total)):
                eval_s += time.perf_counter() - t_eval
                stop = "diverged"
                break
            full_grad, last_stationarity = report.grad, stat_total
            if test_objective is not None:
                test_val = test_objective(x_new)
            eval_s += time.perf_counter() - t_eval
            if cfg.target_epsilon is not None and stat_total <= cfg.target_epsilon:
                stop = "target"
        trace.append(
            TraceRecord(
                iter=row,
                epoch=k // window + 1 if window_field else 0,
                batch_size=batch_col,
                oracle_calls=solver_calls,
                objective=obj,
                stationarity=stat_total,
                time_ms=(time.perf_counter() - t0) * 1e3,
                test_objective=test_val,
            )
        )
        cap_hits += anchored and batch_col == cap

        if adaptive:
            dx = x_new - x_old
            window_sum += float(dx @ dx) / window
            if row % window == 0:
                tau, window_sum = window_sum, 0.0
        if stop:
            break
    divergence = None
    if stop == "diverged":
        # an evaluation failed when every block of the row is finite
        block = next(
            (
                name
                for name, arr in (("y", y_new), ("x", x_new), ("lam", lam_new))
                if not np.isfinite(arr).all()
            ),
            "stationarity",
        )
        with np.errstate(all="ignore"):
            dx = x_new - x_old
            dx_sq = float(dx @ dx)
        divergence = Divergence(block, row, batch_col, dx_sq, last_stationarity)
        report = None
    elif stop is None:  # max_iters: 0 reports x_0
        t_eval, stop = time.perf_counter(), "max_iters"
        with np.errstate(over="ignore", invalid="ignore"):
            report = stationarity(p, x, y, lam, ax)
        eval_calls += p.n
        eval_s += time.perf_counter() - t_eval
    return RunResult(
        trace=trace, x=x, y=y, lam=lam, solver_calls=solver_calls, eval_calls=eval_calls,
        final=report, stop=stop, divergence=divergence, cap_hits=cap_hits, eval_ms=eval_s * 1e3,
    )
