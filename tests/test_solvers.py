import numpy as np
import pytest

import absadmm.solvers as solvers
from absadmm.errors import DivergenceError
from absadmm.kernel import AdmmParams, make_admm_params
from absadmm.problems import batch_grad_difference, batch_mean_grad, build_fused_logistic
from absadmm.schedulers import SchedulerParams, adaptive_batch
from absadmm.solvers import METHODS, SolverConfig, run


@pytest.fixture
def fused(make_dataset):
    return build_fused_logistic(make_dataset(40, 6, seed=21), 0.02)


def _config(p, method, **kw):
    params = kw.pop("params", None) or make_admm_params(p.constraint, beta=1.0, eta=0.5)
    sched = kw.pop("sched", None) or SchedulerParams(
        c_tau=1.0, c_eps=3.0, epsilon=1e-3, sigma2=0.5, n=p.n, tau_init=1.0
    )
    base = dict(method=method, admm=params, sched=sched, max_iters=30, b=5, T=4, q=4, seed=9)
    base.update(kw)
    return SolverConfig(**base)


def test_config_validation(fused):
    with pytest.raises(ValueError, match="unknown method"):
        _config(fused, "gradient_descent")
    with pytest.raises(ValueError, match="max_iters"):
        _config(fused, "sadmm", max_iters=-1)
    with pytest.raises(ValueError, match="b must"):
        _config(fused, "sadmm", b=0)
    with pytest.raises(ValueError, match="oracle_budget"):
        _config(fused, "sadmm", oracle_budget=0)
    with pytest.raises(ValueError, match="eval_stride"):
        _config(fused, "sadmm", eval_stride=0)


def test_zero_iterations_returns_initial_state(fused):
    res = run(fused, _config(fused, "sadmm", max_iters=0))
    assert res.trace == []
    assert res.state.k == 0
    assert not res.state.x.any()
    assert res.state.tally.solver_calls == 0


@pytest.mark.parametrize("method", METHODS)
def test_reproducible_by_seed(fused, method):
    # keep scheduled batches well below n so the draws actually matter
    sched = SchedulerParams(
        c_tau=1.0, c_eps=1.0, epsilon=1e-2, sigma2=0.02, n=fused.n, tau_init=1.0
    )
    cfg = _config(fused, method, sched=sched)
    a = run(fused, cfg)
    b = run(fused, cfg)
    for ra, rb in zip(a.trace, b.trace):
        assert ra.objective == rb.objective
        assert ra.oracle_calls == rb.oracle_calls
        assert ra.batch_size == rb.batch_size
    assert np.array_equal(a.state.x, b.state.x)
    c = run(fused, _config(fused, method, sched=sched, seed=10))
    assert not np.array_equal(a.state.x, c.state.x)


def test_update_order_y_x_dual(fused, monkeypatch):
    calls = []
    real_y, real_x, real_dual = solvers.y_step, solvers.x_step, solvers.dual_step

    def spy_y(p, params, x, lam, ax):
        out = real_y(p, params, x, lam, ax=ax)
        calls.append(("y", x.copy(), lam.copy(), out.copy()))
        return out

    def spy_x(p, params, x, y_new, lam, v, ax):
        out = real_x(p, params, x, y_new, lam, v, ax=ax)
        calls.append(("x", x.copy(), y_new.copy(), lam.copy(), out.copy()))
        return out

    def spy_dual(p, params, x_new, y_new, lam, ax):
        out = real_dual(p, params, x_new, y_new, lam, ax=ax)
        calls.append(("dual", x_new.copy(), y_new.copy(), lam.copy(), out.copy()))
        return out

    monkeypatch.setattr(solvers, "y_step", spy_y)
    monkeypatch.setattr(solvers, "x_step", spy_x)
    monkeypatch.setattr(solvers, "dual_step", spy_dual)
    run(fused, _config(fused, "sadmm", max_iters=3))

    assert [c[0] for c in calls] == ["y", "x", "dual"] * 3
    for k in range(3):
        y_c, x_c, d_c = calls[3 * k], calls[3 * k + 1], calls[3 * k + 2]
        # x step sees the same x_k and lam_k as the y step, plus the fresh y
        assert np.array_equal(y_c[1], x_c[1])
        assert np.array_equal(y_c[2], x_c[3])
        assert np.array_equal(y_c[3], x_c[2])
        # dual step sees the fresh x and y, and the old lam
        assert np.array_equal(d_c[1], x_c[4])
        assert np.array_equal(d_c[2], y_c[3])
        assert np.array_equal(d_c[3], y_c[2])
        if k > 0:
            # next iteration starts from the previous dual output
            assert np.array_equal(calls[3 * k][2], calls[3 * k - 1][4])


def _degenerate_sched(p):
    # accuracy term far above n forces every scheduled batch to n
    return SchedulerParams(c_tau=1.0, c_eps=1.0, epsilon=1e-12, sigma2=1.0, n=p.n, tau_init=0.0)


def test_vr_methods_degenerate_to_full_batch(fused):
    sched = _degenerate_sched(fused)
    k = 60
    base = run(fused, _config(fused, "sadmm", sched=sched, max_iters=k))
    svrg = run(fused, _config(fused, "svrg_admm", sched=sched, max_iters=k, T=1, b=fused.n))
    spider = run(fused, _config(fused, "spider_admm", sched=sched, max_iters=k, q=1))
    assert np.array_equal(base.state.x, svrg.state.x)
    assert np.array_equal(base.state.x, spider.state.x)
    for ra, rb, rc in zip(base.trace, svrg.trace, spider.trace):
        assert ra.objective == rb.objective == rc.objective


def test_oracle_ledger_sadmm(fused):
    res = run(fused, _config(fused, "sadmm_adaptive", max_iters=25))
    total = 0
    for rec in res.trace:
        total += rec.batch_size
        assert rec.oracle_calls == total
    assert res.state.tally.solver_calls == total


def test_oracle_ledger_svrg(fused):
    T, b = 4, 5
    res = run(fused, _config(fused, "svrg_admm_adaptive", max_iters=22, T=T, b=b))
    total = 0
    for rec in res.trace:
        inner = (rec.iter - 1) % T
        total += (rec.batch_size if inner == 0 else 0) + 2 * b
        assert rec.oracle_calls == total
    assert res.state.tally.solver_calls == total


def test_oracle_ledger_spider(fused):
    q, b = 4, 5
    res = run(fused, _config(fused, "spider_admm_adaptive", max_iters=22, q=q, b=b))
    total = 0
    for rec in res.trace:
        if (rec.iter - 1) % q == 0:
            total += rec.batch_size
        else:
            total += 2 * b
        assert rec.oracle_calls == total
    assert res.state.tally.solver_calls == total


def test_adaptive_batches_never_exceed_static(fused):
    sched = SchedulerParams(c_tau=1.0, c_eps=3.0, epsilon=1e-3, sigma2=0.5, n=fused.n, tau_init=1.0)
    cap = adaptive_batch(sched, 0.0)
    res = run(fused, _config(fused, "sadmm_adaptive", sched=sched, max_iters=40))
    assert all(rec.batch_size <= cap for rec in res.trace)


@pytest.mark.parametrize(
    "method, window",
    [
        ("sadmm_adaptive", 1),
        ("svrg_admm_adaptive", 4),
        ("spider_admm_adaptive", 3),
        ("sadmm", 1),
        ("svrg_admm", 4),
        ("spider_admm", 3),
    ],
)
def test_anchor_sizes_follow_the_window_mean_of_squared_steps(make_dataset, method, window):
    # the pinned-trace problem: anchors fall well below the static cap of 50
    p = build_fused_logistic(make_dataset(80, 5, seed=5), 0.02)
    sp = SchedulerParams(c_tau=0.05, c_eps=1.0, epsilon=0.01, sigma2=0.5, n=p.n, tau_init=0.002)
    cfg = _config(p, method, sched=sp, max_iters=24, b=3, T=window, q=window, seed=7)
    steps = []

    def monitor(info):
        dx = info.x_new - info.x_old
        steps.append(float(dx @ dx))

    trace = run(p, cfg, step_monitor=monitor).trace
    assert len(steps) == len(trace) == 24
    anchors = [rec.batch_size for rec in trace[::window]]
    if not method.endswith("_adaptive"):
        assert anchors == [adaptive_batch(sp, 0.0)] * len(anchors)
        return
    # sadmm's first decision reads 0, the variance-reduced ones tau_init;
    # later decisions read the mean squared step of the previous window
    tau = 0.0 if method == "sadmm_adaptive" else sp.tau_init
    expected = [adaptive_batch(sp, tau)]
    for start in range(0, len(steps) - window, window):
        tau = 0.0
        for s in steps[start : start + window]:
            tau += s / window
        expected.append(adaptive_batch(sp, tau))
    assert anchors == expected
    assert min(anchors) < adaptive_batch(sp, 0.0)


def test_epoch_column(fused):
    res = run(fused, _config(fused, "svrg_admm", max_iters=10, T=4))
    assert [r.epoch for r in res.trace] == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3]
    res = run(fused, _config(fused, "spider_admm", max_iters=6, q=3))
    assert [r.epoch for r in res.trace] == [1, 1, 1, 2, 2, 2]
    res = run(fused, _config(fused, "sadmm", max_iters=3))
    assert [r.epoch for r in res.trace] == [0, 0, 0]


def test_oracle_budget_stop(fused):
    res = run(fused, _config(fused, "sadmm", oracle_budget=100, max_iters=1000))
    assert res.trace[-1].oracle_calls >= 100
    assert len(res.trace) < 1000
    # it stops right after crossing, not at the iteration cap
    assert res.trace[-2].oracle_calls < 100


@pytest.mark.parametrize("method", METHODS)
def test_oracle_budget_stop_row_is_evaluated(fused, method):
    # the stride never falls inside the run, so only the stop evaluates
    res = run(fused, _config(fused, method, oracle_budget=100, max_iters=1000, eval_stride=1000))
    last = res.trace[-1]
    assert last.oracle_calls >= 100 and last.iter < 1000
    assert last.objective is not None and last.stationarity is not None
    assert all(r.objective is None and r.stationarity is None for r in res.trace[:-1])


def test_target_epsilon_stop(fused):
    res = run(fused, _config(fused, "sadmm", target_epsilon=1e9, eval_stride=1, max_iters=50))
    assert len(res.trace) == 1
    assert res.trace[0].stationarity is not None


def test_eval_stride_rows(fused):
    res = run(fused, _config(fused, "sadmm", eval_stride=5, max_iters=12))
    marked = [r.iter for r in res.trace if r.stationarity is not None]
    assert marked == [5, 10, 12]  # stride hits plus the final row


def test_eval_data_pass_mode(fused):
    sched = _degenerate_sched(fused)  # every batch is a full pass
    res = run(fused, _config(fused, "sadmm", sched=sched, max_iters=5))
    assert all(r.stationarity is not None for r in res.trace)


def test_divergence_carries_trace(fused):
    # Without curvature in the smooth term the dual feedback keeps every
    # iterate bounded no matter how bad r is, so add a ridge: the x update
    # then contracts by (1 - eta*ridge/r) per step, expansive here.
    import dataclasses

    ridged = dataclasses.replace(fused, ridge=0.05)
    bad = AdmmParams(beta=5.0, eta=5.0, r=0.05)
    cfg = _config(ridged, "sadmm", params=bad, max_iters=2000)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite") as exc_info:
            run(ridged, cfg)
    trace = exc_info.value.trace
    assert isinstance(trace, list) and len(trace) >= 1
    assert [rec.iter for rec in trace] == list(range(1, len(trace) + 1))
    evaluated = [(r.objective, r.stationarity) for r in trace if r.stationarity is not None]
    assert evaluated and np.isfinite(evaluated).all()


def test_divergence_names_block_row_batch_and_step(fused):
    # a huge step size with a ridge overflows x within a few dozen rows; the
    # objective overflows about halfway there, so an evaluation on every row
    # stops the run at the stationarity block, and none before the end lets
    # it reach x
    import dataclasses

    ridged = dataclasses.replace(fused, ridge=0.05)
    bad = AdmmParams(beta=1.0, eta=1e10, r=1.0)
    cases = [(1, "stationarity", "evaluation"), (2000, "x", "iterate")]
    for eval_stride, block, what in cases:
        cfg = _config(ridged, "sadmm", params=bad, max_iters=2000, eval_stride=eval_stride)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc_info:
                run(ridged, cfg)
        exc = exc_info.value
        evaluated = [r.stationarity for r in exc.trace if r.stationarity is not None]
        assert exc.block == block
        assert exc.row == len(exc.trace) + 1
        assert exc.batch_size == adaptive_batch(cfg.sched, 0.0)
        assert exc.dx_sq == np.inf
        assert exc.last_stationarity == (evaluated[-1] if evaluated else None)
        assert np.isfinite(evaluated).all() and bool(evaluated) == (eval_stride == 1)
        # the ledger holds the bad row's gradients and, at the stationarity
        # block, the charge of the evaluation that came out non-finite
        assert exc.tally.solver_calls == exc.row * exc.batch_size
        assert exc.tally.eval_calls == ridged.n * (len(evaluated) + (block == "stationarity"))
        message = str(exc)
        assert f"non-finite {what} at iteration {exc.row}: block {block}" in message
        assert f"batch size {exc.batch_size}" in message
        assert "||dx||^2 = inf" in message
        last_text = "none" if exc.last_stationarity is None else f"{exc.last_stationarity:.6g}"
        assert f"last finite stationarity {last_text}" in message


@pytest.mark.parametrize("target, block", [("y_step", "y"), ("dual_step", "lam")])
def test_divergence_names_the_first_non_finite_block(fused, monkeypatch, target, block):
    # a NaN from the y step reaches x and lam too, one from the dual step
    # only lam; each row tests lam alone, and the error still names the
    # first non-finite block in update order
    real = getattr(solvers, target)
    calls = []

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(target)
        if len(calls) == 4:
            out = out.copy()
            out[0] = np.nan
        return out

    monkeypatch.setattr(solvers, target, poisoned)
    cfg = _config(fused, "sadmm", max_iters=30, eval_stride=1000)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError) as exc_info:
            run(fused, cfg)
    exc = exc_info.value
    assert (exc.block, exc.row, len(exc.trace)) == (block, 4, 3)
    assert exc.batch_size == adaptive_batch(cfg.sched, 0.0)
    assert np.isfinite(exc.dx_sq) == (block == "lam")
    assert exc.last_stationarity is None
    assert exc.tally.solver_calls == exc.row * exc.batch_size
    assert exc.tally.eval_calls == 0
    assert f"non-finite iterate at iteration 4: block {block}" in str(exc)


def test_non_finite_stationarity_stops_the_run(fused):
    # the iterates stay finite for hundreds of rows after the objective has
    # overflowed (first inf evaluation at row 254, first inf iterate at row
    # 511), so a cap of 300 must end the run as diverged, as a cap of 1000 does
    import dataclasses

    ridged = dataclasses.replace(fused, ridge=0.05)
    bad = AdmmParams(beta=1.0, eta=100.0, r=1.0)
    for max_iters in (300, 1000):
        cfg = _config(ridged, "sadmm", params=bad, max_iters=max_iters, eval_stride=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite evaluation") as exc_info:
                run(ridged, cfg)
        exc = exc_info.value
        assert (exc.block, exc.row, len(exc.trace)) == ("stationarity", 254, 253)
        assert exc.last_stationarity == exc.trace[-1].stationarity
        assert np.isfinite(exc.last_stationarity) and np.isfinite(exc.dx_sq)


def test_monitor_sees_every_step(fused):
    seen = []
    run(fused, _config(fused, "sadmm", max_iters=7), step_monitor=lambda info: seen.append(info.k))
    assert seen == list(range(7))


def test_time_column_monotone(fused):
    res = run(fused, _config(fused, "sadmm", max_iters=10))
    times = [r.time_ms for r in res.trace]
    assert all(b >= a for a, b in zip(times, times[1:]))


# Trace columns of all six methods on one small seeded problem.  The adaptive
# schedules stay below the static cap of 50, tau_init seeds only the
# variance-reduced methods' first anchor, and sadmm's first adaptive batch is
# the cap.  A change of the sampling streams must re-pin these values.
# Per method: epoch, batch_size, oracle_calls per row, objective at the
# evaluation rows 5, 10, 12 (the only rows that carry one).
PINNED = {
    "sadmm": (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50),
        (50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600),
        (0.6381484369520583, 0.5995266376481909, 0.5860354355036532),
    ),
    "sadmm_adaptive": (
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (50, 8, 28, 12, 6, 6, 5, 4, 4, 3, 4, 12),
        (50, 58, 86, 98, 104, 110, 115, 119, 123, 126, 130, 142),
        (0.6446562667609845, 0.6018713502876332, 0.5899431125931633),
    ),
    "svrg_admm": (
        (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3),
        (50, 3, 3, 3, 3, 50, 3, 3, 3, 3, 50, 3),
        (56, 62, 68, 74, 80, 136, 142, 148, 154, 160, 216, 222),
        (0.6349287874687755, 0.5945103975636155, 0.5816434772299993),
    ),
    "svrg_admm_adaptive": (
        (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3),
        (13, 3, 3, 3, 3, 10, 3, 3, 3, 3, 8, 3),
        (19, 25, 31, 37, 43, 59, 65, 71, 77, 83, 97, 103),
        (0.6362034776981516, 0.5865102348139247, 0.5701591502229576),
    ),
    "spider_admm": (
        (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3),
        (50, 3, 3, 3, 50, 3, 3, 3, 50, 3, 3, 3),
        (50, 56, 62, 68, 118, 124, 130, 136, 186, 192, 198, 204),
        (0.635810134478548, 0.5971190076060773, 0.5844510457889984),
    ),
    "spider_admm_adaptive": (
        (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3),
        (13, 3, 3, 3, 10, 3, 3, 3, 7, 3, 3, 3),
        (13, 19, 25, 31, 41, 47, 53, 59, 66, 72, 78, 84),
        (0.633804158393636, 0.5851167059421244, 0.570917581848751),
    ),
}


@pytest.mark.parametrize("method", METHODS)
def test_pinned_trace(make_dataset, method):
    p = build_fused_logistic(make_dataset(80, 5, seed=5), 0.02)
    sched = SchedulerParams(c_tau=0.05, c_eps=1.0, epsilon=0.01, sigma2=0.5, n=p.n, tau_init=0.002)
    params = make_admm_params(p.constraint, beta=1.0, eta=0.5)
    cfg = SolverConfig(
        method=method, admm=params, sched=sched, max_iters=12, b=3, T=5, q=4, seed=7, eval_stride=5
    )
    trace = run(p, cfg).trace
    epoch, batch, calls, objectives = PINNED[method]
    assert [r.iter for r in trace] == list(range(1, 13))
    assert tuple(r.epoch for r in trace) == epoch
    assert tuple(r.batch_size for r in trace) == batch
    assert tuple(r.oracle_calls for r in trace) == calls
    assert [r.iter for r in trace if r.stationarity is not None] == [5, 10, 12]
    assert [r.iter for r in trace if r.objective is not None] == [5, 10, 12]
    got = tuple(r.objective for r in trace if r.iter in (5, 10, 12))
    assert got == pytest.approx(objectives, rel=1e-12, abs=0.0)


# rows evaluated without eval_stride: a row is evaluated once the cumulative
# solver calls reach the next multiple of n = 80, and the last row always
PER_PASS_ROWS = {
    "sadmm": [2, 4, 5, 7, 8, 10, 12],
    "sadmm_adaptive": [3, 12],
    "svrg_admm": [5, 10, 12],
    "svrg_admm_adaptive": [10, 12],
    "spider_admm": [5, 9, 12],
    "spider_admm_adaptive": [12],
}


@pytest.mark.parametrize("method", METHODS)
def test_once_per_pass_evaluation_rows(make_dataset, method):
    p = build_fused_logistic(make_dataset(80, 5, seed=5), 0.02)
    sched = SchedulerParams(c_tau=0.05, c_eps=1.0, epsilon=0.01, sigma2=0.5, n=p.n, tau_init=0.002)
    params = make_admm_params(p.constraint, beta=1.0, eta=0.5)
    cfg = SolverConfig(
        method=method, admm=params, sched=sched, max_iters=12, b=3, T=5, q=4, seed=7
    )
    trace = run(p, cfg).trace
    assert [r.iter for r in trace if r.stationarity is not None] == PER_PASS_ROWS[method]
    assert [r.iter for r in trace if r.objective is not None] == PER_PASS_ROWS[method]
    # the oracle ledger is the pinned one: evaluation does not touch it
    assert tuple(r.oracle_calls for r in trace) == PINNED[method][2]


def test_wide_graph_never_allocates_m_by_m(make_dataset):
    # d = 2000 with a loose threshold gives m ~ 49k; a dense m x m array would
    # take 18 GiB and the dense m x d matrix A alone 750 MiB
    import tracemalloc

    from absadmm.problems import build_graph_guided

    tracemalloc.start()
    try:
        p = build_graph_guided(make_dataset(200, 2000, seed=41), 1e-3, 1e-3, 0.16)
        cfg = _config(p, "spider_admm_adaptive", max_iters=20, b=8, q=5)
        trace = run(p, cfg).trace
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.constraint.m > 40_000
    assert len(trace) == 20 and trace[-1].stationarity is not None
    assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MiB"


@pytest.mark.parametrize("method", METHODS)
def test_only_evaluation_rows_touch_the_whole_set(make_dataset, monkeypatch, method):
    import absadmm.problems as problems
    from absadmm.kernel import SolverState, stationarity
    from absadmm.problems import objective

    p = build_fused_logistic(make_dataset(2000, 5, seed=3), 0.02)
    sched = SchedulerParams(c_tau=0.05, c_eps=1.0, epsilon=0.01, sigma2=0.5, n=p.n, tau_init=0.002)
    log = []  # loss calls with the size of their margin array, and markers

    def spy(name):
        real = getattr(problems, name)

        def record(loss, z):
            log.append((name, z.size))
            return real(loss, z)

        monkeypatch.setattr(problems, name, record)

    spy("_loss_slopes")
    spy("_loss_values")

    def spy_stationarity(p_, w):
        log.append(("eval", w.k))
        report = stationarity(p_, w)
        log.append(("eval_end", w.k))
        return report

    monkeypatch.setattr(solvers, "stationarity", spy_stationarity)
    states = {}

    def monitor(info):  # marks the end of row info.k + 1, before its evaluation
        log.append(("row", info.k + 1))
        states[info.k + 1] = (info.x_new, info.y_new, info.lam_new)

    cfg = _config(p, method, sched=sched, max_iters=30, b=3, T=5, q=4, eval_stride=7)
    trace = run(p, cfg, step_monitor=monitor).trace
    monkeypatch.undo()

    work, evals, pending, inside = {}, {}, [], None
    for kind, value in log:
        if kind == "row":
            work[value], pending = pending, []
        elif kind == "eval":
            inside = evals.setdefault(value, [])
        elif kind == "eval_end":
            inside = None
        else:
            (pending if inside is None else inside).append((kind, value))

    eval_rows = [r.iter for r in trace if r.stationarity is not None]
    assert eval_rows == [7, 14, 21, 28, 30] == sorted(evals)
    for rec in trace:
        row_work = work[rec.iter]
        assert row_work, "every row computes a gradient"
        # gradients of the row's own draws only; an anchor row may add an inner step
        assert max(size for _, size in row_work) <= max(rec.batch_size, cfg.b) < p.n
        assert all(kind == "_loss_slopes" for kind, _ in row_work)
    for row, calls in evals.items():
        # one pass: one loss value and one slope per training row
        assert sorted(calls) == [("_loss_slopes", p.n), ("_loss_values", p.n)]
        rec = trace[row - 1]
        x, y, lam = states[row]
        assert rec.objective == objective(p, x)
        assert rec.stationarity == stationarity(p, SolverState(x=x, y=y, lam=lam)).total
    assert all(r.objective is None for r in trace if r.iter not in evals)


@pytest.mark.parametrize("method", METHODS)
def test_one_constraint_matvec_per_row(make_dataset, monkeypatch, method):
    from absadmm.problems import build_graph_guided

    ds = make_dataset(200, 5, seed=3)
    problems = (build_fused_logistic(ds, 0.02), build_graph_guided(ds, 0.02, 0.01, 0.05))
    assert problems[1].constraint.m > ds.d  # the graph has edge rows
    for p in problems:
        sched = SchedulerParams(
            c_tau=0.05, c_eps=1.0, epsilon=0.01, sigma2=0.5, n=p.n, tau_init=0.002
        )
        log = []
        # the built-in constraints override the products, so spy on their own class
        spec = type(p.constraint)
        for name in ("matvec", "rmatvec"):
            real = getattr(spec, name)

            def product(self, x, real=real, name=name):
                log.append(name)
                return real(self, x)

            monkeypatch.setattr(spec, name, product)
        # the stride never falls inside the run, so only the stopping row
        # evaluates, and its evaluation's products follow the last monitor call
        cfg = _config(p, method, sched=sched, max_iters=12, b=3, T=5, q=4, eval_stride=1000)
        run(p, cfg, step_monitor=lambda info: log.append(info.k + 1))
        rows = [i for i, item in enumerate(log) if isinstance(item, int)]
        assert [log[i] for i in rows] == list(range(1, 13))
        starts = [-1] + rows[:-1]
        products = [sorted(log[start + 1 : end]) for start, end in zip(starts, rows)]
        assert products == [["matvec", "rmatvec"]] * 12
        monkeypatch.undo()


# Objectives of deterministic full-gradient ADMM on the `fused` problem at
# beta 1, eta 0.5; every method below reduces to it.
FULL_BATCH_OBJECTIVES = (
    0.6770500682423986,
    0.6650678473630013,
    0.6540544060047978,
    0.6439251729792813,
    0.6346003878055387,
    0.6259875486659255,
    0.6180276742959768,
    0.6106532099292449,
)


@pytest.mark.parametrize("method", METHODS)
def test_whole_set_anchor_reuses_the_evaluation_gradient(fused, monkeypatch, method):
    import dataclasses

    import absadmm.problems as problems
    from absadmm.kernel import stationarity

    log = []  # whole-set slope passes, and the end of each evaluation
    real_slopes = problems._loss_slopes

    def slopes(loss, z):
        if z.size == fused.n:
            log.append("pass")
        return real_slopes(loss, z)

    def spy_stationarity(p_, w):
        report = stationarity(p_, w)
        log.append("eval")
        return report

    monkeypatch.setattr(problems, "_loss_slopes", slopes)
    monkeypatch.setattr(solvers, "stationarity", spy_stationarity)
    k, b = len(FULL_BATCH_OBJECTIVES), 3
    cfg = _config(
        fused, method, sched=_degenerate_sched(fused), max_iters=k, b=b, T=1, q=1, eval_stride=1
    )
    res = run(fused, cfg)
    monkeypatch.undo()

    assert all(r.batch_size == fused.n for r in res.trace)
    # a row's work runs from the end of the previous evaluation to the end of its own
    ends = [i for i, item in enumerate(log) if item == "eval"]
    passes = [end - start - 1 for start, end in zip([-1] + ends[:-1], ends)]
    assert passes == [2] + [1] * (k - 1)
    # both ledgers are charged as if each side had made its own pass; svrg's
    # inner step on b draws adds 2b per row
    inner = 2 * b if method.startswith("svrg") else 0
    assert res.state.tally.solver_calls == k * (fused.n + inner)
    assert res.state.tally.eval_calls == k * fused.n
    assert tuple(r.objective for r in res.trace) == FULL_BATCH_OBJECTIVES
    # rows after an unevaluated row have no gradient to share and make their own pass
    sparse = run(fused, dataclasses.replace(cfg, eval_stride=3)).trace
    got = [r.objective for r in sparse if r.objective is not None]
    assert got == [FULL_BATCH_OBJECTIVES[i] for i in (2, 5, 7)]


@pytest.mark.parametrize(
    "method", ["svrg_admm", "svrg_admm_adaptive", "spider_admm", "spider_admm_adaptive"]
)
def test_vr_reference_policy(fused, monkeypatch, method):
    # every row's v, recomputed from the row's recorded draws, is bitwise
    # equal: svrg against its window's anchor point, spider against the
    # previous iterate and estimate
    window, draws, rows = 4, [], []
    real_sample = solvers.sample_indices

    def spy_sample(n, size, mode, rng):
        idx = real_sample(n, size, mode, rng)
        draws.append((mode, idx.copy()))
        return idx

    def monitor(info):
        rows.append((info, list(draws)))
        draws.clear()

    monkeypatch.setattr(solvers, "sample_indices", spy_sample)
    run(fused, _config(fused, method, T=window, q=window, max_iters=24), step_monitor=monitor)
    monkeypatch.undo()

    assert len(rows) == 24
    svrg = method.startswith("svrg")
    anchor_sizes = set()
    for info, row_draws in rows:
        x = info.x_old
        modes = [mode for mode, _ in row_draws]
        if info.k % window == 0:
            assert modes == ["without_replacement"] + ["with_replacement"] * svrg
            anchor = np.sort(row_draws[0][1])
            anchor_sizes.add(anchor.size)
            ref_x, ref_grad = x, batch_mean_grad(fused, x, anchor)
            expected = ref_grad
        else:
            assert modes == ["with_replacement"]
        if modes[-1] == "with_replacement":
            diff = batch_grad_difference(fused, x, ref_x, np.sort(row_draws[-1][1]))
            expected = diff + ref_grad
        assert np.array_equal(info.v, expected)
        if not svrg:
            ref_x, ref_grad = x, info.v
    # the static anchors are the whole set, which shares an evaluation's
    # gradient; the adaptive ones also gather partial batches
    assert max(anchor_sizes) == fused.n
    assert (min(anchor_sizes) < fused.n) == method.endswith("_adaptive")
