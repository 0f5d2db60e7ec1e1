"""End-to-end checks tying the whole solver stack together.

Each test guards one externally meaningful property: the dual/metric update
identity, exact degeneration to the deterministic method, estimator
unbiasedness, gradient and prox correctness against brute force, scheduler
cost accounting, the oracle-cost advantage of adaptive batch sizes, advisor
root-finding, experiment determinism, and convergence on a strongly convex
reference instance.  Tolerances and budgets are stated inline; every test
prints one summary line on success.
"""

import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from absadmm.advisor import estimate_L, sadmm_feasibility, spider_preset, svrg_preset
import absadmm
from absadmm.datasets import Dataset, dump_libsvm
from absadmm.estimators import OracleTally, SnapshotGradient, estimate_sigma2, minibatch_grad
from absadmm.kernel import dual_step, make_admm_params, x_step, y_step
from absadmm.problems import (
    NonsmoothSpec,
    build_fused_logistic,
    build_graph_guided,
    full_gradient,
    prox_g,
    smooth_value_and_gradient,
)
from absadmm.schedulers import SchedulerParams, adaptive_batch
from absadmm.solvers import METHODS, SolverConfig, run
from kernel_reference import metric_apply


def test_dual_gradient_identity_every_variant(make_dataset):
    """A^T lam_{k+1} equals v_k + (G/eta)(x_{k+1} - x_k) at every step.

    The x and dual updates are built so the identity holds by construction;
    1000 iterations of each of the six variants on a 200-sample instance must
    satisfy it to 1e-9 * (1 + ||v_k||), in under 10 seconds.
    """
    start = time.perf_counter()
    p = build_fused_logistic(make_dataset(200, 12, seed=31), 0.03)
    params = make_admm_params(p.constraint, beta=1.2, eta=0.8)
    sched = SchedulerParams(c_tau=1.0, c_eps=1.0, epsilon=0.1, sigma2=0.5, n=p.n, tau_init=0.2)
    A = p.constraint.A
    checks = []

    def monitor(info):
        gap = A.T @ info.lam_new - info.v - metric_apply(p, params, info.x_new - info.x_old)
        err = float(np.linalg.norm(gap))
        assert err <= 1e-9 * (1.0 + float(np.linalg.norm(info.v)))
        checks.append(err)

    for method in METHODS:
        cfg = SolverConfig(
            method=method, admm=params, sched=sched, max_iters=1000, b=3, T=4, q=4, seed=5
        )
        run(p, cfg, step_monitor=monitor)
    elapsed = time.perf_counter() - start
    assert len(checks) == 6 * 1000
    assert elapsed < 10.0
    print(f"PASS dual/gradient identity: 6000 steps, max gap {max(checks):.3e}, {elapsed:.1f}s")


def test_degenerate_variants_match_deterministic_admm(make_dataset):
    """SVRG with T=1, b=N=n and recursive refresh with q=1, N=n reduce exactly.

    Both must match a deterministic full-gradient ADMM loop to 1e-10 per
    coordinate at every one of 500 iterations (bitwise equality is expected:
    sorted full batches make the reductions identical).
    """
    p = build_fused_logistic(make_dataset(60, 8, seed=11), 0.05)
    params = make_admm_params(p.constraint, beta=1.0, eta=0.5)
    # epsilon low enough that the static batch rule returns n everywhere
    sched = SchedulerParams(c_tau=1.0, c_eps=1.0, epsilon=1e-9, sigma2=1.0, n=p.n)
    iters = 500

    def trajectory(method, **kw):
        xs = []
        cfg = SolverConfig(method=method, admm=params, sched=sched, max_iters=iters, seed=2, **kw)
        run(p, cfg, step_monitor=lambda info: xs.append(info.x_new.copy()))
        return np.asarray(xs)

    xs_full = trajectory("sadmm")
    xs_svrg = trajectory("svrg_admm", b=p.n, T=1)
    xs_spider = trajectory("spider_admm", b=p.n, q=1)

    d = p.constraint.d1
    x = np.zeros(d)
    y = np.zeros(d)
    lam = np.zeros(d)
    xs_ref = []
    for _ in range(iters):
        y = y_step(p, params, x, lam)
        x = x_step(p, params, x, y, lam, full_gradient(p, x))
        lam = dual_step(p, params, x, y, lam)
        xs_ref.append(x)
    xs_ref = np.asarray(xs_ref)

    worst = 0.0
    for xs in (xs_full, xs_svrg, xs_spider):
        assert xs.shape == xs_ref.shape
        worst = max(worst, float(np.max(np.abs(xs - xs_ref))))
    assert worst <= 1e-10
    print(f"PASS degeneration: 3 variants x {iters} iters, max coordinate gap {worst:.3e}")


def test_estimators_unbiased_by_enumeration(make_dataset):
    """On n=6 with b=1, averaging over all draws recovers the exact gradient.

    Both the plain mini-batch estimator and the snapshot-anchored one are
    unbiased; enumerating every singleton batch must match the full gradient
    to 1e-12 per coordinate.
    """
    p = build_fused_logistic(make_dataset(6, 3, seed=7), 0.05)
    rng = np.random.default_rng(42)
    x = rng.normal(size=3)
    snap = rng.normal(size=3)
    tally = OracleTally()
    exact = full_gradient(p, x)

    mb = np.mean([minibatch_grad(p, x, [i], tally) for i in range(p.n)], axis=0)
    gap_mb = float(np.max(np.abs(mb - exact)))

    st = SnapshotGradient(p)
    st.anchor(snap, np.arange(p.n), tally)  # full-batch anchor: exact snapshot gradient
    sv = np.mean([st.step(x, [i], tally) for i in range(p.n)], axis=0)
    gap_sv = float(np.max(np.abs(sv - exact)))

    assert gap_mb <= 1e-12
    assert gap_sv <= 1e-12
    print(f"PASS estimator enumeration: minibatch gap {gap_mb:.2e}, svrg gap {gap_sv:.2e}")


def test_gradients_match_finite_differences(make_dataset):
    """100 central-difference checks per loss at h=1e-6, relative error 1e-5."""
    problems = {
        "logistic": build_fused_logistic(make_dataset(40, 10, seed=3), 0.02),
        "sigmoid+ridge": build_graph_guided(make_dataset(40, 10, seed=4), 0.02, 0.1, 0.5),
    }
    h = 1e-6
    for name, p in problems.items():
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(100):
            x = 0.7 * rng.normal(size=p.dataset.d)
            u = rng.normal(size=p.dataset.d)
            u /= np.linalg.norm(u)
            f_plus = smooth_value_and_gradient(p, x + h * u)[0]
            f_minus = smooth_value_and_gradient(p, x - h * u)[0]
            fd = (f_plus - f_minus) / (2.0 * h)
            an = float(full_gradient(p, x) @ u)
            worst = max(worst, abs(fd - an) / max(abs(an), 1e-6))
        assert worst <= 1e-5, f"{name}: worst relative error {worst}"
        print(f"PASS finite differences ({name}): 100 checks, worst rel err {worst:.2e}")


def test_prox_matches_grid_search():
    """Soft thresholding agrees with a 1e-6-step grid argmin on 50 problems.

    The grid minimizes t*w*|y| + (y - z)^2 / 2 over [-|z|-1, |z|+1]; the
    closed form must land within 1e-4 of the grid argmin.
    """
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        z = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.05, 2.0))
        w = float(rng.uniform(0.05, 2.0))
        grid = np.arange(-abs(z) - 1.0, abs(z) + 1.0, 1e-6)
        vals = t * w * np.abs(grid) + 0.5 * (grid - z) ** 2
        brute = float(grid[np.argmin(vals)])
        closed = float(prox_g(np.array([z]), t, NonsmoothSpec(weight=w))[0])
        worst = max(worst, abs(brute - closed))
    assert worst <= 1e-4
    print(f"PASS prox vs grid: 50 problems, worst argument gap {worst:.2e}")


def test_adaptive_batches_stay_within_static_budget():
    """Adaptive batch totals never exceed the static rule's, and can crush it.

    The per-step rule is clamp(min(c_tau sigma2 / ||dx||^2, c_eps sigma2 /
    epsilon), n), so each draw is at most the static size and the total over
    K steps is at most K times it.  On an instance tuned so steps stay large
    (small feature scale keeps sampling noise alive, eta/r > 1 amplifies
    movement), the adaptive total must come in at or below 60% of static.
    """
    rng = np.random.default_rng(5)
    w = rng.normal(size=16)
    feats = 0.1 * rng.normal(size=(200, 16))
    labels = np.sign(feats @ w + 0.3 * 0.1 * rng.normal(size=200))
    p = build_fused_logistic(Dataset(features=feats, labels=labels), 0.05)
    sigma2 = estimate_sigma2(p, np.zeros(16), p.n, np.random.default_rng(0))
    sched = SchedulerParams(c_tau=1.0, c_eps=3.0, epsilon=1e-3, sigma2=sigma2, n=p.n)
    params = make_admm_params(p.constraint, beta=0.2, eta=10.0)
    K = 2000
    cfg = SolverConfig(method="sadmm_adaptive", admm=params, sched=sched, max_iters=K, seed=0)
    res = run(p, cfg)
    adaptive_total = res.trace[-1].oracle_calls
    static_total = K * adaptive_batch(sched, 0.0)
    assert adaptive_total <= static_total
    ratio = adaptive_total / static_total
    assert ratio <= 0.6
    print(
        f"PASS adaptive batch budget: {adaptive_total} vs static {static_total} "
        f"(ratio {ratio:.4f})"
    )


def test_adaptive_variants_reach_levels_cheaper():
    """Matched-objective oracle cost, static vs adaptive, three families.

    A 2000 x 68 binary-feature classification surrogate is run for roughly
    twenty data passes per family at (beta=100, c_tau=1) with eta 0.8 / 1.0 /
    0.3 for the mini-batch, snapshot, and recursive families.  At objective
    levels taken 30/50/70% of the way down the static trace, the adaptive
    run's cumulative oracle calls must be no larger in at least 4 of 5 seeds
    per family, all inside 5 minutes.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    n, d = 2000, 68
    col_p = rng.uniform(0.05, 0.9, size=d)
    feats = 0.5 * (rng.random((n, d)) < col_p)
    w = rng.normal(size=d) * (rng.random(d) < 0.4)
    z = feats @ w
    z -= np.median(z)
    labels = np.where(z + 0.25 * rng.normal(size=n) > 0, 1.0, -1.0)
    p = build_fused_logistic(Dataset(features=feats.astype(float), labels=labels), 5.5e-3)
    sigma2 = estimate_sigma2(p, np.zeros(d), min(p.n, 1024), np.random.default_rng(7))
    epsilon = 1e-3
    # first-anchor size from the tau rule at its theoretical ceiling tau0 = q * epsilon
    sched = SchedulerParams(
        c_tau=1.0, c_eps=3.0, epsilon=epsilon, sigma2=sigma2, n=p.n, tau_init=5 * epsilon
    )

    def levels_ok(trace_s, trace_a, fracs=(0.3, 0.5, 0.7)):
        rm_s = np.minimum.accumulate([r.objective for r in trace_s])
        rm_a = np.minimum.accumulate([r.objective for r in trace_a])
        calls_s = [r.oracle_calls for r in trace_s]
        calls_a = [r.oracle_calls for r in trace_a]
        for f in fracs:
            target = rm_s[int(f * (len(rm_s) - 1))]
            if rm_a[-1] > target:
                return False
            if calls_a[int(np.argmax(rm_a <= target))] > calls_s[int(np.argmax(rm_s <= target))]:
                return False
        return True

    families = {
        "sadmm": dict(beta=100.0, eta=0.8, K=40, extra={}),
        "svrg_admm": dict(beta=100.0, eta=1.0, K=67, extra=dict(T=5, b=100)),
        "spider_admm": dict(beta=100.0, eta=0.3, K=70, extra=dict(q=5, b=100)),
    }
    for fam, fam_cfg in families.items():
        params = make_admm_params(p.constraint, fam_cfg["beta"], fam_cfg["eta"])
        wins = 0
        for seed in range(5):
            pair = []
            for method in (fam, fam + "_adaptive"):
                cfg = SolverConfig(
                    method=method,
                    admm=params,
                    sched=sched,
                    max_iters=fam_cfg["K"],
                    seed=seed,
                    eval_stride=1,  # an objective on every row
                    **fam_cfg["extra"],
                )
                pair.append(run(p, cfg).trace)
            wins += levels_ok(*pair)
        assert wins >= 4, f"{fam}: adaptive cheaper in only {wins}/5 seeds"
        print(f"PASS matched-level cost ({fam}): adaptive cheaper in {wins}/5 seeds")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS matched-level cost: total {elapsed:.1f}s")


def test_advisor_root_and_preset_consistency():
    """Penalty root vs bisection, feasible reports vs fresh algebra, presets.

    The closed-form root of Theta(beta) must match 200-step bisection to
    1e-10 relative; every feasible (beta, eta, c_tau) report must show a
    positive descent margin when the quadratic is re-evaluated from scratch;
    window/batch presets must hit the integer-root values.
    """

    def theta(beta, L, vs, c_tau):
        return 1.0 + L + 1.0 / c_tau + 20.0 / (c_tau * beta * vs) + 10.0 * L * L / (beta * vs) - beta * vs

    for L, vs, c_tau in ((1.0, 1.0, 1.0), (2.0, 0.5, 1.0), (0.5, 2.0, 3.0), (1.0, 1.0, 0.25)):
        lo, hi = 1e-9, 1e9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if theta(mid, L, vs, c_tau) > 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        fb = sadmm_feasibility(L, vs, 1.0, 1.0, c_tau, beta=1.0, eta=1.0)
        assert abs(root - fb.beta_plus) <= 1e-10 * fb.beta_plus

    n_feasible = n_infeasible = 0
    for beta in (1.0, 3.0, 8.0, 20.0, 50.0, 200.0):
        for eta in (0.05, 0.1, 0.3, 0.8, 2.0, 5.0, 20.0):
            for c_tau in (0.5, 1.0, 2.0):
                fb = sadmm_feasibility(1.0, 1.0, 1.0, 1.0, c_tau, beta=beta, eta=eta)
                if fb.feasible:
                    n_feasible += 1
                    rho = 1.0 / eta - 10.0 / (beta * eta * eta) - theta(beta, 1.0, 1.0, c_tau) / 2.0
                    assert rho > 0.0
                    assert abs(rho - fb.rho) <= 1e-9 * max(1.0, abs(rho))
                else:
                    n_infeasible += 1
    assert n_feasible >= 5 and n_infeasible >= 5

    sv = svrg_preset(1000, 1.0, 2.0, 1.0, 1.0, 1.0)
    assert (sv.window, sv.b) == (10, 100)
    sp = spider_preset(100, 1.0, 2.0, 1.0, 1.0, 1.0)
    assert (sp.window, sp.b) == (10, 10)
    print(
        f"PASS advisor: 4 roots to 1e-10, {n_feasible} feasible reports re-verified, "
        f"presets (T=10, b=100) and (q=b=10)"
    )


def test_experiment_reruns_byte_identical(tmp_path, make_dataset):
    """Two runs of one experiment config give byte-identical traces.

    Identity is checked after textually dropping the wall-clock column, the
    only field allowed to differ.  Each run is a child process with one BLAS
    thread, the fixed thread count that the README's promise assumes.
    """
    data = tmp_path / "data.libsvm"
    data.write_text(dump_libsvm(make_dataset(24, 4, seed=17)))
    config = tmp_path / "exp.yaml"
    config.write_text(
        f"""
dataset:
  path: {data}
problem:
  kind: fused_logistic
  l1: 0.05
budget:
  max_iters: 8
split:
  enabled: true
seed: 3
repeats: 2
eval_stride: 1
sigma2: 0.01
methods:
  - {{name: sadmm_adaptive, beta: 1.0, eta: 0.5, c_eps: 1.0, epsilon: 0.01}}
  - {{name: svrg_admm_adaptive, beta: 1.0, eta: 0.5, b: 3, T: 2, c_eps: 2.0, epsilon: 0.01, tau_init: 1.0}}
  - {{name: spider_admm, beta: 1.0, eta: 0.5, b: 2, q: 3, c_eps: 1.0, epsilon: 0.02}}
"""
    )

    def strip_time(text):
        lines = text.splitlines()
        cols = lines[0].split(",")
        drop = cols.index("time_ms")
        return "\n".join(",".join(f.split(",")[i] for i in range(len(cols)) if i != drop) for f in lines)

    src = os.path.dirname(os.path.dirname(absadmm.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        argv = ["run", "--config", str(config), "--out", str(out)]
        done = subprocess.run(
            [sys.executable, "-m", "absadmm.cli", *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        outs.append(out)
    traces = sorted(f.name for f in outs[0].glob("trace_*.csv"))
    assert len(traces) == 6
    for name in traces:
        first = strip_time((outs[0] / name).read_text())
        second = strip_time((outs[1] / name).read_text())
        assert first.encode() == second.encode(), f"{name} differs between reruns"
    print(f"PASS determinism: {len(traces)} traces byte-identical after dropping time_ms")


def test_full_batch_solves_strongly_convex_reference(make_dataset):
    """Full-batch variant drives a smooth strongly convex instance to rest.

    With the nonsmooth weight at zero and a ridge term, the stationarity
    residual must fall below 1e-6 within 10000 iterations and the iterate
    must land within 1e-3 of an independent gradient-descent minimizer.
    """
    ds = make_dataset(30, 5, seed=13)
    p = dataclasses.replace(build_fused_logistic(ds, 0.0), ridge=0.05)
    params = make_admm_params(p.constraint, beta=1.0, eta=0.5)
    sched = SchedulerParams(c_tau=1.0, c_eps=1.0, epsilon=1e-9, sigma2=1.0, n=p.n)
    # run past the 1e-6 mark (to 1e-10) so the iterate itself settles: the
    # stationarity residual only bounds ||x - x*|| up to the curvature 0.05
    cfg = SolverConfig(
        method="sadmm",
        admm=params,
        sched=sched,
        max_iters=10000,
        seed=1,
        target_epsilon=1e-10,
        eval_stride=1,
    )
    res = run(p, cfg)
    final = res.trace[-1]
    assert final.stationarity is not None and final.stationarity <= 1e-6
    assert final.iter <= 10000

    x_gd = np.zeros(p.dataset.d)
    step = 1.0 / estimate_L(p)
    for _ in range(20000):
        x_gd = x_gd - step * full_gradient(p, x_gd)
    gap = float(np.max(np.abs(res.state.x - x_gd)))
    assert gap <= 1e-3
    print(
        f"PASS strongly convex reference: stationarity {final.stationarity:.2e} "
        f"at iter {final.iter}, gap to descent minimizer {gap:.2e}"
    )
