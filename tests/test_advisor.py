import dataclasses
import math

import numpy as np
import pytest

from absadmm.advisor import (
    advise,
    estimate_L,
    feasibility_at,
    metric_eigenvalue_range,
    sadmm_feasibility,
    spider_preset,
    svrg_preset,
)
from absadmm.datasets import Dataset
from absadmm.estimators import estimate_sigma2
from absadmm.kernel import make_admm_params
from absadmm.problems import (
    ConstraintSpec,
    NonsmoothSpec,
    ProblemInstance,
    build_difference_matrix,
    build_fused_logistic,
)
from absadmm.schedulers import SchedulerParams
from absadmm.solvers import SolverConfig, run


@pytest.fixture
def rownorm4():
    feats = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, -1.0], [-1.0, 0.0]])
    ds = Dataset(features=feats, labels=np.array([1.0, -1.0, 1.0, -1.0]))
    return build_fused_logistic(ds, 0.1)


def test_estimate_L_logistic(rownorm4):
    assert estimate_L(rownorm4) == 0.25 * 4.0  # curvature 1/4 at the max row


def test_estimate_L_sigmoid_with_ridge(rownorm4):
    p = dataclasses.replace(rownorm4, loss="sigmoid", ridge=0.1)
    assert estimate_L(p) == pytest.approx(0.4849001794597505, rel=1e-15)


def test_spectral_bounds_difference_matrix():
    lo, hi = build_difference_matrix(2).spectrum
    assert lo == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-14)
    assert hi == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)


def test_spectral_bounds_matches_dense_eigh():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(12, 7))
    eigs = np.linalg.eigvalsh(A.T @ A)
    rows, cols = np.indices(A.shape).reshape(2, -1)
    lo, hi = ConstraintSpec(rows, cols, A.ravel(), 12, 7).spectrum
    assert lo == pytest.approx(eigs[0], rel=1e-10)
    assert hi == pytest.approx(eigs[-1], rel=1e-10)


def test_spectral_bounds_rank_deficient():
    with pytest.raises(ValueError, match="rank deficient"):
        ConstraintSpec([0, 0, 1, 1], [0, 1, 0, 1], np.ones(4), 2, 2)


def test_metric_range_default_r_floor():
    # r = beta*eta*opnorm + 1 pins zeta_min at exactly 1
    lo, hi = metric_eigenvalue_range(3.0, 0.5, 3.0 * 0.5 * 2.0 + 1.0, 0.4, 2.0)
    assert lo == 1.0
    assert hi == pytest.approx(1.0 + 3.0 * 0.5 * (2.0 - 0.4), rel=1e-15)


def _theta_root_bisect(L, c_tau, varsigma):
    """Independent beta_plus oracle: bisect theta(beta) = 0 directly."""

    def theta(beta):
        bs = beta * varsigma
        return 1.0 + L + 1.0 / c_tau + 20.0 / (c_tau * bs) + 10.0 * L * L / bs - bs

    lo, hi = 1e-9, 1e9
    assert theta(lo) > 0.0 > theta(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if theta(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "L,c_tau,varsigma",
    [(1.0, 1.0, 1.0), (0.5, 2.0, 0.3), (3.0, 0.25, 1.7), (1.0, 9.0, 0.02)],
)
def test_beta_plus_matches_bisection(L, c_tau, varsigma):
    feas = sadmm_feasibility(L, varsigma, 1.0, 1.0, c_tau, beta=1.0, eta=1.0)
    assert feas.beta_plus == pytest.approx(_theta_root_bisect(L, c_tau, varsigma), rel=1e-10)


def test_beta_plus_frozen():
    feas = sadmm_feasibility(1.0, 1.0, 1.0, 1.0, 1.0, beta=8.0, eta=1.0)
    assert feas.beta_plus == pytest.approx((3.0 + math.sqrt(129.0)) / 2.0, rel=1e-14)


def test_feasibility_frozen_case():
    # unit spectrum constraint: zeta_min = zeta_max = 1 for any (beta, eta)
    feas = sadmm_feasibility(1.0, 1.0, 1.0, 1.0, 1.0, beta=8.0, eta=1.0)
    assert feas.theta == pytest.approx(-1.25, abs=1e-15)
    assert feas.delta_eta == pytest.approx(16.5, abs=1e-12)
    assert feas.eta_plus == pytest.approx(0.8248076809271923, rel=1e-14)
    assert feas.rho == pytest.approx(0.375, abs=1e-14)
    assert feas.feasible


def test_feasibility_eta_below_threshold():
    feas = sadmm_feasibility(1.0, 1.0, 1.0, 1.0, 1.0, beta=8.0, eta=0.5)
    assert feas.rho == pytest.approx(-2.375, abs=1e-14)
    assert not feas.feasible


def test_feasibility_beta_below_root():
    # just under beta_plus: theta > 0 yet the rho quadratic still has real
    # roots, so eta_plus is reported -- feasible stays False on the beta test
    feas = sadmm_feasibility(1.0, 1.0, 1.0, 1.0, 1.0, beta=7.0, eta=1.0)
    assert feas.theta > 0.0
    assert feas.eta_plus is not None
    assert not feas.feasible
    # far below: the discriminant goes negative and no eta can rescue rho
    feas = sadmm_feasibility(1.0, 1.0, 1.0, 1.0, 1.0, beta=2.0, eta=1.0)
    assert feas.delta_eta < 0.0
    assert feas.eta_plus is None
    assert not feas.feasible


def test_rho_vanishes_at_eta_plus():
    base = sadmm_feasibility(1.0, 1.0, 1.0, 1.0, 1.0, beta=8.0, eta=1.0)
    at_root = sadmm_feasibility(1.0, 1.0, 1.0, 1.0, 1.0, beta=8.0, eta=base.eta_plus)
    assert at_root.rho == pytest.approx(0.0, abs=1e-12)


def test_rho_theta_identity():
    # -2*rho == 20*zmax^2/(bs*eta^2) - 2*zmin/eta + theta, for arbitrary inputs
    rng = np.random.default_rng(11)
    for _ in range(20):
        L, c_tau, vs = rng.uniform(0.1, 3.0, size=3)
        beta, eta = rng.uniform(0.5, 30.0), rng.uniform(0.05, 5.0)
        zmin = rng.uniform(0.5, 2.0)
        zmax = zmin + rng.uniform(0.0, 3.0)
        f = sadmm_feasibility(L, vs, zmin, zmax, c_tau, beta, eta)
        bs = beta * vs
        lhs = -2.0 * f.rho
        rhs = 20.0 * zmax**2 / (bs * eta * eta) - 2.0 * zmin / eta + f.theta
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_svrg_preset_window_sizes():
    p = svrg_preset(1000, 1.0, 1.0, 1.0)
    assert (p.window, p.b) == (10, 100)
    p = svrg_preset(27, 1.0, 1.0, 1.0)
    assert (p.window, p.b) == (3, 9)  # exact cube: no float-root off-by-one
    p = svrg_preset(100, 1.0, 1.0, 1.0)
    assert (p.window, p.b) == (5, 22)


def test_svrg_preset_root_exactness():
    for n in list(range(1, 200)) + [10**6, 10**6 + 1]:
        p = svrg_preset(n, 1.0, 1.0, 1.0)
        assert (p.window - 1) ** 3 < n <= p.window**3
        assert (p.b - 1) ** 3 < n * n <= p.b**3


def test_spider_preset_window_sizes():
    assert spider_preset(100, 1.0, 1.0, 1.0).window == 10
    assert spider_preset(101, 1.0, 1.0, 1.0).window == 11
    p = spider_preset(100, 1.0, 1.0, 1.0)
    assert p.b == p.window


def test_preset_eta_formulas():
    assert svrg_preset(50, 1.0, 1.0, 1.0).eta == pytest.approx(0.25, rel=1e-15)
    assert spider_preset(50, 1.0, 1.0, 1.0).eta == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_unit_spectrum_presets_verify():
    # varsigma == opnorm keeps zeta_max at 1 through the sweep, so the
    # fixed point is exact and the frozen beta is the last bound
    p = svrg_preset(100, 1.0, 1.0, 1.0)
    assert p.bounds_ok
    assert p.zeta_min == p.zeta_max == 1.0
    assert p.beta == pytest.approx(math.sqrt(430.0), rel=1e-14)
    assert p.r == pytest.approx(p.beta * p.eta + 1.0, rel=1e-14)
    assert p.c_tau == p.c_eps == pytest.approx(9.0 + 12.0 * (3.0 + p.beta**2), rel=1e-14)
    s = spider_preset(100, 1.0, 1.0, 1.0)
    assert s.bounds_ok
    assert s.beta == pytest.approx(math.sqrt(780.0), rel=1e-14)
    assert s.c_tau == pytest.approx(9.0 * (4.0 + s.beta**2), rel=1e-14)


def test_spread_spectrum_presets_flagged():
    # with spread eigenvalues the zeta-dependent bounds outgrow any finite
    # fixed point, which the verify flag reports
    lo, hi = build_difference_matrix(2).spectrum
    for preset in (svrg_preset, spider_preset):
        p = preset(100, 1.0, lo, hi)
        assert not p.bounds_ok


def test_advise_without_pair(rownorm4):
    rep = advise(rownorm4, sigma2=0.125)
    assert rep.sigma2 == 0.125
    assert rep.norm_B == pytest.approx(1.0, rel=1e-12)
    assert rep.L == 1.0
    assert rep.n == 4 and rep.d == 2
    assert rep.svrg.kind == "svrg" and rep.spider.kind == "spider"


def test_feasibility_at_default_metric(rownorm4):
    L = estimate_L(rownorm4)
    varsigma, opnorm = rownorm4.constraint.spectrum
    feas = feasibility_at(make_admm_params(rownorm4.constraint, 8.0, 1.0), 1.0, L, varsigma, opnorm)
    # default-r metric: zeta_min is 1 by construction
    zmin, zmax = metric_eigenvalue_range(8.0, 1.0, 8.0 * opnorm + 1.0, varsigma, opnorm)
    assert zmin == pytest.approx(1.0, abs=1e-12)
    direct = sadmm_feasibility(L, varsigma, zmin, zmax, 1.0, 8.0, 1.0)
    assert feas.rho == direct.rho


@pytest.mark.parametrize(
    "kind, method, ratio",
    [("svrg", "svrg_admm_adaptive", 0.95), ("spider", "spider_admm_adaptive", 0.6)],
)
def test_certified_presets_decrease_stationarity(make_dataset, kind, method, ratio):
    """On A = I (varsigma = opnorm = 1) both presets certify their settings.
    Run at them over a 40-pass budget, every anchor is the whole set, since
    c*sigma2/epsilon is far above n, and the stationarity falls in every seed:
    by about 10% (SVRG) and 50% (SPIDER) over these runs."""
    ds = make_dataset(400, 6, seed=5, flip=0.05)
    d = ds.d
    identity = ConstraintSpec(np.arange(d), np.arange(d), np.ones(d), d, d)
    p = ProblemInstance(ds, "sigmoid", 1e-3, identity, NonsmoothSpec(1e-3))
    sigma2 = estimate_sigma2(p, np.zeros(d), p.n, None)  # exact: every row once
    rep = advise(p, sigma2)
    preset = getattr(rep, kind)
    params = make_admm_params(identity, preset.beta, preset.eta, r=preset.r)
    assert preset.bounds_ok
    assert feasibility_at(params, preset.c_tau, rep.L, rep.varsigma, rep.opnorm).feasible
    sched = SchedulerParams(
        c_tau=preset.c_tau, c_eps=preset.c_eps, epsilon=0.01, sigma2=sigma2, n=p.n, tau_init=0.1
    )
    window = {"T" if kind == "svrg" else "q": preset.window}
    for seed in range(5):
        cfg = SolverConfig(
            method=method,
            admm=params,
            sched=sched,
            max_iters=10**6,
            b=preset.b,
            seed=seed,
            oracle_budget=40 * p.n,
            eval_stride=5,
            **window,
        )
        trace = run(p, cfg).trace
        anchors = [row for k, row in enumerate(trace) if k == 0 or row.epoch != trace[k - 1].epoch]
        assert len(anchors) > 10 and all(row.batch_size == p.n for row in anchors)
        stationarity = [row.stationarity for row in trace if row.stationarity is not None]
        assert stationarity[-1] < ratio * stationarity[0], (seed, stationarity[0], stationarity[-1])
