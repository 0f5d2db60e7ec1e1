import numpy as np
import pytest

from absadmm.kernel import (
    AdmmParams,
    dual_step,
    make_admm_params,
    stationarity,
    x_step,
    y_step,
)
from absadmm.problems import (
    ConstraintSpec,
    NonsmoothSpec,
    ProblemInstance,
    build_fused_logistic,
    full_gradient,
)

from kernel_reference import metric_apply


@pytest.fixture
def fused(make_dataset):
    ds = make_dataset(25, 6, seed=7)
    return build_fused_logistic(ds, 0.05)


def _metric_matrix(p, params):
    A = p.constraint.A
    d = A.shape[1]
    return params.r * np.eye(d) - params.beta * params.eta * (A.T @ A)


def test_default_r_frozen(fused):
    # d=2 fused problem: ||A^T A|| = (3+sqrt(5))/2, so r = beta*eta*that + 1
    ds2 = fused.dataset
    from absadmm.datasets import Dataset
    from absadmm.problems import build_fused_logistic as bfl

    small = bfl(Dataset(ds2.features[:5, :2], ds2.labels[:5]), 0.0)
    params = make_admm_params(small.constraint, beta=2.0, eta=0.3, r=None)
    expected = 2.0 * 0.3 * 2.618033988749895 + 1.0
    assert params.r == pytest.approx(expected, abs=1e-8)


def test_explicit_r_validated(fused):
    make_admm_params(fused.constraint, 1.0, 1.0, r=100.0)  # above the floor: fine
    with pytest.raises(ValueError, match="below"):
        make_admm_params(fused.constraint, 1.0, 1.0, r=1.0)
    with pytest.raises(ValueError, match="positive"):
        AdmmParams(beta=0.0, eta=1.0, r=1.0)
    for name in ("beta", "eta", "r"):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            AdmmParams(**{"beta": 1.0, "eta": 1.0, "r": 1.0, name: np.inf})


def test_metric_positive_definite(fused):
    params = make_admm_params(fused.constraint, beta=3.0, eta=0.7)
    G = _metric_matrix(fused, params)
    eigs = np.linalg.eigvalsh(G)
    # the default r pins the smallest eigenvalue of G at 1
    assert eigs[0] == pytest.approx(1.0, abs=1e-7)


def test_metric_apply_matches_matrix(fused):
    params = make_admm_params(fused.constraint, beta=2.0, eta=0.5)
    G = _metric_matrix(fused, params)
    rng = np.random.default_rng(0)
    dx = rng.standard_normal(6)
    assert np.allclose(metric_apply(fused, params, dx), G @ dx / params.eta, atol=1e-12)


def test_y_step_is_coordinatewise_prox(fused):
    params = make_admm_params(fused.constraint, beta=2.0, eta=0.5)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6)
    lam = rng.standard_normal(6)
    y = y_step(fused, params, fused.constraint.matvec(x), lam)
    # independent soft-threshold oracle
    v = fused.constraint.A @ x - lam / params.beta
    thr = fused.g.weight / params.beta
    expected = np.where(np.abs(v) <= thr, 0.0, v - np.sign(v) * thr)
    assert np.allclose(y, expected, atol=1e-14)


def test_y_step_zero_weight_is_projection(fused):
    import dataclasses

    p0 = dataclasses.replace(fused, g=NonsmoothSpec(0.0))
    params = make_admm_params(p0.constraint, beta=2.0, eta=0.5)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(6)
    lam = rng.standard_normal(6)
    ax = p0.constraint.matvec(x)
    assert np.array_equal(y_step(p0, params, ax, lam), p0.constraint.A @ x - lam / 2.0)


def test_x_step_solves_surrogate(fused):
    # oracle: minimize v^T(u-x) + (1/2eta)||u-x||_G^2 - lam^T(Au-y)
    #         + (beta/2)||Au-y||^2 by assembling the normal equations
    params = make_admm_params(fused.constraint, beta=2.5, eta=0.4)
    cs = fused.constraint
    rng = np.random.default_rng(3)
    x = rng.standard_normal(6)
    y_new = rng.standard_normal(6)
    lam = rng.standard_normal(6)
    v = rng.standard_normal(6)
    G = _metric_matrix(fused, params)
    H = G / params.eta + params.beta * (cs.A.T @ cs.A)
    rhs = G @ x / params.eta - v + cs.A.T @ lam + params.beta * cs.A.T @ y_new
    oracle = np.linalg.solve(H, rhs)
    got = x_step(fused, params, x, cs.matvec(x), y_new, lam, v)
    assert np.linalg.norm(got - oracle) <= 1e-12
    # one-dimensional sanity case: everything 1, the update lands on 0
    ds1 = ProblemInstance(
        fused.dataset.__class__(np.array([[1.0]]), np.array([1.0])),
        "logistic",
        0.0,
        ConstraintSpec([0], [0], [1.0], 1, 1),
        NonsmoothSpec(0.0),
    )
    p1 = AdmmParams(beta=1.0, eta=1.0, r=2.0)
    one = np.array([1.0])
    out = x_step(ds1, p1, one, one, one, np.array([0.0]), np.array([2.0]))
    assert out[0] == pytest.approx(0.0, abs=1e-15)


def test_dual_identity_one_step(fused):
    # A^T lam_{k+1} = v + (G/eta)(x_{k+1} - x_k) holds exactly by construction
    params = make_admm_params(fused.constraint, beta=1.7, eta=0.6)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6)
    lam = rng.standard_normal(6)
    v = rng.standard_normal(6)
    cs = fused.constraint
    y_new = y_step(fused, params, cs.matvec(x), lam)
    x_new = x_step(fused, params, x, cs.matvec(x), y_new, lam, v)
    lam_new = dual_step(params, cs.matvec(x_new), y_new, lam)
    lhs = fused.constraint.A.T @ lam_new
    rhs = v + metric_apply(fused, params, x_new - x)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_dual_step_frozen(fused):
    params = AdmmParams(beta=2.0, eta=1.0, r=10.0)
    x = np.zeros(6)
    y = np.ones(6)
    lam = np.zeros(6)
    # residual = A*0 - y = -1 everywhere, so lam_new = -beta*(-1) = +2
    ax = fused.constraint.matvec(x)
    assert np.array_equal(dual_step(params, ax, y, lam), 2.0 * np.ones(6))


def test_stationarity_subgrad_frozen(fused):
    import dataclasses

    p = dataclasses.replace(fused, g=NonsmoothSpec(0.5))
    # hand-computed: w=0.5, y=[1,0,-2,0,...], u=-lam=[0.7,0.3,-0.1,-0.9,0,0]
    y = np.array([1.0, 0.0, -2.0, 0.0, 0.0, 0.0])
    lam = -np.array([0.7, 0.3, -0.1, -0.9, 0.0, 0.0])
    x = np.zeros(6)
    rep = stationarity(p, x, y, lam, p.constraint.matvec(x))
    assert rep.subgrad_term == pytest.approx(0.36, abs=1e-12)
    g = full_gradient(p, x)
    gt = g - p.constraint.A.T @ lam
    assert rep.grad_term == pytest.approx(float(gt @ gt), abs=1e-12)
    res = p.constraint.A @ x - y
    assert rep.feas_term == pytest.approx(float(res @ res), abs=1e-12)
    assert rep.total == pytest.approx(rep.grad_term + rep.subgrad_term + rep.feas_term, abs=1e-12)


def test_stationarity_zero_at_unconstrained_optimum():
    # for g = 0 and A = I, a point with grad f = 0, y = x, lam = 0 is stationary
    from absadmm.datasets import Dataset

    ds = Dataset(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    cs = ConstraintSpec([0], [0], [1.0], 1, 1)
    p = ProblemInstance(ds, "logistic", 0.0, cs, NonsmoothSpec(0.0))
    # gradient is odd in x here, so x=0 is the minimizer
    zero = np.zeros(1)
    rep = stationarity(p, zero, zero, zero, cs.matvec(zero))
    assert rep.total == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("kind", ["fused_d2000", "graph_guided"])
def test_default_r_keeps_metric_above_identity(kind):
    # G = r*I - beta*eta*A^T A with the default r has smallest eigenvalue >= 1,
    # checked by an eigensolve of the dense A that the solver never builds
    from absadmm.datasets import Dataset
    from absadmm.problems import build_difference_matrix, build_graph_guided

    if kind == "fused_d2000":
        cs = build_difference_matrix(2000)
    else:
        rng = np.random.default_rng(8)
        latent = rng.standard_normal((100, 30))
        groups = rng.integers(0, 30, size=120)  # feature groups of uneven size
        feats = latent[:, groups] + 0.5 * rng.standard_normal((100, 120))
        cs = build_graph_guided(Dataset(feats, np.ones(100)), 0.1, 0.0, 0.6).constraint
        assert cs.m > 300
    params = make_admm_params(cs, beta=5.0, eta=1.0)
    A = cs.A
    G = params.r * np.eye(cs.d1) - params.beta * params.eta * (A.T @ A)
    assert np.linalg.eigvalsh(G)[0] >= 1.0 - 1e-12
