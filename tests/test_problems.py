import math

import numpy as np
import pytest

from absadmm.datasets import Dataset
from absadmm.errors import UnsupportedProblemError
from absadmm.problems import (
    ConstraintSpec,
    NonsmoothSpec,
    ProblemInstance,
    batch_mean_grad,
    build_difference_matrix,
    build_fused_logistic,
    build_graph_guided,
    full_gradient,
    objective,
    penalty_value,
    prox_g,
)


def _loss_scalar(loss, z):
    # independent reference implementation used as the oracle
    if loss == "logistic":
        return math.log1p(math.exp(-z)) if z > -30 else -z
    return 1.0 / (1.0 + math.exp(z))


def _component_value(p, i, x):
    z = p.dataset.labels[i] * float(p.dataset.features[i] @ x)
    val = _loss_scalar(p.loss, z)
    return val + 0.5 * p.ridge * float(x @ x)


def _identity(d):
    return ConstraintSpec(np.arange(d), np.arange(d), np.ones(d), d, d)


def test_difference_matrix_frozen():
    assert np.array_equal(build_difference_matrix(2).A, [[1.0, -1.0], [0.0, 1.0]])
    assert np.array_equal(build_difference_matrix(1).A, [[1.0]])
    A = build_difference_matrix(4).A
    assert np.array_equal(np.diag(A), np.ones(4))
    assert np.array_equal(np.diag(A, k=1), -np.ones(3))
    assert np.count_nonzero(A) == 7


def test_difference_matrix_eigs_frozen():
    A = build_difference_matrix(2).A
    eigs = np.linalg.eigvalsh(A.T @ A)
    assert eigs[0] == pytest.approx(0.3819660112501051, abs=1e-14)
    assert eigs[1] == pytest.approx(2.618033988749895, abs=1e-14)


def test_pointwise_loss_values_frozen():
    # single sample a=[1], b=+1, x=[0.5] gives margin z=0.5
    ds = Dataset(np.array([[1.0]]), np.array([1.0]))
    x = np.array([0.5])
    p_log = build_fused_logistic(ds, 0.0)  # l1 weight 0: the objective is the loss alone
    assert objective(p_log, x) == pytest.approx(0.4740769841801067, abs=1e-15)
    assert batch_mean_grad(p_log, x, [0])[0] == pytest.approx(-0.3775406687981454, abs=1e-15)
    cs = _identity(1)
    p_sig = ProblemInstance(ds, "sigmoid", 0.0, cs, NonsmoothSpec(0.0))
    assert objective(p_sig, x) == pytest.approx(0.3775406687981454, abs=1e-15)
    assert batch_mean_grad(p_sig, x, [0])[0] == pytest.approx(-0.2350037122015945, abs=1e-15)


def test_loss_values_match_logaddexp():
    # the logistic value max(-z, 0) + log1p(e^-|z|) against np.logaddexp, and
    # the sigmoid value bit for bit, both on clamped margins
    from absadmm.problems import _loss_values

    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 35.0, -35.0, 1e3, -1e3]
    z = np.concatenate([edges, 10.0 * rng.standard_normal(2000), rng.uniform(-40.0, 40.0, 2000)])
    zc = np.clip(z, -35.0, 35.0)
    ref = np.logaddexp(0.0, -zc)
    got = _loss_values("logistic", z)
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref))
    assert got[0] == math.log(2.0) and got[6] == np.logaddexp(0.0, -35.0)
    assert _loss_values("sigmoid", z).tobytes() == (1.0 / (1.0 + np.exp(zc))).tobytes()


def test_extreme_margins_do_not_overflow():
    ds = Dataset(np.array([[200.0], [-200.0]]), np.array([1.0, 1.0]))
    cs = _identity(1)
    for loss in ("logistic", "sigmoid"):
        p = ProblemInstance(ds, loss, 0.0, cs, NonsmoothSpec(0.0))
        x = np.array([1.0])
        assert np.isfinite(objective(p, x))
        assert np.all(np.isfinite(full_gradient(p, x)))
    # saturated logistic slope is -1 up to clamp error below 1e-15
    p = ProblemInstance(ds, "logistic", 0.0, cs, NonsmoothSpec(0.0))
    g = batch_mean_grad(p, np.array([1.0]), [1])  # z = -200, clamped at -35
    assert g[0] == pytest.approx(200.0, rel=1e-14)


def test_gradients_match_finite_differences(make_dataset):
    ds = make_dataset(12, 5, seed=2)
    rng = np.random.default_rng(0)
    for loss, ridge in (("logistic", 0.0), ("sigmoid", 0.01)):
        cs = _identity(5)
        p = ProblemInstance(ds, loss, ridge, cs, NonsmoothSpec(0.1))
        for _ in range(10):
            i = int(rng.integers(0, p.n))
            x = rng.standard_normal(5)
            g = batch_mean_grad(p, x, [i])
            h = 1e-6
            fd = np.zeros(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                fd[j] = (_component_value(p, i, x + e) - _component_value(p, i, x - e)) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_batch_mean_matches_loop(make_dataset):
    ds = make_dataset(20, 6, seed=3)
    p = build_fused_logistic(ds, 0.05)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6)
    batch = rng.integers(0, 20, size=9)
    direct = sum(batch_mean_grad(p, x, [int(i)]) for i in batch) / len(batch)
    got = batch_mean_grad(p, x, batch)
    assert np.linalg.norm(direct - got) <= 1e-12


def test_objective_matches_direct_sum(make_dataset):
    ds = make_dataset(15, 4, seed=4)
    p = build_fused_logistic(ds, 0.3)
    x = np.random.default_rng(2).standard_normal(4)
    direct = sum(_component_value(p, i, x) for i in range(p.n)) / p.n
    direct += 0.3 * float(np.abs(p.constraint.A @ x).sum())
    assert objective(p, x) == pytest.approx(direct, abs=1e-12)


def test_prox_frozen_and_grid():
    g = NonsmoothSpec(weight=0.5)
    out = prox_g(np.array([3.0, -0.4, 0.0]), 1.0, g)
    assert np.array_equal(out, [2.5, 0.0, 0.0])
    # 1-d grid-search oracle on a few random problems
    rng = np.random.default_rng(9)
    for _ in range(5):
        v = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0.1, 2))
        w = float(rng.uniform(0, 2))
        grid = np.arange(-abs(v) - 1.0, abs(v) + 1.0, 1e-5)
        vals = 0.5 * (grid - v) ** 2 + t * w * np.abs(grid)
        best = grid[np.argmin(vals)]
        got = prox_g(np.array([v]), t, NonsmoothSpec(w))[0]
        assert abs(got - best) <= 1e-4


def test_prox_rejects_bad_t():
    with pytest.raises(ValueError):
        prox_g(np.array([1.0]), 0.0, NonsmoothSpec(1.0))


def test_fused_builder_shapes(tiny_dataset):
    p = build_fused_logistic(tiny_dataset, 0.01)
    d = tiny_dataset.d
    assert p.loss == "logistic" and p.ridge == 0.0
    assert np.array_equal(p.constraint.A, build_difference_matrix(d).A)


def test_graph_builder_edges():
    # columns 0 and 1 identical -> exactly one edge row (+1, -1, 0)
    feats = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, -1.0], [3.0, 3.0, 1.0], [0.5, 0.5, -1.0]])
    ds = Dataset(feats, np.array([1.0, -1.0, 1.0, -1.0]))
    p = build_graph_guided(ds, l1=0.1, l2=0.01, corr_threshold=0.9)
    A = p.constraint.A
    assert A.shape == (4, 3)
    assert np.array_equal(A[0], [1.0, -1.0, 0.0])
    assert np.array_equal(A[1:], np.eye(3))
    assert p.loss == "sigmoid" and p.ridge == 0.01


def test_graph_builder_no_edges():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((30, 4)), np.where(rng.random(30) < 0.5, -1.0, 1.0))
    p = build_graph_guided(ds, l1=0.1, l2=0.0, corr_threshold=1.0)
    assert np.array_equal(p.constraint.A, np.eye(4))


def test_graph_builder_constant_column():
    feats = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    ds = Dataset(feats, np.array([1.0, -1.0, 1.0]))
    p = build_graph_guided(ds, l1=0.1, l2=0.0, corr_threshold=0.5)
    # the constant column correlates with nothing
    assert np.array_equal(p.constraint.A, np.eye(2))


def test_graph_builder_threshold_range():
    ds = Dataset(np.ones((2, 1)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        build_graph_guided(ds, 0.1, 0.0, corr_threshold=0.0)


def test_constraint_validation():
    with pytest.raises(ValueError, match="rank deficient"):
        ConstraintSpec([0, 0, 1, 1], [0, 1, 0, 1], np.ones(4), 2, 2)
    with pytest.raises(ValueError, match="one length"):
        ConstraintSpec([0, 1], [0, 1], np.ones(3), 2, 2)
    with pytest.raises(ValueError, match="outside"):
        ConstraintSpec([0, 2], [0, 1], np.ones(2), 2, 2)
    with pytest.raises(ValueError, match="non-finite"):
        ConstraintSpec([0], [0], [np.inf], 1, 1)


def test_constraint_duplicates_add_up():
    # two entries at (0, 0) sum to 3, so A = diag(3, 1) and A^T A = diag(9, 1)
    cs = ConstraintSpec([0, 1, 0], [0, 1, 0], [1.0, 1.0, 2.0], 2, 2)
    assert np.array_equal(cs.A, [[3.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(cs.matvec(np.array([1.0, 2.0])), [3.0, 2.0])
    assert np.array_equal(cs.rmatvec(np.array([1.0, 2.0])), [3.0, 2.0])
    assert cs.spectrum == pytest.approx((1.0, 9.0), rel=1e-14)


def test_nonsmooth_validation():
    with pytest.raises(UnsupportedProblemError):
        NonsmoothSpec(weight=1.0, kind="group_lasso")
    with pytest.raises(ValueError):
        NonsmoothSpec(weight=-0.5)
    with pytest.raises(ValueError, match="finite"):
        NonsmoothSpec(weight=math.inf)


def test_problem_validation(tiny_dataset):
    cs = _identity(3)
    with pytest.raises(ValueError, match="columns"):
        ProblemInstance(tiny_dataset, "logistic", 0.0, cs, NonsmoothSpec(0.0))
    d = tiny_dataset.d
    with pytest.raises(ValueError, match="ridge must be nonnegative and finite"):
        ProblemInstance(tiny_dataset, "logistic", math.inf, _identity(d), NonsmoothSpec(0.0))
    with pytest.raises(UnsupportedProblemError):
        d = tiny_dataset.d
        ProblemInstance(
            tiny_dataset, "hinge", 0.0,
            _identity(d), NonsmoothSpec(0.0),
        )


def test_penalty_value():
    assert penalty_value(NonsmoothSpec(0.5), np.array([1.0, -2.0, 0.0])) == 1.5


def test_array_holders_compare_by_identity(make_dataset):
    ds = make_dataset(10, 3, seed=1)
    p = build_fused_logistic(ds, 0.1)
    twins = (
        (ds, Dataset(ds.features, ds.labels)),
        (p.constraint, build_difference_matrix(3)),
        (p, build_fused_logistic(ds, 0.1)),
    )
    for a, b in twins:
        assert (a == a) is True and (a != a) is False
        assert (a == b) is False and (a != b) is True
        assert hash(a) == hash(a)
    assert len({ds, p.constraint, p}) == 3


def test_full_set_passes_read_features_in_place(make_dataset):
    import tracemalloc

    from absadmm.kernel import SolverState, stationarity

    p = build_fused_logistic(make_dataset(4000, 50, seed=2), 0.1)
    x = np.full(50, 0.01)
    w = SolverState(x=x, y=np.zeros(50), lam=np.zeros(50))
    passes = {
        "full_gradient": lambda: full_gradient(p, x),
        "batch_mean_grad over 0..n-1": lambda: batch_mean_grad(p, x, np.arange(p.n)),
        "stationarity": lambda: stationarity(p, w),
    }
    for name, fn in passes.items():
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a copy of the rows would take features.nbytes (1.6 MB); n-vectors take 32 kB
        assert peak < p.dataset.features.nbytes / 4, f"{name} peaked at {peak} bytes"
