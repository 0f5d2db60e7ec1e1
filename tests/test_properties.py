"""Kernel invariants over random edge-list constraints.

A constraint here is the graph-guided shape: one row (+1 at p, -1 at q) per
edge of a random multigraph, stacked over the identity, with its triplets
listed in a random order.  The dense A of each example is the oracle.  The
structured products of the two built-in constraints are checked against the
COO products they override.
"""

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from absadmm.datasets import Dataset
from absadmm.kernel import dual_step, make_admm_params, x_step, y_step
from absadmm.problems import (
    ConstraintSpec,
    NonsmoothSpec,
    ProblemInstance,
    build_difference_matrix,
    build_graph_guided,
)
from kernel_reference import metric_apply

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def edge_constraints(draw):
    d = draw(st.integers(1, 9))
    pair = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=3 * d)) if d > 1 else []
    e = len(edges)
    heads = np.array([a for a, _ in edges], dtype=np.intp)
    tails = np.array([b for _, b in edges], dtype=np.intp)
    rows = np.concatenate([np.repeat(np.arange(e), 2), e + np.arange(d)])
    cols = np.concatenate([np.column_stack([heads, tails]).ravel(), np.arange(d)])
    vals = np.concatenate([np.tile([1.0, -1.0], e), np.ones(d)])
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(rows.size)
    return ConstraintSpec(rows[order], cols[order], vals[order], e + d, d)


def _problem(cs, weight):
    ds = Dataset(np.ones((1, cs.d1)), np.ones(1))
    return ProblemInstance(ds, "logistic", 0.0, cs, NonsmoothSpec(weight))


def _vectors(seed, *sizes):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-5.0, 5.0, size) for size in sizes]


@SETTINGS
@given(cs=edge_constraints(), seed=st.integers(0, 2**32 - 1))
def test_products_match_dense(cs, seed):
    x, u = _vectors(seed, cs.d1, cs.m)
    A = cs.A
    assert np.array_equal(cs.matvec(x), A @ x)
    assert np.allclose(cs.rmatvec(u), A.T @ u, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(
    cs=edge_constraints(),
    seed=st.integers(0, 2**32 - 1),
    weight=st.floats(0.0, 3.0),
    beta=st.floats(0.1, 10.0),
)
def test_y_step_is_soft_threshold(cs, seed, weight, beta):
    p = _problem(cs, weight)
    params = make_admm_params(cs, beta=beta, eta=0.5)
    x, lam = _vectors(seed, cs.d1, cs.m)
    v = cs.A @ x - lam / beta
    thr = weight / beta
    expected = np.where(np.abs(v) <= thr, 0.0, v - np.sign(v) * thr)
    assert np.allclose(y_step(p, params, cs.matvec(x), lam), expected, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(
    cs=edge_constraints(),
    seed=st.integers(0, 2**32 - 1),
    beta=st.floats(0.1, 10.0),
    eta=st.floats(0.05, 5.0),
)
def test_dual_gradient_identity(cs, seed, beta, eta):
    # A^T lam_{k+1} = v + (G/eta)(x_{k+1} - x_k) after one y/x/dual update
    p = _problem(cs, 0.5)
    params = make_admm_params(cs, beta=beta, eta=eta)
    x, lam, v = _vectors(seed, cs.d1, cs.m, cs.d1)
    y_new = y_step(p, params, cs.matvec(x), lam)
    x_new = x_step(p, params, x, cs.matvec(x), y_new, lam, v)
    lam_new = dual_step(params, cs.matvec(x_new), y_new, lam)
    lhs = cs.A.T @ lam_new
    gap = lhs - v - metric_apply(p, params, x_new - x)
    assert np.linalg.norm(gap) <= 1e-9 * (1.0 + np.linalg.norm(v) + np.linalg.norm(lhs))


@SETTINGS
@given(cs=edge_constraints(), beta=st.floats(0.1, 10.0), eta=st.floats(0.05, 5.0))
def test_default_metric_dominates_identity(cs, beta, eta):
    A = cs.A
    eigs = np.linalg.eigvalsh(A.T @ A)
    assert np.allclose(cs.spectrum, (eigs[0], eigs[-1]), rtol=1e-12, atol=1e-12)
    params = make_admm_params(cs, beta=beta, eta=eta)
    G = params.r * np.eye(cs.d1) - beta * eta * (A.T @ A)
    # eigvalsh is backward stable, so its rounding scales with ||G|| <= r
    assert np.linalg.eigvalsh(G)[0] >= 1.0 - 1e-12 * params.r


def _assert_products_match_coo(cs, dense, seed):
    """The structured products against the COO ones and the dense A."""
    x, u = _vectors(seed, cs.d1, cs.m)
    assert np.array_equal(cs.A, dense)
    assert np.array_equal(cs.matvec(x), ConstraintSpec.matvec(cs, x))
    coo = ConstraintSpec.rmatvec(cs, u)
    assert np.allclose(cs.rmatvec(u), coo, rtol=1e-12, atol=1e-12)
    assert np.allclose(cs.rmatvec(u), dense.T @ u, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 5, 123])
def test_difference_matrix_products_match_coo(d):
    cs = build_difference_matrix(d)
    assert type(cs) is not ConstraintSpec
    _assert_products_match_coo(cs, np.eye(d) - np.eye(d, k=1), seed=d)


def _incidence(feats, threshold):
    """Dense [G; I] of the graph-guided penalty, one edge row per feature
    pair p < q in row-major order whose |correlation| reaches ``threshold``."""
    d = feats.shape[1]
    corr = np.corrcoef(feats, rowvar=False) if d > 1 else np.ones((1, 1))
    edges = [(p, q) for p in range(d) for q in range(p + 1, d) if abs(corr[p, q]) >= threshold]
    dense = np.zeros((len(edges) + d, d))
    for i, (p, q) in enumerate(edges):
        dense[i, p], dense[i, q] = 1.0, -1.0
    dense[len(edges) :] = np.eye(d)
    return dense


@SETTINGS
@given(
    n=st.integers(3, 30),
    d=st.integers(1, 12),
    threshold=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_graph_products_match_coo(n, d, threshold, seed):
    rng = np.random.default_rng(seed)
    # a shared factor correlates the columns, so most draws have edges
    feats = rng.standard_normal((n, 1)) + 0.7 * rng.standard_normal((n, d))
    ds = Dataset(feats, np.where(rng.random(n) < 0.5, 1.0, -1.0))
    cs = build_graph_guided(ds, 0.1, 0.0, threshold).constraint
    assert type(cs) is not ConstraintSpec
    _assert_products_match_coo(cs, _incidence(feats, threshold), seed)


def test_graph_without_edges_products_match_coo():
    rng = np.random.default_rng(5)
    feats = np.eye(6)[rng.permutation(6)].repeat(3, axis=0)  # pairwise correlation -0.2
    ds = Dataset(feats, np.where(rng.random(18) < 0.5, 1.0, -1.0))
    cs = build_graph_guided(ds, 0.1, 0.0, 0.5).constraint
    assert (cs.m, cs.d1) == (6, 6)
    _assert_products_match_coo(cs, np.eye(6), seed=5)
