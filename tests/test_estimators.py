import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absadmm.datasets import Dataset
from absadmm.estimators import (
    OracleTally,
    estimate_sigma2,
    minibatch_grad,
    sample_indices,
    svrg_grad,
)
from absadmm.problems import (
    ConstraintSpec,
    NonsmoothSpec,
    ProblemInstance,
    batch_mean_grad,
    build_fused_logistic,
    full_gradient,
)


@pytest.fixture
def small(make_dataset):
    return build_fused_logistic(make_dataset(6, 4, seed=13), 0.02)


def test_sample_without_replacement_full_is_permutation():
    rng = np.random.default_rng(0)
    idx = sample_indices(10, 10, "without_replacement", rng)
    assert np.array_equal(np.sort(idx), np.arange(10))


def test_sample_modes_and_errors():
    rng = np.random.default_rng(1)
    idx = sample_indices(5, 3, "without_replacement", rng)
    assert len(set(idx.tolist())) == 3
    idx = sample_indices(5, 12, "with_replacement", rng)
    assert idx.min() >= 0 and idx.max() < 5
    with pytest.raises(ValueError, match="without replacement"):
        sample_indices(5, 6, "without_replacement", rng)
    with pytest.raises(ValueError, match="batch size"):
        sample_indices(5, 0, "with_replacement", rng)
    with pytest.raises(ValueError, match="unknown sampling mode"):
        sample_indices(5, 1, "sobol", rng)


def test_sampling_deterministic_by_seed():
    a = sample_indices(100, 10, "with_replacement", np.random.default_rng(7))
    b = sample_indices(100, 10, "with_replacement", np.random.default_rng(7))
    c = sample_indices(100, 10, "with_replacement", np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_minibatch_order_invariant(small):
    x = np.random.default_rng(2).standard_normal(4)
    batch = np.array([4, 1, 1, 3])
    a = minibatch_grad(small, x, batch, OracleTally())
    b = minibatch_grad(small, x, batch[::-1], OracleTally())
    assert np.array_equal(a, b)


def test_minibatch_tally(small):
    tally = OracleTally()
    minibatch_grad(small, np.zeros(4), np.array([0, 1, 2]), tally)
    assert tally.solver_calls == 3 and tally.eval_calls == 0


def test_singleton_enumeration_unbiased(small):
    # mean of minibatch_grad over all singleton batches == full gradient
    x = np.random.default_rng(3).standard_normal(4)
    avg = np.zeros(4)
    for i in range(small.n):
        avg += minibatch_grad(small, x, np.array([i]), OracleTally())
    avg /= small.n
    assert np.linalg.norm(avg - full_gradient(small, x)) <= 1e-12


def test_full_batch_equals_full_gradient_bitwise(small):
    x = np.random.default_rng(4).standard_normal(4)
    batch = np.random.default_rng(5).permutation(small.n)
    got = minibatch_grad(small, x, batch, OracleTally())
    assert np.array_equal(got, full_gradient(small, x))


def test_whole_set_anchor_without_held_gradient_is_full_gradient(small):
    # a draw of n distinct indices is the whole set: reduced in place, in
    # index order, and charged n
    x = np.random.default_rng(9).standard_normal(4)
    tally = OracleTally()
    got = minibatch_grad(small, x, np.random.default_rng(10).permutation(small.n), tally)
    assert got.tobytes() == full_gradient(small, x).tobytes()
    assert tally.solver_calls == small.n
    held = full_gradient(small, x)
    assert minibatch_grad(small, x, np.arange(small.n), tally, full_grad=held) is held
    assert tally.solver_calls == 2 * small.n


def _anchored(p, x):
    """The full-batch anchor gradient at x, which is exact."""
    return minibatch_grad(p, x, np.arange(p.n), OracleTally())


def test_svrg_grad_unbiased_and_tally(small):
    rng = np.random.default_rng(6)
    x = rng.standard_normal(4)
    snap = rng.standard_normal(4)
    snap_grad = _anchored(small, snap)
    assert np.array_equal(snap_grad, full_gradient(small, snap))
    tally = OracleTally()
    avg = np.zeros(4)
    for i in range(small.n):
        avg += svrg_grad(small, x, np.array([i]), snap, snap_grad, tally)
    avg /= small.n
    assert np.linalg.norm(avg - full_gradient(small, x)) <= 1e-12
    assert tally.solver_calls == 2 * small.n


def test_svrg_exact_cancellation(small):
    # batch terms cancel bitwise when x equals the snapshot
    x = np.random.default_rng(7).standard_normal(4)
    snap_grad = _anchored(small, x)
    v = svrg_grad(small, x.copy(), np.array([2, 2, 5]), x, snap_grad, OracleTally())
    assert np.array_equal(v, snap_grad)
    # with and without ridge, and with a -0.0 in the reference gradient: the
    # zero batch difference is +0.0, so v is ref_grad + 0.0 bit for bit
    for p in (small, dataclasses.replace(small, ridge=0.3)):
        ref_grad = _anchored(p, x)
        ref_grad[1] = -0.0
        v = svrg_grad(p, x.copy(), np.array([2, 2, 5]), x, ref_grad, OracleTally())
        assert v.tobytes() == (ref_grad + 0.0).tobytes()
        assert not np.signbit(v[1])


@settings(max_examples=80, deadline=None)
@given(
    loss=st.sampled_from(["logistic", "sigmoid"]),
    ridge=st.sampled_from([0.0, 0.3]),
    n=st.integers(1, 12),
    d=st.integers(1, 6),
    b=st.integers(1, 8),
    near=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_svrg_grad_is_the_difference_of_two_batch_gradients(loss, ridge, n, d, b, near, seed):
    # one X_I^T product gives what two batch gradients and a subtraction give,
    # up to rounding on the scale of the terms
    rng = np.random.default_rng(seed)
    ds = Dataset(3.0 * rng.standard_normal((n, d)), rng.choice([-1.0, 1.0], n))
    cs = ConstraintSpec(np.arange(d), np.arange(d), np.ones(d), d, d)
    p = ProblemInstance(ds, loss, ridge, cs, NonsmoothSpec(0.0))
    x = 2.0 * rng.standard_normal(d)
    ref_x = x + (1e-6 if near else 2.0) * rng.standard_normal(d)
    ref_grad = rng.standard_normal(d)
    batch = rng.integers(0, n, b)
    v = svrg_grad(p, x, batch, ref_x, ref_grad, OracleTally())
    idx = np.sort(batch)
    g_x, g_ref = batch_mean_grad(p, x, idx), batch_mean_grad(p, ref_x, idx)
    scale = np.abs(g_x) + np.abs(g_ref) + np.abs(ref_grad)
    assert np.all(np.abs(v - (g_x - g_ref + ref_grad)) <= 1e-12 * scale)


def test_spider_recursion_and_state_roll(small):
    # the loop's roll of (ref_x, ref_grad) is checked in
    # test_solvers.py::test_vr_reference_policy
    rng = np.random.default_rng(8)
    x_prev = rng.standard_normal(4)
    x = rng.standard_normal(4)
    v_prev = _anchored(small, x_prev)
    assert np.array_equal(v_prev, full_gradient(small, x_prev))
    tally = OracleTally()
    # conditional mean over singleton batches equals grad(x) - grad(prev) + v_prev
    avg = np.zeros(4)
    for i in range(small.n):
        avg += svrg_grad(small, x, np.array([i]), x_prev, v_prev, tally)
    avg /= small.n
    expected = full_gradient(small, x) - full_gradient(small, x_prev) + v_prev
    assert np.linalg.norm(avg - expected) <= 1e-12
    assert tally.solver_calls == 2 * small.n


def test_estimate_sigma2_population_frozen():
    # two mirrored samples at x=0: gradients are -+0.5, full gradient 0,
    # every deviation has squared norm 0.25
    ds = Dataset(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    cs = ConstraintSpec([0], [0], [1.0], 1, 1)
    p = ProblemInstance(ds, "logistic", 0.0, cs, NonsmoothSpec(0.0))
    rng = np.random.default_rng(0)
    assert estimate_sigma2(p, np.zeros(1), 2, rng) == pytest.approx(0.25, abs=1e-15)
    assert estimate_sigma2(p, np.zeros(1), 100, rng) == pytest.approx(0.25, abs=1e-15)
    assert estimate_sigma2(p, np.zeros(1), 1, rng) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        estimate_sigma2(p, np.zeros(1), 0, rng)


def test_estimate_sigma2_subsample_close(small):
    x0 = np.zeros(4)
    exact = estimate_sigma2(small, x0, small.n, np.random.default_rng(1))
    approx = estimate_sigma2(small, x0, 4, np.random.default_rng(2))
    assert approx > 0.0
    # subsampled value is the mean of a subset of the same deviations
    assert approx <= 4.0 * exact
