import math

import pytest

from absadmm.schedulers import SchedulerParams, adaptive_batch


def _sp(**kw):
    base = dict(c_tau=1.0, c_eps=3.0, epsilon=1e-3, sigma2=1.0, n=10**6, tau_init=0.0)
    base.update(kw)
    return SchedulerParams(**base)


# the static size is the rule at tau = 0
def test_static_frozen():
    assert adaptive_batch(_sp(), 0.0) == 3000
    assert adaptive_batch(_sp(n=100), 0.0) == 100
    assert adaptive_batch(_sp(sigma2=0.0), 0.0) == 1  # floor at one sample


def test_static_ceil():
    # 2999.2 rounds up
    assert adaptive_batch(_sp(sigma2=2999.2 / 3000.0), 0.0) == 3000


def test_abs_sadmm_frozen():
    # progress term 1*1/0.01 = 100 beats the 3000 cap
    assert adaptive_batch(_sp(), 0.01) == 100
    # zero displacement disables the progress term
    assert adaptive_batch(_sp(), 0.0) == 3000
    assert adaptive_batch(_sp(n=50), 0.0) == 50


def test_abs_sadmm_exact_n_boundary():
    # c_tau*sigma2/tau == n exactly stays at n
    sp = _sp(n=50)
    assert adaptive_batch(sp, 1.0 / 50.0) == 50


def test_abs_sadmm_ceil():
    assert adaptive_batch(_sp(), 1.0 / 99.2) == 100


def test_abs_vr_matches_rule():
    sp = _sp(c_tau=2.0, sigma2=3.0)
    # 2*3/tau vs 3*3/1e-3 = 9000 vs n
    assert adaptive_batch(sp, 0.5) == 12
    assert adaptive_batch(sp, 0.0) == 9000
    assert adaptive_batch(_sp(n=40), 1e-9) == 40


def test_batch_floor():
    assert adaptive_batch(_sp(sigma2=1e-12), 10.0) == 1


def test_scheduler_params_validation():
    with pytest.raises(ValueError):
        _sp(c_tau=0.0)
    with pytest.raises(ValueError):
        _sp(epsilon=0.0)
    with pytest.raises(ValueError):
        _sp(sigma2=-1.0)
    with pytest.raises(ValueError):
        _sp(n=0)
    with pytest.raises(ValueError):
        _sp(tau_init=-0.1)
    # finite constants only: with sigma2 = 0, an infinite one made 0 * inf = NaN
    for name in ("c_tau", "c_eps", "epsilon", "tau_init"):
        with pytest.raises(ValueError, match=f"{name} must be .* finite"):
            _sp(**{name: math.inf})
    with pytest.raises(ValueError):
        _sp(c_eps=math.nan)
    with pytest.raises(ValueError):
        _sp(tau_init=math.nan)
