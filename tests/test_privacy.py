"""Noise specification and privacy calculator tests."""

import math

import pytest

from gossipshield import ConfigError
from gossipshield.privacy import (
    DpBudget,
    NoiseSpec,
    global_epsilon,
    required_variance_local,
    sensitivity_default,
)
from gossipshield.schedules import ConstantSchedule, DecayingSchedule


def test_noise_spec_validation():
    with pytest.raises(ConfigError):
        NoiseSpec(-1.0)
    with pytest.raises(ConfigError):
        NoiseSpec(float("nan"))


def test_sensitivity_default():
    assert sensitivity_default(5.0) == 10.0
    assert sensitivity_default(0.0) == 0.0
    with pytest.raises(ConfigError):
        sensitivity_default(-1.0)


def test_local_requirement_frozen_values():
    delta = 1.25 * math.exp(-1.0)  # makes the log factor exactly 1
    const = ConstantSchedule(1.0)
    assert required_variance_local(1.0, delta, 1.0, const) == pytest.approx(
        2.0, rel=1e-12
    )
    # decaying requirement is the constant one divided by k0^2
    for k0 in (1, 5, 10):
        dec = DecayingSchedule(scale=1.0, k0=k0)
        r_dec = required_variance_local(0.5, 0.1, 2.0, dec)
        r_con = required_variance_local(0.5, 0.1, 2.0, ConstantSchedule(1.0))
        assert r_dec == pytest.approx(r_con / k0**2, rel=1e-12)
    # doubling sensitivity quadruples the requirement
    lo = required_variance_local(0.5, 0.1, 1.0, const)
    hi = required_variance_local(0.5, 0.1, 2.0, const)
    assert hi == pytest.approx(4.0 * lo, rel=1e-12)


def test_local_requirement_monotone():
    sched = ConstantSchedule(0.3)
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    for delta in grid:
        vals = [required_variance_local(e, delta, 1.0, sched) for e in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))  # smaller eps, more noise
    for eps in grid:
        vals = [required_variance_local(eps, d, 1.0, sched) for d in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_local_requirement_range_checks():
    s = ConstantSchedule(1.0)
    # budget of exactly 1 is allowed for epsilon, not for delta
    for bad in (0.0, 1.5, 2.0, -0.5):
        with pytest.raises(ConfigError):
            required_variance_local(bad, 0.5, 1.0, s)
    for bad in (0.0, 1.0, 2.0, -0.5):
        with pytest.raises(ConfigError):
            required_variance_local(0.5, bad, 1.0, s)
    with pytest.raises(ConfigError):
        required_variance_local(0.5, 0.5, 0.0, s)


def test_global_epsilon_frozen_value():
    budget = DpBudget(
        delta=math.exp(-1.0), grad_bound=1.0, total_samples=10, batch_size=10, horizon=1
    )
    rep = global_epsilon(budget, 1.0)
    assert rep.epsilon == pytest.approx(0.2 + 2.0 * math.sqrt(20.0) / 10.0, rel=1e-12)
    assert rep.epsilon == pytest.approx(1.0944271909999159, rel=1e-12)
    assert rep.variance_ok  # 1 >= 6/100


def test_global_epsilon_zero_horizon():
    budget = DpBudget(
        delta=0.5, grad_bound=3.0, total_samples=100, batch_size=10, horizon=0
    )
    assert global_epsilon(budget, 2.0).epsilon == 0.0


def test_global_epsilon_scaling_in_variance():
    budget = DpBudget(
        delta=0.1, grad_bound=1.0, total_samples=50, batch_size=5, horizon=20
    )
    t1 = 20.0 * 20 / (1.0 * 50**2)
    t2 = 2.0 * math.sqrt(20.0 * 20 * math.log(10.0)) / 50.0
    rep1 = global_epsilon(budget, 1.0)
    rep4 = global_epsilon(budget, 4.0)
    assert rep1.epsilon == pytest.approx(t1 + t2, rel=1e-12)
    assert rep4.epsilon == pytest.approx(t1 / 4.0 + t2 / 2.0, rel=1e-12)


def test_global_epsilon_monotone_grid():
    def eps(bg=1.0, q=50, k=20, var=2.0):
        b = DpBudget(delta=0.1, grad_bound=bg, total_samples=q, batch_size=5, horizon=k)
        return global_epsilon(b, var).epsilon

    assert eps(var=1.0) > eps(var=2.0) > eps(var=8.0)
    assert eps(q=20) > eps(q=50) > eps(q=200)
    assert eps(k=5) < eps(k=20) < eps(k=100)
    assert eps(bg=0.5) < eps(bg=1.0) < eps(bg=2.0)


def test_global_epsilon_precondition_flags():
    budget = DpBudget(
        delta=0.1, grad_bound=2.0, total_samples=40, batch_size=2, horizon=10
    )
    # variance below 6 B^2 / Bs^2 = 6: flagged, value still returned
    low = global_epsilon(budget, 1.0)
    assert not low.variance_ok
    assert not low.preconditions_ok
    assert math.isfinite(low.epsilon)
    ok = global_epsilon(budget, 6.0)
    assert ok.variance_ok
    # order cap: -ln(Bs (var Q^2 / (4 B^2) + 1) / Q)
    cap = -math.log(2 * (6.0 * 1600 / 16.0 + 1.0) / 40)
    assert ok.renyi_cap == pytest.approx(cap, rel=1e-12)
    assert ok.renyi_cap_positive == (cap > 0)
    with_order = DpBudget(
        delta=0.1,
        grad_bound=2.0,
        total_samples=40,
        batch_size=2,
        horizon=10,
        renyi_order=cap - 1.0,
    )
    rep = global_epsilon(with_order, 6.0)
    assert rep.renyi_ok is True
    worse = DpBudget(
        delta=0.1,
        grad_bound=2.0,
        total_samples=40,
        batch_size=2,
        horizon=10,
        renyi_order=cap + 1.0,
    )
    assert global_epsilon(worse, 6.0).renyi_ok is False
    assert not global_epsilon(worse, 6.0).preconditions_ok


def test_budget_validation():
    with pytest.raises(ConfigError):
        DpBudget(delta=0.0, grad_bound=1.0, total_samples=10, batch_size=1, horizon=1)
    with pytest.raises(ConfigError):
        DpBudget(delta=0.5, grad_bound=1.0, total_samples=5, batch_size=9, horizon=1)
    for bound in (-1.0, math.nan):
        with pytest.raises(ConfigError, match="gradient bound"):
            DpBudget(delta=0.5, grad_bound=bound, total_samples=5, batch_size=1, horizon=1)
        with pytest.raises(ConfigError, match="gradient bound"):
            sensitivity_default(bound)
    with pytest.raises(ConfigError):
        DpBudget(delta=0.5, grad_bound=1.0, total_samples=5, batch_size=1, horizon=-2)
