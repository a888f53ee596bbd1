"""Falsified-message strategy tests."""

import math

import numpy as np
import pytest

from gossipshield import ConfigError, build_network
from gossipshield.attacks import (
    AttackPlan,
    AttackSpec,
    alie_coefficient,
    alie_msg,
    dissensus_msg,
    perturbed_dup_msg,
    sign_flip_msg,
)
from gossipshield.engine import _disjoint_union
from gossipshield.schedules import DecayingSchedule
from gossipshield.topology import Network


def _normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _inverse_cdf_bisect(p, lo=-10.0, hi=10.0):
    # independent oracle for the quantile: bisection on the erf-based CDF
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_sign_flip_examples():
    assert sign_flip_msg(np.array([3.0, 3.0, 3.0]), 1.0) == pytest.approx(-3.0)
    assert sign_flip_msg(np.array([2.0, 4.0]), 0.5) == pytest.approx(-1.5)
    assert sign_flip_msg(np.array([2.0, 4.0]), 0.0) == pytest.approx(0.0)
    vec = sign_flip_msg(np.array([[1.0, 2.0], [3.0, 4.0]]), 1.0)
    assert np.allclose(vec, [-2.0, -3.0])
    with pytest.raises(ValueError):
        sign_flip_msg(np.empty((0,)), 1.0)


def test_alie_coefficient_against_bisection_oracle():
    a = alie_coefficient(100, 90)
    threshold = (100 - 51) / 90
    assert a == pytest.approx(_inverse_cdf_bisect(threshold), abs=1e-9)
    assert a == pytest.approx(0.1116, abs=5e-4)
    # threshold outside (0,1) degrades to zero with a warning
    with pytest.warns(UserWarning):
        assert alie_coefficient(1, 1) == 0.0


def test_alie_msg_examples():
    same = np.full(5, 2.5)
    assert alie_msg(same, 1.3) == pytest.approx(2.5)
    # population std of {0, 2} is 1
    assert alie_msg(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.0)
    two_d = alie_msg(np.array([[0.0, 1.0], [2.0, 1.0]]), 1.0)
    assert np.allclose(two_d, [0.0, 1.0])


def test_dissensus_examples():
    x = np.array([1.5])
    assert dissensus_msg(x, np.array([[1.5]]), np.array([0.25]), 0.25, 2.0) == pytest.approx(1.5)
    out = dissensus_msg(np.array([0.0]), np.array([[1.0]]), np.array([0.25]), 0.25, 1.0)
    assert out == pytest.approx(-1.0)
    assert dissensus_msg(x, np.array([[9.0]]), np.array([0.5]), 0.5, 0.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        dissensus_msg(x, np.array([[1.0]]), np.array([0.25]), 0.0, 1.0)


def test_perturbed_dup_examples():
    assert perturbed_dup_msg(np.array([2.0]), 1.0, 0.0) == pytest.approx(2.0)
    assert perturbed_dup_msg(np.array([2.0]), 1.01, 0.001) == pytest.approx(2.021)
    assert perturbed_dup_msg(np.array([5.0]), 0.0, 0.7) == pytest.approx(0.7)


def test_spec_validation():
    with pytest.raises(ConfigError):
        AttackSpec(kind="meteor")
    with pytest.raises(ConfigError):
        AttackSpec(kind="sign_flip", s_b=-0.5)
    with pytest.raises(ConfigError):
        AttackSpec(kind="sign_flip", s_b=float("nan"))
    AttackSpec(kind="sign_flip", s_b=0.0)  # zero deviation allowed


def test_spec_refuses_nan_parameters():
    # a NaN dissensus scale or duplication perturbation ran to "diverged"
    nan = float("nan")
    for kwargs in (
        {"kind": "dissensus", "d_r": nan},
        {"kind": "perturbed_dup", "p_mult": nan},
        {"kind": "perturbed_dup", "p_add": np.float64(nan)},
    ):
        name = [key for key in kwargs if key != "kind"][0]
        with pytest.raises(ConfigError, match=f"{name}: must be a number other than NaN"):
            AttackSpec(**kwargs)
    # schedules are not numbers and pass unchecked, as do finite values
    AttackSpec(kind="perturbed_dup", p_mult=DecayingSchedule(scale=1.0, k0=10), p_add=0.5)
    AttackSpec(kind="dissensus", d_r=-2.0)


def _delivered(net, messages):
    """Per-edge messages keyed by (receiver, sender)."""
    return {(int(i), int(j)): messages[e] for e, (i, j) in enumerate(zip(net.recv, net.send))}


def _from(net, messages, j):
    """Messages sender j delivered, in receiver order."""
    return messages[net.send == j]


def _plan_messages(net, spec, models, k=0):
    messages = models[net.send]
    plan = AttackPlan(spec, net)
    plan.apply(messages, k, models)
    return messages


def test_plan_silent_and_none():
    net = build_network("complete", 6, byzantine_ids=(1, 4))
    models = np.arange(6.0)
    silent = _plan_messages(net, AttackSpec(kind="silent"), models)
    assert np.array_equal(_from(net, silent, 1), np.zeros(5))
    assert np.array_equal(_from(net, silent, 4), np.zeros(5))
    assert np.array_equal(_from(net, silent, 0), np.full(5, 0.0))
    assert np.array_equal(_from(net, silent, 2), np.full(5, 2.0))
    honest = _plan_messages(net, AttackSpec(kind="none"), models)
    assert np.array_equal(honest, models[net.send])


def test_plan_sign_flip_star():
    net = build_network("star", 6, byzantine_ids=(0,))  # hub is index 5
    models = np.array([10.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    msgs = _plan_messages(net, AttackSpec(kind="sign_flip", s_b=2.0), models)
    out = _delivered(net, msgs)
    # leaf 0's only receiver is the hub, whose reliable closed neighborhood
    # excludes the Byzantine leaf 0
    assert [key for key in out if key[1] == 0] == [(5, 0)]
    assert out[5, 0] == pytest.approx(-2.0 * (1.0 + 2.0 + 3.0 + 4.0 + 5.0) / 5.0)
    # honest edges untouched
    honest = net.send != 0
    assert np.array_equal(msgs[honest], models[net.send[honest]])


def test_plan_alie_broadcasts_population_statistic():
    net = build_network("complete", 5, byzantine_ids=(2,))
    models = np.array([0.0, 2.0, 50.0, 0.0, 2.0])
    spec = AttackSpec(kind="alie")
    plan = AttackPlan(spec, net)
    messages = models[net.send]
    plan.apply(messages, 3, models)
    rel = np.array([0.0, 2.0, 0.0, 2.0])
    expect = rel.mean() - plan._alie_a * rel.std()
    assert np.allclose(_from(net, messages, 2), expect)
    local = AttackSpec(kind="alie", alie_local=True)
    local_msgs = models[net.send]
    AttackPlan(local, net).apply(local_msgs, 3, models)
    # complete graph: local view equals the global reliable view
    assert np.allclose(_from(net, local_msgs, 2), expect)


def test_plan_dissensus_hand_value():
    net = build_network("complete", 4, byzantine_ids=(3,))
    # receiver 0 sees reliable 1, 2 and Byzantine 3, all with weight 1/4
    models = np.array([0.0, 1.0, 1.0, 9.0])
    out = _delivered(net, _plan_messages(net, AttackSpec(kind="dissensus", d_r=1.0), models))
    drift = 0.25 * (1.0 - 0.0) + 0.25 * (1.0 - 0.0)
    assert out[0, 3] == pytest.approx(0.0 - drift / 0.25)
    assert out[1, 3] == pytest.approx(1.0 - (0.25 * (0.0 - 1.0)) / 0.25)


def test_plan_perturbed_dup_round_robin_and_fixed():
    net = build_network("complete", 4, byzantine_ids=(3,))
    models = np.array([10.0, 20.0, 30.0, 0.0])
    spec = AttackSpec(
        kind="perturbed_dup",
        p_mult=1.01,
        p_add=DecayingSchedule(scale=1.0, k0=10),
    )
    plan = AttackPlan(spec, net)
    for k, victim_state in ((0, 10.0), (1, 20.0), (2, 30.0), (3, 10.0)):
        messages = models[net.send]
        plan.apply(messages, k, models)
        assert np.allclose(_from(net, messages, 3), 1.01 * victim_state + 1.0 / (k + 10))
    fixed = AttackSpec(kind="perturbed_dup", p_mult=2.0, p_add=0.5, victim=1)
    msgs = models[net.send]
    AttackPlan(fixed, net).apply(msgs, 7, models)
    assert np.allclose(_from(net, msgs, 3), 2.0 * 20.0 + 0.5)
    with pytest.raises(ConfigError):
        AttackPlan(AttackSpec(kind="perturbed_dup", victim=3), net)


def test_plan_multidim_states():
    net = build_network("complete", 4, byzantine_ids=(3,))
    models = np.arange(8.0).reshape(4, 2)
    messages = _delivered(net, _plan_messages(net, AttackSpec(kind="sign_flip", s_b=1.0), models))
    expect = -models[:3].mean(axis=0)
    assert np.allclose(messages[0, 3], expect)
    d_msgs = _delivered(net, _plan_messages(net, AttackSpec(kind="dissensus", d_r=0.5), models))
    drift0 = 0.25 * (models[1] - models[0]) + 0.25 * (models[2] - models[0])
    assert np.allclose(d_msgs[0, 3], models[0] - 0.5 * drift0 / 0.25)


def test_plan_deterministic_replay():
    net = build_network("random", 10, 0.3, seed=4, edge_p=0.6)
    models = np.random.default_rng(5).normal(size=10)
    for kind in ("sign_flip", "alie", "dissensus", "perturbed_dup", "silent"):
        spec = AttackSpec(kind=kind)
        a = models[net.send]
        b = models[net.send]
        AttackPlan(spec, net).apply(a, 11, models)
        AttackPlan(spec, net).apply(b, 11, models)
        assert np.array_equal(a, b)
    # attacks never mutate the model snapshot
    snap = models.copy()
    m = models[net.send]
    AttackPlan(AttackSpec(kind="dissensus"), net).apply(m, 2, models)
    assert np.array_equal(models, snap)


def _every_kind(net):
    """One spec of every kind, ALIE both ways and duplication with a
    round-robin and a fixed victim."""
    return (
        AttackSpec(kind="none"),
        AttackSpec(kind="sign_flip", s_b=1.5),
        AttackSpec(kind="alie"),
        AttackSpec(kind="alie", alie_local=True),
        AttackSpec(kind="dissensus", d_r=0.7),
        AttackSpec(kind="perturbed_dup", p_mult=1.2, p_add=0.3),
        AttackSpec(kind="perturbed_dup", victim=net.reliable[1]),
        AttackSpec(kind="silent"),
    )


def test_plan_without_edges_into_byzantine_agents_writes_the_same_messages():
    # the engine builds plans on the edge list minus the edges into
    # Byzantine agents; every edge it keeps must carry the message the
    # full list's plan writes there, round-robin victims included
    net = build_network("random", 12, 0.25, seed=8, edge_p=0.5)
    keep = ~net.is_byz[net.recv]
    pruned = Network(net.n_agents, net.byzantine, net.recv[keep], net.send[keep],
                     net.edge_w[keep], net.self_w)
    models = np.random.default_rng(6).normal(size=(12, 2))
    for spec in _every_kind(net):
        for k in range(5):
            full = _plan_messages(net, spec, models, k)
            assert np.array_equal(_plan_messages(pruned, spec, models, k), full[keep]), (spec, k)


def test_plan_on_masked_copies_writes_what_a_one_copy_plan_writes():
    # the engine builds one plan per spec on the group's union, masked to
    # the copies under that spec; each of them must be falsified exactly
    # as alone, and every other copy's edges left as they are
    net = build_network("random", 12, 0.25, seed=8, edge_p=0.5)
    mask = [True, False, True]
    union, alone = _disjoint_union(net, mask), _disjoint_union(net, [True])
    a, e_alone = net.n_agents, len(alone.recv)
    starts = [0, e_alone, e_alone + len(net.recv)]
    models = np.random.default_rng(7).normal(size=(3 * a, 2))
    for spec in _every_kind(net):
        plan = AttackPlan(spec, union, mask)
        for k in range(4):
            messages = models[union.send]
            plan.apply(messages, k, models)
            honest = models[union.send]
            for s, start in enumerate(starts):
                stop = start + (e_alone if mask[s] else len(net.recv))
                if mask[s]:
                    expect = _plan_messages(alone, spec, models[s * a : (s + 1) * a], k)
                else:
                    expect = honest[start:stop]
                assert np.array_equal(messages[start:stop], expect), (spec, k, s)
