"""Clipping, resilient aggregation, and radius-strategy tests."""

import itertools

import numpy as np
import pytest

from dense_reference import dense_weights, virtual_dense
from gossipshield import ConfigError, DecayingSchedule, build_network, rho_upper_bound
from gossipshield.aggregation import (
    TAU_FLOOR,
    Inbox,
    RadiusPlan,
    ReceiverSums,
    TauSpec,
    clip,
    edge_diffs,
    gossip_mean,
    scc_aggregate,
    scc_edges,
    tau_corollary1,
    tau_remark4,
)

HUGE = 1e18


def test_clip_examples():
    assert np.array_equal(clip(np.zeros(3), 1.0), np.zeros(3))
    v = np.array([0.3, -0.4])
    assert np.array_equal(clip(v, 2.0), v)
    assert np.allclose(clip(np.array([3.0, 4.0]), 2.5), [1.5, 2.0], atol=1e-15)
    with pytest.raises(ValueError):
        clip(v, 0.0)
    with pytest.raises(ValueError):
        clip(v, -1.0)


def test_clip_properties():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        v = rng.normal(scale=rng.uniform(0.1, 50), size=d)
        tau = float(rng.uniform(1e-6, 10))
        c = clip(v, tau)
        assert np.linalg.norm(c) <= min(np.linalg.norm(v), tau) + 1e-12
        # direction preserved: cross terms vanish against the original
        assert float(c @ v) >= -1e-12


def test_scc_fixed_point_and_hand_example():
    self_m = np.array([1.0, -2.0])
    inbox = Inbox(self_m, {1: self_m, 2: self_m})
    w = np.array([0.5, 0.25, 0.25])
    assert np.allclose(scc_aggregate(0, inbox, w, 0.7), self_m, atol=1e-15)

    inbox = Inbox(np.zeros(2), {1: np.array([10.0, 0.0]), 2: np.zeros(2)})
    out = scc_aggregate(0, inbox, np.array([0.5, 0.25, 0.25]), 1.0)
    assert np.allclose(out, [0.25, 0.0], atol=1e-15)


def test_scc_without_clipping_is_weighted_mean():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        msgs = {j: rng.normal(size=3) for j in range(1, n)}
        inbox = Inbox(rng.normal(size=3), dict(msgs))
        a = scc_aggregate(0, inbox, w, HUGE)
        b = gossip_mean(0, inbox, w)
        ref = w[0] * inbox.self_model + sum(w[j] * msgs[j] for j in msgs)
        assert np.allclose(a, b, atol=1e-12)
        assert np.allclose(b, ref, atol=1e-12)


def test_row_sum_precondition():
    inbox = Inbox(np.zeros(1), {1: np.ones(1)})
    with pytest.raises(ValueError):
        scc_aggregate(0, inbox, np.array([0.5, 0.25, 0.25]), 1.0)
    with pytest.raises(ValueError):
        gossip_mean(0, inbox, np.array([0.9, 0.2]))
    with pytest.raises(ValueError):
        Inbox(np.zeros(2), {1: np.zeros(3)})


def test_gossip_mean_examples():
    c = np.array([2.5])
    inbox = Inbox(c, {1: c, 2: c})
    assert np.allclose(gossip_mean(0, inbox, np.array([1 / 3, 1 / 3, 1 / 3])), c)
    inbox = Inbox(np.zeros(1), {1: np.array([2.0])})
    assert np.allclose(gossip_mean(0, inbox, np.array([0.5, 0.5])), [1.0])


def test_bounded_influence():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        w = rng.uniform(0.05, 1.0, n)
        w /= w.sum()
        tau = float(rng.uniform(1e-3, 5.0))
        inbox = Inbox(
            rng.normal(size=2), {j: rng.normal(scale=100.0, size=2) for j in range(1, n)}
        )
        out = scc_aggregate(0, inbox, w, tau)
        assert np.linalg.norm(out - inbox.self_model) <= tau * (1.0 - w[0]) + 1e-12


def test_tau_corollary1_examples():
    inbox = Inbox(np.zeros(1), {1: np.array([1.0]), 2: np.array([50.0])})
    w = np.array([0.5, 0.25, 0.25])
    assert tau_corollary1(0, inbox, w, byzantine={2}) == pytest.approx(1.0, abs=1e-15)
    # identical reliable neighbors: degenerate floor
    inbox = Inbox(np.zeros(1), {1: np.zeros(1), 2: np.array([9.0])})
    assert tau_corollary1(0, inbox, w, byzantine={2}) == TAU_FLOOR
    # no Byzantine neighbor: fallback signal
    assert tau_corollary1(0, inbox, w, byzantine=set()) is None


def test_tau_remark4_examples():
    inbox = Inbox(np.zeros(1), {1: np.array([2.0])})
    w = np.array([0.5, 0.5])
    assert tau_remark4(0, inbox, w, reliable={1}) == pytest.approx(4.0 * 0.5, abs=1e-15)
    assert tau_remark4(0, inbox, w, reliable=set()) == TAU_FLOOR
    inbox = Inbox(np.ones(1), {1: np.ones(1)})
    assert tau_remark4(0, inbox, w, reliable={1}) == TAU_FLOOR


def _inboxes_from_edges(messages, states, net):
    received = {i: {} for i in range(net.n_agents)}
    for e, (i, j) in enumerate(zip(net.recv, net.send)):
        received[int(i)][int(j)] = messages[e]
    return {i: Inbox(states[i], received[i]) for i in range(net.n_agents)}


def test_edge_forms_match_reference():
    rng = np.random.default_rng(8)
    for dim in (1, 3):
        for _ in range(20):
            net = build_network(
                "random", int(rng.integers(4, 9)), 0.3, seed=int(rng.integers(1 << 30)), edge_p=0.8
            )
            a = net.n_agents
            e = len(net.recv)
            states = rng.normal(size=(a, dim)) if dim > 1 else rng.normal(size=a)
            messages = rng.normal(scale=3.0, size=(e, dim) if dim > 1 else e)
            taus = rng.uniform(0.1, 3.0, a)

            sums = ReceiverSums(net.recv, a)
            diffs, norms = edge_diffs(messages, states, sums)
            fallback = float(rng.uniform(0.1, 3.0))
            plans = {
                kind: RadiusPlan(TauSpec(kind, fallback), net, sums)
                for kind in ("corollary1", "remark4", "manual")
            }
            got_tau = plans["corollary1"].radii(0, norms)
            got_r4 = plans["remark4"].radii(0, norms)
            got_manual = plans["manual"].radii(0, norms)
            assert got_manual.tobytes() == np.full(a, fallback).tobytes()
            # scc_edges overwrites diffs, so each call gets its own copy
            got_scc = scc_edges(diffs.copy(), norms, states, sums, net.edge_w, taus)
            got_mean = scc_edges(diffs, norms, states, sums, net.edge_w, np.full(a, np.inf))

            w = dense_weights(net)
            for i, inbox in _inboxes_from_edges(messages, states, net).items():
                ref = scc_aggregate(i, inbox, w[i], taus[i])
                assert np.allclose(np.atleast_1d(got_scc[i]), ref, atol=1e-12)
                ref_m = gossip_mean(i, inbox, w[i])
                assert np.allclose(np.atleast_1d(got_mean[i]), ref_m, atol=1e-12)
                ref_t = tau_corollary1(i, inbox, w[i], net.byzantine)
                if ref_t is None:
                    assert got_tau[i] == fallback
                else:
                    assert got_tau[i] == pytest.approx(ref_t, rel=1e-12)
                ref_r4 = tau_remark4(i, inbox, w[i], net.reliable)
                assert got_r4[i] == pytest.approx(ref_r4, rel=1e-12)

            # a non-finite Byzantine message leaves a NaN numerator (0 * inf)
            # at its receivers, and both oracles fall back there
            if net.byzantine:
                blown = norms.copy()
                blown[net.byzantine_edges()] = np.inf
                with np.errstate(invalid="ignore"):
                    rel_w = np.where(net.byzantine_edges(), 0.0, net.edge_w)
                    nan_num = np.isnan(sums(rel_w * blown))
                    assert nan_num.any()
                    for kind, got in (("corollary1", got_tau), ("remark4", got_r4)):
                        expect = np.where(nan_num, fallback, got)
                        taus_blown = plans[kind].radii(0, blown)
                        assert taus_blown.tobytes() == expect.tobytes()


def test_radius_spec_needs_a_number_or_a_schedule():
    # float() would read "1.0" and True as radius 1, and raise ValueError
    # or TypeError, not ConfigError, on the others
    for value in ("1.0", "wide", None, True):
        with pytest.raises(ConfigError, match="number or a schedule"):
            TauSpec("manual", value)
        with pytest.raises(ConfigError, match="number or a schedule"):
            TauSpec("corollary1", value)
    assert TauSpec("manual", np.float64(0.5)).value == 0.5
    assert TauSpec("remark4", 3).value == 3


def test_radius_plan_evaluates_the_schedule_per_round():
    net = build_network("random", 8, 0.25, seed=5, edge_p=0.7)
    sums = ReceiverSums(net.recv, 8)
    norms = np.zeros(len(net.recv))  # every oracle numerator is zero
    sched = DecayingSchedule(scale=2.0, k0=4)
    manual = RadiusPlan(TauSpec("manual", sched), net, sums)
    oracle = RadiusPlan(TauSpec("corollary1", sched), net, sums)
    no_byz = net.weight_split()[1] == 0.0
    for k in (0, 7):
        assert manual.radii(k, norms).tobytes() == np.full(8, sched.alpha(k)).tobytes()
        # the fallback only where no Byzantine neighbor defines the oracle
        assert (oracle.radii(k, norms) == np.where(no_byz, sched.alpha(k), TAU_FLOOR)).all()


def test_scc_edges_rejects_nan_radius():
    net = build_network("random", 8, 0.0, seed=5, edge_p=0.7)
    states = np.linspace(-1.0, 1.0, 8)
    taus = np.full(8, 1.0)
    taus[3] = np.nan
    sums = ReceiverSums(net.recv, 8)
    with pytest.raises(ValueError, match="NaN"):
        scc_edges(*edge_diffs(states[net.send], states, sums), states, sums, net.edge_w, taus)


def test_receiver_sum_against_loop():
    rng = np.random.default_rng(12)
    for shape in ((), (3,)):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            recv = np.sort(rng.integers(0, n, size=int(rng.integers(0, 15))))
            values = rng.normal(size=(len(recv),) + shape)
            expect = np.zeros((n,) + shape)
            for r, v in zip(recv, values):
                expect[r] += v
            got = ReceiverSums(recv, n)(values)
            assert got.shape == expect.shape
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def test_receiver_sums_are_bincount_bit_for_bit():
    # both scalar kernels: the CSR matrix under scalar states (dim 1),
    # np.bincount under vector states (dim 10)
    rng = np.random.default_rng(13)
    n = 40
    for dim, n_edges in itertools.product((1, 10), (0, 1, 5, 300, 5000)):
        # about a third of the receivers hear nobody
        recv = np.sort(rng.choice(rng.choice(n, size=27, replace=False), size=n_edges))
        values = rng.normal(size=n_edges) * 10.0 ** rng.integers(-8, 9, size=n_edges)
        if n_edges:
            # segments of negative zeros sum to +0.0
            values[(recv == recv[0]) | (recv == recv[-1])] = -0.0
            # NaN, both infinities and lone negative zeros in the others
            inner = np.flatnonzero((recv != recv[0]) & (recv != recv[-1]))
            hit = rng.choice(inner, size=min(inner.size, 40), replace=False)
            values[hit] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=hit.size)
        sums = ReceiverSums(recv, n, dim)
        got = sums(values)
        # bincount over no edges returns integer zeros
        expect = np.bincount(recv, values, minlength=n).astype(float)
        assert (got.dtype, got.shape) == (expect.dtype, expect.shape)
        assert got.tobytes() == expect.tobytes(), (dim, n_edges)
        assert not np.signbit(got[np.r_[recv[:1], recv[-1:]]]).any()
        per_agent = rng.normal(size=(n, 3))
        assert np.array_equal(sums.spread(per_agent), per_agent[recv])
        assert np.array_equal(sums.spread(per_agent[:, 0]), per_agent[recv, 0])


def test_unclipped_round_reproduces_virtual_mixing():
    rng = np.random.default_rng(10)
    net = build_network("random", 8, 0.0, seed=5, edge_p=0.7)
    states = rng.normal(size=8)
    messages = states[net.send]  # every sender broadcasts its state
    sums = ReceiverSums(net.recv, 8)
    out = scc_edges(
        *edge_diffs(messages, states, sums), states, sums, net.edge_w, np.full(8, HUGE)
    )
    assert np.allclose(out, virtual_dense(net) @ states, atol=1e-12)


def test_contraction_inequality():
    # resilient output stays within rho times the worst reliable spread
    # around the virtual-mixing target, with the balanced oracle radius
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(4, 10))
        try:
            net = build_network(
                "random", n, float(rng.uniform(0.1, 0.4)), seed=int(rng.integers(1 << 30)), edge_p=0.9
            )
        except Exception:
            continue
        if not net.byzantine:
            continue
        rho = rho_upper_bound(net)
        w, block = dense_weights(net), virtual_dense(net)
        rel = list(net.reliable)
        states = rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
        for i_pos, i in enumerate(rel):
            inbox = Inbox(
                states[i],
                {
                    j: np.atleast_1d(
                        states[j]
                        if j in net.reliable
                        else rng.normal(scale=rng.choice([0.1, 1.0, 100.0]))
                    )
                    for j in net.neighbors(i)
                },
            )
            tau = tau_corollary1(i, inbox, w[i], net.byzantine)
            if tau is None or tau <= TAU_FLOOR:
                continue
            out = scc_aggregate(i, inbox, w[i], tau)
            target = float(block[i_pos] @ states[rel])
            spread = max(
                abs(states[j] - target) for j in list(net.reliable_neighbors(i)) + [i]
            )
            assert abs(float(out[0]) - target) <= rho * spread + 1e-9
            checked += 1
