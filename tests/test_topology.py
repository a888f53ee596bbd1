"""Network construction, virtual mixing matrix, and constant-cluster tests."""

import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from gossipshield import (
    Network,
    TopologyError,
    build_network,
    constants_from_mixing,
    metropolis_weights,
    rho_upper_bound,
    theory_constants,
    virtual_matrix,
)
from gossipshield.topology import evenly_spaced_byzantine, _dominant_sq_norm

TOL = 1e-12


def _assert_doubly_stochastic(w):
    assert np.abs(w.sum(axis=1) - 1.0).max() <= TOL
    assert np.abs(w.sum(axis=0) - 1.0).max() <= TOL
    assert (w.diagonal() > 0).all()


def _reliable_connected_oracle(net):
    # Independent connectivity check through scipy instead of the library BFS.
    rel = list(net.reliable)
    sub = net.adjacency[np.ix_(rel, rel)].astype(int)
    n_comp, _ = connected_components(sub, directed=False)
    return n_comp == 1


def test_complete_four_agents_uniform_weights():
    net = build_network("complete", 4, 0.0, seed=3)
    assert np.allclose(net.weights, 0.25, atol=TOL)
    _assert_doubly_stochastic(net.weights)


def test_star_hundred_agents_counts_and_degrees():
    net = build_network("star", 100, 0.1, seed=1)
    assert len(net.byzantine) == 10
    assert len(net.reliable) == 90
    deg = net.adjacency.sum(axis=1)
    assert deg[-1] == 99  # hub
    assert (deg[:-1] == 1).all()
    # evenly spaced placement, one per block of ten
    assert net.byzantine == tuple(range(0, 100, 10))
    assert 99 in net.reliable


def test_random_graph_doubly_stochastic_and_connected():
    net = build_network("random", 10, 0.2, seed=7, edge_p=0.3)
    _assert_doubly_stochastic(net.weights)
    assert _reliable_connected_oracle(net)


def test_star_with_byzantine_hub_rejected():
    with pytest.raises(TopologyError):
        build_network("star", 10, byzantine_ids=(9,))


def test_byz_fraction_range_enforced():
    with pytest.raises(TopologyError):
        build_network("complete", 10, 0.6)
    with pytest.raises(TopologyError):
        build_network("complete", 10, -0.1)


def test_evenly_spaced_placement():
    assert evenly_spaced_byzantine(100, 10) == tuple(range(0, 100, 10))
    assert evenly_spaced_byzantine(10, 2) == (0, 5)
    assert evenly_spaced_byzantine(7, 0) == ()


def test_build_determinism():
    a = build_network("random", 12, 0.25, seed=11, edge_p=0.4)
    b = build_network("random", 12, 0.25, seed=11, edge_p=0.4)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.weights, b.weights)


def test_virtual_matrix_hand_example():
    # Complete graph on 4 agents, one Byzantine: fold 1/4 into each diagonal.
    net = build_network("complete", 4, byzantine_ids=(3,))
    vm = virtual_matrix(net)
    expect = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    assert np.allclose(vm.matrix, expect, atol=TOL)
    _assert_doubly_stochastic(vm.matrix)
    # centered matrix is J/4 + I/4 - J/3: spectral norm 1/4 on the mean-free
    # subspace, so the squared norm is 1/16
    assert vm.mixing_sq == pytest.approx(1.0 / 16.0, rel=1e-9)


def test_uniform_virtual_matrix_has_zero_mixing():
    net = build_network("complete", 6, 0.0)
    vm = virtual_matrix(net)
    assert vm.mixing_sq == pytest.approx(0.0, abs=1e-12)


def test_mixing_matches_svd_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 14))
        frac = float(rng.uniform(0.0, 0.4))
        try:
            net = build_network("random", n, frac, seed=int(rng.integers(1 << 30)), edge_p=0.6)
        except TopologyError:
            continue
        vm = virtual_matrix(net)
        r = len(net.reliable)
        centered = vm.matrix - 1.0 / r
        oracle = float(np.linalg.norm(centered, 2)) ** 2
        assert vm.mixing_sq == pytest.approx(oracle, rel=1e-8, abs=1e-10)
        assert 0.0 <= vm.mixing_sq < 1.0
        _assert_doubly_stochastic(vm.matrix)


def test_power_iteration_against_svd():
    rng = np.random.default_rng(99)
    for _ in range(25):
        m = rng.normal(size=(6, 6))
        assert _dominant_sq_norm(m) == pytest.approx(float(np.linalg.norm(m, 2)) ** 2, rel=1e-7)


def test_rho_upper_bound_complete_one_byzantine():
    net = build_network("complete", 4, byzantine_ids=(3,))
    # each reliable agent: reliable weight 1/2, Byzantine weight 1/4
    assert rho_upper_bound(net) == pytest.approx(4.0 * math.sqrt(0.5 * 0.25), rel=1e-12)
    assert rho_upper_bound(net) == pytest.approx(1.41421, abs=5e-6)


def test_rho_upper_bound_zero_without_byzantine_neighbors():
    net = build_network("complete", 5, 0.0)
    assert rho_upper_bound(net) == 0.0
    # star with Byzantine leaves: only the hub borders them
    star = build_network("star", 10, byzantine_ids=(0,))
    assert rho_upper_bound(star) > 0.0


def _rho_upper_bound_loop(net):
    # per-agent reference: the formula's sums taken neighbor by neighbor
    worst = 0.0
    for i in net.reliable:
        w_rel = sum(net.weights[i, j] for j in net.reliable_neighbors(i))
        w_byz = sum(net.weights[i, j] for j in net.byzantine_neighbors(i))
        worst = max(worst, math.sqrt(w_rel * w_byz))
    return 4.0 * worst


def test_rho_upper_bound_matches_per_agent_loop():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 300:
        n = int(rng.integers(2, 30))
        kind = ["star", "random", "complete"][checked % 3]
        try:
            net = build_network(
                kind, n, float(rng.uniform(0.0, 0.5)), seed=int(rng.integers(1 << 30)),
                edge_p=float(rng.uniform(0.2, 1.0)),
            )
        except TopologyError:
            continue
        assert rho_upper_bound(net) == _rho_upper_bound_loop(net)
        checked += 1


def test_edge_list_independent_of_labels():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        adj = upper | upper.T
        w = metropolis_weights(adj)
        byz = tuple(int(b) for b in rng.choice(n, size=int(rng.integers(0, n)), replace=False))
        labeled = Network(n_agents=n, byzantine=tuple(sorted(byz)), adjacency=adj, weights=w)
        plain = Network(n_agents=n, byzantine=(), adjacency=adj.copy(), weights=w.copy())
        for name in ("recv", "send", "edge_w"):
            assert np.array_equal(getattr(labeled, name), getattr(plain, name))
        assert np.array_equal(labeled.edge_w, w[labeled.recv, labeled.send])
        assert len(labeled.recv) == int(adj.sum())
    star_b = build_network("star", 12, byz_fraction=0.25, seed=5)
    star_0 = build_network("star", 12, byz_fraction=0.0, seed=5)
    for name in ("recv", "send", "edge_w"):
        assert np.array_equal(getattr(star_b, name), getattr(star_0, name))


def test_constants_hand_check():
    c = constants_from_mixing(
        mixing_sq=0.5,
        n_reliable=4,
        rho=0.0,
        smoothness=2.0,
        pl_constant=0.5,
        grad_variance=0.0,
        heterogeneity=0.0,
        noise_var=0.0,
        dim=1,
    )
    assert c.varphi == pytest.approx(0.5, abs=TOL)
    assert c.eta == pytest.approx(0.25, abs=TOL)
    assert c.phi == pytest.approx(0.5 / 3.5, abs=TOL)
    assert c.regime_valid
    assert c.k0 > 2.0 / c.phi
    assert c.k0 == 15
    assert c.iota == pytest.approx((1 + 1 / 15) ** 2, abs=TOL)
    assert c.theta == pytest.approx((0.5 / 3.5) / (4 * math.sqrt(3.0) * 2.0), rel=TOL)
    assert c.theta_min == pytest.approx(min(c.theta, 2.0), rel=TOL)


def test_constants_vartheta_formula():
    c = constants_from_mixing(0.5, 4, 0.0, 2.0, 0.5, 1.5, 2.5, 0.25, dim=3)
    phi = 0.5 / 3.5
    expect = 4 * 4 * (3 * 0.25 + 4 * (1.5 + 2.5)) / phi
    assert c.vartheta == pytest.approx(expect, rel=TOL)


def test_regime_invalid_at_rho_bar():
    lam, r = 0.5, 4
    rho_bar = lam / (4 * math.sqrt(r))
    c = constants_from_mixing(lam, r, rho_bar, 2.0, 0.5, 0.0, 0.0, 0.0, 1)
    assert not c.regime_valid
    below = constants_from_mixing(lam, r, 0.9 * rho_bar, 2.0, 0.5, 0.0, 0.0, 0.0, 1)
    assert below.regime_valid
    assert 0.0 < below.varphi < 1.0 and 0.0 < below.eta < 1.0 and 0.0 < below.phi < 1.0


def test_theory_constants_from_network():
    net = build_network("random", 12, 0.0, seed=2, edge_p=0.5)
    c = theory_constants(net, 0.0, 4.0, 0.02, 0.01, 6.0, 1e-6, dim=1)
    vm = virtual_matrix(net)
    assert c.mixing_sq == pytest.approx(vm.mixing_sq, rel=1e-10)
    assert c.n_reliable == 12
    assert c.rho_bar == pytest.approx(vm.mixing_sq / (4 * math.sqrt(12)), rel=1e-12)


def test_metropolis_weights_star_values():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True  # hub at 0 here, direct call
    w = metropolis_weights(adj)
    assert w[0, 1] == pytest.approx(0.25)
    assert w[1, 1] == pytest.approx(0.75)
    assert w[0, 0] == pytest.approx(0.25)
    _assert_doubly_stochastic(w)


def test_random_property_sweep():
    rng = np.random.default_rng(123)
    for _ in range(30):
        n = int(rng.integers(2, 20))
        kind = ["star", "random", "complete"][int(rng.integers(3))]
        frac = float(rng.uniform(0.0, 0.5))
        try:
            net = build_network(kind, n, frac, seed=int(rng.integers(1 << 30)), edge_p=0.7)
        except TopologyError:
            continue
        net.validate()
        _assert_doubly_stochastic(net.weights)
        assert _reliable_connected_oracle(net)
        assert rho_upper_bound(net) >= 0.0
        vm = virtual_matrix(net)
        assert 0.0 <= vm.mixing_sq < 1.0
