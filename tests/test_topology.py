"""Network construction, mixing rate, and constant-cluster tests."""

import math
import tracemalloc

import numpy as np
import pytest

from dense_reference import (
    bincount_mixing_sq,
    connected,
    dense_adjacency,
    dense_weights,
    reference_edges,
    svd_mixing_sq,
    virtual_dense,
)
from gossipshield import (
    Network,
    TopologyError,
    build_network,
    constants_from_mixing,
    mixing_sq,
    rho_upper_bound,
    theory_constants,
)
from gossipshield import topology
from gossipshield.topology import _directed, _metropolis, _random_pairs, evenly_spaced_byzantine

TOL = 1e-12


def _assert_doubly_stochastic(w):
    assert np.abs(w.sum(axis=1) - 1.0).max() <= TOL
    assert np.abs(w.sum(axis=0) - 1.0).max() <= TOL
    assert (w.diagonal() > 0).all()


def _reliable_connected_oracle(net):
    return connected(dense_adjacency(net), list(net.reliable))


def test_complete_four_agents_uniform_weights():
    net = build_network("complete", 4, 0.0, seed=3)
    assert np.allclose(dense_weights(net), 0.25, atol=TOL)
    _assert_doubly_stochastic(dense_weights(net))


def test_star_hundred_agents_counts_and_degrees():
    net = build_network("star", 100, 0.1, seed=1)
    assert len(net.byzantine) == 10
    assert len(net.reliable) == 90
    deg = dense_adjacency(net).sum(axis=1)
    assert deg[-1] == 99  # hub
    assert (deg[:-1] == 1).all()
    # evenly spaced placement, one per block of ten
    assert net.byzantine == tuple(range(0, 100, 10))
    assert 99 in net.reliable


def test_random_graph_doubly_stochastic_and_connected():
    net = build_network("random", 10, 0.2, seed=7, edge_p=0.3)
    _assert_doubly_stochastic(dense_weights(net))
    assert _reliable_connected_oracle(net)


def test_star_with_byzantine_hub_rejected():
    with pytest.raises(TopologyError):
        build_network("star", 10, byzantine_ids=(9,))


def test_byz_fraction_range_enforced():
    with pytest.raises(TopologyError):
        build_network("complete", 10, 0.6)
    with pytest.raises(TopologyError):
        build_network("complete", 10, -0.1)


def test_seed_must_be_a_nonnegative_integer():
    for seed in (-3, 2.0, True):
        with pytest.raises(TopologyError, match="seed"):
            build_network("random", 10, 0.2, seed=seed, edge_p=0.3)
    build_network("random", 10, 0.2, seed=np.int64(7), edge_p=0.3)


def test_network_reads_its_inputs_as_numbers():
    # each escaped as a numpy or comparison TypeError
    for kwargs, name in (
        ({"n_agents": 10.5}, "n_agents: expected an integer"),
        ({"n_agents": True}, "n_agents: expected an integer"),
        ({"byz_fraction": "0.1"}, "byz_fraction: expected a number"),
        ({"edge_p": "0.3"}, "edge_p: expected a number"),
        # these built Byzantine sets (1, 2) and (1,) through int()
        ({"byzantine_ids": (2.7, True)}, "byzantine_ids: expected an integer"),
        ({"byzantine_ids": ("1",)}, "byzantine_ids: expected an integer"),
    ):
        with pytest.raises(TopologyError, match=name):
            build_network("random", **{"n_agents": 10, **kwargs})
    assert build_network("random", np.int64(10), np.float32(0.25), edge_p=0.5).n_agents == 10


def test_evenly_spaced_placement():
    assert evenly_spaced_byzantine(100, 10) == tuple(range(0, 100, 10))
    assert evenly_spaced_byzantine(10, 2) == (0, 5)
    assert evenly_spaced_byzantine(7, 0) == ()


def test_build_determinism():
    a = build_network("random", 12, 0.25, seed=11, edge_p=0.4)
    b = build_network("random", 12, 0.25, seed=11, edge_p=0.4)
    for name in ("recv", "send", "edge_w", "self_w"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_virtual_matrix_hand_example():
    # Complete graph on 4 agents, one Byzantine: fold 1/4 into each diagonal.
    net = build_network("complete", 4, byzantine_ids=(3,))
    block = virtual_dense(net)
    expect = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    assert np.allclose(block, expect, atol=TOL)
    _assert_doubly_stochastic(block)
    # centered matrix is J/4 + I/4 - J/3: spectral norm 1/4 on the mean-free
    # subspace, so the squared norm is 1/16
    assert mixing_sq(net) == pytest.approx(1.0 / 16.0, rel=1e-12)


def test_uniform_virtual_matrix_has_zero_mixing():
    net = build_network("complete", 6, 0.0)
    assert mixing_sq(net) == pytest.approx(0.0, abs=1e-12)


def test_mixing_matches_svd_oracle():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(20):
        n = int(rng.integers(4, 14))
        cases.append(("random", n, float(rng.uniform(0.0, 0.4)), int(rng.integers(1 << 30)), 0.6))
    for n in (3, 10, 40):
        cases += [("star", n, 0.2, 0, 0.3), ("complete", n, 0.2, 0, 0.3)]
    cases += [("random", 300, 0.1, 1, 0.05), ("random", 1000, 0.1, 1, 0.02)]
    for kind, n, frac, seed, edge_p in cases:
        try:
            net = build_network(kind, n, frac, seed=seed, edge_p=edge_p)
        except TopologyError:
            continue
        got, oracle = mixing_sq(net), svd_mixing_sq(net)
        assert got == pytest.approx(oracle, rel=1e-12, abs=1e-15)
        assert 0.0 <= got < 1.0
        _assert_doubly_stochastic(virtual_dense(net))


def test_mixing_operator_matches_bincount_form():
    # the CSR matvec must add each row in edge order from zero, as the
    # bincount over the edge list did, so ARPACK sees the same vectors
    cases = [("random", n, frac, seed, edge_p)
             for n, edge_p in ((30, 0.2), (100, 0.5), (1000, 0.02))
             for frac in (0.0, 0.1) for seed in (1, 2)]
    cases += [(kind, n, frac, 0, 0.3) for kind in ("star", "complete")
              for n in (2, 5, 100) for frac in (0.0, 0.1, 0.2)]
    checked = 0
    for kind, n, frac, seed, edge_p in cases:
        try:
            net = build_network(kind, n, frac, seed=seed, edge_p=edge_p)
        except TopologyError:
            continue
        assert mixing_sq(net) == bincount_mixing_sq(net), (kind, n, frac, seed)
        checked += 1
    assert checked >= 25


@pytest.mark.parametrize("block", [1, 40, 150, 1 << 20])
def test_random_pairs_match_one_shot_draw(monkeypatch, block):
    # small blocks start rows above, on and below the diagonal's reach
    monkeypatch.setattr(topology, "_DRAW_BLOCK", block)
    for n, edge_p, seed in ((2, 0.9, 0), (13, 0.3, 1), (37, 0.2, 2), (64, 0.5, 3)):
        rng = np.random.default_rng(seed)
        iu, ju = _random_pairs(rng, n, edge_p)
        ref_rng = np.random.default_rng(seed)
        ref_i, ref_j = np.nonzero(np.triu(ref_rng.random((n, n)) < edge_p, 1))
        assert np.array_equal(iu, ref_i) and np.array_equal(ju, ref_j)
        # the stream is left where the one-shot draw leaves it
        assert rng.random() == ref_rng.random()


def test_random_pairs_transient_is_bounded():
    # The per-block pieces and their concatenation hold the pairs twice;
    # one 512 KiB draw block adds less than that again at this size. A
    # block of 2^20 uniforms alone (8 MiB) is 13 times the pairs.
    tracemalloc.start()
    try:
        iu, ju = _random_pairs(np.random.default_rng(1), 4000, 0.005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pair_bytes = iu.nbytes + ju.nbytes
    assert len(iu) > 30_000
    assert peak < 4 * pair_bytes


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
    w = dense_weights(net)
    worst = 0.0
    for i in net.reliable:
        w_rel = sum(w[i, j] for j in net.reliable_neighbors(i))
        w_byz = sum(w[i, j] for j in net.byzantine_neighbors(i))
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
        recv, send = _directed(n, *np.nonzero(upper))
        # row-major order of the adjacency's nonzeros
        assert np.array_equal(recv, np.nonzero(adj)[0])
        assert np.array_equal(send, np.nonzero(adj)[1])
        edge_w, self_w = _metropolis(n, recv, send)
        byz = tuple(int(b) for b in rng.choice(n, size=int(rng.integers(0, n)), replace=False))
        labeled = Network(n, tuple(sorted(byz)), recv, send, edge_w, self_w)
        assert labeled.reliable == tuple(i for i in range(n) if i not in byz)
        assert np.array_equal(labeled.byzantine_edges(), np.isin(send, byz))
        for i in range(n):
            assert labeled.neighbors(i) == np.flatnonzero(adj[i]).tolist()
            assert sorted(labeled.reliable_neighbors(i) + labeled.byzantine_neighbors(i)) == (
                labeled.neighbors(i)
            )
            assert all(j in byz for j in labeled.byzantine_neighbors(i))
    for kind in ("star", "complete"):
        net_b = build_network(kind, 12, byz_fraction=0.25, seed=5)
        net_0 = build_network(kind, 12, byz_fraction=0.0, seed=5)
        for name in ("recv", "send", "edge_w", "self_w"):
            assert np.array_equal(getattr(net_b, name), getattr(net_0, name))


def test_edges_match_dense_reference():
    cases = [
        ("random", n, frac, seed, edge_p)
        for n, edge_p in ((30, 0.08), (60, 0.05), (100, 0.5))
        for frac in (0.0, 0.1)
        for seed in range(4)
    ]
    cases += [("random", 1000, 0.1, 1, 0.02)]
    cases += [(kind, n, frac, 0, 0.3) for kind in ("star", "complete") for n in (2, 5, 40)
              for frac in (0.0, 0.2)]
    retried = 0
    for kind, n, frac, seed, edge_p in cases:
        try:
            net = build_network(kind, n, frac, seed=seed, edge_p=edge_p)
        except TopologyError:
            with pytest.raises(TopologyError):
                reference_edges(kind, n, evenly_spaced_byzantine(n, round(frac * n)), seed, edge_p)
            continue
        recv, send, edge_w, attempts = reference_edges(kind, n, net.byzantine, seed, edge_p)
        retried += attempts > 1
        assert np.array_equal(net.recv, recv)
        assert np.array_equal(net.send, send)
        assert np.array_equal(net.edge_w, edge_w)
        assert np.allclose(net.self_w, dense_weights(net).diagonal(), rtol=0, atol=TOL)
    # some first draws leave the reliable agents disconnected: the retries
    # must consume the stream exactly as the dense draw did
    assert retried >= 3


def _with(net, **arrays):
    fields = {name: getattr(net, name) for name in ("recv", "send", "edge_w", "self_w")}
    fields.update(arrays)
    return Network(net.n_agents, net.byzantine, **fields)


def test_validate_rejects_broken_edge_lists():
    net = build_network("random", 12, 0.25, seed=3, edge_p=0.5)
    net.validate()
    keep = np.ones(len(net.recv), dtype=bool)
    keep[0] = False  # drop one direction of the first edge
    asym = _with(net, recv=net.recv[keep], send=net.send[keep], edge_w=net.edge_w[keep])
    with pytest.raises(TopologyError, match="symmetric"):
        asym.validate()
    rev = slice(None, None, -1)
    with pytest.raises(TopologyError, match="sorted"):
        _with(net, recv=net.recv[rev], send=net.send[rev], edge_w=net.edge_w[rev]).validate()
    bad_row = net.self_w.copy()
    bad_row[4] += 1e-6
    with pytest.raises(TopologyError, match="rows"):
        _with(net, self_w=bad_row).validate()
    # two agents on weight-one edges: rows sum to one, self-weights are zero
    pair = Network(2, (), np.array([0, 1]), np.array([1, 0]), np.ones(2), np.zeros(2))
    with pytest.raises(TopologyError, match="self-weights"):
        pair.validate()
    # two separate edges, 0-1 and 2-3: Metropolis weights, but no path
    recv, send = _directed(4, np.array([0, 2]), np.array([1, 3]))
    split = Network(4, (), recv, send, *_metropolis(4, recv, send))
    with pytest.raises(TopologyError, match="connected"):
        split.validate()
    # the same split graph is fine once one side is all Byzantine
    Network(4, (2, 3), recv, send, *_metropolis(4, recv, send)).validate()


def _column_drift(net):
    """Complete-graph weights whose columns drift while the rows stay
    exact: each of agent 0's out-edges gains t and each row gives t back
    on another edge, every pair within the symmetry tolerance of 1e-12."""
    w, t = net.edge_w.copy(), 0.9e-12
    for m, k in ((1, 2), (2, 3), (3, 1)):
        w[(net.recv == m) & (net.send == 0)] += t
        w[(net.recv == m) & (net.send == k)] -= t
    return {"edge_w": w}


def _zero_edge(net):
    """Edge 0-1 at weight zero in both directions, moved to the self-weights."""
    w, self_w = net.edge_w.copy(), net.self_w.copy()
    pair = ((net.recv == 0) & (net.send == 1)) | ((net.recv == 1) & (net.send == 0))
    self_w[[0, 1]] += w[pair]
    w[pair] = 0.0
    return {"edge_w": w, "self_w": self_w}


def _replaced(arr, index, value):
    out = arr.copy()
    out[index] = value
    return out


@pytest.mark.parametrize("broken, message", [
    (lambda net: {"edge_w": net.edge_w[:-1]}, "one length"),
    (lambda net: {"self_w": net.self_w[:-1]}, "one length"),
    (lambda net: {"send": _replaced(net.send, -1, 4)}, "out of range"),
    (lambda net: {"send": _replaced(net.send, 0, -1)}, "out of range"),
    (lambda net: {"send": _replaced(net.send, 0, net.recv[0])}, "self-loops"),
    (lambda net: {"send": _replaced(net.send, [0, 1], net.send[[1, 0]])}, "senders must be sorted"),
    (lambda net: {"send": _replaced(net.send, 1, net.send[0])}, "without repeats"),
    (_column_drift, "columns"),
    (_zero_edge, "nonzero weight"),
], ids=["edge_w", "self_w", "above", "below", "loop", "unsorted", "repeat", "column", "zero"])
def test_validate_refuses_each_broken_invariant(broken, message):
    net = build_network("complete", 4, 0.0, seed=0)
    net.validate()
    with pytest.raises(TopologyError, match=message):
        _with(net, **broken(net)).validate()


def test_sparse_setup_memory_stays_linear():
    # one dense 4000 x 4000 float matrix alone is 122 MiB
    tracemalloc.start()
    try:
        net = build_network("random", 4000, byz_fraction=0.1, seed=1, edge_p=0.005)
        c = theory_constants(net, rho_upper_bound(net), 1.0, 1.0, 0.0, 0.0, 0.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < c.mixing_sq < 1.0
    assert peak < 64 * 2**20


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
    assert c.mixing_sq == mixing_sq(net)
    assert c.mixing_sq == pytest.approx(svd_mixing_sq(net), rel=1e-12)
    assert c.n_reliable == 12
    assert c.rho_bar == pytest.approx(c.mixing_sq / (4 * math.sqrt(12)), rel=1e-12)


def test_metropolis_weights_star_values():
    w = dense_weights(build_network("star", 4))  # hub at index 3
    assert w[3, 0] == pytest.approx(0.25)
    assert w[0, 0] == pytest.approx(0.75)
    assert w[3, 3] == pytest.approx(0.25)
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
        _assert_doubly_stochastic(dense_weights(net))
        assert _reliable_connected_oracle(net)
        assert rho_upper_bound(net) >= 0.0
        assert 0.0 <= mixing_sq(net) < 1.0
