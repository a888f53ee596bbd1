"""Dense references for the edge-list networks, used by the tests only.

The library never forms an (A, A) matrix. The per-agent references read
a full weight row, and a few checks are easiest to state on matrices, so
these helpers rebuild them from a Network's edge list. reference_edges
redoes the dense construction the edge-list builder has to reproduce
exactly: one rng.random((n, n)) draw per attempt, its strict upper
triangle, and dense Metropolis-Hastings weights.
"""

import numpy as np
from scipy.sparse.csgraph import connected_components

from gossipshield import TopologyError, topology


def dense_adjacency(net) -> np.ndarray:
    adj = np.zeros((net.n_agents, net.n_agents), dtype=bool)
    adj[net.recv, net.send] = True
    return adj


def dense_weights(net) -> np.ndarray:
    """The (A, A) mixing matrix: edge weights off the diagonal, self-weights on it."""
    w = np.zeros((net.n_agents, net.n_agents))
    w[net.recv, net.send] = net.edge_w
    w[np.diag_indices(net.n_agents)] = net.self_w
    return w


def virtual_dense(net) -> np.ndarray:
    """Reliable block of the weights with each row's Byzantine weight
    folded into the diagonal: the W~ whose centered spectral norm is the
    mixing rate."""
    w = dense_weights(net)
    rel, byz = list(net.reliable), list(net.byzantine)
    block = w[np.ix_(rel, rel)].copy()
    if byz:
        block[np.diag_indices_from(block)] += w[np.ix_(rel, byz)].sum(axis=1)
    return block


def svd_mixing_sq(net) -> float:
    block = virtual_dense(net)
    return float(np.linalg.norm(block - 1.0 / block.shape[0], 2)) ** 2


def bincount_mixing_sq(net) -> float:
    """The mixing rate as the library computed it before its CSR operator:
    the same ARPACK call and start, but the matvec sums each receiver's
    edges with np.bincount over the reliable-to-reliable edge list."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    rel = np.flatnonzero(~net.is_byz)
    r = len(rel)
    diag = (net.self_w + net.weight_split()[1])[rel]
    if r == 1:
        return float((diag[0] - 1.0) ** 2)
    pos = np.full(net.n_agents, -1, dtype=np.intp)
    pos[rel] = np.arange(r)
    keep = ~(net.is_byz[net.recv] | net.is_byz[net.send])
    rr, ss, w = pos[net.recv[keep]], pos[net.send[keep]], net.edge_w[keep]

    def matvec(v):
        v = np.ravel(v)
        return diag * v + np.bincount(rr, w * v[ss], minlength=r) - v.mean()

    v0 = np.random.default_rng(0x5CC).standard_normal(r)
    if not matvec(v0).any():
        return 0.0
    op = LinearOperator((r, r), matvec=matvec, dtype=float)
    lam = eigsh(op, k=1, which="LM", v0=v0, return_eigenvectors=False)[0]
    return float(lam * lam)


def connected(adj: np.ndarray, nodes: list) -> bool:
    """Whether nodes induce a connected subgraph, by scipy rather than
    the library's own search."""
    sub = adj[np.ix_(nodes, nodes)].astype(int)
    return connected_components(sub, directed=False)[0] == 1


def _metropolis_dense(adj: np.ndarray) -> np.ndarray:
    deg = adj.sum(axis=1)
    w = np.zeros(adj.shape)
    rows, cols = np.nonzero(adj)
    w[rows, cols] = 1.0 / (1.0 + np.maximum(deg[rows], deg[cols]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def reference_edges(kind, n, byzantine, seed=0, edge_p=0.3):
    """(recv, send, edge_w, attempts) of the dense construction; attempts
    counts the random draws it took. Raises TopologyError where the
    builder must too."""
    reliable = [i for i in range(n) if i not in set(byzantine)]
    attempts = 1
    if kind == "star":
        adj = np.zeros((n, n), dtype=bool)
        adj[: n - 1, n - 1] = adj[n - 1, : n - 1] = True
    elif kind == "complete":
        adj = ~np.eye(n, dtype=bool)
    else:
        rng = np.random.default_rng(seed)
        for attempts in range(1, topology._MAX_DRAWS + 1):
            upper = np.triu(rng.random((n, n)) < edge_p, k=1)
            adj = upper | upper.T
            if connected(adj, reliable):
                break
        else:
            raise TopologyError("no connected reliable subgraph")
    recv, send = np.nonzero(adj)
    return recv, send, _metropolis_dense(adj)[recv, send], attempts
