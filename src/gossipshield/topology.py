"""Network topologies for multi-agent optimization with unreliable members.

Builds star / random / complete communication graphs over a set of agents,
marks a subset of them Byzantine, assigns Metropolis-Hastings mixing weights,
and derives the spectral quantities (virtual mixing matrix, mixing rate,
contraction budget) that the disagreement bounds consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TopologyError

__all__ = [
    "Network",
    "VirtualMatrix",
    "TheoryConstants",
    "build_network",
    "evenly_spaced_byzantine",
    "metropolis_weights",
    "virtual_matrix",
    "rho_upper_bound",
    "theory_constants",
    "constants_from_mixing",
]

_STOCH_TOL = 1e-12


def _bfs_connected(adj: np.ndarray, nodes: list[int]) -> bool:
    """True when `nodes` induce a connected subgraph of the adjacency matrix."""
    if not nodes:
        return True
    allowed = set(nodes)
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        u = frontier.pop()
        for v in np.flatnonzero(adj[u]):
            v = int(v)
            if v in allowed and v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(nodes)


def evenly_spaced_byzantine(n_agents: int, n_byz: int) -> tuple[int, ...]:
    """Default Byzantine placement: indices floor(t*n/b) for t = 0..b-1."""
    if n_byz == 0:
        return ()
    return tuple(t * n_agents // n_byz for t in range(n_byz))


def metropolis_weights(adj: np.ndarray) -> np.ndarray:
    """Metropolis-Hastings weight matrix for an undirected simple graph.

    w_ij = 1/(1 + max(deg_i, deg_j)) on edges; the diagonal absorbs the
    remainder of each row, which keeps the matrix symmetric, doubly
    stochastic, and strictly positive on the diagonal.
    """
    deg = adj.sum(axis=1)
    n = adj.shape[0]
    w = np.zeros((n, n))
    rows, cols = np.nonzero(adj)
    w[rows, cols] = 1.0 / (1.0 + np.maximum(deg[rows], deg[cols]))
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


@dataclass(frozen=True)
class Network:
    """Immutable communication graph with mixing weights.

    Attributes:
        n_agents: total number of agents, reliable and Byzantine.
        byzantine: sorted agent ids that behave adversarially.
        adjacency: boolean (n, n) symmetric matrix, False on the diagonal.
        weights: Metropolis-Hastings mixing matrix, rows sum to one.
        recv, send: directed edge list, one entry per nonzero of adjacency
            in row-major order; edge e carries send[e]'s message to recv[e].
            The order depends on the adjacency alone, never on the
            Byzantine labels, so labeled and unlabeled runs sum alike.
        edge_w: weights[recv, send], the mixing weight of each edge.
    """

    n_agents: int
    byzantine: tuple[int, ...]
    adjacency: np.ndarray
    weights: np.ndarray
    reliable: tuple[int, ...] = field(init=False)
    recv: np.ndarray = field(init=False, repr=False)
    send: np.ndarray = field(init=False, repr=False)
    edge_w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rel = tuple(i for i in range(self.n_agents) if i not in set(self.byzantine))
        object.__setattr__(self, "reliable", rel)
        self.adjacency.setflags(write=False)
        self.weights.setflags(write=False)
        recv, send = (np.ascontiguousarray(v) for v in np.nonzero(self.adjacency))
        edge_w = self.weights[recv, send]
        for name, arr in (("recv", recv), ("send", send), ("edge_w", edge_w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def byzantine_edges(self) -> np.ndarray:
        """Boolean mask over the edge list: True where the sender is Byzantine."""
        byz = np.zeros(self.n_agents, dtype=bool)
        byz[list(self.byzantine)] = True
        return byz[self.send]

    def weight_split(self) -> tuple[np.ndarray, np.ndarray]:
        """Per receiver, the total edge weight from reliable senders and
        from Byzantine senders, each summed in edge order."""
        from_byz = self.byzantine_edges()
        w_rel = np.bincount(
            self.recv, np.where(from_byz, 0.0, self.edge_w), minlength=self.n_agents
        )
        w_byz = np.bincount(
            self.recv, np.where(from_byz, self.edge_w, 0.0), minlength=self.n_agents
        )
        return w_rel, w_byz

    def neighbors(self, i: int) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.adjacency[i])]

    def reliable_neighbors(self, i: int) -> list[int]:
        byz = set(self.byzantine)
        return [j for j in self.neighbors(i) if j not in byz]

    def byzantine_neighbors(self, i: int) -> list[int]:
        byz = set(self.byzantine)
        return [j for j in self.neighbors(i) if j in byz]

    def validate(self) -> None:
        """Check the structural invariants; raises TopologyError on failure."""
        w, a = self.weights, self.adjacency
        if not np.array_equal(a, a.T) or a.diagonal().any():
            raise TopologyError("adjacency must be symmetric with an empty diagonal")
        if not np.allclose(w, w.T, atol=_STOCH_TOL):
            raise TopologyError("weights must be symmetric")
        if np.abs(w.sum(axis=1) - 1.0).max() > _STOCH_TOL:
            raise TopologyError("weight rows must sum to one")
        if np.abs(w.sum(axis=0) - 1.0).max() > _STOCH_TOL:
            raise TopologyError("weight columns must sum to one")
        if (w.diagonal() <= 0).any():
            raise TopologyError("self-weights must be positive")
        off = w.copy()
        np.fill_diagonal(off, 0.0)
        if ((off != 0) != a).any():
            raise TopologyError("weight support must match the edge set")
        if not _bfs_connected(a, list(self.reliable)):
            raise TopologyError("reliable agents do not form a connected subgraph")


def _star_adjacency(n: int) -> np.ndarray:
    # Hub at the last index so the default Byzantine placement (which always
    # contains index 0) leaves the hub reliable.
    adj = np.zeros((n, n), dtype=bool)
    adj[: n - 1, n - 1] = True
    adj[n - 1, : n - 1] = True
    return adj


def build_network(
    kind: str,
    n_agents: int,
    byz_fraction: float = 0.0,
    seed: int = 0,
    edge_p: float = 0.3,
    byzantine_ids: tuple[int, ...] | None = None,
    max_retries: int = 100,
) -> Network:
    """Build a communication graph with a Byzantine subset and mixing weights.

    kind is one of "star", "random", "complete". Random graphs draw each edge
    independently with probability edge_p and are resampled (up to
    max_retries) until the reliable agents induce a connected subgraph.
    Byzantine ids default to the evenly spaced placement
    floor(t*n/|B|), t = 0..|B|-1, and can be overridden explicitly.
    """
    if n_agents < 2:
        raise TopologyError("need at least two agents")
    if byzantine_ids is not None:
        byz = tuple(sorted(set(int(b) for b in byzantine_ids)))
        if byz and (byz[0] < 0 or byz[-1] >= n_agents):
            raise TopologyError("byzantine ids out of range")
    else:
        if not 0.0 <= byz_fraction <= 0.5:
            raise TopologyError("byz_fraction must lie in [0, 0.5]")
        byz = evenly_spaced_byzantine(n_agents, int(round(byz_fraction * n_agents)))
    if len(byz) >= n_agents:
        raise TopologyError("at least one agent must stay reliable")
    reliable = [i for i in range(n_agents) if i not in set(byz)]

    if kind == "star":
        adj = _star_adjacency(n_agents)
        if n_agents - 1 in byz:
            raise TopologyError(
                "star hub is Byzantine: reliable leaves would be disconnected"
            )
        if not _bfs_connected(adj, reliable):
            raise TopologyError("reliable agents do not form a connected subgraph")
    elif kind == "complete":
        adj = ~np.eye(n_agents, dtype=bool)
    elif kind == "random":
        if not 0.0 < edge_p <= 1.0:
            raise TopologyError("edge_p must lie in (0, 1]")
        rng = np.random.default_rng(seed)
        adj = None
        for _ in range(max_retries):
            upper = rng.random((n_agents, n_agents)) < edge_p
            cand = np.triu(upper, k=1)
            cand = cand | cand.T
            if _bfs_connected(cand, reliable):
                adj = cand
                break
        if adj is None:
            raise TopologyError(
                f"no connected reliable subgraph in {max_retries} draws "
                f"(edge_p={edge_p}); raise edge_p or the retry budget"
            )
    else:
        raise TopologyError(f"unknown topology kind {kind!r}")

    net = Network(n_agents=n_agents, byzantine=byz, adjacency=adj, weights=metropolis_weights(adj))
    net.validate()
    return net


@dataclass(frozen=True)
class VirtualMatrix:
    """Reliable-only mixing matrix with Byzantine weights folded to the diagonal.

    mixing_sq is the squared spectral norm of (W~ - J/|R|), the mixing rate
    consumed by the disagreement bounds; it lies in [0, 1) whenever the
    reliable subgraph is connected and the diagonal is positive.
    """

    matrix: np.ndarray
    mixing_sq: float
    reliable: tuple[int, ...]

    def __post_init__(self):
        self.matrix.setflags(write=False)


def _dominant_sq_norm(m: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Squared spectral norm via power iteration on M^T M.

    The matrices here are tiny, but an explicit iteration keeps the routine
    dependency-free; tests cross-check it against a full SVD.
    """
    n = m.shape[0]
    if n == 0 or not m.any():
        return 0.0
    gram = m.T @ m
    # seeded random start: a fixed vector such as the all-ones direction can
    # sit in the null space (mixing matrices are centered) and stall at zero
    rng = np.random.default_rng(0x5CC)
    v = rng.standard_normal(n)
    v /= float(np.linalg.norm(v))
    prev = 0.0
    for _ in range(max_iter):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            v = rng.standard_normal(n)
            v /= float(np.linalg.norm(v))
            prev = 0.0
            continue
        v = w / norm
        if abs(norm - prev) <= tol * max(1.0, norm):
            return norm
        prev = norm
    return prev


def virtual_matrix(net: Network) -> VirtualMatrix:
    """Fold Byzantine columns into the diagonal of the reliable weight block.

    Each reliable agent's weight mass toward Byzantine neighbors is moved to
    its self-weight, preserving double stochasticity on the reliable block.
    """
    rel = list(net.reliable)
    byz = list(net.byzantine)
    w = net.weights
    block = w[np.ix_(rel, rel)].copy()
    if byz:
        block[np.diag_indices_from(block)] += w[np.ix_(rel, byz)].sum(axis=1)
    r = len(rel)
    centered = block - 1.0 / r
    lam = _dominant_sq_norm(centered)
    return VirtualMatrix(matrix=block, mixing_sq=float(lam), reliable=tuple(rel))


def rho_upper_bound(net: Network) -> float:
    """Feasible contraction constant for self-centered clipping.

    4 * max over reliable agents of sqrt(sum of reliable-neighbor weights *
    sum of Byzantine-neighbor weights); zero exactly when no reliable agent
    has a Byzantine neighbor.
    """
    w_rel, w_byz = net.weight_split()
    rel = list(net.reliable)
    return 4.0 * float(np.max(np.sqrt(w_rel[rel] * w_byz[rel]), initial=0.0))


@dataclass(frozen=True)
class TheoryConstants:
    """Derived constants of the disagreement/convergence analysis.

    All fields follow the analysis' greek names. regime_valid is True only
    when 0 <= rho < rho_bar, which makes varphi, eta, phi all land in (0, 1).
    """

    rho: float
    rho_bar: float
    mixing_sq: float
    n_reliable: int
    dim: int
    smoothness: float
    pl_constant: float
    grad_variance: float
    heterogeneity: float
    noise_var: float
    varphi: float
    eta: float
    phi: float
    vartheta: float
    theta: float
    k0: int
    theta_min: float
    iota: float
    regime_valid: bool


def constants_from_mixing(
    mixing_sq: float,
    n_reliable: int,
    rho: float,
    smoothness: float,
    pl_constant: float,
    grad_variance: float,
    heterogeneity: float,
    noise_var: float,
    dim: int,
) -> TheoryConstants:
    """Assemble the constant cluster from a known mixing rate.

    varphi = mixing - 4*rho*sqrt(|R|), eta = varphi/2, phi = varphi/(4-varphi),
    vartheta = 4|R|(dim*noise + 4(sigma^2+zeta^2))/phi, theta = phi/(4*sqrt(3)*L),
    k0 = smallest integer exceeding 2/phi, theta_min = min(theta, 1/nu),
    iota = (1 + 1/k0)^2. Outside the regime the downstream bounds refuse to
    evaluate; the fields are still populated for reporting.
    """
    lam = float(mixing_sq)
    r = int(n_reliable)
    varphi = lam - 4.0 * rho * math.sqrt(r)
    eta = varphi / 2.0
    phi = varphi / (4.0 - varphi) if varphi != 4.0 else math.inf
    rho_bar = lam / (4.0 * math.sqrt(r))
    regime = (0.0 <= rho < rho_bar) and 0.0 < varphi < 1.0 and 0.0 < eta < 1.0 and 0.0 < phi < 1.0
    if phi > 0:
        vartheta = 4.0 * r * (dim * noise_var + 4.0 * (grad_variance + heterogeneity)) / phi
        theta = phi / (4.0 * math.sqrt(3.0) * smoothness)
        k0 = int(math.floor(2.0 / phi)) + 1
    else:
        vartheta = math.inf
        theta = 0.0
        k0 = 0
    theta_min = min(theta, 1.0 / pl_constant) if pl_constant > 0 else theta
    iota = (1.0 + 1.0 / k0) ** 2 if k0 > 0 else math.inf
    return TheoryConstants(
        rho=float(rho),
        rho_bar=float(rho_bar),
        mixing_sq=lam,
        n_reliable=r,
        dim=int(dim),
        smoothness=float(smoothness),
        pl_constant=float(pl_constant),
        grad_variance=float(grad_variance),
        heterogeneity=float(heterogeneity),
        noise_var=float(noise_var),
        varphi=float(varphi),
        eta=float(eta),
        phi=float(phi),
        vartheta=float(vartheta),
        theta=float(theta),
        k0=k0,
        theta_min=float(theta_min),
        iota=float(iota),
        regime_valid=bool(regime),
    )


def theory_constants(
    net: Network,
    rho: float,
    smoothness: float,
    pl_constant: float,
    grad_variance: float,
    heterogeneity: float,
    noise_var: float,
    dim: int,
) -> TheoryConstants:
    """Constant cluster for a concrete network; mixing comes from virtual_matrix."""
    vm = virtual_matrix(net)
    return constants_from_mixing(
        vm.mixing_sq,
        len(net.reliable),
        rho,
        smoothness,
        pl_constant,
        grad_variance,
        heterogeneity,
        noise_var,
        dim,
    )
