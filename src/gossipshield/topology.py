"""Network topologies for multi-agent optimization with unreliable members.

Builds star / random / complete communication graphs over a set of agents,
marks a subset of them Byzantine, assigns Metropolis-Hastings mixing weights,
and derives the spectral quantities (mixing rate, contraction budget) that
the disagreement bounds consume.

A network is its directed edge list, never an (A, A) matrix: every kind
emits upper-triangle pairs, one shared step turns them into sorted
(recv, send) lists with per-edge and self weights, and validation, the
connectivity search and the mixing rate all run over those lists, so
set-up memory is O(A + E). The random graph still draws all A^2 uniforms
per attempt, in row blocks, which keeps its edges those of a single
(A, A) draw from the same seed. Complete graphs at 10^4 agents (10^8
edges) are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TopologyError, count, finite, nonnegative, number, positive

__all__ = [
    "Network",
    "TheoryConstants",
    "build_network",
    "evenly_spaced_byzantine",
    "mixing_sq",
    "rho_upper_bound",
    "theory_constants",
    "constants_from_mixing",
]

_STOCH_TOL = 1e-12
# uniforms per row block of the random-graph draw: 512 KiB of float64,
# which stays in a core's L2 cache
_DRAW_BLOCK = 1 << 16
_MAX_DRAWS = 100  # random graphs drawn before a connected reliable subgraph is given up


def _reliable_connected(indptr: np.ndarray, send: np.ndarray, is_byz: np.ndarray) -> bool:
    """True when the reliable agents induce a connected subgraph: a
    breadth-first search over the CSR, one frontier per numpy step, that
    never enters a Byzantine agent."""
    rel = np.flatnonzero(~is_byz)
    if len(rel) == 0:
        return True
    seen = is_byz.copy()
    seen[rel[0]] = True
    frontier = rel[:1]
    while len(frontier):
        # every edge out of the frontier: each row's run of the CSR
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        nbrs = send[np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)]
        frontier = np.unique(nbrs[~seen[nbrs]])
        seen[frontier] = True
    return bool(seen.all())


def evenly_spaced_byzantine(n_agents: int, n_byz: int) -> tuple[int, ...]:
    """Default Byzantine placement: indices floor(t*n/b) for t = 0..b-1."""
    if n_byz == 0:
        return ()
    return tuple(t * n_agents // n_byz for t in range(n_byz))


def _directed(n: int, iu: np.ndarray, ju: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both directions of each undirected pair, sorted by (recv, send):
    the row-major order of the nonzeros of the adjacency matrix."""
    iu = np.asarray(iu, dtype=np.intp)
    ju = np.asarray(ju, dtype=np.intp)
    key = np.concatenate((iu * n + ju, ju * n + iu))
    key.sort()
    return np.divmod(key, n)


def _indptr(recv: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(np.bincount(recv, minlength=n))))


def _metropolis(n: int, recv: np.ndarray, send: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metropolis-Hastings weights of an undirected simple graph's edge list.

    w_ij = 1/(1 + max(deg_i, deg_j)) on edges; the self-weight absorbs the
    remainder of each row, which keeps the weights symmetric, doubly
    stochastic, and strictly positive on the diagonal.
    """
    deg = np.bincount(recv, minlength=n)
    edge_w = 1.0 / (1.0 + np.maximum(deg[recv], deg[send]))
    return edge_w, 1.0 - np.bincount(recv, edge_w, minlength=n)


@dataclass(frozen=True)
class Network:
    """Immutable communication graph with mixing weights.

    Attributes:
        n_agents: total number of agents, reliable and Byzantine.
        byzantine: sorted agent ids that behave adversarially.
        recv, send: directed edge list sorted by (recv, send), both
            directions of every undirected edge, no repeats and no
            self-loops; edge e
            carries send[e]'s message to recv[e]. The order depends on the
            edge set alone, never on the Byzantine labels, so labeled and
            unlabeled runs sum alike.
        edge_w: the mixing weight of each edge.
        self_w: each agent's weight on its own model.
        indptr: CSR row pointer, so agent i's edges are
            indptr[i]:indptr[i + 1].
        is_byz: boolean mask over agents, True on the Byzantine ones.
    """

    n_agents: int
    byzantine: tuple[int, ...]
    recv: np.ndarray = field(repr=False)
    send: np.ndarray = field(repr=False)
    edge_w: np.ndarray = field(repr=False)
    self_w: np.ndarray = field(repr=False)
    reliable: tuple[int, ...] = field(init=False)
    indptr: np.ndarray = field(init=False, repr=False)
    is_byz: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        is_byz = np.zeros(self.n_agents, dtype=bool)
        is_byz[list(self.byzantine)] = True
        object.__setattr__(self, "reliable", tuple(np.flatnonzero(~is_byz).tolist()))
        arrays = {
            "is_byz": is_byz,
            "indptr": _indptr(self.recv, self.n_agents),
            **{name: np.ascontiguousarray(getattr(self, name))
               for name in ("recv", "send", "edge_w", "self_w")},
        }
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        # rebuilt through the constructor, so an unpickled network's arrays
        # are read-only and indptr, is_byz and reliable are derived again
        return Network, (self.n_agents, self.byzantine, self.recv, self.send,
                         self.edge_w, self.self_w)

    def byzantine_edges(self) -> np.ndarray:
        """Boolean mask over the edge list: True where the sender is Byzantine."""
        return self.is_byz[self.send]

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

    def _neighbors(self, i: int) -> np.ndarray:
        return self.send[self.indptr[i]:self.indptr[i + 1]]

    def neighbors(self, i: int) -> list[int]:
        return self._neighbors(i).tolist()

    def reliable_neighbors(self, i: int) -> list[int]:
        nbrs = self._neighbors(i)
        return nbrs[~self.is_byz[nbrs]].tolist()

    def byzantine_neighbors(self, i: int) -> list[int]:
        nbrs = self._neighbors(i)
        return nbrs[self.is_byz[nbrs]].tolist()

    def validate(self) -> None:
        """Check the structural invariants; raises TopologyError on failure."""
        n, recv, send, w = self.n_agents, self.recv, self.send, self.edge_w
        if not (recv.shape == send.shape == w.shape and self.self_w.shape == (n,)):
            raise TopologyError("edge arrays must share one length, self_w one per agent")
        if len(recv) and (min(recv.min(), send.min()) < 0 or max(recv.max(), send.max()) >= n):
            raise TopologyError("edge endpoints out of range")
        if (recv == send).any():
            raise TopologyError("edge list must not hold self-loops")
        if (np.diff(recv) < 0).any():
            raise TopologyError("edge list must be sorted by receiver")
        key, rkey = recv * n + send, send * n + recv
        if (np.diff(key) <= 0).any():
            raise TopologyError("each receiver's senders must be sorted, without repeats")
        # symmetric: every edge's reverse is on the list, with the same weight
        rev = np.searchsorted(key, rkey)
        if (
            (rev == len(key)).any()
            or not np.array_equal(key[rev], rkey)
            or np.abs(w[rev] - w).max(initial=0.0) > _STOCH_TOL
        ):
            raise TopologyError("edges and weights must be symmetric")
        if np.abs(self.self_w + np.bincount(recv, w, minlength=n) - 1.0).max() > _STOCH_TOL:
            raise TopologyError("weight rows must sum to one")
        if np.abs(self.self_w + np.bincount(send, w, minlength=n) - 1.0).max() > _STOCH_TOL:
            raise TopologyError("weight columns must sum to one")
        if (self.self_w <= 0).any():
            raise TopologyError("self-weights must be positive")
        if (w == 0).any():
            raise TopologyError("every edge must carry a nonzero weight")
        if not _reliable_connected(self.indptr, send, self.is_byz):
            raise TopologyError("reliable agents do not form a connected subgraph")


def _random_pairs(rng: np.random.Generator, n: int, edge_p: float):
    """Upper-triangle pairs of one G(n, p) draw, row-major.

    Consumes n^2 uniforms in C order, as one rng.random((n, n)) would, but
    in blocks of whole rows of at most _DRAW_BLOCK uniforms (one row where
    n exceeds it), so memory stays O(n + E). The 512 KiB budget exists
    because a block's floats and mask stay resident after the draw (an
    8 MiB block adds about 6 MiB to a 1000-agent run's peak RSS), and a
    block this size stays in a core's L2 cache. Each block's hits are
    read with one flat scan, divmod'ed into (row, column), which is
    cheaper than a 2-D nonzero; the flat order is row-major, so the pairs
    come out in the one-shot draw's order.
    """
    rows = max(1, _DRAW_BLOCK // n)
    iu, ju = [], []
    for r0 in range(0, n, rows):
        block = rng.random((min(rows, n - r0), n))
        i, j = np.divmod(np.flatnonzero(block < edge_p), n)
        i += r0
        upper = j > i  # the strict upper triangle, without a triu copy
        iu.append(i[upper])
        ju.append(j[upper])
    return np.concatenate(iu), np.concatenate(ju)


def build_network(
    kind: str,
    n_agents: int,
    byz_fraction: float = 0.0,
    seed: int = 0,
    edge_p: float = 0.3,
    byzantine_ids: tuple[int, ...] | None = None,
) -> Network:
    """Build a communication graph with a Byzantine subset and mixing weights.

    kind is one of "star", "random", "complete". Random graphs draw each edge
    independently with probability edge_p and are resampled (up to _MAX_DRAWS
    draws in all) until the reliable agents induce a connected subgraph.
    Byzantine ids default to the evenly spaced placement floor(t*n/|B|),
    t = 0..|B|-1, and can be overridden explicitly.
    """
    try:
        n_agents, seed = count(n_agents, "n_agents"), count(seed, "seed")
        byz_fraction, edge_p = number(byz_fraction, "byz_fraction"), number(edge_p, "edge_p")
        if byzantine_ids is not None:
            byz = tuple(sorted({count(b, "byzantine_ids") for b in byzantine_ids}))
    except ConfigError as exc:  # every refusal of a network is a TopologyError
        raise TopologyError(str(exc)) from None
    if n_agents < 2:
        raise TopologyError("need at least two agents")
    if byzantine_ids is not None:
        if byz and byz[-1] >= n_agents:
            raise TopologyError("byzantine ids out of range")
    else:
        if not 0.0 <= byz_fraction <= 0.5:
            raise TopologyError("byz_fraction must lie in [0, 0.5]")
        byz = evenly_spaced_byzantine(n_agents, int(round(byz_fraction * n_agents)))
    if len(byz) >= n_agents:
        raise TopologyError("at least one agent must stay reliable")

    if kind == "star":
        # Hub at the last index so the default Byzantine placement (which
        # always contains index 0) leaves the hub reliable.
        if n_agents - 1 in byz:
            raise TopologyError(
                "star hub is Byzantine: reliable leaves would be disconnected"
            )
        recv, send = _directed(
            n_agents, np.arange(n_agents - 1), np.full(n_agents - 1, n_agents - 1)
        )
    elif kind == "complete":
        recv, send = _directed(n_agents, *np.triu_indices(n_agents, k=1))
    elif kind == "random":
        if not 0.0 < edge_p <= 1.0:
            raise TopologyError("edge_p must lie in (0, 1]")
        rng = np.random.default_rng(seed)
        is_byz = np.zeros(n_agents, dtype=bool)
        is_byz[list(byz)] = True
        for _ in range(_MAX_DRAWS):
            recv, send = _directed(n_agents, *_random_pairs(rng, n_agents, edge_p))
            if _reliable_connected(_indptr(recv, n_agents), send, is_byz):
                break
        else:
            raise TopologyError(
                f"no connected reliable subgraph in {_MAX_DRAWS} draws "
                f"(edge_p={edge_p}); raise edge_p"
            )
    else:
        raise TopologyError(f"unknown topology kind {kind!r}")

    edge_w, self_w = _metropolis(n_agents, recv, send)
    net = Network(
        n_agents=n_agents, byzantine=byz, recv=recv, send=send, edge_w=edge_w, self_w=self_w
    )
    net.validate()
    return net


def mixing_sq(net: Network) -> float:
    """Mixing rate of the reliable agents: the squared spectral norm of
    W~ - J/|R|.

    W~ is the reliable block of the weights with each reliable agent's
    Byzantine weight folded into its self-weight, which keeps it
    symmetric and doubly stochastic; the rate lies in [0, 1) whenever the
    reliable subgraph is connected and the diagonal is positive. ARPACK's
    Lanczos iteration reads W~ only through a CSR matvec over the
    reliable-to-reliable edges, built once, from a seeded start, so the
    value is reproducible and nothing is (R, R). The matvec adds each
    row's edges in edge order from zero, as a bincount over the edge list
    would.
    """
    # imported here: scipy.sparse.linalg costs about 10 MiB of resident
    # memory, and only callers of the theory layer need it
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import LinearOperator, eigsh

    rel = np.flatnonzero(~net.is_byz)
    r = len(rel)
    diag = (net.self_w + net.weight_split()[1])[rel]
    if r == 1:
        return float((diag[0] - 1.0) ** 2)
    pos = np.full(net.n_agents, -1, dtype=np.intp)
    pos[rel] = np.arange(r)
    keep = ~(net.is_byz[net.recv] | net.is_byz[net.send])
    rr, ss = pos[net.recv[keep]], pos[net.send[keep]]
    edges = csr_array((net.edge_w[keep], ss, _indptr(rr, r)), shape=(r, r))

    def matvec(v):
        v = np.ravel(v)
        return diag * v + edges @ v - v.mean()

    # a fixed start such as the all-ones direction sits in the null space
    # (the operator is centered) and stalls at zero
    v0 = np.random.default_rng(0x5CC).standard_normal(r)
    if not matvec(v0).any():
        return 0.0  # ARPACK rejects the zero operator
    op = LinearOperator((r, r), matvec=matvec, dtype=float)
    lam = eigsh(op, k=1, which="LM", v0=v0, return_eigenvectors=False)[0]
    return float(lam * lam)


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
    lam = finite(mixing_sq, "mixing_sq")
    r = count(n_reliable, "n_reliable", 1)
    rho = finite(rho, "rho")
    smoothness = positive(smoothness, "smoothness")
    pl_constant = positive(pl_constant, "pl_constant")  # the gap ceilings divide by it
    grad_variance = nonnegative(grad_variance, "grad_variance")
    heterogeneity = nonnegative(heterogeneity, "heterogeneity")
    noise_var = nonnegative(noise_var, "noise_var")
    dim = count(dim, "dim", 1)
    varphi = lam - 4.0 * rho * math.sqrt(r)
    eta = varphi / 2.0
    phi = varphi / (4.0 - varphi) if varphi != 4.0 else math.inf
    rho_bar = lam / (4.0 * math.sqrt(r))
    regime = (0.0 <= rho < rho_bar) and 0.0 < varphi < 1.0 and 0.0 < eta < 1.0 and 0.0 < phi < 1.0
    if phi > 0:
        vartheta = 4.0 * r * (dim * noise_var + 4.0 * (grad_variance + heterogeneity)) / phi
        theta = finite(phi / (4.0 * math.sqrt(3.0) * smoothness), "theta")
        k0 = int(math.floor(2.0 / phi)) + 1
    else:
        vartheta = math.inf
        theta = 0.0
        k0 = 0
    theta_min = min(theta, 1.0 / pl_constant)
    iota = (1.0 + 1.0 / k0) ** 2 if k0 > 0 else math.inf
    return TheoryConstants(
        rho=rho,
        rho_bar=float(rho_bar),
        mixing_sq=lam,
        n_reliable=r,
        dim=dim,
        smoothness=smoothness,
        pl_constant=pl_constant,
        grad_variance=grad_variance,
        heterogeneity=heterogeneity,
        noise_var=noise_var,
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
    """Constant cluster for a concrete network; the mixing rate comes from
    mixing_sq."""
    return constants_from_mixing(
        mixing_sq(net),
        len(net.reliable),
        rho,
        smoothness,
        pl_constant,
        grad_variance,
        heterogeneity,
        noise_var,
        dim,
    )
