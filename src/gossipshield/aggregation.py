"""Clipped self-centered aggregation, its radii and the plain gossip baseline.

Per-agent reference implementations operate on an Inbox (what one agent
holds at the end of a communication round). The engine runs one edge
kernel over a whole round's edge list instead: edge_diffs takes every
edge's difference and norm once, the RadiusPlan of the round's TauSpec
gives every receiver its radius, manual or oracle, and scc_edges clips
and sums. The plain mean is scc_edges with an unbounded radius. Edge and
per-agent paths are equivalence-tested against each other, gossip_mean
included. No library code calls the per-agent rules; they stay here as
the oracles those tests compare the kernel against and as the per-agent
API the package exports.

Every per-receiver sum goes through one ReceiverSums per edge list, built
once for the round's state dimension: a fixed CSR matrix for one value
per edge under scalar states, np.bincount (bit-equal to it, and no
scipy.sparse to load) for the one scalar sum of a vector round, and
contiguous segment sums for vector values. The engine's edge list may
be the disjoint union of several copies of a network (one per seed of
an ensemble); the kernel never needs to know, because each receiver
only ever sums its own edges.

Silent peers are represented by zero vectors in the inbox; that
substitution happens at delivery time, before aggregation sees anything.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError
from .schedules import value_at
from .topology import Network

TAU_FLOOR = 1e-12
# the clipping-radius kinds that read ground-truth labels, besides "manual"
ORACLE_KINDS = ("corollary1", "remark4")


@dataclasses.dataclass(frozen=True)
class TauSpec:
    """Clipping-radius policy for the resilient aggregator.

    manual: fixed radius, or a schedule evaluated per round.
    corollary1 / remark4: ground-truth-label oracles; `value` is then the
    manual fallback used wherever the oracle is undefined (an agent with
    no Byzantine neighbor under corollary1, and a NaN numerator).
    """

    kind: str = "manual"
    value: float | object = 1.0

    def __post_init__(self):
        if self.kind not in ("manual",) + ORACLE_KINDS:
            raise ConfigError(f"unknown clipping-radius kind {self.kind!r}")
        real = isinstance(self.value, numbers.Real) and not isinstance(self.value, bool)
        if not (real or callable(getattr(self.value, "alpha", None))):
            raise ConfigError(f"clipping radius must be a number or a schedule, got {self.value!r}")
        # written so that NaN fails too; +inf (clip nothing) passes
        if not value_at(self.value, 0) > 0:
            raise ConfigError(f"clipping radius must be positive, got {self.value!r}")


@dataclasses.dataclass(frozen=True)
class Inbox:
    """One agent's view after a round: its own half-step and every
    neighbor's delivered model, zero-substituted when nothing arrived."""

    self_model: np.ndarray
    received: Mapping[int, np.ndarray]

    def __post_init__(self):
        object.__setattr__(
            self, "self_model", np.atleast_1d(np.asarray(self.self_model, dtype=float))
        )
        clean = {}
        for j, v in self.received.items():
            arr = np.atleast_1d(np.asarray(v, dtype=float))
            if arr.shape != self.self_model.shape:
                raise ValueError(
                    f"message from {j} has shape {arr.shape}, "
                    f"self model has {self.self_model.shape}"
                )
            clean[int(j)] = arr
        object.__setattr__(self, "received", clean)


def clip(v: np.ndarray, tau: float) -> np.ndarray:
    """Scale v down to norm tau when it is longer; zero stays zero."""
    if tau <= 0:
        raise ValueError(f"clip threshold must be positive, got {tau}")
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= tau:
        return v.copy()
    return v * (tau / norm)


def _check_row(i: int, inbox: Inbox, weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    total = w[i] + sum(w[j] for j in inbox.received)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(
            f"weights over agent {i}'s closed neighborhood sum to {total}, not 1; "
            "inbox keys must cover exactly the weighted neighbors"
        )
    return w


def scc_aggregate(i: int, inbox: Inbox, weights: np.ndarray, tau: float) -> np.ndarray:
    """Weighted average of neighbor models, each pulled toward self first.

    Every neighbor contribution is the self model plus the clipped
    difference, so a single outlier moves the output by at most its weight
    times tau.
    """
    w = _check_row(i, inbox, weights)
    out = inbox.self_model.copy()
    for j, msg in inbox.received.items():
        out += w[j] * clip(msg - inbox.self_model, tau)
    return out


def gossip_mean(i: int, inbox: Inbox, weights: np.ndarray) -> np.ndarray:
    """Plain weighted mean over the closed neighborhood, no protection."""
    w = _check_row(i, inbox, weights)
    out = w[i] * inbox.self_model
    for j, msg in inbox.received.items():
        out = out + w[j] * msg
    return out


def tau_corollary1(
    i: int, inbox: Inbox, weights: np.ndarray, byzantine: Iterable[int]
) -> float | None:
    """Clipping radius balancing reliable spread against Byzantine weight.

    sqrt of (reliable-weighted squared distances to self) / (total
    Byzantine neighbor weight). Needs ground-truth labels, so it is a
    simulation-only oracle. Returns None when the agent has no Byzantine
    neighbor (caller falls back to a manual radius); floors at TAU_FLOOR
    when every reliable neighbor sits exactly at self.
    """
    byz = set(byzantine)
    w = np.asarray(weights, dtype=float)
    den = sum(w[j] for j in inbox.received if j in byz)
    if den == 0.0:
        return None
    num = sum(
        w[j] * float(np.sum((msg - inbox.self_model) ** 2))
        for j, msg in inbox.received.items()
        if j not in byz
    )
    if num == 0.0:
        return TAU_FLOOR
    return float(np.sqrt(num / den))


def tau_remark4(
    i: int, inbox: Inbox, weights: np.ndarray, reliable: Iterable[int]
) -> float:
    """Conservative radius: reliable-weighted squared spread around self.

    Quadratic in the spread (not a distance), so it collapses toward the
    floor once neighbors agree. Ground-truth labels again, oracle only.
    """
    rel = set(reliable)
    w = np.asarray(weights, dtype=float)
    tau = sum(
        w[j] * float(np.sum((msg - inbox.self_model) ** 2))
        for j, msg in inbox.received.items()
        if j in rel
    )
    return max(float(tau), TAU_FLOOR)


# --- whole-round edge forms ---------------------------------------------------
#
# One round is an edge list: messages[e] is the model that agent send[e]
# delivered to agent recv[e] (already zero-substituted for silence), shape
# (E,) for scalar states or (E, d) in general. Self terms always use
# self_models; edge_w[e] is the receiver's mixing weight for that edge.
# A round is one difference pass -> radii -> clip -> per-receiver sum,
# never an (A, A) array.


class ReceiverSums:
    """Per-receiver sums over one fixed edge list sorted by receiver.

    Built once per edge list, for rounds on states of dim coordinates.
    Scalar values (one per edge) are summed by one of two kernels that
    both add every receiver's edges in edge order starting from +0.0, so
    their sums are bit-equal:
    - with scalar states (dim 1), where every sum of a round is scalar, a
      CSR matrix of receivers x edges holding 1.0 on each edge, built at
      the first sum: its matvec costs a fifth to a third of np.bincount
      at 2-4 * 10^4 edges;
    - with vector states, where a round's one scalar sum is the oracle
      radius numerator, np.bincount, so the run never loads scipy.sparse.
    Vector values (E, d) are summed one contiguous segment of edges per
    receiver with np.add.reduceat, which measured several times faster
    than a bincount per column at d = 10. Receivers with no edge get 0.
    """

    def __init__(self, recv: np.ndarray, n_agents: int, dim: int = 1):
        self.n_agents = n_agents
        self.counts = np.bincount(recv, minlength=n_agents)
        self._n_edges = len(recv)
        # the bincount kernel's receivers; None selects the matrix
        self._recv = None if dim == 1 else recv
        self._indptr = np.concatenate(([0], np.cumsum(self.counts)))
        self._has = self.counts > 0
        self._starts = self._indptr[:-1][self._has]
        self._matrix = None

    def __call__(self, values: np.ndarray) -> np.ndarray:
        if values.ndim == 1:
            if self._recv is not None:
                # with no edges, bincount returns integer zeros
                return np.bincount(self._recv, values, minlength=self.n_agents).astype(float)
            if self._matrix is None:
                from scipy.sparse import csr_array

                # 32-bit indices where they fit: half the index bytes read
                # per matvec, and the same sums
                index = np.int32 if self._n_edges < 2**31 else np.int64
                self._matrix = csr_array(
                    (
                        np.ones(self._n_edges),
                        np.arange(self._n_edges, dtype=index),
                        self._indptr.astype(index),
                    ),
                    shape=(self.n_agents, self._n_edges),
                )
            return self._matrix @ values
        out = np.zeros((self.n_agents, values.shape[1]))
        out[self._has] = np.add.reduceat(values, self._starts, axis=0)
        return out

    def spread(self, values: np.ndarray) -> np.ndarray:
        """values[recv[e]] for every edge e, as a new array."""
        return np.repeat(values, self.counts, axis=0)


def edge_diffs(messages: np.ndarray, self_models: np.ndarray, sums: ReceiverSums):
    """Per-edge differences messages[e] - self_models[recv[e]] and their
    norms: the one pass over the round's edges that both the oracle radii
    and the clip-and-sum read. sums is the edge list's ReceiverSums."""
    # spread plus an in-place subtract allocates one (E, d) array, not two;
    # fresh arrays of that size cost page faults that dominated at d = 10
    diffs = sums.spread(self_models)
    np.subtract(messages, diffs, out=diffs)
    if diffs.ndim == 1:
        return diffs, np.abs(diffs)
    return diffs, np.sqrt(np.einsum("ed,ed->e", diffs, diffs))


def scc_edges(
    diffs: np.ndarray,
    norms: np.ndarray,
    self_models: np.ndarray,
    sums: ReceiverSums,
    edge_w: np.ndarray,
    taus: np.ndarray,
) -> np.ndarray:
    """scc_aggregate for every receiver at once; taus is one radius per agent.

    diffs and norms come from edge_diffs, and diffs is overwritten. An
    infinite radius clips nothing, which makes this gossip_mean: the
    engine runs the mean baseline through here with taus = +inf. Only the
    clipped edges are rescaled; every other edge keeps edge_w, which is
    edge_w * 1.0 bit for bit.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.all(taus > 0.0):
        raise ValueError("clip thresholds must be positive, and not NaN")
    tau_e = sums.spread(taus)
    # where norms exceed tau they are strictly positive, so the division
    # never sees zero
    over = np.flatnonzero(norms > tau_e)
    shrink = tau_e[over] / norms[over]
    del tau_e  # one E-sized array fewer while scale is live
    scale = edge_w.copy()
    scale[over] *= shrink
    diffs *= scale if diffs.ndim == 1 else scale[:, None]
    return self_models + sums(diffs)


class RadiusPlan:
    """A TauSpec's radii on one edge list, beside AttackPlan.

    Built once per round loop; radii(k, norms) gives every receiver its
    radius in round k from the round's edge norms (edge_diffs). 'manual'
    is the spec's value at round k everywhere. The oracles read the edge
    weights with Byzantine senders at zero and each receiver's Byzantine
    weight, built once and only for an oracle (an E-sized array raises
    peak RSS), and fall back to the value at round k where undefined: at
    an agent with no Byzantine neighbor under 'corollary1', and under both
    at a NaN numerator (0 * inf, which an infinite Byzantine message leaves).
    """

    def __init__(self, tau: TauSpec, net: Network, sums: ReceiverSums):
        self.tau, self._sums = tau, sums
        if tau.kind != "manual":
            self._rel_w = np.where(net.byzantine_edges(), 0.0, net.edge_w)
            self._byz = net.weight_split()[1]

    def radii(self, k: int, norms: np.ndarray) -> np.ndarray:
        fallback = value_at(self.tau.value, k)
        if self.tau.kind == "manual":
            return np.full(self._sums.n_agents, fallback)
        weighted = self._rel_w * norms
        weighted *= norms
        tau = self._sums(weighted)
        if self.tau.kind == "corollary1":
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = np.where(self._byz > 0.0, np.sqrt(tau / self._byz), np.nan)
        tau = np.maximum(tau, TAU_FLOOR)  # NaN stays NaN
        tau[np.isnan(tau)] = fallback
        return tau
