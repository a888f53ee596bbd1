"""Clipped self-centered aggregation and the plain gossip baseline.

Per-agent reference implementations operate on an Inbox (what one agent
holds at the end of a communication round). The engine runs one edge
kernel over a whole round's edge list instead: edge_diffs takes every
edge's difference and norm once, tau_edges turns the norms into oracle
radii, and scc_edges clips and sums. The plain mean is scc_edges with an
unbounded radius. Edge and per-agent paths are equivalence-tested
against each other, gossip_mean included.

Silent peers are represented by zero vectors in the inbox; that
substitution happens at delivery time, before aggregation sees anything.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

import numpy as np

TAU_FLOOR = 1e-12


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


def receiver_sum(recv: np.ndarray, values: np.ndarray, n_agents: int) -> np.ndarray:
    """Sum per-edge values at each receiver; receivers with no edge get 0.

    recv must be sorted, as every edge list taken from Network is. Vector
    values are summed one contiguous segment of edges per receiver, which
    measured several times faster than a bincount per column at d = 10.
    """
    if values.ndim == 1:
        return np.bincount(recv, values, minlength=n_agents)
    counts = np.bincount(recv, minlength=n_agents)
    has = counts > 0
    out = np.zeros((n_agents, values.shape[1]))
    out[has] = np.add.reduceat(values, (np.cumsum(counts) - counts)[has], axis=0)
    return out


def edge_diffs(messages: np.ndarray, self_models: np.ndarray, recv: np.ndarray):
    """Per-edge differences messages[e] - self_models[recv[e]] and their
    norms: the one pass over the round's edges that both the oracle radii
    and the clip-and-sum read."""
    # take plus an in-place subtract allocates one (E, d) array, not two;
    # fresh arrays of that size cost page faults that dominated at d = 10
    diffs = self_models.take(recv, axis=0)
    np.subtract(messages, diffs, out=diffs)
    if diffs.ndim == 1:
        return diffs, np.abs(diffs)
    return diffs, np.sqrt(np.einsum("ed,ed->e", diffs, diffs))


def scc_edges(
    diffs: np.ndarray,
    norms: np.ndarray,
    self_models: np.ndarray,
    recv: np.ndarray,
    edge_w: np.ndarray,
    taus: np.ndarray,
) -> np.ndarray:
    """scc_aggregate for every receiver at once; taus is one radius per agent.

    diffs and norms come from edge_diffs, and diffs is overwritten. An
    infinite radius clips nothing, which makes this gossip_mean: the
    engine runs the mean baseline through here with taus = +inf.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus <= 0.0):
        raise ValueError("clip thresholds must be positive")
    tau_e = taus[recv]
    # where norms exceed tau they are strictly positive, so the division
    # inside the branch never sees zero
    over = norms > tau_e
    scale = edge_w * np.where(over, tau_e / np.where(over, norms, 1.0), 1.0)
    diffs *= scale if diffs.ndim == 1 else scale[:, None]
    return self_models + receiver_sum(recv, diffs, len(self_models))


def tau_edges(
    norms: np.ndarray,
    recv: np.ndarray,
    rel_w: np.ndarray,
    byz_weight: np.ndarray,
    kind: str,
) -> np.ndarray:
    """Oracle clipping radii for every receiver from the round's edge norms.

    norms come from edge_diffs. rel_w is edge_w with every Byzantine-sender
    edge set to zero, and byz_weight the total Byzantine weight at each
    receiver; both depend on the network alone, so callers build them
    once. kind 'corollary1' returns NaN where an agent has no Byzantine
    neighbor; the engine substitutes its manual fallback there. kind
    'remark4' never falls back and ignores byz_weight.
    """
    num = np.bincount(recv, rel_w * norms * norms, minlength=len(byz_weight))
    if kind == "remark4":
        return np.maximum(num, TAU_FLOOR)
    if kind != "corollary1":
        raise ValueError(f"unknown oracle radius kind: {kind}")
    has_byz = byz_weight > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.sqrt(num / byz_weight)
    return np.where(has_byz, np.maximum(tau, TAU_FLOOR), np.nan)
