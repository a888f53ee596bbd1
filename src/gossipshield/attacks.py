"""Byzantine message falsification strategies.

A Byzantine agent participates in the round protocol only through the
messages it publishes; each strategy here computes, from a read-only
snapshot of the current models, the vector (or silence) that replaces the
honest half-step in its receivers' inboxes.

Receiver-specific strategies (sign flip, dissensus) produce a different
message per reliable receiver; the others broadcast one message per
Byzantine sender per round. The 'none' kind means the labeled agents run
the honest protocol, which is what makes attack-free equivalence testable
bit for bit.

The round loop falsifies through AttackPlan, one pass over a round's
whole edge list. The per-message functions (sign_flip_msg, alie_msg,
dissensus_msg, perturbed_dup_msg) are not called by library code; they
stay as the per-agent API and as the oracles the tests check the plan
against.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .aggregation import ReceiverSums
from .errors import ConfigError, count, number_or_schedule, real
from .schedules import value_at
from .topology import Network

__all__ = [
    "ATTACK_KINDS",
    "AttackSpec",
    "AttackPlan",
    "sign_flip_msg",
    "alie_coefficient",
    "alie_msg",
    "dissensus_msg",
    "perturbed_dup_msg",
]

ATTACK_KINDS = ("none", "sign_flip", "alie", "dissensus", "perturbed_dup", "silent")


@dataclasses.dataclass(frozen=True)
class AttackSpec:
    """Attack kind plus its hyperparameters.

    p_mult and p_add accept a constant or any schedule object with an
    alpha(k) method, so perturbations can decay over rounds. victim None
    rotates over the sender's reliable neighbors round-robin; an explicit
    id pins it. alie_local=True demotes the population statistics attack
    from the global reliable view to each receiver's neighborhood.
    """

    kind: str = "none"
    s_b: float = 1.0
    d_r: float = 1.0
    p_mult: float | object = 1.0
    p_add: float | object = 0.0
    victim: int | None = None
    alie_local: bool = False

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(
                f"unknown attack kind {self.kind!r}; expected one of {ATTACK_KINDS}"
            )
        real(self.d_r, "d_r")  # every magnitude may be infinite
        number_or_schedule(self.p_mult, "p_mult")
        number_or_schedule(self.p_add, "p_add")
        if self.victim is not None:
            count(self.victim, "victim")
        if real(self.s_b, "s_b") < 0 and self.kind == "sign_flip":
            raise ConfigError(f"sign-flip scale must be nonnegative, got {self.s_b}")

    def check_victim(self, reliable) -> None:
        """Refuse a fixed duplication victim outside the given reliable ids."""
        if self.kind == "perturbed_dup" and self.victim is not None and self.victim not in reliable:
            raise ConfigError(f"fixed victim {self.victim} is not reliable")


def sign_flip_msg(neighborhood_states: np.ndarray, s_b: float) -> np.ndarray:
    """Negative scaled mean of the receiver's reliable neighborhood
    (receiver included)."""
    arr = np.asarray(neighborhood_states, dtype=float)
    if arr.shape[0] == 0:
        raise ValueError("sign flip needs a nonempty neighborhood")
    return -s_b * arr.mean(axis=0)


def alie_coefficient(n_total: int, n_reliable: int) -> float:
    """Largest deviation that still hides inside the honest majority.

    Inverse standard normal CDF at (|V| - floor(|V|/2 + 1)) / |R|; a
    threshold outside (0, 1) has no valid deviation and degrades to 0.
    """
    from scipy.special import ndtri

    threshold = (n_total - (n_total // 2 + 1)) / n_reliable
    if not 0.0 < threshold < 1.0:
        warnings.warn(
            f"population-statistics threshold {threshold} outside (0, 1); "
            "using zero deviation",
            stacklevel=2,
        )
        return 0.0
    return float(ndtri(threshold))


def alie_msg(reliable_states: np.ndarray, a: float) -> np.ndarray:
    """Mean minus a times the population standard deviation, per
    coordinate, over the given reliable models."""
    arr = np.asarray(reliable_states, dtype=float)
    return arr.mean(axis=0) - a * arr.std(axis=0)


def dissensus_msg(
    x_r: np.ndarray,
    rel_states: np.ndarray,
    rel_weights: np.ndarray,
    byz_weight_sum: float,
    d_r: float,
) -> np.ndarray:
    """Receiver's own model pushed against its consensus direction."""
    if byz_weight_sum <= 0.0:
        raise ValueError("dissensus needs positive Byzantine weight at the receiver")
    x_r = np.asarray(x_r, dtype=float)
    rel_states = np.asarray(rel_states, dtype=float)
    w = np.asarray(rel_weights, dtype=float)
    drift = w @ (rel_states - x_r)
    return x_r - d_r * drift / byz_weight_sum


def perturbed_dup_msg(victim_state: np.ndarray, p_mult: float, p_add: float) -> np.ndarray:
    """Victim's model, rescaled and offset."""
    return p_mult * np.asarray(victim_state, dtype=float) + p_add


class AttackPlan:
    """Per-network precomputation that falsifies Byzantine messages.

    Built once per round loop; apply(messages, k, models) overwrites, in
    the round's edge list (messages[e] travels from net.send[e] to
    net.recv[e]), every edge whose sender is a Byzantine agent of the
    plan's copies and leaves the rest alone. Byzantine agents do not
    update under a real attack, so the engine drops the edges into them
    from net before building the plan; where such edges are present they
    are written too but never read. Duplication victims come from each
    Byzantine agent's out-edges, which survive that drop. Receiver
    statistics are sums over reliable-sender edges, so nothing here is
    (A, A). Everything is a pure function of (k, models), so replays are
    exact.

    net may be the disjoint union of len(copies) copies of one network,
    agent s*A + i being agent i of copy s, as the engine builds for a
    group of seeds; copies is a boolean mask over them, true on the copies
    this plan attacks (by default net is one copy, attacked). The plan
    reads and writes only its own copies' agents and edges. Neighbourhood
    statistics never cross copies by construction; the global ALIE
    statistic, its coefficient and a fixed victim are taken per copy, so
    each copy is attacked exactly as it would be alone.
    """

    def __init__(self, spec: AttackSpec, net: Network, copies=(True,)):
        self.spec = spec
        n = net.n_agents
        n_copy = n // len(copies)
        n_rel = n_copy - int(np.count_nonzero(net.is_byz[:n_copy]))
        mine = np.repeat(np.asarray(copies, dtype=bool), n_copy)
        self._byz_idx = np.flatnonzero(net.is_byz & mine)
        self._rel_idx = np.flatnonzero(~net.is_byz & mine)
        from_byz = net.byzantine_edges() & mine[net.send]
        self._edges = np.flatnonzero(from_byz)
        self._to = net.recv[self._edges]

        if spec.kind in ("sign_flip", "dissensus") or (spec.kind == "alie" and spec.alie_local):
            # reliable-sender edges into receivers that hear a Byzantine
            # agent: the only receivers whose statistics a receiver-specific
            # message reads
            hears_byz = np.zeros(n, dtype=bool)
            hears_byz[self._to] = True
            stat_edges = np.flatnonzero(~from_byz & hears_byz[net.recv])
            self._stat_recv = net.recv[stat_edges]
            self._stat_send = net.send[stat_edges]
            self._stat_w = net.edge_w[stat_edges]
            self._stat_sums = ReceiverSums(self._stat_recv, n)
            # size of each receiver's reliable closed neighborhood
            count = self._stat_sums.counts.copy()
            count[self._rel_idx] += 1
            self._nbhd_count = np.maximum(count, 1)
            self._byz_wsum = net.weight_split()[1]

        if spec.kind == "alie":
            self._alie_a = alie_coefficient(n_copy, n_rel)
            self._alie_global = not spec.alie_local
            self._n_rel = n_rel
            # each overwritten edge's copy, counted among the plan's copies
            self._edge_copy = (np.cumsum(copies) - 1)[net.send[self._edges] // n_copy]

        if spec.kind == "perturbed_dup":
            spec.check_victim(net.reliable[:n_rel])
            # each Byzantine agent's victims, taken round-robin and kept in
            # one flat array: the fixed victim of its copy, or the reliable
            # receivers of its out-edges in edge order (itself when it has
            # none). On a symmetric graph those are its sorted reliable
            # neighbours, and they stay when the edges into Byzantine
            # agents are dropped.
            if spec.victim is not None:
                self._pool = spec.victim + self._byz_idx // n_copy * n_copy
                self._pool_len = np.ones(self._byz_idx.size, dtype=np.intp)
            else:
                out = np.flatnonzero(from_byz & ~net.is_byz[net.recv])
                lone = np.setdiff1d(self._byz_idx, net.send[out])
                senders = np.concatenate((net.send[out], lone))
                self._pool = np.concatenate((net.recv[out], lone))[
                    np.argsort(senders, kind="stable")
                ]
                self._pool_len = np.bincount(
                    np.searchsorted(self._byz_idx, senders), minlength=self._byz_idx.size
                )
            self._pool_start = np.cumsum(self._pool_len) - self._pool_len
            # position of each overwritten edge's sender in the Byzantine list
            self._sender_pos = np.searchsorted(self._byz_idx, net.send[self._edges])

    def _nbhd_mean(self, values: np.ndarray) -> np.ndarray:
        """Mean of values over each receiver's reliable closed neighborhood."""
        total = self._stat_sums(values.take(self._stat_send, axis=0))
        total[self._rel_idx] += values[self._rel_idx]
        count = self._nbhd_count if values.ndim == 1 else self._nbhd_count[:, None]
        return total / count

    def apply(self, messages: np.ndarray, k: int, models: np.ndarray) -> None:
        kind = self.spec.kind
        if kind == "none" or self._byz_idx.size == 0:
            return
        if kind == "silent":
            messages[self._edges] = 0.0
            return
        if kind == "sign_flip":
            messages[self._edges] = -self.spec.s_b * self._nbhd_mean(models)[self._to]
            return
        if kind == "alie":
            if self._alie_global:
                # alie_msg over each copy's reliable models
                rel = models[self._rel_idx].reshape((-1, self._n_rel) + models.shape[1:])
                vals = rel.mean(axis=1) - self._alie_a * rel.std(axis=1)
                messages[self._edges] = vals[self._edge_copy]
            else:
                mean = self._nbhd_mean(models)[self._to]
                second = self._nbhd_mean(models**2)[self._to]
                std = np.sqrt(np.maximum(second - mean**2, 0.0))
                messages[self._edges] = mean - self._alie_a * std
            return
        if kind == "dissensus":
            w = self._stat_w if models.ndim == 1 else self._stat_w[:, None]
            pull = models.take(self._stat_send, axis=0)
            pull -= models.take(self._stat_recv, axis=0)
            pull *= w
            drift = self._stat_sums(pull)[self._to]
            # every receiver here hears a Byzantine agent, so its weight is positive
            byz_w = self._byz_wsum[self._to]
            if models.ndim > 1:
                byz_w = byz_w[:, None]
            messages[self._edges] = models[self._to] - self.spec.d_r * drift / byz_w
            return
        if kind == "perturbed_dup":
            p_mult = value_at(self.spec.p_mult, k)
            p_add = value_at(self.spec.p_add, k)
            victims = self._pool[self._pool_start + k % self._pool_len]
            vals = perturbed_dup_msg(models[victims], p_mult, p_add)
            messages[self._edges] = vals[self._sender_pos]
            return
        raise ConfigError(f"unhandled attack kind {kind!r}")
