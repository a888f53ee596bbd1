"""Synchronous round loop: sample, mask, half-step, exchange, aggregate.

Determinism contract: every random draw comes from a per-agent stream
seeded by (master seed, agent id, purpose tag), where purpose 0 is the
initial state, 1 the gradient sampling, and 2 the masking noise.
Because streams are keyed per agent and the noise stream only advances
when masking is on, toggling the Byzantine set, the attack, or the noise
variance never perturbs anyone else's draws; several equivalence
invariants in the test suite lean on exactly this. Each stream equals
default_rng(SeedSequence([seed, agent, purpose])): the keys of all
agents are run through numpy's SeedSequence hash in one pass of uint32
array arithmetic, and no SeedSequence object is built per agent. The
initial states build no generator at all: PCG64's own 128-bit step and
output are run from the keyed purpose-0 states in uint64 array
arithmetic, which yields each agent's uniform(-5, 5) draws bit for bit.

Every problem takes the same path: the problem's gradient sampler draws
each round's gradients from the purpose-1 streams, and the masking noise
is a block of standard normals from the purpose-2 streams, scaled by the
noise standard deviation. Both are drawn in chunks of rounds that batch
the same stream values in the same order, so a run is a prefix of any
longer run with the same inputs.

There is one round loop. An ensemble of S seeds runs as one run on the
S-fold disjoint union of the network: agent s*A + i is agent i of
seeds[s], draws exactly the streams it draws alone, and its receiver
sums its own copy's edges in the same order, so the S seeds share every
numpy call of a round and each copy's log is bit for bit the log of a run
on its seed. Seeds run in consecutive groups whose edge arrays stay
under a fixed element budget; run() is the group of one. Copies may carry
different attacks (a sweep's attack cells run this way, and a seed may
then appear once per cell): every copy under one attack spec, wherever it
sits in the group, is falsified by one plan over the round's whole edge
list, which writes only those copies' edges, and every receiver's
clipping radius comes from one RadiusPlan beside them. Only the global ALIE
statistic, a fixed duplication victim, the metric pass and the divergence
test are taken per copy. A copy that diverges is recorded as its own run
would record it and then zeroed while the others run on.

Copies that share a seed read one set of its streams: the generators
and initial states are made once per distinct seed, the noise blocks are
drawn once and expanded to the copies with one take per round, and the
problem's gradient sampler shares the gradient streams the same way
(an opaque per-agent sample_gradient draws from a clone per copy). The
round also leaves out the edges into held agents, the Byzantine agents
of copies under a real attack: their states are restored after every
round, so no message, difference, radius or sum is computed for them.
Copies under 'none' keep every edge.

The metric columns never feed back into the dynamics, so the loop does
not compute them round by round: it copies each round's reliable states
and half-steps into row buffers of fixed size per group, and computes the
disagreement, pre-aggregation disagreement and f(x-bar) of a whole chunk
of rows of every copy in one pass when the buffer fills and when the loop
ends. Every value is bit-equal to its per-row definition
(consensus_error of the reliable rows, GlobalProblem.f of their mean).

The loop derives and reads no theory constants: a ceiling is a reading of
a finished log, bounds.dk_bound of its initial disagreement.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .aggregation import RadiusPlan, ReceiverSums, TauSpec, edge_diffs, scc_edges
from .attacks import AttackPlan, AttackSpec
from .errors import ConfigError, count, nonnegative
from .objectives import GlobalProblem, normal_blocks, optimum_gaps
from .schedules import StepSizeSchedule
from .topology import Network

__all__ = [
    "TauSpec",
    "MetricsLog",
    "EnsembleResult",
    "run",
    "run_ensemble",
    "consensus_error",
    "optimal_gap_series",
]

DIVERGENCE_LIMIT = 1e12

# Elements of reliable states held for one metric pass, per buffer and
# group of copies (128 KiB of float64); a group holds two such buffers.
_METRIC_ELEMENTS = 1 << 14
# Edge values of one group of seeds run as a single round loop, copies x
# edges x state elements (512 KiB per float64 edge array).
_GROUP_ELEMENTS = 1 << 16


@dataclasses.dataclass
class MetricsLog:
    """Per-round metrics over the reliable set, one row per model state.

    Row k describes the models entering round k; pre_agg[k] is the
    disagreement of that round's half-steps, NaN on the final row because
    no further round ran. A diverged run truncates at the offending round
    and records where. run computes the rows in bounded chunks after the
    rounds that produced them; each equals its per-row definition bit for
    bit.
    """

    k: np.ndarray
    consensus: np.ndarray
    pre_agg: np.ndarray
    f_bar: np.ndarray
    f_best: np.ndarray
    gap: np.ndarray
    seed: int
    status: str = "completed"
    diverged_at: int | None = None
    final_x: np.ndarray | None = None
    traces: np.ndarray | None = None
    half_traces: np.ndarray | None = None

    @property
    def rounds_completed(self) -> int:
        return len(self.k) - 1


@dataclasses.dataclass
class EnsembleResult:
    """Seed-averaged curves over the common prefix of the member runs.

    The optimal gap is reported both ways the expectation can be read:
    gap_mean_of_min averages each seed's running-best gap, while
    gap_min_of_mean takes the running best of the averaged objective
    curve. They are labeled separately everywhere downstream.
    """

    logs: list
    k: np.ndarray
    consensus_mean: np.ndarray
    pre_agg_mean: np.ndarray
    f_bar_mean: np.ndarray
    gap_mean_of_min: np.ndarray
    gap_min_of_mean: np.ndarray
    statuses: list

    @classmethod
    def from_logs(cls, logs: list, f_star: float) -> EnsembleResult:
        """The seed averages of the given member logs."""
        rows = min(len(log.k) for log in logs)
        ks = np.arange(rows)
        consensus = np.mean([log.consensus[:rows] for log in logs], axis=0)
        pre = np.mean([log.pre_agg[:rows] for log in logs], axis=0)
        f_bar = np.mean([log.f_bar[:rows] for log in logs], axis=0)
        gap_mean_of_min = np.mean([log.gap[:rows] for log in logs], axis=0)
        gap_min_of_mean = optimal_gap_series(f_bar, f_star)
        return cls(
            logs=logs,
            k=ks,
            consensus_mean=consensus,
            pre_agg_mean=pre,
            f_bar_mean=f_bar,
            gap_mean_of_min=gap_mean_of_min,
            gap_min_of_mean=gap_min_of_mean,
            statuses=[log.status for log in logs],
        )


def consensus_error(models: np.ndarray) -> float:
    """Total squared distance of the given models from their average."""
    models = np.array(models, dtype=float)
    if models.shape[0] == 0:
        raise ConfigError("need at least one reliable agent")
    return float(_row_disagreement(models[np.newaxis])[0])


def _row_disagreement(rows: np.ndarray) -> np.ndarray:
    """consensus_error of each row of models, for rows of shape
    (n, models, ...); centres and squares rows in place. A row past the
    float range reads inf or NaN without a warning: the divergence test
    records its run."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows -= rows.mean(axis=1, keepdims=True)
        rows *= rows
        return np.sum(rows, axis=tuple(range(1, rows.ndim)))


def optimal_gap_series(f_values: np.ndarray, f_star: float) -> np.ndarray:
    """Running best objective value minus the optimum; never negative, NaN from a NaN on."""
    best = np.minimum.accumulate(np.asarray(f_values, dtype=float))
    return np.maximum(optimum_gaps(best, f_star), 0.0)


def _diverged(copies: np.ndarray) -> np.ndarray:
    """Per row of copies (one row per copy): True where any state lies
    beyond DIVERGENCE_LIMIT, or is NaN or inf."""
    # NaN and inf fail the comparison too
    return ~(np.abs(copies).reshape(len(copies), -1).max(axis=1) <= DIVERGENCE_LIMIT)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a running
# 32-bit constant per phase, a 4-word pool, and the mix of two words
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int):
    """SeedSequence's running constant as (xor, multiplier) pairs, one per
    hashmix; the chain stays in Python ints so nothing overflows a scalar."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hashmix(values: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return out ^ (out >> 16)


def _keyed_states(seed: int, n_agents: int, purpose: int) -> np.ndarray:
    """Row i is SeedSequence([seed, i, purpose]).generate_state(4, uint64).

    The key words are what SeedSequence coerces that list to: the seed's
    little-endian 32-bit words (at least one), then i, then purpose. Every
    agent's key has the same length, so the hash runs column by column
    over all agents at once.
    """
    seed = int(seed)
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _MASK32)
    key = [np.full(n_agents, w, dtype=np.uint32) for w in words]
    key += [np.arange(n_agents, dtype=np.uint32), np.full(n_agents, purpose, dtype=np.uint32)]
    zeros = np.zeros(n_agents, dtype=np.uint32)

    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(key[i] if i < len(key) else zeros, consts) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in key[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))

    consts = _hash_consts(_INIT_B, _MULT_B)
    state = np.stack(
        [_hashmix(pool[j % _POOL_SIZE], consts) for j in range(2 * _POOL_SIZE)], axis=1
    )
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _KeyedState(ISeedSequence):
    """Hands PCG64 the state its SeedSequence would have generated."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a keyed state holds exactly four uint64 words")
        return self._state


def _agent_rngs(seed: int, n_agents: int, purpose: int) -> list:
    """One generator per agent, keyed by (seed, agent, purpose); each equals
    default_rng(SeedSequence([seed, agent, purpose]))."""
    return [
        np.random.Generator(np.random.PCG64(_KeyedState(state)))
        for state in _keyed_states(seed, n_agents, purpose)
    ]


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with this
# multiplier and an XSL-RR output; states are (high, low) uint64 words
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LIMBS = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
_LOW32 = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(b) for b in (1, 11, 32, 58, 63, 64))


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc mod 2^128 for arrays of states. The low
    words' full product comes from 32-bit limbs; everything else wraps mod
    2^64, which uint64 arrays do silently (numpy scalars would warn)."""
    a0, a1 = lo & _LOW32, lo >> _U32
    b0, b1 = _PCG_MULT_LIMBS
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    prod_lo = (mid << _U32) | (p00 & _LOW32)
    prod_hi = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    prod_hi += hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    new_lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (new_lo < prod_lo), new_lo


def _keyed_uniforms(seed: int, n_agents: int, dim: int) -> np.ndarray:
    """Row i is _agent_rngs(seed, n_agents, 0)[i].uniform(-5, 5, size=dim),
    computed by PCG64's own arithmetic over all agents at once rather than
    by one generator per agent.

    PCG64 seeds from the four keyed words (s_hi, s_lo, i_hi, i_lo) as
    inc = (i << 1) | 1, state = inc + s, then one step; each draw steps
    the state and takes XSL-RR of it, and a uniform is
    -5 + 10 * ((r >> 11) * 2^-53).
    """
    words = _keyed_states(seed, n_agents, 0)
    inc_hi = (words[:, 2] << _U1) | (words[:, 3] >> _U63)
    inc_lo = (words[:, 3] << _U1) | _U1
    lo = inc_lo + words[:, 1]
    hi, lo = _pcg_step(inc_hi + words[:, 0] + (lo < inc_lo), lo, inc_hi, inc_lo)
    out = np.empty((n_agents, dim))
    for d in range(dim):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> _U58
        r = (xored >> rot) | (xored << ((_U64 - rot) & _U63))
        out[:, d] = -5.0 + 10.0 * ((r >> _U11) * (1.0 / 9007199254740992.0))
    return out


def _initial_states(seed: int, n_agents: int, dim: int, x0) -> np.ndarray:
    shape = (n_agents,) if dim == 1 else (n_agents, dim)
    if x0 is None:
        return _keyed_uniforms(seed, n_agents, dim).reshape(shape)
    arr = np.asarray(x0, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigError("initial states x0 must be finite")
    if arr.ndim == 0:
        return np.full(shape, float(arr))
    if arr.shape != shape:
        raise ConfigError(f"initial states must have shape {shape}, got {arr.shape}")
    return arr.copy()


def _disjoint_union(net: Network, attacked) -> Network:
    """One disjoint copy of net per entry of attacked; agent s*A + i is
    agent i of copy s. A copy whose entry is true loses the edges into its
    Byzantine agents, which the round loop holds still under a real
    attack, so no round gathers, clips or sums them.

    Each copy keeps its edges in order behind the copies before it, so the
    union's edge list stays sorted by (recv, send) and every receiver sums
    its edges in the same order as in net.
    """
    every, kept = np.arange(len(net.recv)), np.flatnonzero(~net.is_byz[net.recv])
    parts = [kept if held else every for held in attacked]
    edges = np.concatenate(parts)
    base = net.n_agents * np.arange(len(parts))
    shift = np.repeat(base, [len(part) for part in parts])
    byz = base[:, np.newaxis] + np.array(net.byzantine, dtype=np.intp)
    return Network(
        n_agents=len(parts) * net.n_agents,
        byzantine=tuple(byz.ravel().tolist()),
        recv=net.recv[edges] + shift,
        send=net.send[edges] + shift,
        edge_w=net.edge_w[edges],
        self_w=np.tile(net.self_w, len(parts)),
    )


def run(
    net: Network,
    prob: GlobalProblem,
    sched: StepSizeSchedule,
    n_rounds: int,
    seed: int,
    *,
    noise: float = 0.0,
    attack: AttackSpec | None = None,
    agg: str = "scc",
    tau: TauSpec | float | None = None,
    x0=None,
    record_traces: bool = False,
) -> MetricsLog:
    """Execute the full round loop and collect reliable-set metrics.

    Round order is fixed: sample and mask gradients, take the half-step,
    publish one message per directed edge (half[net.send]), falsify the
    edges whose sender is Byzantine, aggregate per receiver. noise is the
    masking variance per coordinate, finite and nonnegative (0 masks
    nothing). agg='mean' is SCC with an unbounded radius, so tau is
    ignored there. Byzantine agents under a real attack never update their
    own state; under attack kind 'none' they follow the honest protocol,
    which is what makes a labeled-but-honest run comparable with an
    unlabeled one.

    A run is the ensemble loop with a group of one seed.
    """
    return _run_seeds(
        net, prob, sched, n_rounds, [seed], noise=noise, attack=attack, agg=agg,
        tau=tau, x0=x0, record_traces=record_traces,
    )[0]


def _run_seeds(
    net: Network,
    prob: GlobalProblem,
    sched: StepSizeSchedule,
    n_rounds: int,
    seeds: list,
    *,
    noise: float = 0.0,
    attack: AttackSpec | list | None = None,
    agg: str = "scc",
    tau: TauSpec | float | None = None,
    x0=None,
    record_traces: bool = False,
) -> list:
    """Validate every input, then run the seeds in consecutive groups that
    keep a group's edge values under _GROUP_ELEMENTS; the logs come back
    in seed order. attack is one spec for every seed, or one per seed."""
    if net.n_agents != prob.n_agents:
        raise ConfigError(
            f"network has {net.n_agents} agents, problem has {prob.n_agents}"
        )
    if prob.reliable != net.reliable:
        raise ConfigError("the problem was built for another Byzantine set than the network's")
    n_rounds = count(n_rounds, "n_rounds")
    seeds = [count(seed, "seed") for seed in seeds]
    if agg not in ("scc", "mean"):
        raise ConfigError(f"unknown aggregation {agg!r}; expected 'scc' or 'mean'")
    noise = nonnegative(noise, "noise")
    attacks = _member_attacks(attack, len(seeds))
    for spec in attacks:
        spec.check_victim(net.reliable)
    if agg == "mean":
        # the plain mean is SCC with a radius that clips nothing
        tau = TauSpec(kind="manual", value=np.inf)
    elif tau is None:
        raise ConfigError("resilient aggregation needs a clipping radius policy")
    elif not isinstance(tau, TauSpec):
        tau = TauSpec(kind="manual", value=tau)

    per_group = max(1, _GROUP_ELEMENTS // max(1, len(net.recv) * prob.dim))
    logs = []
    for g in range(0, len(seeds), per_group):
        logs += _run_group(
            net, prob, sched, n_rounds, seeds[g : g + per_group],
            noise, attacks[g : g + per_group], tau, x0, record_traces,
        )
    return logs


def _member_attacks(attack, n_members: int) -> list:
    """One AttackSpec per member from one spec (None for no attack) or a
    list of specs aligned with the members."""
    if attack is None or isinstance(attack, AttackSpec):
        return [attack or AttackSpec(kind="none")] * n_members
    attacks = list(attack)
    if len(attacks) != n_members:
        raise ConfigError(f"got {len(attacks)} attacks for {n_members} seeds; give one per seed")
    for spec in attacks:
        if not isinstance(spec, AttackSpec):
            raise ConfigError(f"expected an AttackSpec per seed, got {spec!r}")
    return attacks


def _run_group(
    net: Network,
    prob: GlobalProblem,
    sched: StepSizeSchedule,
    n_rounds: int,
    seeds: list,
    noise: float,
    attacks: list,
    tau: TauSpec,
    x0,
    record_traces: bool,
) -> list:
    """One round loop over the disjoint union of one copy of net per seed,
    copy s attacked by attacks[s].

    Every copy reads exactly the streams its seed draws alone (copies of
    one seed share one set of generators, indexed by rows). It is attacked
    by the one plan of its spec, built on the group's union with a mask of
    the copies under that spec, which treats it as it would alone. Every
    reliable receiver sums its own copy's edges in the same order, so each
    copy's log is bit for bit the log of a run on its seed and attack. Held
    agents, which never update, receive no edges in the round. A copy that
    diverges is recorded as that run would record it and then zeroed in
    the working arrays, so the rounds the others still run raise no
    warnings for it.
    """
    n_copies = len(seeds)
    a = net.n_agents
    # a Byzantine agent under a real attack never updates its state, so its
    # copy's round has no edges into it; under 'none' it follows the honest
    # protocol
    attacked = [spec.kind != "none" for spec in attacks]
    union = _disjoint_union(net, attacked)
    rel = np.flatnonzero(~union.is_byz).reshape(n_copies, -1)
    # one plan per distinct attacking spec, over the copies it attacks;
    # specs compare as `in` does (identity, then ==), never by hash: a
    # schedule in p_mult or p_add need not hash
    specs = []
    for spec in attacks:
        if spec.kind != "none" and spec not in specs:
            specs.append(spec)
    plans = [
        AttackPlan(spec, union, [other is spec or other == spec for other in attacks])
        for spec in specs
    ]
    held = np.flatnonzero(union.is_byz).reshape(n_copies, -1)[attacked].ravel()
    sums = ReceiverSums(union.recv, union.n_agents, prob.dim)
    radius = RadiusPlan(tau, union, sums)
    # the rounds read only these of the union; its receivers live on in sums.
    # numpy's take copies a read-only index on every call, and the union's
    # arrays are frozen, so the rounds gather through a writable copy of send
    send, edge_w = union.send.copy(), union.edge_w
    del union

    # copies of one seed read one set of its streams: the generators and
    # initial states are made once per distinct seed, and row r of every
    # draw reads row rows[r] of the distinct seeds' streams
    distinct = {}
    copy_of = [distinct.setdefault(s, len(distinct)) for s in seeds]
    rows = None
    if len(distinct) < n_copies:
        rows = (np.array(copy_of, dtype=np.intp)[:, np.newaxis] * a + np.arange(a)).ravel()

    def streams(purpose):
        return [r for s in distinct for r in _agent_rngs(s, a, purpose)]

    x = np.concatenate([_initial_states(s, a, prob.dim, x0) for s in distinct])
    if rows is not None:
        x = x.take(rows, axis=0)
    sample = prob.gradient_sampler(streams(1), n_rounds, rows)
    masked = noise > 0.0
    if masked:
        noise_blocks = normal_blocks(streams(2), n_rounds, x.shape[1:], rows)
        noise_std = np.sqrt(noise)

    n_rows = n_rounds + 1
    col_consensus = np.empty((n_copies, n_rows))
    col_pre = np.full((n_copies, n_rows), np.nan)
    col_f = np.empty((n_copies, n_rows))
    traces = np.empty((n_rows,) + x.shape) if record_traces else None
    half_traces = np.empty((n_rounds,) + x.shape) if record_traces else None

    # the reliable states and half-steps of up to `chunk` rows of each copy
    # wait here until their metrics are computed in one pass over all copies
    row_shape = (rel.shape[1],) + x.shape[1:]
    chunk = max(1, min(n_rows, _METRIC_ELEMENTS // (n_copies * math.prod(row_shape))))
    x_rows = np.empty((n_copies, chunk) + row_shape)
    half_rows = np.empty((n_copies, chunk) + row_shape)

    # per copy: the round it diverged in (n_rounds while it runs on) and
    # its states when it ended
    end = np.full(n_copies, n_rounds)
    final_x = np.empty((n_copies, a) + x.shape[1:])

    def flush(start: int, stop: int) -> None:
        """Metric rows start..stop of every copy in one pass; a copy that
        ended keeps only its own prefix of them."""
        n, n_half = stop - start, min(stop, n_rounds) - start
        xs = x_rows[:, :n]
        # f first: the disagreement pass overwrites the rows it reads
        xbars = xs.mean(axis=2).reshape((-1,) + x.shape[1:])
        col_f[:, start:stop] = prob.f_rows(xbars).reshape(n_copies, n)
        col_consensus[:, start:stop] = _row_disagreement(
            xs.reshape((-1,) + row_shape)).reshape(n_copies, n)
        col_pre[:, start : start + n_half] = _row_disagreement(
            half_rows[:, :n_half].reshape((-1,) + row_shape)).reshape(n_copies, n_half)

    def end_copies(bad: np.ndarray, k: int) -> bool:
        """Record every running copy in bad as diverged in round k with its
        current states, then zero the bad copies of x and half and the rows
        they buffered past their end, which the metric pass computes but no
        log keeps. Returns whether any copy still runs."""
        for s in np.flatnonzero(bad):
            if end[s] == n_rounds:
                end[s] = k
                final_x[s] = x[s * a : (s + 1) * a]
            past = max(end[s] + 1 - start, 0)
            x_rows[s, past:] = half_rows[s, past:] = 0.0
            x[s * a : (s + 1) * a] = half[s * a : (s + 1) * a] = 0.0
        return bool((end == n_rounds).any())

    start = 0
    x.take(rel, axis=0, out=x_rows[:, 0])
    for k in range(n_rounds + 1):
        if traces is not None:
            traces[k] = x
        if k == n_rounds:
            break

        alpha = float(sched.alpha(k))
        grads = sample(x)
        if masked:
            grads = grads + noise_std * next(noise_blocks)

        half = x - alpha * grads
        half.take(rel, axis=0, out=half_rows[:, k - start])
        if half_traces is not None:
            half_traces[k] = half

        bad = _diverged(half.reshape(n_copies, -1))
        if bad.any() and not end_copies(bad, k):
            break

        messages = half.take(send, axis=0)
        for plan in plans:
            plan.apply(messages, k, x)

        diffs, norms = edge_diffs(messages, half, sums)
        del messages  # one E-sized array fewer while the radii and sums run
        new_states = scc_edges(diffs, norms, half, sums, edge_w, radius.radii(k, norms))

        if held.size:
            new_states[held] = x[held]
        x = new_states

        if k + 1 - start == chunk:
            flush(start, k + 1)
            start = k + 1
        bad = _diverged(x.take(rel, axis=0, out=x_rows[:, k + 1 - start]))
        if bad.any() and not end_copies(bad, k):
            break
    live = end == n_rounds
    final_x[live] = x.reshape(final_x.shape)[live]
    flush(start, int(end.max()) + 1)

    logs = []
    for s, seed in enumerate(seeds):
        rows = end[s] + 1
        ks = np.arange(rows)
        f_col = col_f[s, :rows]
        agents = slice(s * a, (s + 1) * a)
        logs.append(
            MetricsLog(
                k=ks,
                consensus=col_consensus[s, :rows].copy(),
                pre_agg=col_pre[s, :rows].copy(),
                f_bar=f_col.copy(),
                f_best=np.minimum.accumulate(f_col),
                gap=optimal_gap_series(f_col, prob.f_star),
                seed=seed,
                status="completed" if live[s] else "diverged",
                diverged_at=None if live[s] else int(end[s]),
                final_x=final_x[s],
                traces=None if traces is None else traces[:rows, agents].copy(),
                half_traces=(
                    None if half_traces is None
                    else half_traces[: min(rows, n_rounds), agents].copy()
                ),
            )
        )
    return logs


def run_ensemble(
    net: Network,
    prob: GlobalProblem,
    sched: StepSizeSchedule,
    n_rounds: int,
    seeds,
    **kwargs,
) -> EnsembleResult:
    """run() over several seeds plus seed-averaged curves.

    The seeds run together: each group of them is one round loop on the
    disjoint union of one copy of the network per seed, whose copy s
    draws exactly the streams seeds[s] draws alone, so every log equals
    run() on its seed bit for bit. Every seed is checked before any round.

    attack may be one spec for every member or a list of one spec per
    member, aligned with seeds; a seed may then repeat, once per attack,
    and each member's log equals run() on its seed under its own attack.
    The averages then mix attacks, so a caller that wants one ensemble
    per attack summarizes each slice of the logs with
    EnsembleResult.from_logs.

    Averages cover the common prefix when some member diverged early.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("need at least one seed")
    logs = _run_seeds(net, prob, sched, n_rounds, seeds, **kwargs)
    return EnsembleResult.from_logs(logs, prob.f_star)
