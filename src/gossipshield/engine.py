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
array arithmetic, and no SeedSequence object is built per agent.

Every problem takes the same path: the problem's gradient sampler draws
each round's gradients from the purpose-1 streams, and the masking noise
is a block of standard normals from the purpose-2 streams, scaled by the
noise standard deviation. Both are drawn in chunks of rounds that batch
the same stream values in the same order, so a run is a prefix of any
longer run with the same inputs.

The metric columns never feed back into the dynamics, so the loop does
not compute them round by round: it copies each round's reliable states
and half-steps into a row buffer of fixed size, and computes the
disagreement, pre-aggregation disagreement and f(x-bar) of a whole chunk
of rows in one pass when the buffer fills and when the loop ends. Every
value is bit-equal to its per-row definition (consensus_error of the
reliable rows, GlobalProblem.f of their mean).

The loop derives no theory constants: a caller that wants the bound
column passes them in as consts, and bounds decides whether the schedule
is admissible for them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .aggregation import edge_diffs, scc_edges, tau_edges
from .attacks import AttackPlan, AttackSpec
from .bounds import dk_bound, validate_schedule
from .errors import BrokenOptimumError, ConfigError
from .objectives import GlobalProblem, normal_blocks
from .privacy import NoiseSpec
from .schedules import StepSizeSchedule, value_at
from .topology import Network, TheoryConstants

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

# Elements of reliable states held for one metric pass, per buffer
# (64 KiB of float64); a run holds two such buffers.
_METRIC_ELEMENTS = 1 << 13


@dataclasses.dataclass(frozen=True)
class TauSpec:
    """Clipping-radius policy for the resilient aggregator.

    manual: fixed radius, or a schedule evaluated per round.
    corollary1 / remark4: ground-truth-label oracles; `value` is then the
    manual fallback used wherever the oracle is undefined (an agent with
    no Byzantine neighbor under corollary1).
    """

    kind: str = "manual"
    value: float | object = 1.0

    def __post_init__(self):
        if self.kind not in ("manual", "corollary1", "remark4"):
            raise ConfigError(f"unknown clipping-radius kind {self.kind!r}")
        # written so that NaN fails too; +inf (clip nothing) passes
        if not callable(getattr(self.value, "alpha", None)) and not float(self.value) > 0:
            raise ConfigError(f"clipping radius must be positive, got {self.value!r}")


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
    dk_bound: np.ndarray | None = None
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
    dk_bound: np.ndarray | None
    statuses: list


def consensus_error(models: np.ndarray) -> float:
    """Total squared distance of the given models from their average."""
    models = np.array(models, dtype=float)
    if models.shape[0] == 0:
        raise ConfigError("need at least one reliable agent")
    return float(_row_disagreement(models[np.newaxis])[0])


def _row_disagreement(rows: np.ndarray) -> np.ndarray:
    """consensus_error of each row of models, for rows of shape
    (n, models, ...); centres and squares rows in place."""
    rows -= rows.mean(axis=1, keepdims=True)
    rows *= rows
    return np.sum(rows, axis=tuple(range(1, rows.ndim)))


def optimal_gap_series(f_values: np.ndarray, f_star: float) -> np.ndarray:
    """Running best objective value minus the optimum; never negative."""
    best = np.minimum.accumulate(np.asarray(f_values, dtype=float))
    gaps = best - f_star
    finite = gaps[np.isfinite(gaps)]
    if finite.size and float(finite.min()) < -1e-9 * max(1.0, abs(f_star)):
        raise BrokenOptimumError(
            f"objective dropped {float(finite.min())} below the recorded optimum"
        )
    return np.maximum(gaps, 0.0)


def _diverged(states: np.ndarray) -> bool:
    # NaN and inf fail the comparison too
    return not np.abs(states).max() <= DIVERGENCE_LIMIT


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


def _initial_states(
    seed: int, n_agents: int, dim: int, x0
) -> np.ndarray:
    if x0 is None:
        rngs = _agent_rngs(seed, n_agents, 0)
        arr = np.array([rng.uniform(-5.0, 5.0, size=dim) for rng in rngs])
        return arr[:, 0] if dim == 1 else arr
    arr = np.asarray(x0, dtype=float)
    if arr.ndim == 0:
        shape = (n_agents,) if dim == 1 else (n_agents, dim)
        return np.full(shape, float(arr))
    expect = (n_agents,) if dim == 1 else (n_agents, dim)
    if arr.shape != expect:
        raise ConfigError(f"initial states must have shape {expect}, got {arr.shape}")
    return arr.copy()


def run(
    net: Network,
    prob: GlobalProblem,
    sched: StepSizeSchedule,
    n_rounds: int,
    seed: int,
    *,
    noise: NoiseSpec | float = 0.0,
    attack: AttackSpec | None = None,
    agg: str = "scc",
    tau: TauSpec | float | None = None,
    x0=None,
    consts: TheoryConstants | None = None,
    record_traces: bool = False,
) -> MetricsLog:
    """Execute the full round loop and collect reliable-set metrics.

    Round order is fixed: sample and mask gradients, take the half-step,
    publish one message per directed edge (half[net.send]), falsify the
    edges whose sender is Byzantine, aggregate per receiver. agg='mean' is
    SCC with an unbounded radius, so tau is ignored there. Byzantine
    agents under a real attack never update their own state; under attack
    kind 'none' they follow the honest protocol, which is what makes a
    labeled-but-honest run comparable with an unlabeled one.

    Passing consts adds the theoretical disagreement ceiling as a per-row
    column. A schedule outside the gap theorems' regime then warns, and a
    column that dk_bound would refuse raises RegimeError before the first
    round.
    """
    if net.n_agents != prob.n_agents:
        raise ConfigError(
            f"network has {net.n_agents} agents, problem has {prob.n_agents}"
        )
    if n_rounds < 0:
        raise ConfigError("round count must be nonnegative")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    if agg not in ("scc", "mean"):
        raise ConfigError(f"unknown aggregation {agg!r}; expected 'scc' or 'mean'")
    if isinstance(noise, (int, float)):
        noise = NoiseSpec(float(noise))
    if attack is None:
        attack = AttackSpec(kind="none")
    if agg == "mean":
        # the plain mean is SCC with a radius that clips nothing
        tau = TauSpec(kind="manual", value=np.inf)
    elif tau is None:
        raise ConfigError("resilient aggregation needs a clipping radius policy")
    elif not isinstance(tau, TauSpec):
        tau = TauSpec(kind="manual", value=tau)

    if consts is not None:
        validate_schedule(sched, consts, strict=False)
        dk_bound(consts, 0.0, 0, sched)  # refuses here, not after the rounds

    a = net.n_agents
    rel = np.flatnonzero(~net.is_byz)
    byz = np.flatnonzero(net.is_byz)
    plan = AttackPlan(attack, net)
    if tau.kind != "manual":
        rel_w = np.where(net.byzantine_edges(), 0.0, net.edge_w)
        byz_weight = net.weight_split()[1]

    x = _initial_states(seed, a, prob.dim, x0)
    sample = prob.gradient_sampler(_agent_rngs(seed, a, 1), n_rounds)
    masked = noise.variance > 0.0
    if masked:
        noise_blocks = normal_blocks(_agent_rngs(seed, a, 2), n_rounds, x.shape[1:])
        noise_std = np.sqrt(noise.variance)

    n_rows = n_rounds + 1
    col_consensus = np.empty(n_rows)
    col_pre = np.full(n_rows, np.nan)
    col_f = np.empty(n_rows)
    traces = np.empty((n_rows,) + x.shape) if record_traces else None
    half_traces = np.empty((n_rounds,) + x.shape) if record_traces else None

    # the reliable states and half-steps of up to `chunk` rows wait here
    # until their metrics are computed in one pass
    row_shape = (len(rel),) + x.shape[1:]
    chunk = max(1, min(n_rows, _METRIC_ELEMENTS // math.prod(row_shape)))
    x_rows = np.empty((chunk,) + row_shape)
    half_rows = np.empty((chunk,) + row_shape)

    def flush(start: int, stop: int, half_stop: int) -> None:
        # f first: the disagreement pass overwrites the rows it reads
        col_f[start:stop] = prob.f_rows(x_rows[: stop - start].mean(axis=1))
        col_consensus[start:stop] = _row_disagreement(x_rows[: stop - start])
        col_pre[start:half_stop] = _row_disagreement(half_rows[: half_stop - start])

    status = "completed"
    diverged_at = None
    rows = 0
    n_half = 0
    start = 0
    x.take(rel, axis=0, out=x_rows[0])
    for k in range(n_rounds + 1):
        if traces is not None:
            traces[k] = x
        rows = k + 1
        if k == n_rounds:
            break

        alpha = float(sched.alpha(k))
        grads = sample(x)
        if masked:
            grads = grads + noise_std * next(noise_blocks)

        half = x - alpha * grads
        half.take(rel, axis=0, out=half_rows[k - start])
        if half_traces is not None:
            half_traces[k] = half
        n_half = k + 1

        if _diverged(half):
            status, diverged_at = "diverged", k
            break

        messages = half.take(net.send, axis=0)
        plan.apply(messages, k, x)

        diffs, norms = edge_diffs(messages, half, net.recv)
        fallback = value_at(tau.value, k)
        if tau.kind == "manual":
            taus = np.full(a, fallback)
        else:
            taus = tau_edges(norms, net.recv, rel_w, byz_weight, tau.kind)
            taus = np.where(np.isnan(taus), fallback, taus)
        new_states = scc_edges(diffs, norms, half, net.recv, net.edge_w, taus)

        if attack.kind != "none":
            # a Byzantine agent under a real attack never updates its state
            new_states[byz] = x[byz]
        x = new_states

        if k + 1 - start == chunk:
            flush(start, k + 1, k + 1)
            start = k + 1
        if _diverged(x.take(rel, axis=0, out=x_rows[k + 1 - start])):
            status, diverged_at = "diverged", k
            break
    flush(start, rows, n_half)

    ks = np.arange(rows)
    f_col = col_f[:rows]
    f_best = np.minimum.accumulate(f_col)
    gaps = optimal_gap_series(f_col, prob.f_star)
    bound_col = None
    if consts is not None:
        bound_col = np.asarray(dk_bound(consts, col_consensus[0], ks, sched))
    return MetricsLog(
        k=ks,
        consensus=col_consensus[:rows].copy(),
        pre_agg=col_pre[:rows].copy(),
        f_bar=f_col.copy(),
        f_best=f_best,
        gap=gaps,
        seed=seed,
        status=status,
        diverged_at=diverged_at,
        dk_bound=bound_col,
        final_x=x.copy(),
        traces=None if traces is None else traces[:rows].copy(),
        half_traces=None if half_traces is None else half_traces[:n_half].copy(),
    )


def run_ensemble(
    net: Network,
    prob: GlobalProblem,
    sched: StepSizeSchedule,
    n_rounds: int,
    seeds,
    *,
    consts: TheoryConstants | None = None,
    **kwargs,
) -> EnsembleResult:
    """run() over several seeds plus seed-averaged curves.

    Averages cover the common prefix when some member diverged early. The
    bound column, when constants are supplied, restarts from the averaged
    initial disagreement rather than any single seed's.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("need at least one seed")
    logs = [
        run(net, prob, sched, n_rounds, s, consts=consts, **kwargs) for s in seeds
    ]
    rows = min(len(log.k) for log in logs)
    ks = np.arange(rows)
    consensus = np.mean([log.consensus[:rows] for log in logs], axis=0)
    pre = np.mean([log.pre_agg[:rows] for log in logs], axis=0)
    f_bar = np.mean([log.f_bar[:rows] for log in logs], axis=0)
    gap_mean_of_min = np.mean([log.gap[:rows] for log in logs], axis=0)
    gap_min_of_mean = optimal_gap_series(f_bar, prob.f_star)
    bound = None
    if consts is not None:
        d0 = float(np.mean([log.consensus[0] for log in logs]))
        bound = np.asarray(dk_bound(consts, d0, ks, sched))
    return EnsembleResult(
        logs=logs,
        k=ks,
        consensus_mean=consensus,
        pre_agg_mean=pre,
        f_bar_mean=f_bar,
        gap_mean_of_min=gap_mean_of_min,
        gap_min_of_mean=gap_min_of_mean,
        dk_bound=bound,
        statuses=[log.status for log in logs],
    )
