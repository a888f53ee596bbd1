"""Synchronous round loop: sample, mask, half-step, exchange, aggregate.

Determinism contract: every random draw comes from a per-agent stream
seeded by (master seed, agent id, purpose tag), where purpose 0 is the
initial state, 1 the gradient sampling, and 2 the masking noise.
Because streams are keyed per agent and the noise stream only advances
when masking is on, toggling the Byzantine set, the attack, or the noise
variance never perturbs anyone else's draws; several equivalence
invariants in the test suite lean on exactly this.

Every problem takes the same path: the problem's gradient sampler draws
each round's gradients from the purpose-1 streams, and the masking noise
is a block of standard normals from the purpose-2 streams, scaled by the
noise standard deviation. Both are drawn in chunks of rounds that batch
the same stream values in the same order, so a run is a prefix of any
longer run with the same inputs.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .aggregation import edge_diffs, scc_edges, tau_edges
from .attacks import AttackPlan, AttackSpec
from .errors import BrokenOptimumError, ConfigError, RegimeError
from .objectives import GlobalProblem, normal_blocks
from .privacy import NoiseSpec
from .schedules import ConstantSchedule, DecayingSchedule, StepSizeSchedule, value_at
from .topology import Network, TheoryConstants, rho_upper_bound, theory_constants

__all__ = [
    "TauSpec",
    "MetricsLog",
    "EnsembleResult",
    "run",
    "run_ensemble",
    "consensus_error",
    "dk_bound",
    "optimal_gap_series",
    "validate_schedule",
]

DIVERGENCE_LIMIT = 1e12


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
    and records where.
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
    models = np.asarray(models, dtype=float)
    if models.shape[0] == 0:
        raise ConfigError("need at least one reliable agent")
    centered = models - models.mean(axis=0)
    return float(np.sum(centered * centered))


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


def validate_schedule(
    sched: StepSizeSchedule, consts: TheoryConstants, strict: bool
) -> None:
    """Check a schedule against the convergence-theory step bounds.

    strict raises; otherwise violations warn and the run proceeds in free
    mode.
    """
    problems = []
    if not consts.regime_valid:
        problems.append(
            f"contraction {consts.rho} is not below the admissible {consts.rho_bar}"
        )
    else:
        if sched.scale > consts.theta_min * (1.0 + 1e-12):
            problems.append(
                f"step scale {sched.scale} exceeds the admissible {consts.theta_min}"
            )
        if isinstance(sched, DecayingSchedule) and sched.k0 * consts.phi <= 2.0:
            problems.append(
                f"decay offset {sched.k0} is not above {2.0 / consts.phi}"
            )
    if not problems:
        return
    message = "; ".join(problems)
    if strict:
        raise RegimeError(message)
    warnings.warn(f"running outside the theory regime: {message}", stacklevel=3)


def _check_bound_inputs(consts: TheoryConstants, sched: StepSizeSchedule) -> None:
    """Raise RegimeError wherever dk_bound is undefined for this pair."""
    if not consts.regime_valid:
        raise RegimeError(
            "disagreement bound undefined: contraction "
            f"{consts.rho} is not below {consts.rho_bar}"
        )
    if isinstance(sched, DecayingSchedule):
        if sched.k0 * consts.phi <= 2.0:
            raise RegimeError(
                f"decay offset {sched.k0} is not above {2.0 / consts.phi}"
            )
        if sched.scale > consts.theta * (1.0 + 1e-12):
            raise RegimeError(
                f"step scale {sched.scale} exceeds the bound's step {consts.theta}"
            )
    elif sched.scale > consts.theta * (1.0 + 1e-12):
        raise RegimeError(
            f"constant step {sched.scale} exceeds the bound's step {consts.theta}"
        )


def dk_bound(
    consts: TheoryConstants, d0: float, k, sched: StepSizeSchedule
):
    """Theoretical ceiling on the expected disagreement at round k.

    Decaying schedules contract geometrically plus a 1/(k+k0)^2 tail;
    constant schedules keep a residual floor proportional to the squared
    step. Refuses outside the valid contraction regime.
    """
    _check_bound_inputs(consts, sched)
    k = np.asarray(k, dtype=float)
    decay = (1.0 - consts.phi) ** k * d0
    if isinstance(sched, DecayingSchedule):
        iota = (1.0 + 1.0 / sched.k0) ** 2
        tail = (
            2.0
            * iota
            * consts.vartheta
            * consts.theta**2
            / consts.phi
            / (k + sched.k0) ** 2
        )
    else:
        tail = consts.vartheta / consts.phi * sched.scale**2
    out = decay + tail
    return float(out) if out.ndim == 0 else out


def _diverged(states: np.ndarray) -> bool:
    return not np.all(np.isfinite(states)) or np.max(np.abs(states)) > DIVERGENCE_LIMIT


def _agent_rngs(seed: int, n_agents: int, purpose: int) -> list:
    """One generator per agent, keyed by (seed, agent, purpose)."""
    return [
        np.random.default_rng(np.random.SeedSequence([seed, i, purpose]))
        for i in range(n_agents)
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
    theory_mode: bool = False,
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

    Passing consts (or theory_mode, which derives them from the network
    and problem constants) adds the theoretical disagreement ceiling as a
    per-row column; theory_mode additionally enforces the step-size
    regime instead of warning. A bound column that dk_bound would refuse
    raises RegimeError before the first round.
    """
    if net.n_agents != prob.n_agents:
        raise ConfigError(
            f"network has {net.n_agents} agents, problem has {prob.n_agents}"
        )
    if n_rounds < 0:
        raise ConfigError("round count must be nonnegative")
    if agg not in ("scc", "mean"):
        raise ConfigError(f"unknown aggregation {agg!r}; expected 'scc' or 'mean'")
    if isinstance(noise, (int, float)):
        noise = NoiseSpec(float(noise), prob.dim)
    if attack is None:
        attack = AttackSpec(kind="none")
    if agg == "mean":
        # the plain mean is SCC with a radius that clips nothing
        tau = TauSpec(kind="manual", value=np.inf)
    elif tau is None:
        raise ConfigError("resilient aggregation needs a clipping radius policy")
    elif not isinstance(tau, TauSpec):
        tau = TauSpec(kind="manual", value=tau)

    if consts is None and theory_mode:
        consts = theory_constants(
            net,
            rho_upper_bound(net),
            prob.smoothness,
            prob.pl_constant,
            prob.sigma_sq,
            prob.zeta_sq,
            noise.variance,
            prob.dim,
        )
    if consts is not None:
        validate_schedule(sched, consts, strict=theory_mode)
        _check_bound_inputs(consts, sched)

    a = net.n_agents
    rel = list(net.reliable)
    honest_byz = attack.kind == "none"
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

    status = "completed"
    diverged_at = None
    rows = 0
    n_half = 0
    for k in range(n_rounds + 1):
        col_consensus[k] = consensus_error(x[rel])
        x_bar = x[rel].mean(axis=0)
        col_f[k] = float(prob.f(x_bar))
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
        col_pre[k] = consensus_error(half[rel])
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

        if honest_byz:
            x = new_states
        else:
            x = x.copy()
            x[rel] = new_states[rel]

        if _diverged(x[rel]):
            status, diverged_at = "diverged", k
            rows = k + 1
            break

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
