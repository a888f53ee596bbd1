"""Synchronous round loop: sample, mask, half-step, exchange, aggregate.

Determinism contract: every random draw comes from a per-agent stream
seeded by (master seed, agent id, purpose tag), where purpose 0 is the
initial state, 1 the gradient sampling pair, and 2 the masking noise.
Because streams are keyed per agent and the noise stream only advances
when masking is on, toggling the Byzantine set, the attack, or the noise
variance never perturbs anyone else's draws; several equivalence
invariants in the test suite lean on exactly this.

Gradient streams are consumed in (u, v) pairs per round. The vectorized
path pre-draws them in chunks; chunking batches the same stream values in
the same order, so chunked and call-by-call runs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .aggregation import mean_edges, scc_edges, tau_edges
from .attacks import AttackPlan, AttackSpec
from .errors import BrokenOptimumError, ConfigError, RegimeError
from .objectives import GlobalProblem
from .privacy import NoiseSpec, mask_gradient
from .schedules import ConstantSchedule, DecayingSchedule, StepSizeSchedule
from .topology import Network, TheoryConstants, rho_upper_bound, theory_constants

__all__ = [
    "TauSpec",
    "MetricsLog",
    "EnsembleResult",
    "run",
    "run_ensemble",
    "consensus_error",
    "pre_agg_disagreement",
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
        if not callable(getattr(self.value, "alpha", None)) and float(self.value) <= 0:
            raise ConfigError("clipping radius must be positive")

    def value_at(self, k: int) -> float:
        alpha = getattr(self.value, "alpha", None)
        if callable(alpha):
            return float(alpha(k))
        return float(self.value)


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
    draws_u: np.ndarray | None = None
    draws_v: np.ndarray | None = None
    draws_noise: np.ndarray | None = None

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


def pre_agg_disagreement(half_steps: np.ndarray) -> float:
    """consensus_error measured on half-steps, before aggregation."""
    return consensus_error(half_steps)


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


class _AgentStreams:
    """Chunked per-agent draws for the vectorized scalar path."""

    def __init__(self, seed: int, n_agents: int, u_std: float, v_std: float, chunk: int):
        self._grad = [
            np.random.default_rng(np.random.SeedSequence([seed, i, 1]))
            for i in range(n_agents)
        ]
        self._noise = [
            np.random.default_rng(np.random.SeedSequence([seed, i, 2]))
            for i in range(n_agents)
        ]
        self._u_std = u_std
        self._v_std = v_std
        self._chunk = chunk
        self._uv: np.ndarray | None = None
        self._nz: np.ndarray | None = None
        self._uv_pos = chunk
        self._nz_pos = chunk

    def next_uv(self):
        if self._uv_pos >= self._chunk:
            z = np.stack([r.standard_normal((self._chunk, 2)) for r in self._grad], axis=1)
            self._uv = z
            self._uv_pos = 0
        z = self._uv[self._uv_pos]
        self._uv_pos += 1
        return 1.0 + self._u_std * z[:, 0], self._v_std * z[:, 1]

    def next_noise(self):
        if self._nz_pos >= self._chunk:
            self._nz = np.stack([r.standard_normal(self._chunk) for r in self._noise], axis=1)
            self._nz_pos = 0
        z = self._nz[self._nz_pos]
        self._nz_pos += 1
        return z


def _initial_states(
    seed: int, n_agents: int, dim: int, x0
) -> np.ndarray:
    if x0 is None:
        draws = [
            np.random.default_rng(np.random.SeedSequence([seed, i, 0])).uniform(
                -5.0, 5.0, size=dim
            )
            for i in range(n_agents)
        ]
        arr = np.array(draws)
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
    record_draws: bool = False,
    chunk: int = 512,
) -> MetricsLog:
    """Execute the full round loop and collect reliable-set metrics.

    Round order is fixed: sample and mask gradients, take the half-step,
    publish one message per directed edge (half[net.send]), falsify the
    edges whose sender is Byzantine, aggregate per receiver. Byzantine
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
    if agg == "scc":
        if tau is None:
            raise ConfigError("resilient aggregation needs a clipping radius policy")
        if not isinstance(tau, TauSpec):
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
    if agg == "scc" and tau.kind != "manual":
        rel_w = np.where(net.byzantine_edges(), 0.0, net.edge_w)
        byz_weight = net.weight_split()[1]

    x = _initial_states(seed, a, prob.dim, x0)
    scalar = x.ndim == 1
    fast = scalar and prob.u_coeffs is not None
    # a chunk longer than the run would draw rounds nobody reads
    chunk = max(1, min(chunk, n_rounds))
    streams = (
        _AgentStreams(seed, a, prob.u_std, prob.v_std, chunk) if fast else None
    )
    slow_grad_rngs = slow_noise_rngs = None
    if not fast:
        slow_grad_rngs = [
            np.random.default_rng(np.random.SeedSequence([seed, i, 1])) for i in range(a)
        ]
        slow_noise_rngs = [
            np.random.default_rng(np.random.SeedSequence([seed, i, 2])) for i in range(a)
        ]

    n_rows = n_rounds + 1
    col_consensus = np.empty(n_rows)
    col_pre = np.full(n_rows, np.nan)
    col_f = np.empty(n_rows)
    traces = np.empty((n_rows,) + x.shape) if record_traces else None
    half_traces = np.empty((n_rounds,) + x.shape) if record_traces else None
    d_u = np.empty((n_rounds, a)) if record_draws and fast else None
    d_v = np.empty((n_rounds, a)) if record_draws and fast else None
    d_n = np.empty((n_rounds, a)) if record_draws and fast else None

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
        if fast:
            u, v = streams.next_uv()
            grads = u * prob.agent_cores(x)
            if noise.variance > 0.0:
                z = streams.next_noise()
                if d_n is not None:
                    d_n[k] = np.sqrt(noise.variance) * z
                grads = grads + np.sqrt(noise.variance) * z
            elif d_n is not None:
                d_n[k] = 0.0
            if d_u is not None:
                d_u[k], d_v[k] = u, v
        else:
            grads = np.empty_like(x)
            for i in range(a):
                g = np.atleast_1d(
                    np.asarray(prob.objectives[i].sample_gradient(x[i], slow_grad_rngs[i]))
                )
                g = mask_gradient(g, noise, slow_noise_rngs[i])
                grads[i] = g if not scalar else g[0]

        half = x - alpha * grads
        col_pre[k] = pre_agg_disagreement(half[rel])
        if half_traces is not None:
            half_traces[k] = half
        n_half = k + 1

        if not np.all(np.isfinite(half)) or np.max(np.abs(half)) > DIVERGENCE_LIMIT:
            status, diverged_at = "diverged", k
            break

        messages = half.take(net.send, axis=0)
        plan.apply(messages, k, x)

        if agg == "mean":
            new_states = mean_edges(messages, half, net.recv, net.edge_w)
        else:
            fallback = tau.value_at(k)
            if tau.kind == "manual":
                taus = np.full(a, fallback)
            else:
                taus = tau_edges(messages, half, net.recv, rel_w, byz_weight, tau.kind)
                taus = np.where(np.isnan(taus), fallback, taus)
            new_states = scc_edges(messages, half, net.recv, net.edge_w, taus)

        if honest_byz:
            x = new_states
        else:
            x = x.copy()
            x[rel] = new_states[rel]

        if not np.all(np.isfinite(x[rel])) or np.max(np.abs(x[rel])) > DIVERGENCE_LIMIT:
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
        draws_u=None if d_u is None else d_u[:n_half].copy(),
        draws_v=None if d_v is None else d_v[:n_half].copy(),
        draws_noise=None if d_n is None else d_n[:n_half].copy(),
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
