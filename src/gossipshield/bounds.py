"""Every theory ceiling, and the one rule for where they hold.

The ceilings are the disagreement bound behind a run's bound column, the
pre-aggregation disagreement inequality, and the decaying- and
constant-step optimal-gap bounds. They hold only inside one regime,
which `_violations` alone decides; callers differ only in the step cap.

Every gap right-hand side is assembled from independent term functions
and the reported total is literally the sum of the parts, so the
breakdown always reconciles. Terms are tagged by what drives them
(initial gap, sampling noise, disagreement coupling, attacker
contraction, masking noise) to make the privacy/accuracy/resilience
trade-off visible in reports.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, RegimeError, count, nonnegative
from .schedules import ConstantSchedule, DecayingSchedule, StepSizeSchedule
from .topology import TheoryConstants

if TYPE_CHECKING:
    from .engine import MetricsLog

__all__ = [
    "BoundTerm",
    "BoundBreakdown",
    "ConvergenceBoundInputs",
    "RegimeComparison",
    "dk_bound",
    "validate_schedule",
    "lemma2_rhs",
    "theorem2_rhs",
    "theorem3_rhs",
    "regime_compare",
    "format_comparison_table",
]


def _violations(
    consts: TheoryConstants,
    sched: StepSizeSchedule | None = None,
    cap: float = math.inf,
) -> list:
    """The admissibility rule every ceiling shares; empty inside the regime.

    A contraction outside the regime is the only violation reported, since
    phi and the step caps mean nothing there. Otherwise the schedule may
    not scale above `cap`, and a decaying one needs k0 * phi > 2. Without
    a schedule only the contraction is checked.
    """
    if not consts.regime_valid:
        return [
            f"contraction {consts.rho} is not below the admissible {consts.rho_bar}"
        ]
    problems = []
    if sched is not None and sched.scale > cap * (1.0 + 1e-12):
        problems.append(f"step scale {sched.scale} exceeds the admissible {cap}")
    if isinstance(sched, DecayingSchedule) and sched.k0 * consts.phi <= 2.0:
        problems.append(f"decay offset {sched.k0} is not above {2.0 / consts.phi}")
    return problems


def _refuse(what: str, problems: list) -> None:
    if problems:
        raise RegimeError(f"{what} undefined outside the regime: " + "; ".join(problems))


def validate_schedule(
    sched: StepSizeSchedule, consts: TheoryConstants, strict: bool
) -> None:
    """Check a schedule against the gap theorems' step bounds (cap theta_min).

    strict raises RegimeError; otherwise violations warn and the run
    proceeds in free mode.
    """
    problems = _violations(consts, sched, consts.theta_min)
    if not problems:
        return
    message = "running outside the theory regime: " + "; ".join(problems)
    if strict:
        raise RegimeError(message)
    # engine.run and run_ensemble validate through one shared helper, so
    # four frames up is the code that called either of them
    warnings.warn(message, stacklevel=4)


def dk_bound(
    consts: TheoryConstants, d0: float, k, sched: StepSizeSchedule
):
    """Theoretical ceiling on the expected disagreement at round k.

    Decaying schedules contract geometrically plus a 1/(k+k0)^2 tail;
    constant schedules keep a residual floor proportional to the squared
    step. Refuses outside the regime, with the bound's own step theta as
    the cap.
    """
    _refuse("disagreement bound", _violations(consts, sched, consts.theta))
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


@dataclasses.dataclass(frozen=True)
class BoundTerm:
    name: str
    value: float
    driver: str


@dataclasses.dataclass(frozen=True)
class BoundBreakdown:
    total: float
    terms: tuple

    def term(self, name: str) -> float:
        for t in self.terms:
            if t.name == name:
                return t.value
        raise KeyError(name)

    def by_driver(self, driver: str) -> float:
        return sum(t.value for t in self.terms if t.driver == driver)


@dataclasses.dataclass(frozen=True)
class ConvergenceBoundInputs:
    """Everything a gap bound consumes: constants, the measured (or
    theoretical) disagreement series over rounds 0..K, the starting gap,
    and the schedule actually run."""

    consts: TheoryConstants
    f0_gap: float
    d_series: np.ndarray
    schedule: StepSizeSchedule

    def __post_init__(self):
        d = np.asarray(self.d_series, dtype=float)
        object.__setattr__(self, "d_series", d)
        if d.ndim != 1 or d.shape[0] < 1:
            raise ConfigError("disagreement series must be a nonempty vector")
        if not np.all(np.isfinite(d)):
            raise ConfigError("bound inputs must be finite")
        nonnegative(self.f0_gap, "f0_gap")

    @property
    def horizon(self) -> int:
        return int(self.d_series.shape[0] - 1)


def lemma2_rhs(consts: TheoryConstants, d_k: float, alpha_k: float) -> float:
    """Ceiling on the half-step disagreement given the model disagreement.

    Three pieces: the model disagreement amplified by 1/(1-eta) plus a
    step-squared gradient-drift factor, a sampling/heterogeneity floor,
    and a masking-noise floor, all scaled by the squared step.
    """
    _refuse("half-step bound", _violations(consts))
    eta, r = consts.eta, consts.n_reliable
    l_sq = consts.smoothness**2
    a_sq = alpha_k * alpha_k
    lead = (1.0 / (1.0 - eta) + 12.0 * r * l_sq * a_sq / eta) * d_k
    sampling = 8.0 * r * (consts.grad_variance + consts.heterogeneity) / eta * a_sq
    masking = 2.0 * consts.dim * r * consts.noise_var / eta * a_sq
    return lead + sampling + masking


def _floors(consts: TheoryConstants) -> tuple:
    """The two terms both gap bounds end with, which no horizon shrinks:
    the attacker-contraction floor and the masking-noise floor."""
    nu, eta, r = consts.pl_constant, consts.eta, consts.n_reliable
    rho_sq = consts.rho**2
    return (
        BoundTerm(
            "contraction_floor",
            64.0 * r * rho_sq * (consts.grad_variance + consts.heterogeneity)
            / (nu * eta),
            "byzantine",
        ),
        BoundTerm(
            "masking_floor",
            4.0 * consts.dim / nu * (1.0 + 8.0 * r * rho_sq / eta) * consts.noise_var,
            "privacy",
        ),
    )


def theorem2_rhs(inputs: ConvergenceBoundInputs) -> BoundBreakdown:
    """Optimal-gap ceiling for the decaying schedule, term by term.

    The first four terms vanish as the horizon grows (averaged against
    ln(K+k0) - ln(k0)); the last two are the asymptotic floor: the
    attacker-contraction term and the masking-noise term.
    """
    consts, sched = inputs.consts, inputs.schedule
    if not isinstance(sched, DecayingSchedule):
        raise ConfigError("decaying-regime bound needs a decaying schedule")
    k_hor = inputs.horizon
    if k_hor < 1:
        raise ConfigError("decaying-regime bound needs at least one round")
    _refuse("gap bound", _violations(consts, sched, consts.theta_min))

    nu, eta, r = consts.pl_constant, consts.eta, consts.n_reliable
    l_const = consts.smoothness
    rho_sq = consts.rho**2
    theta_lo = sched.scale
    k0 = float(sched.k0)
    ks = np.arange(k_hor + 1, dtype=float) + k0
    d = inputs.d_series
    log_span = np.log(k_hor + k0) - np.log(k0)

    terms = (
        BoundTerm(
            "initial_gap",
            inputs.f0_gap / (theta_lo * nu * log_span),
            "initial",
        ),
        BoundTerm(
            "sampling_tail",
            theta_lo * l_const * consts.grad_variance * float(np.sum(1.0 / ks**2))
            / (nu * log_span),
            "sampling",
        ),
        BoundTerm(
            "disagreement_contraction",
            (l_const**2 / nu)
            * (96.0 * r * rho_sq / eta)
            * float(np.sum(d / ks))
            / log_span,
            "byzantine",
        ),
        BoundTerm(
            "disagreement_mean",
            (l_const**2 / nu) * (1.0 / r) * float(np.sum(d / ks)) / log_span,
            "disagreement",
        ),
        BoundTerm(
            "disagreement_weighted",
            8.0
            * rho_sq
            / (nu * (1.0 - eta) * theta_lo**2)
            * float(np.sum(ks * d))
            / log_span,
            "byzantine",
        ),
    ) + _floors(consts)
    return BoundBreakdown(total=sum(t.value for t in terms), terms=terms)


def theorem3_rhs(inputs: ConvergenceBoundInputs) -> BoundBreakdown:
    """Optimal-gap ceiling for the constant schedule, term by term.

    Averaging runs over K+1 rounds; the sampling term and both floors do
    not vanish with the horizon, which is the regime's signature.
    """
    consts, sched = inputs.consts, inputs.schedule
    if not isinstance(sched, ConstantSchedule):
        raise ConfigError("constant-regime bound needs a constant schedule")
    _refuse("gap bound", _violations(consts, sched, consts.theta_min))

    nu, eta, r = consts.pl_constant, consts.eta, consts.n_reliable
    l_sq = consts.smoothness**2
    rho_sq = consts.rho**2
    alpha = sched.scale
    k_hor = inputs.horizon
    d_sum = float(np.sum(inputs.d_series))
    denom = nu * alpha * (k_hor + 1)

    terms = (
        BoundTerm("initial_gap", inputs.f0_gap / denom, "initial"),
        BoundTerm(
            "disagreement_contraction",
            96.0 * r * l_sq * rho_sq / eta * d_sum / denom,
            "byzantine",
        ),
        BoundTerm(
            "disagreement_mean", (l_sq / r) * d_sum / denom, "disagreement"
        ),
        BoundTerm(
            "disagreement_weighted",
            8.0 * rho_sq / (1.0 - eta) / alpha**2 * d_sum / denom,
            "byzantine",
        ),
        BoundTerm(
            "sampling_step",
            consts.smoothness * consts.grad_variance * alpha / nu,
            "sampling",
        ),
    ) + _floors(consts)
    return BoundBreakdown(total=sum(t.value for t in terms), terms=terms)


@dataclasses.dataclass(frozen=True)
class RegimeComparison:
    """Final-window statistics of a decaying vs constant schedule pair."""

    window: int
    d_decaying: float
    d_constant: float
    gap_decaying: float
    gap_constant: float

    @property
    def decaying_smaller_d(self) -> bool:
        return self.d_decaying < self.d_constant

    @property
    def decaying_smaller_gap(self) -> bool:
        return self.gap_decaying < self.gap_constant

    @property
    def ordering(self) -> tuple:
        pairs = [("decaying", self.gap_decaying), ("constant", self.gap_constant)]
        return tuple(name for name, _ in sorted(pairs, key=lambda p: p[1]))


def regime_compare(
    log_decaying: MetricsLog, log_constant: MetricsLog, window: int | None = None
) -> RegimeComparison:
    """Tabulate how the two step regimes ended up; no verdict asserted.

    Both logs must come from the same experiment: same seed and horizon.
    The window is the number of trailing rows averaged for the
    disagreement statistic; default one tenth of the run.
    """
    if log_decaying.seed != log_constant.seed:
        raise ConfigError("regime comparison needs runs from the same seed")
    if len(log_decaying.k) != len(log_constant.k):
        raise ConfigError("regime comparison needs equal horizons")
    rows = len(log_decaying.k)
    if window is None:
        window = max(1, rows // 10)
    count(window, "window", 1, rows)
    return RegimeComparison(
        window=window,
        d_decaying=float(np.mean(log_decaying.consensus[-window:])),
        d_constant=float(np.mean(log_constant.consensus[-window:])),
        gap_decaying=float(log_decaying.gap[-1]),
        gap_constant=float(log_constant.gap[-1]),
    )


def format_comparison_table(rows: dict) -> str:
    """Fixed-width text table of {label: RegimeComparison} entries."""
    header = (
        f"{'case':>12} | {'D decaying':>12} | {'D constant':>12} | "
        f"{'gap decaying':>12} | {'gap constant':>12} | better"
    )
    lines = [header, "-" * len(header)]
    for label, cmp_ in rows.items():
        lines.append(
            f"{label:>12} | {cmp_.d_decaying:>12.4e} | {cmp_.d_constant:>12.4e} | "
            f"{cmp_.gap_decaying:>12.4e} | {cmp_.gap_constant:>12.4e} | "
            f"{cmp_.ordering[0]}"
        )
    return "\n".join(lines)
