"""Gradient masking noise and the differential-privacy calculators.

The mechanism itself is one line of the round loop: engine.run adds
Gaussian noise of one per-coordinate variance, a plain number, to each
sampled gradient before the half-step. Everything else here turns
(epsilon, delta) budgets into variance requirements and back. Two views
are provided: a per-iteration guarantee for a single masked gradient,
and an end-to-end loss over a whole run under a gradient bound.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigError, count, finite, nonnegative, positive
from .schedules import DecayingSchedule, StepSizeSchedule

__all__ = [
    "DpBudget",
    "GlobalDpReport",
    "required_variance_local",
    "global_epsilon",
    "sensitivity_default",
]


def sensitivity_default(grad_bound: float) -> float:
    """Worst-case change of a bounded scalar gradient under a swap."""
    return 2.0 * nonnegative(grad_bound, "gradient bound")


def required_variance_local(
    eps: float, delta: float, delta_g: float, schedule: StepSizeSchedule
) -> float:
    """Smallest variance giving each masked gradient (eps, delta)-privacy.

    Uses the schedule's configured scale; a decaying schedule additionally
    divides by k0 squared because its first step is scale/k0. For a
    constant schedule the scale is the step itself, which is conservative
    whenever the run could have used a smaller step.
    """
    if not 0.0 < finite(eps, "epsilon") <= 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1], got {eps}")
    if not 0.0 < finite(delta, "delta") < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    positive(delta_g, "delta_g")
    # squares by *, which overflows to inf (refused below) where ** raises
    base = 2.0 * (delta_g * delta_g) * (schedule.scale * schedule.scale)
    base *= math.log(1.25) - math.log(delta)
    base /= eps**2
    if isinstance(schedule, DecayingSchedule):
        base /= schedule.k0**2
    return finite(base, "required variance")


@dataclasses.dataclass(frozen=True)
class DpBudget:
    """Inputs of the end-to-end privacy accounting."""

    delta: float
    grad_bound: float
    total_samples: int
    batch_size: int
    horizon: int
    renyi_order: float | None = None

    def __post_init__(self):
        if not 0.0 < finite(self.delta, "delta") < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        sensitivity_default(self.grad_bound)  # the gradient bound's one rule
        count(self.batch_size, "batch_size", 1)
        count(self.total_samples, "total_samples", self.batch_size)
        count(self.horizon, "horizon")


@dataclasses.dataclass(frozen=True)
class GlobalDpReport:
    """End-to-end loss plus the validity flags of its preconditions.

    A violated precondition does not hide the number; it marks it
    untrusted. renyi_ok is None when no divergence order was configured.
    """

    epsilon: float
    variance_ok: bool
    renyi_cap: float
    renyi_cap_positive: bool
    renyi_ok: bool | None
    preconditions_ok: bool


def global_epsilon(budget: DpBudget, variance: float) -> GlobalDpReport:
    """Privacy loss of a whole run of `horizon` iterations.

    epsilon = 20 B^2 K / (variance Q^2) + 2 B sqrt(20 K ln(1/delta)) /
    (sqrt(variance) Q), trusted only when variance >= 6 B^2 / batch^2 and
    the admissible divergence-order cap is positive (natural logs
    throughout).
    """
    nonnegative(variance, "variance")
    b, q, k = budget.grad_bound, budget.total_samples, budget.horizon
    b_sq = b * b  # inf past the float range, where b**2 raises

    if k == 0 or b == 0.0:
        eps = 0.0
    elif variance == 0.0:
        eps = math.inf
    else:
        eps = 20.0 * b_sq * k / (variance * q**2)
        eps += 2.0 * b * math.sqrt(20.0 * k * math.log(1.0 / budget.delta)) / (
            math.sqrt(variance) * q
        )

    variance_ok = variance >= 6.0 * b_sq / budget.batch_size**2
    if b == 0.0:
        cap = math.inf
    else:
        arg = budget.batch_size * (variance * q**2 / (4.0 * b_sq) + 1.0) / q
        cap = -math.log(arg)
    cap_positive = cap > 0.0
    renyi_ok = None if budget.renyi_order is None else budget.renyi_order <= cap
    return GlobalDpReport(
        epsilon=eps,
        variance_ok=variance_ok,
        renyi_cap=cap,
        renyi_cap_positive=cap_positive,
        renyi_ok=renyi_ok,
        preconditions_ok=variance_ok and cap_positive and renyi_ok is not False,
    )
