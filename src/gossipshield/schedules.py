"""Step-size schedules shared by the engine and the privacy calculators."""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError

__all__ = ["DecayingSchedule", "ConstantSchedule", "StepSizeSchedule", "value_at"]


@dataclasses.dataclass(frozen=True)
class DecayingSchedule:
    """alpha_k = scale / (k + k0)."""

    scale: float
    k0: int

    kind = "decaying"

    def __post_init__(self):
        if not self.scale > 0:  # NaN fails too
            raise ConfigError(f"step-size scale must be positive, got {self.scale}")
        if self.k0 < 1:
            raise ConfigError(f"decay offset k0 must be at least 1, got {self.k0}")

    def alpha(self, k):
        out = self.scale / (np.asarray(k, dtype=float) + self.k0)
        return float(out) if out.ndim == 0 else out


@dataclasses.dataclass(frozen=True)
class ConstantSchedule:
    """alpha_k = scale for every round."""

    scale: float

    kind = "constant"

    def __post_init__(self):
        if not self.scale > 0:  # NaN fails too
            raise ConfigError(f"step-size scale must be positive, got {self.scale}")

    def alpha(self, k):
        out = np.full(np.asarray(k, dtype=float).shape, self.scale)
        return float(out) if out.ndim == 0 else out


StepSizeSchedule = DecayingSchedule | ConstantSchedule


def value_at(param, k: int) -> float:
    """param at round k: a constant, or any schedule with an alpha(k) method."""
    alpha = getattr(param, "alpha", None)
    if callable(alpha):
        return float(alpha(k))
    return float(param)
