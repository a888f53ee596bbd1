"""Exception types shared across the simulator, and the number readers.

A reader maps a value and its name (a parameter, or a config key's dotted
path) to the normalized value, or raises ConfigError naming it. The config
tables and the library entry points share them: a real is finite unless
read by `real` or `number`, and a count refuses bools and floats.
"""

import math
import numbers


class GossipShieldError(Exception):
    """Base class for all library-specific failures."""


class ConfigError(GossipShieldError):
    """Raised when a run configuration is malformed or out of range."""


class TopologyError(GossipShieldError):
    """Raised when a requested network cannot be built.

    Covers the disconnected-reliable-subgraph case (for example a star whose
    hub is Byzantine) and exhausted resampling budgets for random graphs.
    """


class BrokenOptimumError(GossipShieldError):
    """Raised when a reference optimum turns out not to be a lower bound."""


class RegimeError(GossipShieldError):
    """Raised when theory constants fall outside the contractive regime."""


def _reader(rule: str, ok, expected: str = "a number"):
    """A reader of the reals for which ok holds (rule says which), as floats."""

    def read(value, name: str) -> float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{name}: expected {expected}, got {value!r}")
        if isinstance(value, numbers.Integral) and abs(value) >= 2**1024:  # past the floats
            value = math.inf if value > 0 else -math.inf
        value = float(value)
        if not ok(value):
            raise ConfigError(f"{name}: must be {rule}, got {value}")
        return value

    return read


real = _reader("a number other than NaN", lambda v: not math.isnan(v))  # infinities pass
number = _reader("a number", lambda v: True)  # NaN and infinities pass
finite = _reader("finite", math.isfinite)
nonnegative = _reader("nonnegative and finite", lambda v: 0 <= v < math.inf)
positive = _reader("positive and finite", lambda v: 0 < v < math.inf)
_number = _reader("a number other than NaN", lambda v: not math.isnan(v), "a number or a schedule")


def count(value, name: str, low=0, high=math.inf) -> int:
    """An integer in low..high; bools and floats are refused, 2.0 too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if not low <= value <= high:
        span = f"at least {low}" if high == math.inf else f"in {low}..{high}"
        raise ConfigError(f"{name}: must be {span}, got {value}")
    return int(value)


def number_or_schedule(value, name: str):
    """A schedule (anything with a callable alpha) as it is, else a real."""
    return value if callable(getattr(value, "alpha", None)) else _number(value, name)
