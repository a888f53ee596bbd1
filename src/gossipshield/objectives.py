"""Benchmark objectives and global problem assembly.

The shipped benchmark spreads ten scalar function families over the agent
set, ten agents per family. Each family is an expectation over two draws
u ~ N(1, u_std^2) and v ~ N(0, v_std^2): u scales every x-dependent term,
so the stochastic gradient is u times a deterministic core, and v only
offsets the sampled value. The reliable-agent average is nonconvex but
gradient dominated, which is exactly the regime the step-size theory
covers.

Every family is a linear combination of eight basis terms; coefficient
rows live in _U_COEFFS and make batched evaluation a matrix product.

benchmark_problem and custom_problem build their GlobalProblem through
one assembler, _assemble, which checks the Byzantine ids and fills
f*, L and the P-L constant, where not given, with the public estimators
run on the problem it built, so each equals the estimator bit for bit.

f* comes from minimize_scalar_grid, a scan of a 1e-4 grid on [-10, 10]
in fixed blocks. Given a bound on |f'| (the slope contract: a finite
slope also promises a finite f), it first samples every 64th grid point,
bounds each block from below by its samples less slope times half the
sample spacing, and scans only the blocks whose bound does not exceed the
best value found, lowest bound first. The blocks keep their boundaries,
so every value compared comes from the same call on the same array as in
the full scan, and ties keep the lowest index: the point is the full
scan's, bit for bit. The assembler passes the slope of the benchmark
families (|mean coefficients| @ _core_bounds); custom objectives have no
known slope and take the full scan.

GlobalProblem.gradient_sampler is the one place that knows how a round's
stochastic gradients are drawn from the per-agent streams; it serves
several copies of the problem laid end to end, as an ensemble's round
loop runs them, and lets copies of one seed share that seed's streams:
the benchmark families expand one block draw per round, and an opaque
sample_gradient draws from a clone of the shared generator per copy.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BrokenOptimumError, ConfigError, count, finite, nonnegative

__all__ = [
    "LocalObjective",
    "GlobalProblem",
    "family_objective",
    "benchmark_problem",
    "custom_problem",
    "estimate_sigma_zeta",
    "pl_constant_probe",
    "estimate_smoothness",
    "minimize_scalar_grid",
]

N_FAMILIES = 10

# Basis order: sqrt(x^4+3), cos^2 x, sin x, (x^2+2)^(1/3), x^2/sqrt(x^2+1),
# sin^2 x, x^2, constant 1. All basis terms are multiplied by the u draw.
_U_COEFFS = np.array(
    [
        [0.2, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 2.0, -0.1, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0],
        [-0.1, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -0.2, 2.0, 0.0, 0.0],
        [-0.1, 0.0, 0.0, 0.0, -0.1, 0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, -1.0],
        [0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.2, 0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -0.1, 0.0, 0.0, 0.0, 0.0],
    ]
)
# Additive v draw: present in every family except the first.
_V_COEFFS = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])

# Elements in one pre-drawn block buffer (1 MiB of float64).
_BLOCK_ELEMENTS = 1 << 17
# The optimum scan of minimize_scalar_grid: a grid of step _SCAN_STEP on
# [-_SCAN_RADIUS, _SCAN_RADIUS], the interval _assemble's slope bound
# covers, in blocks of _SCAN_BLOCK points, sampled every _SCAN_STRIDE-th
# point by the bounding pass (every block starts on a sample), then a
# golden-section refine to a bracket of _REFINE_XTOL.
_SCAN_RADIUS = 10.0
_SCAN_STEP = 1e-4
_SCAN_BLOCK = 1 << 14
_SCAN_STRIDE = 64
_REFINE_XTOL = 1e-12
_DEFAULT_STD = 0.1  # a benchmark family's u and v stds, unless benchmark_problem sets others


def normal_blocks(rngs: Sequence[np.random.Generator], n_rounds: int, shape=(), rows=None):
    """Yield n_rounds blocks of standard normals, each (len(rngs),) + shape.

    Row i of every block comes from rngs[i], in stream order. Rounds are
    drawn in chunks that batch the same values in the same order, so the
    chunk length never changes a draw. A chunk is sized to a byte budget
    of _BLOCK_ELEMENTS values (1 MiB), which bounds a wide ensemble's
    buffer, within 32 to 512 rounds. The 32-round floor exists because
    each chunk makes one standard_normal call per generator: at 10^4
    agents the budget alone leaves 6 to 13 rounds per chunk, and those
    Python calls then dominate the round. Past 4096 values per round the
    floor lets the buffer outgrow the budget. A yielded block is a view
    that the next chunk overwrites.

    rows, an index array, expands each block after the draw: row r of
    the yielded block is row rows[r] of the drawn one, gathered with one
    take per round into a buffer the next block overwrites. Copies that
    share streams (copies of one seed) read one draw this way.
    """
    n = len(rngs)
    chunk = max(1, min(512, n_rounds, max(32, _BLOCK_ELEMENTS // (n * math.prod(shape)))))
    buf = np.empty((n, chunk) + shape)
    if rows is not None:
        out = np.empty((len(rows),) + shape)
    left = n_rounds
    while left > 0:
        m = min(chunk, left)
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=buf[i, :m])
        for k in range(m):
            yield buf[:, k] if rows is None else np.take(buf[:, k], rows, axis=0, out=out)
        left -= m


def _basis_values(x):
    x = np.asarray(x, dtype=float)
    sq = x * x
    s = np.sin(x)
    c = np.cos(x)
    return np.stack(
        [
            np.sqrt(sq * sq + 3.0),
            c * c,
            s,
            np.cbrt(sq + 2.0),
            sq / np.sqrt(sq + 1.0),
            s * s,
            sq,
            np.ones_like(x),
        ]
    )


def _basis_cores(x):
    """Derivatives of the basis terms; the u-scaled sum is the gradient."""
    x = np.asarray(x, dtype=float)
    sq = x * x
    s2 = np.sin(2.0 * x)
    return np.stack(
        [
            2.0 * x * sq / np.sqrt(sq * sq + 3.0),
            -s2,
            np.cos(x),
            (2.0 * x / 3.0) * np.cbrt(sq + 2.0) ** -2,
            x * (sq + 2.0) / np.sqrt(sq + 1.0) ** 3,
            s2,
            2.0 * x,
            np.zeros_like(x),
        ]
    )


def _core_bounds(radius: float) -> np.ndarray:
    """Largest |_basis_cores(x)| of each basis term over [-radius, radius],
    so |u_coeffs| @ _core_bounds(R) bounds the slope of a family mix."""
    return np.array([2.0 * radius, 1.0, 1.0, 2.0 / 3.0, 2.0, 1.0, 2.0 * radius, 0.0])


@dataclasses.dataclass(frozen=True)
class LocalObjective:
    """One agent's objective: expectation plus its stochastic oracle.

    ``sample_gradient(x, rng)`` draws the (u, v) pair and returns the
    gradient at that draw; ``sample_value(x, u, v)`` is the pure sampled
    value for replay-style checks.
    """

    agent: int
    family: int | str
    expected_value: Callable
    expected_gradient: Callable
    sample_value: Callable
    sample_gradient: Callable


def family_objective(agent: int, family: int) -> LocalObjective:
    """Build one benchmark-family objective for an agent, at the default
    stds (benchmark_problem sets others)."""
    return LocalObjective(agent, family, *_family_callables(family, _DEFAULT_STD, _DEFAULT_STD))


def _family_callables(family: int, u_std: float, v_std: float) -> tuple:
    """(expected_value, expected_gradient, sample_value, sample_gradient)
    of one benchmark family; they depend on the family alone, so agents of
    one family can share them."""
    count(family, "family", 1, N_FAMILIES)
    cu = _U_COEFFS[family - 1]
    cv = float(_V_COEFFS[family - 1])

    def expected_value(x):
        return cu @ _basis_values(x)

    def expected_gradient(x):
        return cu @ _basis_cores(x)

    def sample_value(x, u, v):
        return u * (cu @ _basis_values(x)) + cv * v

    def sample_gradient(x, rng):
        u = rng.normal(1.0, u_std)
        rng.normal(0.0, v_std)  # v draw keeps value/gradient streams aligned
        return u * (cu @ _basis_cores(x))

    return expected_value, expected_gradient, sample_value, sample_gradient


def _block_bounds(fun, xs, slope):
    """Lower bound on fun over each _SCAN_BLOCK block of the grid xs.

    fun is evaluated once on every _SCAN_STRIDE-th point and the last;
    every grid point lies within h/2 of a sample of its own block or of
    the next block's first one (h the largest sample spacing), so
    |f'| <= slope bounds the block by its samples' minimum less
    slope * h / 2. The 1e-9 relative margin covers the last bits by
    which a value computed in another array may differ.
    """
    n = len(xs)
    at = np.append(np.arange(0, n - 1, _SCAN_STRIDE), n - 1)
    samples = np.asarray(fun(xs[at]), dtype=float)
    _refuse_nan(xs[at], samples, "objective", "f_star")
    first = np.arange(0, n, _SCAN_BLOCK) // _SCAN_STRIDE  # each block's first sample
    low = np.minimum.reduceat(samples, first)
    low[:-1] = np.minimum(low[:-1], samples[first[1:]])
    h = float(np.max(np.diff(xs[at])))
    return low - slope * h / 2.0 - 1e-9 * (1.0 + np.abs(low))


def _refuse_nan(xs, values, what: str, constant: str):
    """Raise ConfigError naming the first x of xs where values (xs on the last axis) are NaN."""
    bad = np.isnan(np.atleast_2d(values)).any(axis=0)
    if bad.any():
        raise ConfigError(
            f"the {what} is NaN at x = {float(xs[np.argmax(bad)])!r}; pass {constant} "
            "for an objective that is undefined where it is estimated"
        )


def minimize_scalar_grid(fun, slope=math.inf):
    """Global scalar minimum: brute grid scan, then golden-section refine.

    ``fun`` must accept a numpy array. The grid has step _SCAN_STEP on
    [-_SCAN_RADIUS, _SCAN_RADIUS] and is evaluated in blocks of
    _SCAN_BLOCK points, which bounds the scan's temporaries. The grid's
    first lowest point brackets the refine, and (x_min, f_min) come from
    the bracket alone. Returns (x_min, f_min).

    ``slope`` is a bound on |f'| over the scanned interval, and a finite
    one promises a finite f there. With it, a sample pass evaluates fun on
    every _SCAN_STRIDE-th grid point and the last, which gives each block
    a lower bound (_block_bounds); blocks are then scanned in order of
    rising bound, and the scan stops at the first bound above the lowest
    value found. Ties keep the lowest grid index, so the scan returns the
    point the full scan returns. Blocks keep their boundaries whatever the
    order, so each value compared comes from the same call on the same
    array as in the full scan, bit for bit. With the default infinite
    slope there is no sample pass and every block is scanned in order.

    A NaN value raises ConfigError naming an x where fun gave it; with
    the full scan, the first such grid point.
    """
    xs = np.arange(-_SCAN_RADIUS, _SCAN_RADIUS + _SCAN_STEP, _SCAN_STEP)
    starts = range(0, len(xs), _SCAN_BLOCK)
    bounds = np.full(len(starts), -np.inf)
    if math.isfinite(slope):
        bounds = _block_bounds(fun, xs, slope)
    i, best = 0, np.inf
    for k in np.argsort(bounds, kind="stable"):
        if bounds[k] > best:
            break
        b0 = starts[k]
        vals = np.asarray(fun(xs[b0 : b0 + _SCAN_BLOCK]), dtype=float)
        _refuse_nan(xs[b0 : b0 + _SCAN_BLOCK], vals, "objective", "f_star")
        j = int(np.argmin(vals))
        if vals[j] < best or (vals[j] == best and b0 + j < i):
            i, best = b0 + j, vals[j]
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, len(xs) - 1)]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc = float(fun(np.array([c]))[0])
    fd = float(fun(np.array([d]))[0])
    while b - a > _REFINE_XTOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = float(fun(np.array([c]))[0])
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = float(fun(np.array([d]))[0])
    x = 0.5 * (a + b)
    return x, float(fun(np.array([x]))[0])


@dataclasses.dataclass(frozen=True)
class GlobalProblem:
    """Reliable-agent average objective with its landscape constants.

    ``objectives`` covers every agent (a Byzantine agent running the honest
    protocol still needs its own oracle); the global objective, optimum,
    and constants are over the reliable subset only.
    """

    objectives: tuple
    reliable: tuple
    dim: int
    f_star: float
    x_star: float | None
    pl_constant: float
    smoothness: float
    sigma_sq: float
    zeta_sq: float
    u_std: float
    v_std: float
    # (n_agents, 8) family coefficients when every objective is a benchmark
    # family; with None, gradients and values come from each agent's own
    # LocalObjective callables.
    u_coeffs: np.ndarray | None = None
    mean_u_coeffs: np.ndarray | None = None

    @property
    def n_agents(self) -> int:
        return len(self.objectives)

    def f(self, x):
        """Average expected value over reliable agents."""
        if self.mean_u_coeffs is not None:
            return self.mean_u_coeffs @ _basis_values(x)
        vals = [self.objectives[i].expected_value(x) for i in self.reliable]
        return sum(vals) / len(self.reliable)

    def f_rows(self, xbars) -> np.ndarray:
        """float(self.f(x)) for every row x of xbars, bit for bit."""
        xbars = np.asarray(xbars, dtype=float)
        if self.mean_u_coeffs is not None:
            # one basis pass for all rows, then a stack of one-row dots: a
            # single matrix-vector product would sum in another order
            basis = np.ascontiguousarray(_basis_values(xbars).T)
            return np.matmul(basis[:, None, :], self.mean_u_coeffs[:, None])[:, 0, 0]
        return np.array([float(self.f(x)) for x in xbars])

    def grad(self, x):
        if self.mean_u_coeffs is not None:
            return self.mean_u_coeffs @ _basis_cores(x)
        grads = [self.objectives[i].expected_gradient(x) for i in self.reliable]
        return sum(grads) / len(self.reliable)

    def gap(self, x) -> float:
        """f(x) - f_star, never negative (optimum_gaps); NaN where f(x) is."""
        return float(np.maximum(optimum_gaps(float(self.f(x)), self.f_star), 0.0))

    def agent_cores(self, x_per_agent: np.ndarray) -> np.ndarray:
        """Expected gradient of each benchmark-family agent at its own point;
        gradient_sampler multiplies by the u draws. Other problems draw
        through each agent's own sample_gradient."""
        return np.einsum("ab,ba->a", self.u_coeffs, _basis_cores(x_per_agent))

    def gradient_sampler(self, rngs: Sequence[np.random.Generator], n_rounds: int, rows=None):
        """Per-round stochastic gradients of every agent, as x -> grads.

        rngs may cover several copies of the problem laid end to end:
        generator c*A + i (A = n_agents) is agent i of copy c, and x and
        the returned gradients are laid out alike. Each agent draws from
        its generator exactly what its own sample_gradient would: for the
        benchmark families one (u, v) pair per round, batched by
        normal_blocks, with gradient u times the agent's core. Call the
        returned function once per round, at most n_rounds times.

        rows lets copies share streams: row r of x reads the draws of
        generator rows[r], which must be agent r % A's. The benchmark
        families draw each round's block once and expand it with one take
        (normal_blocks' rows). An opaque sample_gradient consumes the
        generator it is given, so each row draws from its own clone of its
        source, taken before the first draw.
        """
        if len(rngs) % self.n_agents or not rngs:
            raise ConfigError(
                f"{len(rngs)} generators do not cover whole copies of "
                f"{self.n_agents} agents"
            )
        if rows is not None and self.u_coeffs is None:
            rngs, rows = [copy.deepcopy(rngs[r]) for r in rows], None
        n_copies = len(rngs if rows is None else rows) // self.n_agents
        prob = self
        if n_copies > 1:
            prob = dataclasses.replace(
                self,
                objectives=self.objectives * n_copies,
                u_coeffs=None if self.u_coeffs is None else np.tile(self.u_coeffs, (n_copies, 1)),
            )
        if prob.u_coeffs is not None:
            blocks = normal_blocks(rngs, n_rounds, (2,), rows)

            def sample(x):
                u = 1.0 + prob.u_std * next(blocks)[:, 0]
                return u * prob.agent_cores(x)

            return sample

        agents = [obj.agent for obj in prob.objectives]

        def sample(x):
            grads = [
                obj.sample_gradient(xi, rng) for obj, xi, rng in zip(prob.objectives, x, rngs)
            ]
            return _oracle_rows(grads, prob.dim, agents, "sample_gradient").reshape(x.shape)

        return sample


def optimum_gaps(values, f_star: float) -> np.ndarray:
    """values - f_star, NaN where a value is NaN. A value below f_star by
    more than rounding, 1e-9 * max(1, |f_star|), raises BrokenOptimumError."""
    gaps = np.asarray(values, dtype=float) - f_star
    if np.any(gaps < -1e-9 * max(1.0, abs(f_star))):
        raise BrokenOptimumError(
            f"objective value {float(np.nanmin(gaps)) + f_star} is below the recorded "
            f"optimum {f_star}; the optimum oracle or an override is wrong"
        )
    return gaps


def _oracle_rows(outputs: list, dim: int, agents: Iterable, oracle: str) -> np.ndarray:
    """The outputs of an oracle as one (len(outputs), dim) float array;
    outputs[k] came from agent agents[k]. An output that does not hold
    exactly dim values raises ConfigError naming its agent: broadcasting
    would otherwise spread one value over every coordinate, and a scalar
    read would drop the rest. So does one holding None, which the float
    read makes NaN (scanned for only when the array holds a NaN)."""
    try:
        rows = np.array(outputs, dtype=float)
    except (TypeError, ValueError):  # the outputs differ in shape, or hold no numbers
        rows = None
    if rows is None or rows.size != len(outputs) * dim:
        for agent, out in zip(agents, outputs):
            try:
                size = np.asarray(out, dtype=float).size
            except (TypeError, ValueError):
                raise ConfigError(
                    f"agent {agent}: {oracle} output is not an array of numbers"
                ) from None
            if size != dim:
                raise ConfigError(
                    f"agent {agent}: {oracle} output has size {size}, expected "
                    f"the problem's dim {dim}"
                )
        rows = np.array([np.reshape(out, dim) for out in outputs], dtype=float)
    if np.isnan(rows).any():
        for agent, out in zip(agents, outputs):
            if None in np.asarray(out, dtype=object).ravel().tolist():
                raise ConfigError(f"agent {agent}: {oracle} output holds None")
    return rows.reshape(len(outputs), dim)


def _assign_families(n_agents: int, family_of: Sequence[int] | None) -> list:
    if family_of is not None:
        if isinstance(family_of, (str, bytes)) or not isinstance(family_of, (Sequence, np.ndarray)):
            raise ConfigError(f"family_of must be a list of integers, got {family_of!r}")
        if len(family_of) != n_agents:
            raise ConfigError("family assignment length must equal n_agents")
        # bools and floats are refused, not coerced: int(1.5) is 1
        return [count(f, f"family_of[{i}]", 1, N_FAMILIES) for i, f in enumerate(family_of)]
    if n_agents % N_FAMILIES != 0:
        raise ConfigError(
            "default benchmark assignment needs n_agents divisible by "
            f"{N_FAMILIES}; pass family_of for other sizes"
        )
    block = n_agents // N_FAMILIES
    return [i // block + 1 for i in range(n_agents)]


def benchmark_problem(
    byzantine: Iterable[int] = (),
    n_agents: int = 100,
    *,
    u_std: float = _DEFAULT_STD,
    v_std: float = _DEFAULT_STD,
    batch: int = 1,
    family_of: Sequence[int] | None = None,
    f_star: float | None = None,
    pl_constant: float | None = None,
    smoothness: float | None = None,
    sigma_sq: float | None = None,
    zeta_sq: float | None = None,
) -> GlobalProblem:
    """Standard 100-agent scalar benchmark, ten agents per family.

    The global objective averages the reliable agents only, so the optimum
    moves when Byzantine agents knock families out of the sum; it is always
    recomputed by the grid-plus-refine oracle unless overridden. Landscape
    constants default to the estimates _assemble takes from the problem
    itself; (sigma_sq, zeta_sq) are the closed-form variance of the
    u-scaled gradient at the standard probe points {-2,-1,0,1,2}. Each
    distinct family's callables are built once and shared by its agents'
    objectives.

    `batch` averages that many independent (u, v) draws per stochastic
    gradient. The draws enter linearly, so this is implemented exactly as
    dividing both stds by sqrt(batch); the stored u_std/v_std and the
    default sigma_sq are the effective per-gradient values.
    """
    batch = count(batch, "batch", 1)
    u_std = nonnegative(u_std, "u_std") / math.sqrt(batch)
    v_std = nonnegative(v_std, "v_std") / math.sqrt(batch)
    families = _assign_families(n_agents, family_of)
    # one set of callables per distinct family, in first-seen order
    shared = {f: _family_callables(f, u_std, v_std) for f in dict.fromkeys(families)}
    return _assemble(
        [LocalObjective(i, f, *shared[f]) for i, f in enumerate(families)], byzantine,
        dim=1, f_star=f_star, pl_constant=pl_constant, smoothness=smoothness,
        sigma_sq=sigma_sq, zeta_sq=zeta_sq, u_std=u_std, v_std=v_std,
        u_coeffs=_U_COEFFS[[f - 1 for f in families]],
    )


def custom_problem(
    objectives: Sequence[LocalObjective],
    byzantine: Iterable[int] = (),
    *,
    dim: int = 1,
    f_star: float | None = None,
    pl_constant: float | None = None,
    smoothness: float | None = None,
    sigma_sq: float = 0.0,
    zeta_sq: float = 0.0,
    u_std: float = 0.0,
    v_std: float = 0.0,
) -> GlobalProblem:
    """Wrap user objectives, filling scalar-problem constants numerically.

    Multi-dimensional problems must supply f_star, pl_constant, and
    smoothness explicitly; only the scalar oracle is built in. u_std and
    v_std are recorded on the problem, but no path reads them: each
    objective draws through its own sample_gradient.
    """
    return _assemble(
        objectives, byzantine, dim=dim, f_star=f_star, pl_constant=pl_constant,
        smoothness=smoothness, sigma_sq=sigma_sq, zeta_sq=zeta_sq, u_std=u_std, v_std=v_std,
    )


def _assemble(
    objectives, byzantine, *, dim, f_star, pl_constant, smoothness, sigma_sq, zeta_sq,
    u_std, v_std, u_coeffs=None,
) -> GlobalProblem:
    """The GlobalProblem behind both builders, its missing constants
    filled from the problem itself.

    f* and x* come from minimize_scalar_grid(prob.f), bounded by the
    families' slope where u_coeffs are given (the same point as the full
    scan, fewer blocks evaluated), L from
    estimate_smoothness(prob) and the P-L constant from
    pl_constant_probe(prob, _PL_GRID), each only where not given; only
    scalar problems can be estimated. (sigma_sq, zeta_sq) have a closed
    form for the benchmark families (u_coeffs given) and must be given
    otherwise.
    """
    n_agents = len(objectives)
    byz = frozenset(int(b) for b in byzantine)
    for b in byz:
        if not 0 <= b < n_agents:
            raise ConfigError(f"Byzantine id {b} outside 0..{n_agents - 1}")
    reliable = tuple(i for i in range(n_agents) if i not in byz)
    if not reliable:
        raise ConfigError("every agent is Byzantine; nothing to optimize")
    if dim != 1 and None in (f_star, pl_constant, smoothness):
        raise ConfigError(
            "multi-dimensional problems need explicit f_star, "
            "pl_constant, and smoothness"
        )
    if u_coeffs is None and None in (sigma_sq, zeta_sq):
        raise ConfigError("custom objectives need explicit sigma_sq and zeta_sq")
    given = dict(f_star=f_star, pl_constant=pl_constant, smoothness=smoothness,
                 sigma_sq=sigma_sq, zeta_sq=zeta_sq)
    for name, value in given.items():
        if value is not None:
            (finite if name == "f_star" else nonnegative)(value, name)
    rows = None if u_coeffs is None else u_coeffs[list(reliable)]
    nan = math.nan  # each constant is filled in below
    prob = GlobalProblem(
        objectives=tuple(objectives), reliable=reliable, dim=dim, f_star=nan, x_star=None,
        pl_constant=nan, smoothness=nan, sigma_sq=nan, zeta_sq=nan, u_std=u_std, v_std=v_std,
        u_coeffs=u_coeffs, mean_u_coeffs=None if rows is None else rows.mean(axis=0),
    )
    x_star = None
    if f_star is None:
        slope = math.inf  # custom objectives: no known slope, the full scan
        if rows is not None:  # the families' slope on the scanned interval
            slope = float(np.abs(prob.mean_u_coeffs) @ _core_bounds(_SCAN_RADIUS))
        x_star, f_star = minimize_scalar_grid(prob.f, slope=slope)
    prob = dataclasses.replace(prob, f_star=float(f_star), x_star=x_star)
    if smoothness is None:
        smoothness = estimate_smoothness(prob)
    if pl_constant is None:
        pl_constant = pl_constant_probe(prob, _PL_GRID)
    if sigma_sq is None or zeta_sq is None:
        cores = rows @ _basis_cores(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))  # (R, 5)
        if sigma_sq is None:
            # deviation is (u - 1) * core, so the variance is exact; numpy's
            # ** gives inf, which is refused, where a float ** would raise
            with np.errstate(over="ignore"):
                sigma_sq = finite(np.float64(u_std) ** 2 * np.max(cores**2), "sigma_sq")
        if zeta_sq is None:
            zeta_sq = np.max((cores - cores.mean(axis=0)) ** 2)
    return dataclasses.replace(
        prob, pl_constant=float(pl_constant), smoothness=float(smoothness),
        sigma_sq=float(sigma_sq), zeta_sq=float(zeta_sq),
    )


# the grid of the smoothness and P-L estimators, and the smoothness difference step
_PL_GRID = np.arange(-5.0, 5.0 + 1e-9, 0.01)
_FD_STEP = 1e-5


def _fd_smoothness(core_batch) -> float:
    """Max curvature over _PL_GRID via central differences of the gradient,
    which core_batch gives with the grid on the last axis."""
    hi = np.asarray(core_batch(_PL_GRID + _FD_STEP), dtype=float)
    lo = np.asarray(core_batch(_PL_GRID - _FD_STEP), dtype=float)
    diffs = np.abs(hi - lo)
    _refuse_nan(_PL_GRID, diffs, "gradient", "smoothness")
    return float(np.max(diffs) / (2.0 * _FD_STEP))


def pl_constant_probe(prob: GlobalProblem, grid) -> float:
    """Smallest gradient-domination ratio over a scalar probe grid.

    Returns inf over the grid of 0.5 * f'(x)^2 / (f(x) - f_star), an
    upper estimate of the largest constant the inequality supports.
    Points at the optimum are skipped; points below it raise, a NaN ratio
    raises ConfigError naming its point, and a multi-dimensional problem
    or grid is refused.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if prob.dim != 1 or grid.ndim != 1:
        raise ConfigError("the P-L probe is scalar-only: a 1-d problem on a 1-d grid")
    if grid.size == 0:
        raise ConfigError("empty probe grid")
    gaps = optimum_gaps(prob.f(grid), prob.f_star)
    keep = ~(gaps <= 1e-9)  # drop near-optimal points (0/0 there); NaN stays, refused below
    if not keep.any():
        raise ConfigError("probe grid is entirely at the optimum")
    ratios = 0.5 * np.asarray(prob.grad(grid[keep]), dtype=float) ** 2 / gaps[keep]
    _refuse_nan(grid[keep], ratios, "gradient-domination ratio", "pl_constant")
    return float(np.min(ratios))


def estimate_smoothness(prob: GlobalProblem) -> float:
    """Estimate the worst per-agent smoothness constant on _PL_GRID.

    For the benchmark families the maximum is taken over the distinct
    coefficient rows only: agents of one family share a row, and equal
    rows have equal differences, so the maximum is the same.
    """
    if prob.dim != 1:
        raise ConfigError("smoothness estimation is scalar-only")
    rel = list(prob.reliable)
    if prob.u_coeffs is not None:
        rows = np.unique(prob.u_coeffs[rel], axis=0)
        return _fd_smoothness(lambda x: rows @ _basis_cores(x))
    return _fd_smoothness(
        lambda x: np.stack([np.asarray(prob.objectives[i].expected_gradient(x)) for i in rel])
    )


def estimate_sigma_zeta(
    prob: GlobalProblem,
    probe_points,
    samples_per_point: int,
    rng: np.random.Generator,
):
    """Monte-Carlo gradient variance and exact heterogeneity at the probes.

    sigma: worst over (probe, reliable agent) of the mean squared deviation
    of sampled gradients from the expected gradient. zeta: worst over probes
    of the farthest agent gradient from the reliable average, computed from
    expected gradients directly.
    """
    probes = list(probe_points)
    if not probes:
        raise ConfigError("empty probe list")
    count(samples_per_point, "samples_per_point", 2)

    rel = list(prob.reliable)
    sigma_hat = 0.0
    zeta_hat = 0.0
    for x in probes:
        expected = _oracle_rows(
            [prob.objectives[i].expected_gradient(x) for i in rel],
            prob.dim, [prob.objectives[i].agent for i in rel], "expected_gradient",
        )
        dev = expected - expected.mean(axis=0)
        zeta_hat = max(zeta_hat, float(np.max(np.sum(dev**2, axis=1))))
        for row, i in enumerate(rel):
            if prob.u_coeffs is not None:
                # sample_gradient's (u, v) pairs, drawn in the same order
                u = 1.0 + prob.u_std * rng.standard_normal((samples_per_point, 2))[:, 0]
                core = prob.u_coeffs[i] @ _basis_cores(x)
                draws = (u * core).reshape(samples_per_point, 1)
            else:
                obj = prob.objectives[i]
                draws = _oracle_rows(
                    [obj.sample_gradient(x, rng) for _ in range(samples_per_point)],
                    prob.dim, itertools.repeat(obj.agent), "sample_gradient",
                )
            diff = draws - expected[row]
            sigma_hat = max(sigma_hat, float(np.mean(np.sum(diff**2, axis=1))))
    return sigma_hat, zeta_hat
