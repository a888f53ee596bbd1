"""Objective family, optimum oracle, and constant estimator tests."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossipshield import (
    BrokenOptimumError,
    ConfigError,
    benchmark_problem,
    custom_problem,
    estimate_sigma_zeta,
    estimate_smoothness,
    family_objective,
    pl_constant_probe,
)
from gossipshield import objectives
from gossipshield.objectives import LocalObjective, minimize_scalar_grid


def _quad(agent, a):
    # deterministic a*x^2 objective, dimension 1
    return LocalObjective(
        agent=agent,
        family="quad",
        expected_value=lambda x: a * np.asarray(x) ** 2,
        expected_gradient=lambda x: 2 * a * np.asarray(x),
        sample_value=lambda x, u, v: a * np.asarray(x) ** 2,
        sample_gradient=lambda x, rng: 2 * a * np.asarray(x),
    )


def _bowl(agent):
    # deterministic |x|^2 objective, any dimension
    return LocalObjective(
        agent, "bowl", lambda x: float(np.sum(np.square(x))), lambda x: 2.0 * np.asarray(x),
        lambda x, u, v: float(np.sum(np.square(x))), lambda x, rng: 2.0 * np.asarray(x),
    )


def test_benchmark_value_at_origin():
    p = benchmark_problem()
    assert float(p.f(0.0)) == pytest.approx(0.1, abs=1e-12)
    assert p.f_star == pytest.approx(0.1, abs=1e-9)
    assert abs(p.x_star) < 1e-6


def test_benchmark_sum_identity():
    p = benchmark_problem()
    xs = np.random.default_rng(1).uniform(-8.0, 8.0, 1000)
    total = sum(np.asarray(o.expected_value(xs)) for o in p.objectives)
    ref = 10.0 * xs**2 + 30.0 * np.sin(xs) ** 2 + 10.0
    assert np.abs(total - ref).max() < 1e-9


def test_even_byzantine_keeps_balanced_optimum():
    p = benchmark_problem(byzantine=range(0, 100, 10))
    assert len(p.reliable) == 90
    assert p.f_star == pytest.approx(0.1, abs=1e-9)
    assert p.gap(0.0) == pytest.approx(0.0, abs=1e-9)


def test_family_cores_at_origin():
    # expected gradients per family at x = 0
    expect = [0.0, 2.0, 0.0, -1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0]
    got = [float(family_objective(0, f).expected_gradient(0.0)) for f in range(1, 11)]
    assert got == pytest.approx(expect, abs=1e-12)
    p = benchmark_problem(byzantine=range(0, 100, 10))
    cores = p.agent_cores(np.zeros(100))
    assert float(np.sum(cores[list(p.reliable)] ** 2)) == pytest.approx(54.0, abs=1e-9)


def test_expected_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for fam in range(1, 11):
        obj = family_objective(0, fam)
        for x in rng.uniform(-4.0, 4.0, 100):
            fd = (obj.expected_value(x + h) - obj.expected_value(x - h)) / (2 * h)
            assert float(obj.expected_gradient(x)) == pytest.approx(float(fd), abs=1e-6)


def test_sampled_gradient_matches_sampled_value_slope():
    rng = np.random.default_rng(11)
    h = 1e-5
    for fam in range(1, 11):
        obj = family_objective(0, fam)
        for _ in range(100):
            x = float(rng.uniform(-4.0, 4.0))
            u = float(rng.normal(1.0, 0.1))
            v = float(rng.normal(0.0, 0.1))
            fd = (obj.sample_value(x + h, u, v) - obj.sample_value(x - h, u, v)) / (2 * h)
            # the sampled gradient at the same u is u times the core
            core = float(obj.expected_gradient(x))
            assert u * core == pytest.approx(float(fd), abs=1e-6)


def test_sample_gradient_unbiased():
    rng = np.random.default_rng(3)
    for x in (-1.0, 0.5, 3.0):
        for fam in (2, 5, 8):
            obj = family_objective(0, fam)
            draws = np.array([float(obj.sample_gradient(x, rng)) for _ in range(20_000)])
            core = float(obj.expected_gradient(x))
            se = draws.std(ddof=1) / math.sqrt(len(draws))
            if se == 0.0:
                assert draws.mean() == core
            else:
                assert abs(draws.mean() - core) < 3.0 * se


def test_grid_oracle_against_scipy_refinement():
    p = benchmark_problem(byzantine=range(20))  # drop two whole families
    assert p.x_star is not None

    def f(x):
        return float(p.f(x))

    res = scipy.optimize.minimize_scalar(
        f, bracket=(p.x_star - 1e-3, p.x_star, p.x_star + 1e-3), options={"xtol": 1e-12}
    )
    assert p.f_star == pytest.approx(res.fun, abs=1e-10)
    # global property: no coarse grid point beats the oracle value
    xs = np.arange(-10.0, 10.0, 1e-3)
    assert float(np.min(p.f(xs))) >= p.f_star - 1e-9


def test_blocked_grid_scan_matches_the_one_shot_scan(monkeypatch):
    # the blocked scan's values may differ in the last bit from one call
    # over the whole grid, but the optimum comes from the bracket alone
    rng = np.random.default_rng(31)
    byz_sets = [()] + [
        tuple(rng.choice(100, size=int(rng.integers(1, 40)), replace=False))
        for _ in range(24)
    ]
    custom = [_quad(0, 1.0), _quad(1, 0.5)] + [family_objective(i, i % 10 + 1) for i in range(2, 12)]
    blocked = [benchmark_problem(byzantine=b) for b in byz_sets] + [custom_problem(custom, (3,))]
    monkeypatch.setattr(objectives, "_SCAN_BLOCK", 1 << 30)
    one_shot = [benchmark_problem(byzantine=b) for b in byz_sets] + [custom_problem(custom, (3,))]
    for got, ref in zip(blocked, one_shot):
        assert (got.x_star, got.f_star) == (ref.x_star, ref.f_star)


def _counting(fun):
    """fun plus a list of how many points each call evaluated."""
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return fun(x)

    return counted, sizes


def test_bounded_scan_skips_blocks_and_keeps_the_full_scans_point():
    p = benchmark_problem()
    full, full_sizes = _counting(p.f)
    bounded, bounded_sizes = _counting(p.f)
    slope = float(np.abs(p.mean_u_coeffs) @ objectives._core_bounds(objectives._SCAN_RADIUS))
    assert slope == pytest.approx(2.5)
    assert minimize_scalar_grid(bounded, slope=slope) == minimize_scalar_grid(full)
    assert (p.x_star, p.f_star) == minimize_scalar_grid(full)
    # the full scan reads 200 001 grid points; the bounded one a sample of
    # 3 126 and the one block that holds x* = 0
    assert sum(full_sizes) > 200_001 > 10 * sum(bounded_sizes)
    assert bounded_sizes[:2] == [3126, objectives._SCAN_BLOCK]


def test_grid_scan_refuses_nan():
    # a NaN in the block that holds the minimum used to drop that block,
    # and the scan returned (-0.1696, 1.448) for the minimum at (0.5, 1.0)
    def f(x):
        x = np.asarray(x)
        return np.where(np.abs(x - 1.0) < 5e-5, np.nan, (x - 0.5) ** 2 + 1.0)

    for kwargs in ({}, {"slope": 25.0}):
        with pytest.raises(ConfigError, match="NaN at x = .*pass f_star") as err:
            minimize_scalar_grid(f, **kwargs)
        x = float(str(err.value).split("x = ")[1].split(";")[0])
        assert x == pytest.approx(1.0, abs=1e-9)
        # the first NaN is named, here the grid's first point
        with pytest.raises(ConfigError, match="NaN at x = -10.0;"):
            minimize_scalar_grid(lambda x: np.where(np.asarray(x) < 0, np.nan, x), **kwargs)
    with pytest.raises(ConfigError, match="f_star"):
        custom_problem([LocalObjective(0, "nan", f, f, f, f)])


@pytest.mark.parametrize("radius", [1.0, 10.0, 100.0])
def test_core_bounds_hold_on_the_interval(radius):
    bounds = objectives._core_bounds(radius)[:, np.newaxis]
    grid = np.linspace(-radius, radius, int(round(2 * radius / 1e-4)) + 1)
    for chunk in np.array_split(grid, max(1, len(grid) >> 16)):
        assert np.all(np.abs(objectives._basis_cores(chunk)) <= bounds)


def test_grid_oracle_simple_functions():
    # x resolution is limited by the value plateau (~sqrt(eps)); the value
    # itself is what downstream gap computations consume
    x, v = minimize_scalar_grid(lambda x: (x - 2.5) ** 2 + 1.0)
    assert x == pytest.approx(2.5, abs=1e-7)
    assert v == pytest.approx(1.0, abs=1e-12)
    # two basins, the deeper one off-center
    x, v = minimize_scalar_grid(lambda x: np.cos(3 * x) + 0.05 * x)
    assert v <= -1.0  # deeper than the central basin


def test_pl_probe_quadratics():
    half = custom_problem([_quad(0, 0.5)])
    assert half.f_star == pytest.approx(0.0, abs=1e-12)
    assert pl_constant_probe(half, np.linspace(-3, 3, 101)) == pytest.approx(1.0, rel=1e-6)
    ten = custom_problem([_quad(0, 10.0)])
    assert pl_constant_probe(ten, np.linspace(-3, 3, 101)) == pytest.approx(20.0, rel=1e-6)


def _estimated_problems():
    """Benchmark and 1-d custom problems whose constants are all estimated."""
    mixed = [_quad(0, 1.0), _quad(1, 0.5)] + [family_objective(i, i % 10 + 1) for i in range(2, 12)]
    return [
        benchmark_problem(),
        benchmark_problem(byzantine=range(20)),
        custom_problem([_quad(0, 3.0)]),
        custom_problem(mixed, (3,)),
    ]


def test_pl_probe_benchmark_positive():
    p = benchmark_problem()
    assert 0.0 < pl_constant_probe(p, np.arange(-5.0, 5.0, 0.01)) < 1.0
    # the builders' constants are the public estimators on the built problem
    for prob in _estimated_problems():
        assert prob.pl_constant == pl_constant_probe(prob, objectives._PL_GRID)
        assert (prob.x_star, prob.f_star) == minimize_scalar_grid(prob.f)


def test_pl_probe_errors():
    p = benchmark_problem()
    with pytest.raises(ConfigError):
        pl_constant_probe(p, [])
    # an optimum claimed above true values fails fast at build time
    with pytest.raises(BrokenOptimumError):
        benchmark_problem(f_star=0.2)
    broken = benchmark_problem(
        f_star=0.2, pl_constant=0.8, smoothness=4.0, sigma_sq=0.2, zeta_sq=16.0
    )
    with pytest.raises(BrokenOptimumError):
        pl_constant_probe(broken, [0.0, 1.0])
    with pytest.raises(BrokenOptimumError):
        broken.gap(0.0)
    # the probe reads a scalar problem on a 1-d grid; anything else is refused
    vec = custom_problem([_bowl(0)], dim=10, f_star=0.0, pl_constant=2.0, smoothness=2.0)
    with pytest.raises(ConfigError, match="scalar-only"):
        pl_constant_probe(vec, np.ones((3, 10)))
    with pytest.raises(ConfigError, match="scalar-only"):
        pl_constant_probe(benchmark_problem(), np.ones((3, 2)))


def test_gap_clamps_rounding_noise():
    p = benchmark_problem()
    assert p.gap(p.x_star) >= 0.0
    assert p.gap(1.0) == pytest.approx(float(p.f(1.0)) - 0.1, rel=1e-12)
    # a NaN objective used to read as a gap of 0, at the optimum
    assert math.isnan(p.gap(float("nan")))


def test_nan_landscape_estimates_are_refused():
    # x^2 whose gradient is NaN past x = 4: L and mu used to build as NaN
    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 4.0, np.nan, 2.0 * x)

    def square(agent):
        return LocalObjective(agent, "square", lambda x: np.asarray(x) ** 2, grad,
                              lambda x, u, v: np.asarray(x) ** 2, lambda x, rng: grad(x))

    objs = [square(0), square(1)]
    for kwargs, constant in (({}, "smoothness"), ({"smoothness": 2.0}, "pl_constant")):
        with pytest.raises(ConfigError, match=f"NaN at x = .*pass {constant}") as err:
            custom_problem(objs, **kwargs)
        x = float(str(err.value).split("x = ")[1].split(";")[0])
        assert x == pytest.approx(4.0, abs=0.011)
    p = custom_problem(objs, smoothness=2.0, pl_constant=2.0)
    assert (p.smoothness, p.pl_constant) == (2.0, 2.0)


def test_smoothness_estimates():
    quad = custom_problem([_quad(0, 3.0)])
    assert quad.smoothness == pytest.approx(6.0, rel=1e-5)
    p = benchmark_problem()
    assert 2.0 < p.smoothness < 6.0
    for prob in _estimated_problems():
        assert prob.smoothness == estimate_smoothness(prob)


def _per_agent_smoothness(u_coeffs, rel):
    """The smoothness estimates as they were computed before the
    per-family maximum: benchmark_problem's full product, then the reliable
    rows, and estimate_smoothness's reliable rows, then the product."""
    cores = objectives._basis_cores
    return (
        objectives._fd_smoothness(lambda x: (u_coeffs @ cores(x))[rel]),
        objectives._fd_smoothness(lambda x: u_coeffs[rel] @ cores(x)),
    )


@st.composite
def _family_cases(draw):
    n = draw(st.integers(1, 300))
    if draw(st.booleans()) and n % 10 == 0:
        family_of = None
    else:
        family_of = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    byz = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return n, family_of, sorted(byz)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_family_cases())
@example((1000, None, list(range(0, 1000, 10))))
@example((1000, None, []))
def test_family_smoothness_equals_per_agent_form(case):
    n, family_of, byz = case
    p = benchmark_problem(byz, n, family_of=family_of, f_star=0.0, pl_constant=1.0,
                          sigma_sq=0.0, zeta_sq=0.0)
    rel = list(p.reliable)
    ref_problem, ref_estimate = _per_agent_smoothness(p.u_coeffs, rel)
    assert p.smoothness == ref_problem
    assert estimate_smoothness(p) == ref_estimate


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_family_cases(), st.floats(0.0, 2.0), st.integers(1, 8))
@example((1000, None, list(range(0, 1000, 10))), 0.1, 1)
@example((1000, [10] * 500 + [9] * 500, list(range(500, 1000))), 0.5, 3)
def test_bounded_optimum_equals_the_full_scan(case, u_std, batch):
    # the builders scan with the families' slope bound; the full scan
    # (infinite slope) must find the very same point. Family 10 alone is
    # lowest at both ends of [-10, 10], in the first and the last block.
    n, family_of, byz = case
    p = benchmark_problem(byz, n, u_std=u_std, batch=batch, family_of=family_of,
                          pl_constant=1.0, smoothness=1.0, sigma_sq=0.0, zeta_sq=0.0)
    assert (p.x_star, p.f_star) == minimize_scalar_grid(p.f)


def test_family_objectives_share_callables():
    p = benchmark_problem(n_agents=100)
    for i, obj in enumerate(p.objectives):
        first = p.objectives[i - i % 10]
        assert obj.agent == i and obj.family == i // 10 + 1
        assert obj.expected_gradient is first.expected_gradient
        assert obj.sample_gradient is first.sample_gradient
    alone = family_objective(7, 3)
    assert p.objectives[25].expected_gradient(0.7) == alone.expected_gradient(0.7)
    with pytest.raises(ConfigError, match="family"):
        benchmark_problem(n_agents=3, family_of=[1, 11, 2])


def test_family_assignment_refuses_non_integers():
    # each of these was coerced with int() and ran as families 1-5 or 1;
    # the NaN entry raised a bare ValueError
    for family_of, message in (
        ("1234512345", "list of integers"),
        ([1.5, 2, 3, 4, 5, 1, 2, 3, 4, 5], r"family_of\[0\].*1\.5"),
        ([True] * 10, r"family_of\[0\].*True"),
        ([1, 2, 3, float("nan"), 5, 1, 2, 3, 4, 5], r"family_of\[3\].*nan"),
        (5, "list of integers"),
    ):
        with pytest.raises(ConfigError, match=message):
            benchmark_problem(n_agents=10, family_of=family_of)
    # any sequence of integers, numpy's included, still builds
    families = [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]
    for family_of in (tuple(families), np.array(families)):
        p = benchmark_problem(n_agents=10, family_of=family_of)
        assert [obj.family for obj in p.objectives] == families
        assert all(type(obj.family) is int for obj in p.objectives)


class _CountingStream:
    """A generator that records the length of every standard_normal call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def standard_normal(self, out):
        self.calls.append(len(out))
        return self.rng.standard_normal(out=out)


@pytest.mark.parametrize("shape", [(), (2,), (10,)])
@pytest.mark.parametrize("rows", [None, [2, 0, 2, 1]])
# budget in rounds -> the chunk it sets: the byte budget itself, the
# 32-round floor under a smaller budget, the 512-round cap over a larger one
@pytest.mark.parametrize("budget, chunk", [(50, 50), (5, 32), (1000, 512)])
def test_normal_blocks_equal_each_streams_draw(monkeypatch, shape, rows, budget, chunk):
    n_rounds, seeds = 700, (3, 4, 5)
    monkeypatch.setattr(objectives, "_BLOCK_ELEMENTS", budget * len(seeds) * math.prod(shape))
    streams = [_CountingStream(s) for s in seeds]
    blocks = [b.copy() for b in objectives.normal_blocks(
        streams, n_rounds, shape, None if rows is None else np.array(rows))]
    calls = [chunk] * (n_rounds // chunk) + [n_rounds % chunk] * (n_rounds % chunk > 0)
    assert all(s.calls == calls for s in streams)
    refs = [np.random.default_rng(s) for s in seeds]
    draws = [r.standard_normal((n_rounds,) + shape) for r in refs]
    picked = range(len(seeds)) if rows is None else rows
    assert len(blocks) == n_rounds
    for k, block in enumerate(blocks):
        assert block.shape == (len(picked),) + shape
        assert np.array_equal(block, np.stack([draws[i][k] for i in picked]))
    # every stream ends where the one-shot draw leaves it
    assert all(s.rng.random() == r.random() for s, r in zip(streams, refs))


def test_sigma_zeta_deterministic_and_identical():
    p = benchmark_problem(u_std=0.0, v_std=0.0, sigma_sq=None, zeta_sq=None)
    rng = np.random.default_rng(0)
    s, z = estimate_sigma_zeta(p, [-1.0, 0.0, 2.0], 50, rng)
    assert s == 0.0
    assert z > 0.0  # families still differ
    same = custom_problem([_quad(i, 2.0) for i in range(5)])
    s2, z2 = estimate_sigma_zeta(same, [-1.0, 1.0], 10, rng)
    assert s2 == 0.0
    assert z2 == 0.0


def test_sigma_zeta_benchmark_monte_carlo():
    p = benchmark_problem()
    rng = np.random.default_rng(42)
    s, z = estimate_sigma_zeta(p, [-2.0, -1.0, 0.0, 1.0, 2.0], 4000, rng)
    # builder stores the closed-form values at the same probes
    assert z == pytest.approx(p.zeta_sq, rel=1e-12)
    assert s == pytest.approx(p.sigma_sq, rel=0.2)
    assert 0.0 < s < 1.0


def test_sigma_zeta_batched_draws_match_the_oracle_loop():
    # the same family objectives without u_coeffs take the per-call loop
    p = benchmark_problem(byzantine=[3, 17, 55])
    loop = custom_problem(
        p.objectives, [3, 17, 55],
        f_star=p.f_star, pl_constant=p.pl_constant, smoothness=p.smoothness,
    )
    assert p.u_coeffs is not None and loop.u_coeffs is None
    probes = [-2.0, 0.5, 1.0]
    for n in (2, 37):
        fast_rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
        fast = estimate_sigma_zeta(p, probes, n, fast_rng)
        assert fast == estimate_sigma_zeta(loop, probes, n, loop_rng)
        # and both consumed the same draws
        assert fast_rng.bit_generator.state == loop_rng.bit_generator.state


def test_f_rows_is_f_per_row():
    xs = np.random.default_rng(3).normal(scale=3.0, size=257)
    bench = benchmark_problem(byzantine=[0, 41])
    loop = custom_problem(
        bench.objectives, [0, 41],
        f_star=bench.f_star, pl_constant=bench.pl_constant, smoothness=bench.smoothness,
    )
    for prob in (bench, loop):
        rows = prob.f_rows(xs)
        assert rows.shape == xs.shape
        assert all(v == float(prob.f(x)) for v, x in zip(rows, xs))
        assert prob.f_rows(xs[:0]).shape == (0,)
    bowls = [
        LocalObjective(i, "bowl", lambda x, a=1.0 + i: a * float(x @ x), None, None, None)
        for i in range(3)
    ]
    vec = custom_problem(bowls, dim=4, f_star=0.0, pl_constant=1.0, smoothness=8.0)
    pts = np.random.default_rng(5).normal(size=(6, 4))
    assert list(vec.f_rows(pts)) == [float(vec.f(x)) for x in pts]


def test_benchmark_f_rows_equal_f_per_row_at_every_scale():
    # the rows are one stacked matmul of one-row dots; each must still be
    # float(f(x)) exactly, from tiny to large states
    rng = np.random.default_rng(8)
    prob = benchmark_problem(byzantine=[3, 57])
    for scale in 10.0 ** np.arange(-9, 4):
        xs = rng.normal(scale=scale, size=100)
        assert [float(prob.f(x)) for x in xs] == list(prob.f_rows(xs)), scale


def test_builder_validation():
    with pytest.raises(ConfigError):
        benchmark_problem(n_agents=55)
    with pytest.raises(ConfigError):
        benchmark_problem(family_of=[1, 2])
    with pytest.raises(ConfigError):
        benchmark_problem(byzantine=[200])
    with pytest.raises(ConfigError):
        benchmark_problem(byzantine=range(10), n_agents=10)
    with pytest.raises(ConfigError):
        family_objective(0, 11)
    for std in (float("nan"), -0.1):
        with pytest.raises(ConfigError, match="u_std"):
            benchmark_problem(u_std=std)
        with pytest.raises(ConfigError, match="v_std"):
            benchmark_problem(v_std=std)
    with pytest.raises(ConfigError, match="outside"):
        custom_problem([_quad(0, 1.0), _quad(1, 1.0)], [2])
    with pytest.raises(ConfigError, match="sigma_sq"):
        custom_problem([_quad(0, 1.0)], sigma_sq=None)
    with pytest.raises(ConfigError):
        estimate_sigma_zeta(benchmark_problem(), [], 10, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        estimate_sigma_zeta(benchmark_problem(), [0.0], 1, np.random.default_rng(0))


def test_agent_cores_fast_path_matches_loop():
    p = benchmark_problem()
    xs = np.random.default_rng(9).uniform(-3, 3, 100)
    fast = p.agent_cores(xs)
    slow = np.array([p.objectives[i].expected_gradient(x) for i, x in enumerate(xs)])
    assert np.allclose(fast, slow, atol=1e-12)


def _sampler_problems():
    """A benchmark problem and a 1-d custom one whose objectives draw."""
    objs = [family_objective(i, i % 10 + 1) for i in range(12)]
    return [
        benchmark_problem(byzantine=[4, 51], n_agents=60),
        custom_problem(objs, (3,), f_star=0.0, pl_constant=1.0, smoothness=1.0),
    ]


@pytest.mark.parametrize("index", [0, 1])
def test_gradient_sampler_over_copies_equals_one_sampler_per_copy(index):
    p = _sampler_problems()[index]
    a, rounds = p.n_agents, 7

    def rngs(seed):
        return [np.random.default_rng([seed, i]) for i in range(a)]

    both = p.gradient_sampler(rngs(1) + rngs(2), rounds)
    first, second = p.gradient_sampler(rngs(1), rounds), p.gradient_sampler(rngs(2), rounds)
    xs = np.random.default_rng(5).uniform(-3.0, 3.0, (rounds, 2 * a))
    for x in xs:
        got = both(x)
        assert got.shape == x.shape
        assert np.array_equal(got, np.concatenate([first(x[:a]), second(x[a:])]))


def test_gradient_sampler_copies_share_streams():
    # copies 0 and 2 read seed 1's streams, copy 1 reads seed 2's
    for p in _sampler_problems():
        a, rounds = p.n_agents, 7

        def rngs(seed):
            return [np.random.default_rng([seed, i]) for i in range(a)]

        source = rngs(1) + rngs(2)
        rows = (np.array([0, 1, 0])[:, np.newaxis] * a + np.arange(a)).ravel()
        shared = p.gradient_sampler(source, rounds, rows)
        refs = [p.gradient_sampler(rngs(s), rounds) for s in (1, 2, 1)]
        xs = np.random.default_rng(6).uniform(-3.0, 3.0, (rounds, 3 * a))
        for x in xs:
            expect = np.concatenate([ref(x[c * a : (c + 1) * a]) for c, ref in enumerate(refs)])
            assert shared(x).tobytes() == expect.tobytes()
        # an opaque sample_gradient consumes the generator it is given, so
        # every copy draws from a clone and the shared ones stay fresh
        states = [r.bit_generator.state for r in rngs(1) + rngs(2)]
        fresh = [g.bit_generator.state == state for g, state in zip(source, states)]
        assert all(fresh) == (p.u_coeffs is None)


def test_gradient_sampler_needs_whole_copies():
    for p in _sampler_problems():
        rngs = [np.random.default_rng(i) for i in range(2 * p.n_agents + 1)]
        for n in (0, 1, p.n_agents - 1, p.n_agents + 1, 2 * p.n_agents + 1):
            with pytest.raises(ConfigError, match="whole copies"):
                p.gradient_sampler(rngs[:n], 3)


def test_custom_problem_requires_constants_beyond_dim_one():
    objs = [_quad(0, 1.0)]
    with pytest.raises(ConfigError):
        custom_problem(objs, dim=2)
    ok = custom_problem(objs, dim=2, f_star=0.0, pl_constant=2.0, smoothness=2.0)
    assert ok.dim == 2


@pytest.mark.parametrize("name, value", [
    ("f_star", math.nan), ("f_star", math.inf), ("f_star", -math.inf),
    ("smoothness", math.inf), ("smoothness", -1.0), ("pl_constant", -1.0),
    ("pl_constant", math.nan), ("sigma_sq", math.inf), ("zeta_sq", -1.0),
])
def test_given_landscape_constants_must_be_finite(name, value):
    # refused by name before any estimate, which would blame a NaN f* on
    # the P-L probe
    rule = "finite" if name == "f_star" else "nonnegative and finite"
    with pytest.raises(ConfigError, match=f"^{name}: must be {rule}, got"):
        benchmark_problem(n_agents=10, **{name: value})
    given = dict(f_star=1.0, pl_constant=2.0, smoothness=2.0, sigma_sq=0.0, zeta_sq=0.0)
    with pytest.raises(ConfigError, match=f"^{name}: must be {rule}, got"):
        custom_problem([_quad(0, 1.0)], **dict(given, **{name: value}))


def test_batch_is_exactly_a_std_rescale():
    # B averaged draws enter the gradient linearly
    batched = benchmark_problem(batch=4)
    rescaled = benchmark_problem(u_std=0.05, v_std=0.05)
    assert batched.u_std == rescaled.u_std == 0.05
    assert batched.v_std == rescaled.v_std == 0.05
    assert batched.sigma_sq == rescaled.sigma_sq
    assert batched.sigma_sq == benchmark_problem().sigma_sq / 4.0
    assert batched.zeta_sq == benchmark_problem().zeta_sq  # heterogeneity is deterministic
    assert batched.f_star == rescaled.f_star
    with pytest.raises(ConfigError):
        benchmark_problem(batch=0)


def _misshapen(objs, agent, sample_gradient):
    """objs with agent's sample_gradient replaced."""
    out = list(objs)
    out[agent] = dataclasses.replace(out[agent], sample_gradient=sample_gradient)
    return out


def _oracle_refusals(prob, probe, message):
    """Both oracle loops refuse prob with message."""
    x = np.tile(probe, (prob.n_agents,) + (1,) * np.ndim(probe))
    sample = prob.gradient_sampler([np.random.default_rng(i) for i in range(prob.n_agents)], 2)
    with pytest.raises(ConfigError, match=re.escape(message)):
        sample(x)
    with pytest.raises(ConfigError, match=re.escape(message)):
        estimate_sigma_zeta(prob, [probe], 5, np.random.default_rng(0))


def test_scalar_oracle_returning_two_values_is_refused():
    # read as a scalar, the output would drop 99.0 without a word
    objs = _misshapen(
        [_quad(i, 1.0 + i) for i in range(4)], 2, lambda x, rng: np.array([2.0 * x, 99.0])
    )
    _oracle_refusals(
        custom_problem(objs), 0.5,
        "agent 2: sample_gradient output has size 2, expected the problem's dim 1",
    )
    # a ragged output is refused by name too
    objs = _misshapen([_quad(i, 1.0) for i in range(4)], 3, lambda x, rng: [1.0, [2.0, 3.0]])
    sample = custom_problem(objs).gradient_sampler([np.random.default_rng(i) for i in range(4)], 1)
    with pytest.raises(ConfigError, match="agent 3: sample_gradient output is not an array"):
        sample(np.zeros(4))


def test_vector_oracle_returning_one_value_is_refused():
    # broadcast, the one value would fill every coordinate
    objs = _misshapen([_bowl(i) for i in range(4)], 1, lambda x, rng: 2.0 * float(x[0]))
    prob = custom_problem(objs, dim=10, f_star=0.0, pl_constant=2.0, smoothness=2.0)
    _oracle_refusals(
        prob, np.ones(10), "agent 1: sample_gradient output has size 1, expected the problem's dim 10"
    )
    # the expected gradients are read the same way
    objs = [_bowl(i) for i in range(4)]
    objs[3] = dataclasses.replace(objs[3], expected_gradient=lambda x: np.ones(3))
    prob = custom_problem(objs, dim=10, f_star=0.0, pl_constant=2.0, smoothness=2.0)
    with pytest.raises(ConfigError, match="agent 3: expected_gradient output has size 3"):
        estimate_sigma_zeta(prob, [np.ones(10)], 5, np.random.default_rng(0))


def test_oracle_returning_none_is_refused():
    # the float read turns None into NaN, and a run went on to end
    # "diverged" at round 0 instead of naming the agent
    objs = _misshapen([_quad(i, 1.0) for i in range(4)], 2, lambda x, rng: None)
    _oracle_refusals(custom_problem(objs), 0.5, "agent 2: sample_gradient output holds None")
    none_entry = np.array([None] + [1.0] * 9)
    objs = _misshapen([_bowl(i) for i in range(4)], 1, lambda x, rng: none_entry)
    prob = custom_problem(objs, dim=10, f_star=0.0, pl_constant=2.0, smoothness=2.0)
    _oracle_refusals(prob, np.ones(10), "agent 1: sample_gradient output holds None")
    objs = [_bowl(i) for i in range(4)]
    objs[3] = dataclasses.replace(objs[3], expected_gradient=lambda x: None)
    prob = custom_problem(objs, dim=1, f_star=0.0, pl_constant=2.0, smoothness=2.0)
    with pytest.raises(ConfigError, match="agent 3: expected_gradient output holds None"):
        estimate_sigma_zeta(prob, [0.5], 5, np.random.default_rng(0))
    # a NaN the oracle computes is a number, left for the run to report
    objs = _misshapen([_quad(i, 1.0) for i in range(4)], 2, lambda x, rng: math.nan)
    got = custom_problem(objs).gradient_sampler([np.random.default_rng(i) for i in range(4)], 1)
    assert np.isnan(got(np.ones(4))[2])


def test_oracle_outputs_of_mixed_forms_are_read_alike():
    # a float, a 0-d array, a one-element list and a float32 are one value
    # each, so the agents of one scalar problem may mix them
    forms = [float, np.asarray, lambda g: [g], np.float32]
    objs = [
        dataclasses.replace(_quad(i, 1.0), sample_gradient=lambda x, rng, f=f: f(2.0 * x))
        for i, f in enumerate(forms)
    ]
    x = np.array([0.1, -0.3, 1.7, 0.1])
    got = custom_problem(objs).gradient_sampler([np.random.default_rng(i) for i in range(4)], 1)(x)
    expect = 2.0 * x
    expect[3] = np.float32(expect[3])
    assert got.tobytes() == expect.tobytes()
