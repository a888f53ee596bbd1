"""The number readers of errors.py and the entry points that read through them."""

import math

import numpy as np
import pytest

from gossipshield import (
    AttackSpec,
    ConfigError,
    ConstantSchedule,
    DecayingSchedule,
    benchmark_problem,
    build_network,
    run,
)
from gossipshield.aggregation import TauSpec, clip
from gossipshield.errors import count, finite, nonnegative, number_or_schedule, positive, real
from gossipshield.privacy import DpBudget, global_epsilon, required_variance_local
from gossipshield.topology import constants_from_mixing

nan, inf = math.nan, math.inf


@pytest.mark.parametrize(
    "read, accepted, refused",
    [
        (real, [-inf, -1, 0, 2.5, inf, np.float64(3.0)], [nan, "1", None, True, [1.0]]),
        (finite, [-1, 0, 2.5, np.int64(3)], [nan, inf, -inf, "1", None, False]),
        (nonnegative, [0, 0.0, 2.5, 1e300], [-1e-300, -1, nan, inf, "1", True]),
        (positive, [1e-300, 1, 2.5], [0, -1, nan, inf, -inf, "1", True]),
    ],
)
def test_real_readers(read, accepted, refused):
    for value in accepted:
        out = read(value, "x")
        assert type(out) is float and out == float(value)
    for value in refused:
        with pytest.raises(ConfigError, match=r"^x: "):
            read(value, "x")


def test_an_integer_beyond_the_float_range_reads_as_infinite():
    assert real(10**400, "x") == inf and real(-(10**400), "x") == -inf
    with pytest.raises(ConfigError, match="x: must be finite, got inf"):
        finite(10**400, "x")


def test_count_refuses_bools_floats_and_values_out_of_range():
    assert count(0, "n") == 0 and type(count(np.int64(4), "n")) is int
    assert count(3, "n", 1, 3) == 3
    for value in (True, 2.0, 2.5, "2", None):
        with pytest.raises(ConfigError, match="n: expected an integer"):
            count(value, "n")
    with pytest.raises(ConfigError, match=r"n: must be at least 1, got 0"):
        count(0, "n", 1)
    with pytest.raises(ConfigError, match=r"n: must be in 1\.\.10, got 11"):
        count(11, "n", 1, 10)


def test_number_or_schedule():
    sched = DecayingSchedule(scale=1.0, k0=10)
    assert number_or_schedule(sched, "p") is sched
    assert number_or_schedule(inf, "p") == inf
    for value in (nan, "abc", None, True):
        with pytest.raises(ConfigError, match="p: "):
            number_or_schedule(value, "p")


# each call below returned NaN, built, ran or raised another type before
def test_entry_points_refuse_by_name():
    budget = DpBudget(delta=0.1, grad_bound=1.0, total_samples=50, batch_size=5, horizon=20)
    net = build_network("complete", 4)
    prob = benchmark_problem((), 4, family_of=[1, 2, 3, 4])
    sched = ConstantSchedule(0.1)
    cases = [
        (lambda: global_epsilon(budget, nan), "variance"),
        (lambda: AttackSpec("perturbed_dup", p_mult="abc"), "p_mult"),
        (lambda: AttackSpec("dissensus", d_r="x"), "d_r"),
        (lambda: clip(np.ones(2), nan), "tau"),
        (lambda: DecayingSchedule(scale=inf, k0=10), "scale"),
        (lambda: DecayingSchedule(scale=1.0, k0=2.5), "k0"),
        (lambda: ConstantSchedule(inf), "scale"),
        (lambda: benchmark_problem((), 10, u_std=inf), "u_std"),
        (lambda: run(net, prob, sched, True, 0, agg="mean"), "n_rounds"),
        (lambda: run(net, prob, sched, 2.0, 0, agg="mean"), "n_rounds"),
        (lambda: required_variance_local(0.5, 0.01, nan, sched), "delta_g"),
        (lambda: constants_from_mixing(0.5, 3, 0.0, nan, 1.0, 0.0, 0.0, 0.0, 1), "smoothness"),
        (lambda: constants_from_mixing(0.5, 3, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1), "smoothness"),
        (lambda: constants_from_mixing(0.5, 3, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 1), "pl_constant"),
        (lambda: constants_from_mixing(0.5, 3, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1), "pl_constant"),
        (lambda: constants_from_mixing(0.5, 3, nan, 1.0, 1.0, 0.0, 0.0, 0.0, 1), "rho"),
        (lambda: constants_from_mixing(0.5, 3, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0), "dim"),
    ]
    for call, name in cases:
        with pytest.raises(ConfigError, match=rf"^{name}: "):
            call()


def test_values_that_overflow_from_finite_inputs_are_refused():
    sched = ConstantSchedule(0.1)
    # a float ** raised OverflowError here, and theta was stored as inf
    with pytest.raises(ConfigError, match="required variance: must be finite, got inf"):
        required_variance_local(0.5, 0.01, 1e300, sched)
    with pytest.raises(ConfigError, match="sigma_sq: must be finite, got inf"):
        benchmark_problem((), 10, u_std=1e300)
    with pytest.raises(ConfigError, match="theta: must be finite, got inf"):
        constants_from_mixing(0.5, 1, 0.0, 5e-324, 1.0, 0.0, 0.0, 0.0, 1)
    # the whole-run epsilon of an enormous gradient bound is infinite
    budget = DpBudget(delta=0.1, grad_bound=1e300, total_samples=50, batch_size=5, horizon=20)
    report = global_epsilon(budget, 1.0)
    assert report.epsilon == inf and not report.variance_ok


def test_infinity_stays_legal_where_it_means_something():
    assert TauSpec("manual", inf).value == inf  # the mean's radius
    np.testing.assert_array_equal(clip(np.array([3.0, 4.0]), inf), [3.0, 4.0])
    for kind, key in (("sign_flip", "s_b"), ("dissensus", "d_r"), ("perturbed_dup", "p_mult"),
                      ("perturbed_dup", "p_add")):
        assert getattr(AttackSpec(kind, **{key: inf}), key) == inf
