"""Term-level checks of the disagreement and optimal-gap ceilings."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import polygamma

from gossipshield import (
    ConfigError,
    ConstantSchedule,
    DecayingSchedule,
    MetricsLog,
    RegimeError,
    constants_from_mixing,
)
from gossipshield import config
from gossipshield.bounds import (
    ConvergenceBoundInputs,
    dk_bound,
    format_comparison_table,
    lemma2_rhs,
    regime_compare,
    theorem2_rhs,
    theorem3_rhs,
    validate_schedule,
)


def _consts(rho=0.0, noise=0.1, sigma=0.2, zeta=0.3):
    # mixing 0.5 over 4 reliable agents, L=2, nu=1
    return constants_from_mixing(0.5, 4, rho, 2.0, 1.0, sigma, zeta, noise, 1)


def test_lemma2_examples():
    consts = _consts()
    # alpha 0 leaves only the disagreement amplification
    assert lemma2_rhs(consts, 3.0, 0.0) == pytest.approx(3.0 / 0.75, rel=1e-15)
    # D=0 and no masking noise leaves the sampling floor
    clean = _consts(noise=0.0)
    assert lemma2_rhs(clean, 0.0, 0.1) == pytest.approx(
        8.0 * 4 * (0.2 + 0.3) / 0.25 * 0.01, rel=1e-15
    )
    silent = _consts(noise=0.0, sigma=0.0, zeta=0.0)
    assert lemma2_rhs(silent, 0.0, 0.1) == 0.0
    # full hand value: eta 1/4, R 4, L 2, dim 1
    assert lemma2_rhs(consts, 2.0, 0.1) == pytest.approx(
        18.698666666666668, rel=1e-12
    )
    bad = _consts(rho=0.2)
    assert not bad.regime_valid
    with pytest.raises(RegimeError):
        lemma2_rhs(bad, 1.0, 0.1)


def _decaying_inputs(rho=0.05, horizon=50, d=None, **kw):
    consts = _consts(rho=rho, **kw)
    assert consts.regime_valid
    sched = DecayingSchedule(scale=consts.theta_min, k0=consts.k0)
    if d is None:
        d = 1.0 / (np.arange(horizon + 1) + 1.0)
    return consts, ConvergenceBoundInputs(
        consts=consts, f0_gap=2.0, d_series=d, schedule=sched
    )


def test_theorem2_terms_hand_recomputed():
    consts, inputs = _decaying_inputs()
    out = theorem2_rhs(inputs)
    # total is literally the sum of its parts
    assert out.total == sum(t.value for t in out.terms)

    nu, eta, r, l_c = 1.0, consts.eta, 4, 2.0
    theta_lo, k0 = inputs.schedule.scale, float(inputs.schedule.k0)
    d = inputs.d_series
    ks = [k + k0 for k in range(51)]
    span = math.log(50 + k0) - math.log(k0)
    rho_sq = 0.05**2

    assert out.term("initial_gap") == pytest.approx(
        2.0 / (theta_lo * nu * span), rel=1e-12
    )
    assert out.term("sampling_tail") == pytest.approx(
        theta_lo * l_c * 0.2 * sum(1.0 / k**2 for k in ks) / (nu * span), rel=1e-12
    )
    assert out.term("disagreement_contraction") == pytest.approx(
        (l_c**2 / nu) * (96 * r * rho_sq / eta)
        * sum(dv / k for dv, k in zip(d, ks)) / span,
        rel=1e-12,
    )
    assert out.term("disagreement_mean") == pytest.approx(
        (l_c**2 / nu) / r * sum(dv / k for dv, k in zip(d, ks)) / span, rel=1e-12
    )
    assert out.term("disagreement_weighted") == pytest.approx(
        8 * rho_sq / (nu * (1 - eta) * theta_lo**2)
        * sum(dv * k for dv, k in zip(d, ks)) / span,
        rel=1e-12,
    )
    assert out.term("contraction_floor") == pytest.approx(
        64 * r * rho_sq * 0.5 / (nu * eta), rel=1e-12
    )
    assert out.term("masking_floor") == pytest.approx(
        4 * 1 / nu * (1 + 8 * r * rho_sq / eta) * 0.1, rel=1e-12
    )
    # driver rollup covers every term exactly once
    drivers = ("initial", "sampling", "disagreement", "byzantine", "privacy")
    assert sum(out.by_driver(dr) for dr in drivers) == pytest.approx(
        out.total, rel=1e-15
    )


def test_theorem2_clean_case_vanishes():
    # no attackers, no masking, no sampling noise, perfect agreement:
    # only the initial-gap term survives and it decays with the horizon
    totals = []
    for horizon in (10, 100, 1000):
        consts, inputs = _decaying_inputs(
            rho=0.0, horizon=horizon, d=np.zeros(horizon + 1),
            noise=0.0, sigma=0.0, zeta=0.3,
        )
        out = theorem2_rhs(inputs)
        assert out.total == out.term("initial_gap")
        totals.append(out.total)
    assert totals[0] > totals[1] > totals[2]
    assert totals[2] < 0.25 * totals[0]


def test_theorem2_monotone_in_horizon_and_bounded_tail():
    values = []
    tails = []
    for horizon in (10, 100, 1000, 10000):
        consts, inputs = _decaying_inputs(
            rho=0.0, horizon=horizon, d=np.zeros(horizon + 1), noise=0.0
        )
        out = theorem2_rhs(inputs)
        values.append(out.total)
        k0 = inputs.schedule.k0
        partial = sum(1.0 / (k + k0) ** 2 for k in range(horizon + 1))
        tails.append((partial, float(polygamma(1, k0))))
    assert all(a >= b for a, b in zip(values, values[1:]))
    for partial, limit in tails:
        assert partial < limit
    # convergent series: by K=10000 all but the ~1/K tail is exhausted
    assert tails[-1][0] > 0.998 * tails[-1][1]


def test_theorem3_terms_and_floors():
    consts = _consts(rho=0.05)
    alpha = consts.theta_min / 2
    d = np.full(21, 0.3)
    inputs = ConvergenceBoundInputs(
        consts=consts, f0_gap=1.5, d_series=d, schedule=ConstantSchedule(alpha)
    )
    out = theorem3_rhs(inputs)
    assert out.total == sum(t.value for t in out.terms)
    nu, eta, r = 1.0, consts.eta, 4
    denom = nu * alpha * 21
    rho_sq = 0.05**2
    assert out.term("initial_gap") == pytest.approx(1.5 / denom, rel=1e-12)
    assert out.term("disagreement_contraction") == pytest.approx(
        96 * r * 4.0 * rho_sq / eta * 0.3 * 21 / denom, rel=1e-12
    )
    assert out.term("disagreement_mean") == pytest.approx(
        4.0 / r * 0.3 * 21 / denom, rel=1e-12
    )
    assert out.term("disagreement_weighted") == pytest.approx(
        8 * rho_sq / (1 - eta) / alpha**2 * 0.3 * 21 / denom, rel=1e-12
    )
    assert out.term("sampling_step") == pytest.approx(2.0 * 0.2 * alpha / nu, rel=1e-12)
    assert out.term("masking_floor") == pytest.approx(
        4 * 1 / nu * (1 + 8 * r * rho_sq / eta) * 0.1, rel=1e-12
    )

    # doubling the masking deviation quadruples that floor, nothing else
    consts4 = _consts(rho=0.05, noise=0.4)
    out4 = theorem3_rhs(
        ConvergenceBoundInputs(
            consts=consts4, f0_gap=1.5, d_series=d, schedule=ConstantSchedule(alpha)
        )
    )
    assert out4.term("masking_floor") == pytest.approx(
        4 * out.term("masking_floor"), rel=1e-15
    )
    assert out4.term("sampling_step") == out.term("sampling_step")
    assert out4.term("initial_gap") == out.term("initial_gap")


def test_bound_input_validation():
    consts = _consts(rho=0.05)
    sched = DecayingSchedule(scale=consts.theta_min, k0=consts.k0)
    with pytest.raises(ConfigError):
        ConvergenceBoundInputs(consts=consts, f0_gap=1.0, d_series=np.array([]), schedule=sched)
    with pytest.raises(ConfigError):
        ConvergenceBoundInputs(
            consts=consts, f0_gap=np.inf, d_series=np.zeros(3), schedule=sched
        )
    with pytest.raises(ConfigError):
        ConvergenceBoundInputs(
            consts=consts, f0_gap=-1.0, d_series=np.zeros(3), schedule=sched
        )
    with pytest.raises(ConfigError, match="bound inputs must be finite"):
        ConvergenceBoundInputs(
            consts=consts, f0_gap=1.0, d_series=np.array([0.0, np.nan]), schedule=sched
        )
    # single-row series means zero rounds: no log window to average over
    single = ConvergenceBoundInputs(
        consts=consts, f0_gap=1.0, d_series=np.zeros(1), schedule=sched
    )
    with pytest.raises(ConfigError):
        theorem2_rhs(single)
    cross = ConvergenceBoundInputs(
        consts=consts, f0_gap=1.0, d_series=np.zeros(5), schedule=ConstantSchedule(1e-3)
    )
    with pytest.raises(ConfigError):
        theorem2_rhs(cross)
    with pytest.raises(ConfigError):
        theorem3_rhs(
            ConvergenceBoundInputs(
                consts=consts, f0_gap=1.0, d_series=np.zeros(5), schedule=sched
            )
        )
    bad = _consts(rho=0.2)
    with pytest.raises(RegimeError):
        theorem3_rhs(
            ConvergenceBoundInputs(
                consts=bad, f0_gap=1.0, d_series=np.zeros(5),
                schedule=ConstantSchedule(1e-4),
            )
        )
    with pytest.raises(RegimeError):
        theorem3_rhs(
            ConvergenceBoundInputs(
                consts=consts, f0_gap=1.0, d_series=np.zeros(5),
                schedule=ConstantSchedule(consts.theta_min * 10),
            )
        )


def _refuses(call) -> bool:
    try:
        call()
    except RegimeError:
        return True
    return False


def _build(sched, theory_mode: bool):
    """Build a small config with sched and a bound column, in or out of
    theory mode."""
    schedule = {"kind": sched.kind, "scale": sched.scale}
    if sched.kind == "decaying":
        schedule["k0"] = sched.k0
    return config.build_experiment({
        "topology": {"kind": "complete", "n_agents": 10},
        "schedule": schedule,
        "aggregation": {"kind": "mean"},
        "run": {"horizon": 1, "seeds": [1], "bound_column": True, "theory_mode": theory_mode},
    })


def test_entry_points_agree_on_the_regime(monkeypatch):
    """The strict schedule check refuses exactly where the gap theorems
    do. Building a config with a bound column refuses exactly where
    dk_bound does, and otherwise warns exactly where the strict check
    refuses; in theory mode it refuses exactly where the strict check
    does."""
    seen = set()
    # rho 0.3 leaves every mixing out of the regime; nu 1000 puts
    # theta_min = 1/nu under theta
    for lam, rho, nu in itertools.product((0.2, 0.5, 0.9), (0.0, 0.02, 0.3), (1.0, 1e3)):
        consts = constants_from_mixing(lam, 4, rho, 2.0, nu, 0.2, 0.3, 0.1, 1)
        # the build derives these constants, whatever its network
        monkeypatch.setattr(config, "theory_constants", lambda *args, c=consts: c)
        caps = {consts.theta, consts.theta_min} if consts.theta > 0 else {1e-3}
        # k0 around 2/phi: floor(2/phi) has k0 * phi <= 2, consts.k0 is the first above
        k0s = {max(1, consts.k0 - 1), consts.k0 or 10, consts.k0 + 1}
        for cap, factor in itertools.product(caps, (0.5, 1.0, 2.0)):
            scale = cap * factor
            scheds = [ConstantSchedule(scale)]
            scheds += [DecayingSchedule(scale=scale, k0=k0) for k0 in sorted(k0s)]
            for sched in scheds:
                inputs = ConvergenceBoundInputs(consts, 1.0, np.ones(4), sched)
                gap_rhs = theorem2_rhs if sched.kind == "decaying" else theorem3_rhs
                strict = _refuses(lambda: validate_schedule(sched, consts, strict=True))
                assert strict == _refuses(lambda: gap_rhs(inputs))
                column = _refuses(lambda: dk_bound(consts, 1.0, 3, sched))
                with warnings.catch_warnings(record=True) as record:
                    warnings.simplefilter("always")
                    assert _refuses(lambda: _build(sched, theory_mode=False)) == column
                assert len(record) == (strict and not column)
                assert _refuses(lambda: _build(sched, theory_mode=True)) == strict
                seen.add((strict, column))
    # admissible for both; only above theta_min; above theta as well
    assert seen == {(False, False), (True, False), (True, True)}


def _toy_log(seed, consensus, f_bar, f_star=0.0):
    consensus = np.asarray(consensus, dtype=float)
    f_bar = np.asarray(f_bar, dtype=float)
    best = np.minimum.accumulate(f_bar)
    return MetricsLog(
        k=np.arange(len(consensus)),
        consensus=consensus,
        pre_agg=np.full(len(consensus), np.nan),
        f_bar=f_bar,
        f_best=best,
        gap=best - f_star,
        seed=seed,
    )


def test_regime_compare():
    dec = _toy_log(7, [4.0, 2.0, 1.0, 0.5], [3.0, 2.0, 1.5, 1.2])
    con = _toy_log(7, [4.0, 3.0, 2.5, 2.4], [3.0, 2.5, 2.2, 2.0])
    out = regime_compare(dec, con, window=2)
    assert out.window == 2
    assert out.d_decaying == pytest.approx(0.75)
    assert out.d_constant == pytest.approx(2.45)
    assert out.gap_decaying == pytest.approx(1.2)
    assert out.gap_constant == pytest.approx(2.0)
    assert out.decaying_smaller_d and out.decaying_smaller_gap
    assert out.ordering == ("decaying", "constant")

    same = regime_compare(dec, dec)
    assert same.d_decaying == same.d_constant
    assert same.gap_decaying == same.gap_constant

    with pytest.raises(ConfigError):
        regime_compare(dec, _toy_log(8, [1.0, 1.0], [1.0, 1.0]))
    with pytest.raises(ConfigError):
        regime_compare(dec, _toy_log(7, [1.0, 1.0], [1.0, 1.0]))
    with pytest.raises(ConfigError):
        regime_compare(dec, con, window=9)


def test_comparison_table_format():
    dec = _toy_log(1, [2.0, 1.0], [1.0, 0.5])
    con = _toy_log(1, [2.0, 1.5], [1.0, 0.8])
    table = format_comparison_table({"0.1": regime_compare(dec, con, window=1)})
    lines = table.splitlines()
    assert len(lines) == 3
    assert "D decaying" in lines[0] and "gap constant" in lines[0]
    assert "0.1" in lines[2] and "decaying" in lines[2]
