"""Round-loop invariants: determinism, stream isolation, replay identities,
Byzantine freezing, divergence handling, and the disagreement bound."""

import collections
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gossipshield import (
    AttackSpec,
    BrokenOptimumError,
    ConfigError,
    ConstantSchedule,
    DecayingSchedule,
    LocalObjective,
    RegimeError,
    TauSpec,
    benchmark_problem,
    build_network,
    consensus_error,
    constants_from_mixing,
    custom_problem,
    dk_bound,
    optimal_gap_series,
    rho_upper_bound,
    run,
    run_ensemble,
    theory_constants,
    validate_schedule,
)
from dense_reference import dense_adjacency, dense_weights
from gossipshield.aggregation import (
    Inbox,
    gossip_mean,
    scc_aggregate,
    tau_corollary1,
    tau_remark4,
)
from gossipshield import engine
from gossipshield.engine import EnsembleResult, _agent_rngs, _diverged, _row_disagreement
from gossipshield.objectives import GlobalProblem
from gossipshield.attacks import (
    AttackPlan,
    alie_coefficient,
    alie_msg,
    dissensus_msg,
    perturbed_dup_msg,
    sign_flip_msg,
)
from gossipshield.schedules import value_at


def _quad_objective(agent: int) -> LocalObjective:
    # deterministic x^2 oracle; the rng argument is accepted and ignored
    return LocalObjective(
        agent=agent,
        family="quad",
        expected_value=lambda x: x * x,
        expected_gradient=lambda x: 2.0 * x,
        sample_value=lambda x, u, v: x * x,
        sample_gradient=lambda x, rng: 2.0 * x,
    )


def _small_setup(n=20, byz_fraction=0.1, seed=3):
    net = build_network("random", n, byz_fraction=byz_fraction, seed=seed, edge_p=0.5)
    prob = benchmark_problem(byzantine=net.byzantine, n_agents=n)
    return net, prob


def test_consensus_error_examples():
    assert consensus_error(np.array([0.0, 2.0])) == pytest.approx(2.0, abs=1e-15)
    assert consensus_error(np.array([1.5, 1.5, 1.5])) == 0.0
    # multi-dim: rows (0,0) and (2,0) have mean (1,0), each 1 away
    two_d = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert consensus_error(two_d) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ConfigError):
        consensus_error(np.empty((0, 3)))
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.normal(size=(7, 3))
        shift = rng.normal(size=3)
        assert consensus_error(pts + shift) == pytest.approx(
            consensus_error(pts), rel=1e-9, abs=1e-12
        )


def test_row_disagreement_is_consensus_error_per_row():
    rng = np.random.default_rng(4)
    for n_models in (1, 2, 7, 90, 1000, 9000):
        for shape in ((), (3,)):
            rows = rng.normal(size=(4, n_models) + shape) * 10.0 ** rng.integers(-3, 4)
            batch = _row_disagreement(rows.copy())
            assert batch.shape == (4,)
            for row, value in zip(rows, batch):
                centered = row - row.mean(axis=0)  # the per-row definition
                assert value == float(np.sum(centered * centered)), (n_models, shape)
                assert consensus_error(row) == value


def test_diverged_verdicts():
    limit = engine.DIVERGENCE_LIMIT
    for states, verdict in (
        ([0.0, -limit, limit], False),
        ([0.0, np.nextafter(limit, np.inf)], True),
        ([-2.0 * limit, 1.0], True),
        ([1.0, np.nan], True),
        ([np.inf, 1.0], True),
        ([[1.0, -np.inf], [0.0, 0.0]], True),
    ):
        # one copy at a time, then the verdict per copy of a stacked pair
        assert _diverged(np.array([states])).tolist() == [verdict], states
        pair = np.array([states, np.zeros_like(states)])
        assert _diverged(pair).tolist() == [verdict, False], states


def test_optimal_gap_series():
    out = optimal_gap_series(np.array([3.0, 2.0, 2.5]), 1.0)
    assert np.allclose(out, [2.0, 1.0, 1.0])
    # rounding slack below the optimum clamps to zero
    out = optimal_gap_series(np.array([1.0 - 1e-12]), 1.0)
    assert out[0] == 0.0
    with pytest.raises(BrokenOptimumError):
        optimal_gap_series(np.array([3.0, 0.5]), 1.0)


def _valid_consts():
    # mixing 0.5, 4 reliable, rho 0 -> varphi 0.5, phi 1/7, k0 15
    return constants_from_mixing(0.5, 4, 0.0, 2.0, 1.0, 0.2, 0.3, 0.1, 1)


def test_dk_bound_frozen_values():
    consts = _valid_consts()
    assert consts.regime_valid
    sched = DecayingSchedule(scale=consts.theta, k0=15)
    got = dk_bound(consts, 0.0, 0, sched)
    # 2 * (16/15)^2 * 235.2 * theta^2 / phi / 225 with theta = (1/7)/(8 sqrt 3)
    theta = (1.0 / 7.0) / (8.0 * math.sqrt(3.0))
    expect = 2.0 * (16.0 / 15.0) ** 2 * 235.2 * theta**2 * 7.0 / 225.0
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(0.0017698765432098767, rel=1e-12)

    assert dk_bound(consts, 3.0, 5, sched) == pytest.approx(
        1.3889886536694374, rel=1e-12
    )
    const_sched = ConstantSchedule(0.005)
    assert dk_bound(consts, 2.0, 3, const_sched) == pytest.approx(
        1.3006352186588925, rel=1e-12
    )
    ks = np.arange(6)
    vec = dk_bound(consts, 3.0, ks, sched)
    assert vec.shape == (6,)
    assert vec[5] == pytest.approx(dk_bound(consts, 3.0, 5, sched), rel=1e-15)
    # decaying tail shrinks like 1/(k+k0)^2 once the geometric part is gone
    far = dk_bound(consts, 0.0, 10_000, sched)
    assert far == pytest.approx(expect * 225.0 / 10_015.0**2, rel=1e-9)


def test_dk_bound_refusals():
    consts = _valid_consts()
    bad_rho = constants_from_mixing(0.5, 4, 0.1, 2.0, 1.0, 0.2, 0.3, 0.1, 1)
    assert not bad_rho.regime_valid
    with pytest.raises(RegimeError):
        dk_bound(bad_rho, 1.0, 3, DecayingSchedule(scale=1e-3, k0=20))
    with pytest.raises(RegimeError):
        # k0 = 14 gives k0 * phi = 2 exactly, not above it
        dk_bound(consts, 1.0, 3, DecayingSchedule(scale=consts.theta, k0=14))
    with pytest.raises(RegimeError):
        dk_bound(consts, 1.0, 3, DecayingSchedule(scale=2 * consts.theta, k0=15))
    with pytest.raises(RegimeError):
        dk_bound(consts, 1.0, 3, ConstantSchedule(2 * consts.theta))


def test_validate_schedule_modes():
    consts = _valid_consts()
    good = DecayingSchedule(scale=consts.theta_min, k0=15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_schedule(good, consts, strict=True)
        validate_schedule(ConstantSchedule(consts.theta_min), consts, strict=True)
    bad = ConstantSchedule(consts.theta_min * 10)
    with pytest.raises(RegimeError):
        validate_schedule(bad, consts, strict=True)
    with pytest.warns(UserWarning) as record:
        validate_schedule(bad, consts, strict=False)
    # the warning points at the code that asked
    assert [r.filename for r in record] == [__file__]
    with pytest.warns(UserWarning):
        validate_schedule(
            DecayingSchedule(scale=consts.theta_min, k0=2), consts, strict=False
        )


def test_run_bit_identical_repeat():
    net, prob = _small_setup()
    sched = DecayingSchedule(scale=2.0, k0=10)
    kw = dict(
        noise=1e-4,
        attack=AttackSpec(kind="sign_flip"),
        agg="scc",
        tau=TauSpec("corollary1", 1e3),
    )
    a = run(net, prob, sched, 50, 11, **kw)
    b = run(net, prob, sched, 50, 11, **kw)
    assert np.array_equal(a.consensus, b.consensus)
    assert np.array_equal(a.pre_agg[:-1], b.pre_agg[:-1])
    assert np.array_equal(a.f_bar, b.f_bar)
    assert np.array_equal(a.gap, b.gap)
    assert np.array_equal(a.final_x, b.final_x)
    assert a.status == b.status == "completed"
    assert np.isnan(a.pre_agg[-1])


def _stream_normals(seed, purpose, n_agents, n_rounds, shape=()):
    """Standard normals of every agent's (seed, agent, purpose) stream,
    drawn one agent and one round at a time: (n_rounds, n_agents) + shape."""
    rngs = [
        np.random.default_rng(np.random.SeedSequence([seed, i, purpose]))
        for i in range(n_agents)
    ]
    return np.array([[r.standard_normal(shape) for r in rngs] for _ in range(n_rounds)])


def _check_half_step_replay(seed, n_rounds):
    net, prob = _small_setup()
    sched = DecayingSchedule(scale=2.0, k0=10)
    variance = 1e-4
    log = run(
        net,
        prob,
        sched,
        n_rounds,
        seed,
        noise=variance,
        attack=AttackSpec(kind="alie"),
        agg="scc",
        tau=TauSpec("manual", 0.5),
        record_traces=True,
    )
    # each round draws a (u, v) pair per agent and masks with one normal
    u = 1.0 + prob.u_std * _stream_normals(seed, 1, 20, n_rounds, (2,))[..., 0]
    z = _stream_normals(seed, 2, 20, n_rounds)
    rel = list(net.reliable)
    for k in range(n_rounds):
        x = log.traces[k]
        alpha = sched.scale / (k + sched.k0)
        grads = u[k] * prob.agent_cores(x) + math.sqrt(variance) * z[k]
        half = x - alpha * grads
        assert np.array_equal(half, log.half_traces[k]), f"round {k}"
        assert log.pre_agg[k] == consensus_error(half[rel])
        assert log.consensus[k] == consensus_error(x[rel])
        assert log.f_bar[k] == float(prob.f(x[rel].mean()))


def test_half_step_replay_and_metric_definitions():
    # 520 rounds cross the first 512-round chunk of pre-drawn normals
    _check_half_step_replay(11, 520)


def test_half_step_replay_with_a_two_word_seed():
    # a seed above 2**32 enters the stream key as two 32-bit words
    _check_half_step_replay(2**32 + 7, 30)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
def test_agent_rngs_match_seed_sequence(seed):
    for purpose in range(3):
        rngs = _agent_rngs(seed, 300, purpose)
        assert len(rngs) == 300
        for i, rng in enumerate(rngs):
            ref = np.random.default_rng(np.random.SeedSequence([seed, i, purpose]))
            assert rng.bit_generator.state == ref.bit_generator.state, (purpose, i)
            assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
def test_keyed_initial_states_match_seed_sequence(seed):
    for dim in (1, 10):
        x = engine._initial_states(seed, 300, dim, None)
        assert x.shape == ((300,) if dim == 1 else (300, dim))
        for i in range(300):
            ref = np.random.default_rng(np.random.SeedSequence([seed, i, 0]))
            expect = ref.uniform(-5.0, 5.0, size=dim)
            assert np.array_equal(x[i], expect[0] if dim == 1 else expect), (dim, i)


def test_run_builds_no_initial_state_generator(monkeypatch):
    net = build_network("random", 1000, byz_fraction=0.1, seed=1, edge_p=0.02)
    prob = benchmark_problem(byzantine=net.byzantine, n_agents=1000)
    agent_rngs = engine._agent_rngs

    def refuse_purpose_0(seed, n_agents, purpose):
        assert purpose != 0, "run built a generator for the initial states"
        return agent_rngs(seed, n_agents, purpose)

    monkeypatch.setattr(engine, "_agent_rngs", refuse_purpose_0)
    log = run(net, prob, DecayingSchedule(scale=2.0, k0=10), 5, 3, noise=1e-4,
              attack=AttackSpec("sign_flip"), agg="scc", tau=TauSpec("corollary1", 1e3),
              record_traces=True)
    assert log.status == "completed" and log.rounds_completed == 5
    expect = [np.random.default_rng(np.random.SeedSequence([3, i, 0])).uniform(-5.0, 5.0)
              for i in range(1000)]
    assert np.array_equal(log.traces[0], expect)


def test_run_builds_no_seed_sequence(monkeypatch):
    net = build_network("random", 1000, byz_fraction=0.1, seed=1, edge_p=0.02)
    prob = benchmark_problem(byzantine=net.byzantine, n_agents=1000)

    def refuse(*args, **kwargs):
        raise AssertionError("run built a SeedSequence")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    log = run(net, prob, DecayingSchedule(scale=2.0, k0=10), 5, 3, noise=1e-4,
              attack=AttackSpec("sign_flip"), agg="scc", tau=TauSpec("corollary1", 1e3))
    assert log.status == "completed" and log.rounds_completed == 5


def test_labeled_honest_matches_unlabeled():
    # attack kind 'none' leaves flagged agents on the honest protocol, so
    # the state trajectory matches a run where nobody is flagged at all
    net_b = build_network("star", 12, byz_fraction=0.25, seed=5)
    net_0 = build_network("star", 12, byz_fraction=0.0, seed=5)
    for name in ("recv", "send", "edge_w", "self_w"):
        assert np.array_equal(getattr(net_b, name), getattr(net_0, name))
    fams = [i % 10 + 1 for i in range(12)]
    prob_b = benchmark_problem(byzantine=net_b.byzantine, n_agents=12, family_of=fams)
    prob_0 = benchmark_problem(n_agents=12, family_of=fams)
    sched = DecayingSchedule(scale=1.0, k0=10)
    for agg, tau in (("mean", None), ("scc", TauSpec("manual", 2.0))):
        a = run(net_b, prob_b, sched, 30, 4, agg=agg, tau=tau, record_traces=True)
        b = run(net_0, prob_0, sched, 30, 4, agg=agg, tau=tau, record_traces=True)
        assert np.array_equal(a.traces, b.traces)


def test_byzantine_frozen_and_isolated():
    net = build_network("star", 10, byz_fraction=0.2, seed=2)
    byz = list(net.byzantine)
    rel = list(net.reliable)
    prob = benchmark_problem(byzantine=net.byzantine, n_agents=10)
    sched = ConstantSchedule(0.05)
    base = np.linspace(-4.0, 4.0, 10)
    bumped = base.copy()
    bumped[byz] += 100.0
    kw = dict(
        attack=AttackSpec(kind="silent"),
        agg="scc",
        tau=TauSpec("manual", 1.0),
        record_traces=True,
    )
    a = run(net, prob, sched, 25, 9, x0=base, **kw)
    b = run(net, prob, sched, 25, 9, x0=bumped, **kw)
    # flagged agents never move
    assert np.array_equal(a.traces[:, byz], np.tile(base[byz], (26, 1)))
    # and their state never leaks into anyone else's trajectory
    assert np.array_equal(a.traces[:, rel], b.traces[:, rel])


def test_attack_columns_read_models_not_half_steps():
    net = build_network("random", 8, byz_fraction=0.125, seed=7, edge_p=0.6)
    (b,) = net.byzantine
    prob = benchmark_problem(
        byzantine=net.byzantine, n_agents=8, family_of=[i % 10 + 1 for i in range(8)]
    )
    sched = ConstantSchedule(0.05)
    spec = AttackSpec(kind="perturbed_dup", p_mult=1.0, p_add=0.0)
    log = run(net, prob, sched, 12, 5, attack=spec, agg="mean", record_traces=True)
    victims = sorted(j for j in range(8) if dense_adjacency(net)[b, j] and j in net.reliable)
    w = dense_weights(net)
    max_dev_model = 0.0
    max_dev_half = 0.0
    for k in range(12):
        x, half, x_next = log.traces[k], log.half_traces[k], log.traces[k + 1]
        victim = victims[k % len(victims)]
        for msg_source, acc in ((x[victim], "model"), (half[victim], "half")):
            dev = 0.0
            for i in net.reliable:
                total = half[i]
                for j in range(8):
                    if j == i or w[i, j] == 0.0:
                        continue
                    m = msg_source if j == b else half[j]
                    total += w[i, j] * (m - half[i])
                dev = max(dev, abs(total - x_next[i]))
            if acc == "model":
                max_dev_model = max(max_dev_model, dev)
            else:
                max_dev_half = max(max_dev_half, dev)
    assert max_dev_model < 1e-9
    assert max_dev_half > 1e-4


def test_fast_and_generic_paths_agree():
    net, prob = _small_setup()
    sched = DecayingSchedule(scale=2.0, k0=10)
    kw = dict(
        noise=1e-4,
        attack=AttackSpec(kind="alie"),
        agg="scc",
        tau=TauSpec("manual", 0.5),
        record_traces=True,
    )
    fast = run(net, prob, sched, 60, 11, **kw)
    generic = run(net, dataclasses.replace(prob, u_coeffs=None), sched, 60, 11, **kw)
    # identical streams; only summation order differs inside the cores
    np.testing.assert_allclose(fast.traces, generic.traces, rtol=0, atol=1e-12)


def _noisy_quad_objective(agent: int, centre: np.ndarray) -> LocalObjective:
    # u/2 |x - c|^2 at a draw u ~ N(1, 0.1^2) from the agent's stream
    return LocalObjective(
        agent=agent,
        family="noisy-quad",
        expected_value=lambda x: 0.5 * float(np.sum((x - centre) ** 2)),
        expected_gradient=lambda x: x - centre,
        sample_value=lambda x, u, v: 0.5 * u * float(np.sum((x - centre) ** 2)),
        sample_gradient=lambda x, rng: rng.normal(1.0, 0.1) * (x - centre),
    )


def _noisy_vector_setup(n=12, dim=3):
    net = build_network("random", n, byz_fraction=0.25, seed=8, edge_p=0.5)
    centres = np.random.default_rng(41).normal(size=(n, dim))
    prob = custom_problem(
        [_noisy_quad_objective(i, centres[i]) for i in range(n)], net.byzantine,
        dim=dim, f_star=0.0, pl_constant=1.0, smoothness=1.1,
    )
    return net, prob, centres


def test_run_is_prefix_of_longer_run():
    # the 600-round run draws its streams in chunks that end inside the
    # run; the 45-round run draws them in one chunk of 45
    net, prob = _small_setup()
    vnet, vprob, _ = _noisy_vector_setup()
    sched = DecayingSchedule(scale=2.0, k0=10)
    for net, prob in ((net, prob), (vnet, vprob)):
        kw = dict(
            noise=1e-4, attack=AttackSpec(kind="sign_flip"), agg="scc",
            tau=TauSpec("manual", 0.5), record_traces=True,
        )
        short = run(net, prob, sched, 45, 11, **kw)
        long = run(net, prob, sched, 600, 11, **kw)
        assert long.rounds_completed == 600
        assert np.array_equal(short.traces, long.traces[:46]), f"dim {prob.dim}"
        assert np.array_equal(short.half_traces, long.half_traces[:45])


def test_noise_toggle_leaves_gradient_draws_alone():
    net, prob = _small_setup(n=10, byz_fraction=0.0)
    sched = ConstantSchedule(0.02)
    seed, n_rounds = 3, 20
    u = 1.0 + prob.u_std * _stream_normals(seed, 1, 10, n_rounds, (2,))[..., 0]
    z = _stream_normals(seed, 2, 10, n_rounds)
    halves = {}
    for variance in (0.0, 1e-4):
        log = run(
            net, prob, sched, n_rounds, seed, noise=variance, agg="mean", record_traces=True
        )
        for k in range(n_rounds):
            x = log.traces[k]
            # both runs take the same u draws; only the masked one adds z
            grads = u[k] * prob.agent_cores(x)
            if variance > 0.0:
                grads = grads + math.sqrt(variance) * z[k]
            assert np.array_equal(x - 0.02 * grads, log.half_traces[k]), (variance, k)
        halves[variance] = log.half_traces
    assert not np.array_equal(halves[0.0], halves[1e-4])


def test_custom_vector_masking_replays_keyed_streams():
    net, prob, centres = _noisy_vector_setup()
    sched = DecayingSchedule(scale=0.5, k0=10)
    seed, n_rounds, variance = 5, 520, 1e-3
    log = run(
        net, prob, sched, n_rounds, seed, noise=variance,
        attack=AttackSpec(kind="dissensus"), agg="mean", record_traces=True,
    )
    # the oracle draws u with rng.normal(1, 0.1): one normal per round
    u = 1.0 + 0.1 * _stream_normals(seed, 1, 12, n_rounds)
    z = _stream_normals(seed, 2, 12, n_rounds, (3,))
    for k in range(n_rounds):
        x = log.traces[k]
        grads = u[k][:, None] * (x - centres) + math.sqrt(variance) * z[k]
        half = x - sched.alpha(k) * grads
        assert np.array_equal(half, log.half_traces[k]), f"round {k}"


def test_divergence_truncates_log():
    objs = [_quad_objective(i) for i in range(4)]
    prob = custom_problem(objs)
    net = build_network("complete", 4, byz_fraction=0.0, seed=0)
    # constant step 5 on gradient 2x maps x to -9x; blows past the guard fast
    log = run(net, prob, ConstantSchedule(5.0), 100, 1, agg="mean")
    assert log.status == "diverged"
    assert log.diverged_at is not None and log.diverged_at < 30
    assert len(log.k) == log.diverged_at + 1
    assert len(log.consensus) == len(log.f_bar) == len(log.gap) == len(log.k)


def test_non_finite_half_step_diverges_before_aggregation():
    objs = [_quad_objective(i) for i in range(3)]
    objs.append(dataclasses.replace(_quad_objective(3), sample_gradient=lambda x, rng: math.nan))
    net = build_network("complete", 4, byz_fraction=0.0, seed=0)
    log = run(net, custom_problem(objs), ConstantSchedule(0.1), 10, 1, agg="mean", record_traces=True)
    assert log.status == "diverged" and log.diverged_at == 0
    assert len(log.k) == 1 and len(log.half_traces) == 1
    assert math.isnan(log.half_traces[0][3])
    # the round stopped before aggregating, so the models never took the NaN
    assert np.all(np.isfinite(log.final_x))


def test_aggregated_blow_up_diverges_and_clipping_contains_it():
    net = build_network("random", 10, byz_fraction=0.2, seed=3, edge_p=0.6)
    rel = list(net.reliable)
    prob = benchmark_problem(byzantine=net.byzantine, n_agents=10)
    spec = AttackSpec(kind="perturbed_dup", p_add=1e15)
    sched = ConstantSchedule(0.05)
    mean = run(net, prob, sched, 20, 1, attack=spec, agg="mean", record_traces=True)
    assert mean.status == "diverged" and mean.diverged_at == 0 and len(mean.k) == 1
    # the half-step was fine; the mean of the perturbed copies was not
    assert np.max(np.abs(mean.half_traces[0])) < 10.0
    assert np.max(np.abs(mean.final_x[rel])) > 1e12
    scc = run(net, prob, sched, 20, 1, attack=spec, agg="scc", tau=1.0)
    assert scc.status == "completed" and scc.rounds_completed == 20
    assert np.max(np.abs(scc.final_x[rel])) == pytest.approx(1.94, abs=0.01)


def test_identical_agents_identical_start_stay_agreed():
    objs = [_quad_objective(i) for i in range(5)]
    prob = custom_problem(objs)
    net = build_network("random", 5, byz_fraction=0.0, seed=4, edge_p=0.6)
    log = run(
        net, prob, ConstantSchedule(0.1), 40, 8, agg="mean",
        x0=2.0, record_traces=True,
    )
    assert np.all(log.consensus == 0.0)
    assert np.all(log.traces == log.traces[:, :1])
    # and the shared trajectory is plain gradient descent on x^2
    expect = 2.0 * 0.8 ** np.arange(41)
    np.testing.assert_allclose(log.traces[:, 0], expect, rtol=1e-12)


def test_tau_fallback_covers_missing_oracle():
    # nobody has a flagged neighbor, so corollary1 falls back everywhere
    net, prob = _small_setup(n=10, byz_fraction=0.0)
    sched = ConstantSchedule(0.05)
    a = run(net, prob, sched, 20, 6, agg="scc", tau=TauSpec("corollary1", 0.7))
    b = run(net, prob, sched, 20, 6, agg="scc", tau=TauSpec("manual", 0.7))
    assert np.array_equal(a.final_x, b.final_x)


def test_nan_radius_rejected():
    # NaN <= 0 is false, so a radius check written that way lets NaN
    # through, and a NaN radius clips nothing: SCC would run as the mean
    with pytest.raises(ConfigError, match="tau: must be a number other than NaN"):
        TauSpec("manual", float("nan"))
    with pytest.raises(ConfigError, match="tau: must be a number other than NaN"):
        TauSpec("corollary1", float("nan"))
    net, prob = _small_setup(n=10, byz_fraction=0.1)
    with pytest.raises(ConfigError, match="tau: must be a number other than NaN"):
        run(
            net, prob, ConstantSchedule(0.05), 5, 0, agg="scc", tau=float("nan"),
            attack=AttackSpec("perturbed_dup"),
        )
    # the mean baseline is SCC at an infinite radius, which stays valid
    assert TauSpec("manual", math.inf).value == math.inf


def test_manual_tau_accepts_schedules():
    spec = TauSpec("manual", DecayingSchedule(scale=1.0, k0=5))
    assert value_at(spec.value, 0) == pytest.approx(0.2)
    assert value_at(spec.value, 15) == pytest.approx(0.05)
    assert value_at(0.5, 15) == 0.5
    net, prob = _small_setup(n=10, byz_fraction=0.0)
    sched = ConstantSchedule(0.05)
    a = run(net, prob, sched, 15, 2, agg="scc", tau=TauSpec("manual", ConstantSchedule(0.5)))
    b = run(net, prob, sched, 15, 2, agg="scc", tau=0.5)
    assert np.array_equal(a.final_x, b.final_x)


def test_run_refuses_a_problem_built_for_another_byzantine_set():
    # the f_bar column averages the problem's reliable agents, so a problem
    # built without the network's labels would average the wrong ones
    net, _ = _small_setup(n=20, byz_fraction=0.1)
    unlabeled = benchmark_problem(byzantine=(), n_agents=20)
    sched = ConstantSchedule(0.05)
    with pytest.raises(ConfigError, match="another Byzantine set"):
        run(net, unlabeled, sched, 3, 0, agg="mean")
    with pytest.raises(ConfigError, match="another Byzantine set"):
        run_ensemble(net, unlabeled, sched, 3, [0, 1], agg="mean")


def test_run_validation_errors():
    net, prob = _small_setup(n=10, byz_fraction=0.0)
    other = benchmark_problem(n_agents=12, family_of=[1] * 12)
    sched = ConstantSchedule(0.05)
    with pytest.raises(ConfigError):
        run(net, other, sched, 5, 0, agg="mean")
    with pytest.raises(ConfigError):
        run(net, prob, sched, 5, 0, agg="median")
    with pytest.raises(ConfigError):
        run(net, prob, sched, 5, 0, agg="scc")  # no radius policy
    with pytest.raises(ConfigError):
        run(net, prob, sched, -1, 0, agg="mean")
    with pytest.raises(ConfigError):
        TauSpec("oracle", 1.0)
    with pytest.raises(ConfigError):
        TauSpec("manual", 0.0)
    with pytest.raises(ConfigError):
        run(net, prob, sched, 5, 0, agg="mean", x0=np.zeros(7))
    # inf warned from sin, and NaN ended "diverged" at round 0
    bad = np.zeros(10)
    bad[4] = np.nan
    for x0 in (np.inf, -np.inf, np.nan, bad):
        with pytest.raises(ConfigError, match="x0"):
            run(net, prob, sched, 5, 0, agg="mean", x0=x0)
    for seed in (-1, 1.5, True, None):
        with pytest.raises(ConfigError, match="seed"):
            run(net, prob, sched, 5, seed, agg="mean")


def test_zero_rounds_single_row():
    net, prob = _small_setup(n=10, byz_fraction=0.0)
    log = run(net, prob, ConstantSchedule(0.05), 0, 3, agg="mean", record_traces=True)
    assert len(log.k) == 1 and log.k[0] == 0
    assert np.isnan(log.pre_agg).all()
    assert log.f_best[0] == log.f_bar[0]
    assert log.traces.shape == (1, 10)
    assert log.half_traces.shape == (0, 10)


def _assert_per_row_metrics(log, net, prob):
    """Every metric column equals its per-row definition on the traces."""
    rel = list(net.reliable)
    assert len(log.traces) == len(log.k)
    for k, x in enumerate(log.traces):
        assert log.consensus[k] == consensus_error(x[rel]), k
        assert log.f_bar[k] == float(prob.f(x[rel].mean(axis=0))), k
    for k, half in enumerate(log.half_traces):
        assert log.pre_agg[k] == consensus_error(half[rel]), k
    assert np.isnan(log.pre_agg[len(log.half_traces):]).all()


@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
def test_chunked_metric_pass_matches_per_row_definitions(monkeypatch, chunk_rows):
    quads = [_quad_objective(i) for i in range(4)]
    blow_net = build_network("random", 10, byz_fraction=0.2, seed=3, edge_p=0.6)
    vnet, vprob, _ = _noisy_vector_setup(dim=10)
    net, prob = _small_setup()
    cases = {
        # several chunks, ending with a row that has no half-step
        "horizon": (net, prob, DecayingSchedule(scale=2.0, k0=10), 10, dict(
            noise=1e-4, attack=AttackSpec("sign_flip"), agg="scc",
            tau=TauSpec("corollary1", 1e3))),
        # the half-steps of round 13 diverge, inside a 3-row chunk
        "half_diverged": (build_network("complete", 4, byz_fraction=0.0, seed=0),
                          custom_problem(quads), ConstantSchedule(4.0), 100, dict(agg="mean")),
        # the models after round 0 diverge and are not recorded
        "models_diverged": (blow_net, benchmark_problem(byzantine=blow_net.byzantine, n_agents=10),
                            ConstantSchedule(0.05), 20, dict(
                                attack=AttackSpec("perturbed_dup", p_add=1e15), agg="mean")),
        "vector": (vnet, vprob, DecayingSchedule(scale=0.5, k0=10), 7, dict(
            noise=1e-3, attack=AttackSpec("dissensus"), agg="scc", tau=TauSpec("manual", 0.5))),
        "zero_rounds": (net, prob, ConstantSchedule(0.05), 0, dict(agg="mean")),
    }
    whole = {name: run(n, p, s, r, 1, **kw) for name, (n, p, s, r, kw) in cases.items()}
    for name, (n, p, s, r, kw) in cases.items():
        row_size = n.n_agents - len(n.byzantine)
        if p.dim > 1:
            row_size *= p.dim
        monkeypatch.setattr(engine, "_METRIC_ELEMENTS", chunk_rows * row_size)
        log = run(n, p, s, r, 1, record_traces=True, **kw)
        _assert_per_row_metrics(log, n, p)
        for col in ("consensus", "pre_agg", "f_bar"):
            np.testing.assert_array_equal(getattr(log, col), getattr(whole[name], col))
        assert (log.status, log.diverged_at) == (whole[name].status, whole[name].diverged_at)
    assert whole["half_diverged"].diverged_at == 13
    assert len(whole["half_diverged"].pre_agg) == 14  # the diverged round's is kept
    assert whole["models_diverged"].diverged_at == 0
    assert len(whole["models_diverged"].k) == 1
    assert whole["horizon"].status == "completed"


def test_metric_buffers_do_not_grow_with_the_horizon():
    net = build_network("random", 100, byz_fraction=0.1, seed=1, edge_p=0.1)
    prob = benchmark_problem(byzantine=net.byzantine, n_agents=100)

    def peak(n_rounds):
        tracemalloc.start()
        try:
            run(net, prob, ConstantSchedule(0.01), n_rounds, 1, agg="mean")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(2000), peak(20000)
    # the run's per-row scalar columns, the log's copies and the gap
    # series' temporaries: fewer than 16 float64 columns in all
    columns = 16 * 8 * (20000 - 2000)
    assert long - short < columns + (1 << 16)


def test_f_best_and_gap_columns():
    net, prob = _small_setup()
    log = run(
        net, prob, DecayingSchedule(scale=2.0, k0=10), 80, 21,
        noise=1e-4, attack=AttackSpec(kind="sign_flip"),
        agg="scc", tau=TauSpec("corollary1", 1e3),
    )
    assert np.all(np.diff(log.f_best) <= 0.0)
    np.testing.assert_allclose(log.f_best, np.minimum.accumulate(log.f_bar))
    assert np.all(log.gap >= 0.0)
    np.testing.assert_allclose(log.gap, optimal_gap_series(log.f_bar, prob.f_star))


def test_run_ensemble_curves():
    net, prob = _small_setup(n=10, byz_fraction=0.0)
    consts = theory_constants(
        net, 0.0, prob.smoothness, prob.pl_constant,
        prob.sigma_sq, prob.zeta_sq, 0.0, 1,
    )
    sched = DecayingSchedule(scale=consts.theta_min, k0=consts.k0)
    ens = run_ensemble(net, prob, sched, 25, [1, 2, 3], agg="mean")
    assert len(ens.logs) == 3 and ens.statuses == ["completed"] * 3
    np.testing.assert_allclose(
        ens.consensus_mean, np.mean([l.consensus for l in ens.logs], axis=0)
    )
    np.testing.assert_allclose(
        ens.gap_mean_of_min, np.mean([l.gap for l in ens.logs], axis=0)
    )
    np.testing.assert_allclose(
        ens.gap_min_of_mean, optimal_gap_series(ens.f_bar_mean, prob.f_star)
    )
    with pytest.raises(ConfigError):
        run_ensemble(net, prob, sched, 5, [], agg="mean")


def _assert_logs_identical(got, ref, tag):
    """Every MetricsLog field equal, arrays byte for byte."""
    for field in dataclasses.fields(ref):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), (tag, field.name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (tag, field.name)
            assert a.tobytes() == b.tobytes(), (tag, field.name)
        else:
            assert a == b, (tag, field.name)


def _multiplicative_quad(agent: int) -> LocalObjective:
    # x^2 with gradient noise u ~ N(1, 0.8^2): at a constant step of 1.2
    # some seeds blow up within 200 rounds and others do not. Beyond 1e9
    # the gradient turns cubic, so a diverged state left in place
    # overflows within a few rounds
    def sample_gradient(x, rng):
        g = rng.normal(1.0, 0.8) * 2.0 * x
        return g * x * x if abs(x) > 1e9 else g

    return LocalObjective(
        agent=agent,
        family="mult-quad",
        expected_value=lambda x: x * x,
        expected_gradient=lambda x: 2.0 * x,
        sample_value=lambda x, u, v: u * x * x,
        sample_gradient=sample_gradient,
    )


def _ensemble_cases():
    """(tag, net, prob, sched, n_rounds, kwargs) that ensembles must run
    exactly as separate runs."""
    net, prob = _small_setup()
    sched = DecayingSchedule(scale=2.0, k0=10)
    oracle = dict(agg="scc", tau=TauSpec("corollary1", 1e3))
    noisy = dict(noise=1e-4, record_traces=True)
    victim = net.reliable[2]
    yield "sign_flip", net, prob, sched, 30, dict(attack=AttackSpec("sign_flip"), **oracle, **noisy)
    yield "alie_global", net, prob, sched, 30, dict(attack=AttackSpec("alie"), **oracle, **noisy)
    yield "alie_local", net, prob, sched, 30, dict(
        attack=AttackSpec("alie", alie_local=True), agg="scc", tau=TauSpec("remark4", 1.0), **noisy)
    yield "fixed_victim", net, prob, sched, 30, dict(
        attack=AttackSpec("perturbed_dup", p_add=0.5, victim=victim), agg="mean", **noisy)
    yield "round_robin", net, prob, sched, 30, dict(
        attack=AttackSpec("perturbed_dup", p_mult=1.2), agg="scc", tau=TauSpec("manual", 0.5), **noisy)
    yield "x0_scalar", net, prob, sched, 20, dict(attack=AttackSpec("dissensus"), x0=0.5, **oracle)
    yield "x0_array", net, prob, sched, 20, dict(
        attack=AttackSpec("silent"), x0=np.linspace(-1.0, 1.0, 20), agg="mean", record_traces=True)
    vnet, vprob, _ = _noisy_vector_setup(dim=10)
    yield "vector", vnet, vprob, DecayingSchedule(scale=0.5, k0=10), 15, dict(
        attack=AttackSpec("alie"), **oracle, **noisy)
    mnet = build_network("complete", 4, byz_fraction=0.0, seed=0)
    mprob = custom_problem([_multiplicative_quad(i) for i in range(4)])
    yield "some_diverge", mnet, mprob, ConstantSchedule(1.2), 200, dict(agg="mean", record_traces=True)
    yield "half_steps_diverge", mnet, custom_problem([_quad_objective(i) for i in range(4)]), \
        ConstantSchedule(4.0), 100, dict(agg="mean", record_traces=True)
    bnet = build_network("random", 10, byz_fraction=0.2, seed=3, edge_p=0.6)
    yield "all_diverge", bnet, benchmark_problem(byzantine=bnet.byzantine, n_agents=10), \
        ConstantSchedule(0.05), 20, dict(
            attack=AttackSpec("perturbed_dup", p_add=1e15), agg="mean", record_traces=True)


@pytest.mark.parametrize("group_size", [None, 1, 2])
def test_ensemble_members_equal_separate_runs(monkeypatch, group_size):
    seeds = [1, 2, 3, 4, 5, 6]
    statuses = {}
    for tag, net, prob, sched, n_rounds, kw in _ensemble_cases():
        if group_size is not None:
            # groups of group_size seeds, the last one shorter
            monkeypatch.setattr(engine, "_GROUP_ELEMENTS", group_size * len(net.recv) * prob.dim)
        ens = run_ensemble(net, prob, sched, n_rounds, seeds, **kw)
        refs = [run(net, prob, sched, n_rounds, s, **kw) for s in seeds]
        assert [log.seed for log in ens.logs] == seeds
        for log, ref in zip(ens.logs, refs):
            _assert_logs_identical(log, ref, (tag, log.seed))
        statuses[tag] = ens.statuses
    assert "completed" in statuses["some_diverge"] and "diverged" in statuses["some_diverge"]
    assert statuses["all_diverge"] == ["diverged"] * len(seeds)


def test_diverged_member_raises_no_warning_for_the_others():
    # one member diverges at round 62 and the others run on 138 rounds
    # with its copy zeroed; the suite turns any RuntimeWarning into an error
    net = build_network("complete", 4, byz_fraction=0.0, seed=0)
    prob = custom_problem([_multiplicative_quad(i) for i in range(4)])
    sched = ConstantSchedule(1.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ens = run_ensemble(net, prob, sched, 200, [3, 11, 5], agg="mean")
    assert ens.statuses == ["completed", "completed", "diverged"]
    assert ens.logs[2].diverged_at == 62 and ens.logs[0].rounds_completed == 200


def test_rows_buffered_past_a_members_end_raise_no_warning():
    # the perturbed member diverges in round 0 and, zeroed, again in every
    # round after; the rows it buffers past its end reach 1e99, where f
    # overflows, and the metric pass computes them with every other row
    net = build_network("random", 10, byz_fraction=0.2, seed=3, edge_p=0.6)
    prob = benchmark_problem(byzantine=net.byzantine, n_agents=10)
    attacks = [AttackSpec("none"), AttackSpec("perturbed_dup", p_add=1e100)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ens = run_ensemble(net, prob, ConstantSchedule(0.05), 20, [1, 1], attack=attacks, agg="mean")
    assert ens.statuses == ["completed", "diverged"]
    assert ens.logs[1].diverged_at == 0 and len(ens.logs[1].k) == 1
    assert ens.logs[0].rounds_completed == 20


def test_half_steps_past_the_float_range_diverge_without_a_warning():
    # a 1e300 gradient scale puts the round-0 half-steps past 1e154, whose
    # squares overflow in the pre-aggregation disagreement
    net = build_network("random", 10, byz_fraction=0.1, seed=1, edge_p=0.5)
    prob = benchmark_problem(net.byzantine, 10, u_std=1e300, sigma_sq=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = run(net, prob, DecayingSchedule(2.0, 10), 3, 1, agg="mean")
    assert (log.status, log.diverged_at) == ("diverged", 0)
    assert log.pre_agg.tolist() == [math.inf] and np.isfinite(log.consensus[0])


def test_ensemble_shares_each_round_between_its_seeds(monkeypatch):
    calls = {"agent_cores": 0, "apply": 0}
    cores, apply = GlobalProblem.agent_cores, AttackPlan.apply

    def counted_cores(self, x):
        calls["agent_cores"] += 1
        return cores(self, x)

    def counted_apply(self, messages, k, models):
        calls["apply"] += 1
        return apply(self, messages, k, models)

    monkeypatch.setattr(GlobalProblem, "agent_cores", counted_cores)
    monkeypatch.setattr(AttackPlan, "apply", counted_apply)
    net, prob = _small_setup()
    ens = run_ensemble(
        net, prob, DecayingSchedule(scale=2.0, k0=10), 12, [1, 2],
        noise=1e-4, attack=AttackSpec("sign_flip"), agg="scc", tau=TauSpec("corollary1", 1e3),
    )
    assert [log.rounds_completed for log in ens.logs] == [12, 12]
    assert calls == {"agent_cores": 12, "apply": 12}


def _member_attack_specs(net):
    """Every attack kind, ALIE both ways and duplication with a fixed and
    a round-robin victim."""
    return [
        AttackSpec("none"),
        AttackSpec("sign_flip", s_b=1.5),
        AttackSpec("alie"),
        AttackSpec("alie", alie_local=True),
        AttackSpec("dissensus", d_r=0.7),
        AttackSpec("perturbed_dup", p_add=0.5, victim=net.reliable[2]),
        AttackSpec("perturbed_dup", p_mult=1.2),
        AttackSpec("silent"),
    ]


def _assert_cells_equal_per_spec_ensembles(net, prob, sched, n_rounds, seeds, attacks, kw):
    """run_ensemble with one attack per member: every member's log equals
    its own spec's ensemble, and the summary of each spec's members
    equals that ensemble's, field for field."""
    mixed = run_ensemble(net, prob, sched, n_rounds, seeds * len(attacks),
                         attack=[spec for spec in attacks for _ in seeds], **kw)
    for c, spec in enumerate(attacks):
        ref = run_ensemble(net, prob, sched, n_rounds, seeds, attack=spec, **kw)
        logs = mixed.logs[c * len(seeds) : (c + 1) * len(seeds)]
        for log, ref_log in zip(logs, ref.logs):
            _assert_logs_identical(log, ref_log, (spec, log.seed))
        cell = EnsembleResult.from_logs(logs, prob.f_star)
        for field in dataclasses.fields(ref):
            got, want = getattr(cell, field.name), getattr(ref, field.name)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), (spec, field.name)
            elif field.name != "logs":
                assert got == want, (spec, field.name)
    return mixed


@pytest.mark.parametrize("group_size", [None, 3])
def test_member_attacks_equal_per_spec_ensembles(monkeypatch, group_size):
    net, prob = _small_setup()
    if group_size is not None:
        # three copies per round loop: group boundaries fall inside cells
        monkeypatch.setattr(engine, "_GROUP_ELEMENTS", group_size * len(net.recv) * prob.dim)
    specs = _member_attack_specs(net)
    sched = DecayingSchedule(scale=2.0, k0=10)
    kw = dict(noise=1e-4, agg="scc", tau=TauSpec("corollary1", 1e3), record_traces=True)
    seeds = [1, 2]
    _assert_cells_equal_per_spec_ensembles(net, prob, sched, 30, seeds, specs, kw)
    # members interleaved, so no two neighbouring copies share a spec and
    # each spec's one plan covers separated copies
    mixed = run_ensemble(net, prob, sched, 30, [s for s in seeds for _ in specs],
                         attack=specs * len(seeds), **kw)
    for log, spec in zip(mixed.logs, specs * len(seeds)):
        _assert_logs_identical(log, run(net, prob, sched, 30, log.seed, attack=spec, **kw), spec)


def test_member_attacks_with_a_diverging_cell():
    net = build_network("random", 10, byz_fraction=0.2, seed=3, edge_p=0.6)
    prob = benchmark_problem(byzantine=net.byzantine, n_agents=10)
    specs = [AttackSpec("none"), AttackSpec("perturbed_dup", p_add=1e15), AttackSpec("silent")]
    mixed = _assert_cells_equal_per_spec_ensembles(
        net, prob, ConstantSchedule(0.05), 20, [1, 2, 3], specs, dict(agg="mean", record_traces=True)
    )
    assert mixed.statuses == ["completed"] * 3 + ["diverged"] * 3 + ["completed"] * 3


def test_member_attacks_share_one_round_loop(monkeypatch):
    calls = {"agent_cores": 0, "apply": 0}
    cores, apply = GlobalProblem.agent_cores, AttackPlan.apply

    def counted_cores(self, x):
        calls["agent_cores"] += 1
        return cores(self, x)

    def counted_apply(self, messages, k, models):
        calls["apply"] += 1
        return apply(self, messages, k, models)

    monkeypatch.setattr(GlobalProblem, "agent_cores", counted_cores)
    monkeypatch.setattr(AttackPlan, "apply", counted_apply)
    net, prob = _small_setup()
    flip, silent, none = AttackSpec("sign_flip"), AttackSpec("silent"), AttackSpec("none")
    for attacks in (
        [flip, flip, none, none, silent, silent],
        # flip recurs in separated runs of different lengths
        [flip, none, flip, flip, silent, AttackSpec("sign_flip")],
    ):
        calls.update(agent_cores=0, apply=0)
        ens = run_ensemble(
            net, prob, DecayingSchedule(scale=2.0, k0=10), 12, [1, 2, 1, 2, 1, 2],
            attack=attacks, agg="scc", tau=TauSpec("corollary1", 1e3),
        )
        assert [log.rounds_completed for log in ens.logs] == [12] * 6
        # one loop; one plan per distinct attacking spec, none for 'none'
        assert calls == {"agent_cores": 12, "apply": 24}, attacks


@dataclasses.dataclass
class _UnhashableOffset:
    """A schedule that compares by value but cannot be hashed."""

    scale: float

    def alpha(self, k):
        return self.scale / (k + 1)


def test_member_attacks_with_an_unhashable_schedule_equal_separate_runs():
    net, prob = _small_setup()
    specs = [AttackSpec("perturbed_dup", p_add=_UnhashableOffset(0.3)) for _ in range(2)]
    attacks = [specs[0], AttackSpec("none"), specs[1], AttackSpec("silent")]
    sched = DecayingSchedule(scale=2.0, k0=10)
    kw = dict(noise=1e-4, agg="scc", tau=TauSpec("corollary1", 1e3), record_traces=True)
    ens = run_ensemble(net, prob, sched, 15, [1, 2, 2, 1], attack=attacks, **kw)
    for log, spec in zip(ens.logs, attacks):
        _assert_logs_identical(log, run(net, prob, sched, 15, log.seed, attack=spec, **kw), spec)


def test_copies_of_one_seed_build_its_generators_once(monkeypatch):
    built = collections.Counter()
    agent_rngs = engine._agent_rngs

    def counted(seed, n_agents, purpose):
        built[seed, purpose] += 1
        return agent_rngs(seed, n_agents, purpose)

    monkeypatch.setattr(engine, "_agent_rngs", counted)
    flip, silent, alie = AttackSpec("sign_flip"), AttackSpec("silent"), AttackSpec("alie")
    # the attack zoo's layout: cells of members, each cell running every seed
    attacks = [flip, flip, silent, silent, alie, alie]
    kw = dict(attack=attacks, noise=1e-4, agg="scc", tau=TauSpec("corollary1", 1e3))
    net, prob = _small_setup()
    ens = run_ensemble(net, prob, DecayingSchedule(scale=2.0, k0=10), 5, [1, 2] * 3, **kw)
    assert ens.statuses == ["completed"] * 6
    assert built == {(1, 1): 1, (2, 1): 1, (1, 2): 1, (2, 2): 1}
    # an opaque sample_gradient consumes its generators, so each copy draws
    # from a clone; the generators themselves are still built once per seed
    built.clear()
    vnet, vprob, _ = _noisy_vector_setup()
    ens = run_ensemble(vnet, vprob, DecayingSchedule(scale=0.5, k0=10), 5, [1, 2] * 3, **kw)
    assert ens.statuses == ["completed"] * 6
    assert built == {(1, 1): 1, (2, 1): 1, (1, 2): 1, (2, 2): 1}


def test_edges_into_held_receivers_leave_the_round(monkeypatch):
    seen = []
    diffs = engine.edge_diffs

    def spy(messages, self_models, sums):
        seen.append((len(messages), sums.counts.copy()))
        return diffs(messages, self_models, sums)

    monkeypatch.setattr(engine, "edge_diffs", spy)
    net, prob = _small_setup()
    full = np.bincount(net.recv, minlength=net.n_agents)
    held = np.where(net.is_byz, 0, full)
    assert held.sum() < full.sum()
    attacks = [AttackSpec("sign_flip"), AttackSpec("none"), AttackSpec("perturbed_dup")]
    run_ensemble(net, prob, DecayingSchedule(scale=2.0, k0=10), 4, [1, 1, 2], attack=attacks,
                 agg="scc", tau=TauSpec("corollary1", 1e3))
    # a 'none' copy keeps every edge; an attacked one has none into its
    # Byzantine agents and every other edge
    expect = np.concatenate([held, full, held])
    assert len(seen) == 4
    for n_edges, counts in seen:
        assert n_edges == expect.sum()
        assert np.array_equal(counts, expect)


def test_opaque_sampler_with_repeated_seeds_equals_separate_runs():
    net, prob, _ = _noisy_vector_setup()
    sched = DecayingSchedule(scale=0.5, k0=10)
    specs = [AttackSpec("none"), AttackSpec("sign_flip"), AttackSpec("perturbed_dup"),
             AttackSpec("dissensus")]
    seeds = [1, 2, 3]
    kw = dict(noise=1e-4, agg="scc", tau=TauSpec("corollary1", 1e3), record_traces=True)
    for members in (
        [(spec, s) for spec in specs for s in seeds],
        [(spec, s) for s in seeds for spec in specs],
    ):
        ens = run_ensemble(net, prob, sched, 15, [s for _, s in members],
                           attack=[spec for spec, _ in members], **kw)
        for log, (spec, seed) in zip(ens.logs, members):
            _assert_logs_identical(log, run(net, prob, sched, 15, seed, attack=spec, **kw),
                                   (spec, seed))


def test_member_attack_lists_are_checked_before_any_round(monkeypatch):
    calls = []

    def counted(agent):
        def sample_gradient(x, rng):
            calls.append(agent)
            return 2.0 * x

        return dataclasses.replace(_quad_objective(agent), sample_gradient=sample_gradient)

    net = build_network("complete", 4, byzantine_ids=(1,))
    prob = custom_problem([counted(i) for i in range(4)], net.byzantine)
    monkeypatch.setattr(engine, "_GROUP_ELEMENTS", 1)
    sched = ConstantSchedule(0.1)
    flip = AttackSpec("sign_flip")
    for attack, match in (
        ([flip], "2 seeds"),
        ([flip, flip, flip], "3 attacks"),
        ([flip, "silent"], "AttackSpec"),
        ([flip, AttackSpec("perturbed_dup", victim=1)], "victim"),
    ):
        with pytest.raises(ConfigError, match=match):
            run_ensemble(net, prob, sched, 5, [1, 2], attack=attack, agg="mean")
    assert calls == []


def test_bad_seed_anywhere_raises_before_any_round():
    calls = []

    def counted(agent):
        def sample_gradient(x, rng):
            calls.append(agent)
            return 2.0 * x

        return dataclasses.replace(_quad_objective(agent), sample_gradient=sample_gradient)

    net = build_network("complete", 4, byz_fraction=0.0, seed=0)
    prob = custom_problem([counted(i) for i in range(4)])
    # a one-seed group budget runs the good seeds first unless every seed
    # is checked up front
    for seeds in ([-1, 1, 2], [1, 2, 1.5], [1, True, 2], [1, 2, 3, None]):
        with pytest.raises(ConfigError, match="seed"):
            run_ensemble(net, prob, ConstantSchedule(0.1), 5, seeds, agg="mean")
    assert calls == []


def _vec_quad_objective(agent: int, centre: np.ndarray) -> LocalObjective:
    # deterministic |x - c|^2 / 2 oracle in three dimensions
    return LocalObjective(
        agent=agent,
        family="vquad",
        expected_value=lambda x: 0.5 * float(np.sum((x - centre) ** 2)),
        expected_gradient=lambda x: x - centre,
        sample_value=lambda x, u, v: 0.5 * float(np.sum((x - centre) ** 2)),
        sample_gradient=lambda x, rng: x - centre,
    )


def _oracle_message(spec, net, models, k, i, b):
    """What Byzantine b sends reliable receiver i in round k, from the
    per-message attack functions."""
    w = dense_weights(net)
    rel_nbrs = net.reliable_neighbors(i)
    if spec.kind == "silent":
        return np.zeros_like(models[b])
    if spec.kind == "sign_flip":
        return sign_flip_msg(models[[i] + rel_nbrs], spec.s_b)
    if spec.kind == "alie":
        pool = models[[i] + rel_nbrs] if spec.alie_local else models[list(net.reliable)]
        return alie_msg(pool, alie_coefficient(net.n_agents, len(net.reliable)))
    if spec.kind == "dissensus":
        byz_w = sum(w[i, j] for j in net.byzantine_neighbors(i))
        return dissensus_msg(models[i], models[rel_nbrs], w[i, rel_nbrs], byz_w, spec.d_r)
    if spec.kind == "perturbed_dup":
        members = sorted(set(net.neighbors(b)) & set(net.reliable))
        return perturbed_dup_msg(models[members[k % len(members)]], spec.p_mult, spec.p_add)
    raise AssertionError(spec.kind)


def test_edge_round_matches_inbox_references():
    rng = np.random.default_rng(40)
    net = build_network("random", 12, byz_fraction=0.25, seed=8, edge_p=0.5)
    byz = set(net.byzantine)
    w = dense_weights(net)
    assert any(net.byzantine_neighbors(i) for i in net.reliable)
    scalar = benchmark_problem(byzantine=net.byzantine, n_agents=12, family_of=[i % 10 + 1 for i in range(12)])
    centres = rng.normal(size=(12, 3))
    vector = custom_problem(
        [_vec_quad_objective(i, centres[i]) for i in range(12)], net.byzantine,
        dim=3, f_star=0.0, pl_constant=1.0, smoothness=1.0,
    )
    specs = [
        AttackSpec(kind="none"),
        AttackSpec(kind="sign_flip", s_b=1.5),
        AttackSpec(kind="alie"),
        AttackSpec(kind="alie", alie_local=True),
        AttackSpec(kind="dissensus", d_r=0.7),
        AttackSpec(kind="perturbed_dup", p_mult=1.2, p_add=0.3),
        AttackSpec(kind="silent"),
    ]
    fallback = 2.0
    n_rounds = 4
    radius_schedule = DecayingSchedule(scale=1.0, k0=2)
    policies = (
        ("scc", TauSpec("corollary1", fallback)),
        ("scc", TauSpec("remark4", fallback)),
        ("scc", TauSpec("manual", radius_schedule)),
        ("mean", None),
    )
    for prob in (scalar, vector):
        for spec in specs:
            for agg, tau in policies:
                log = run(
                    net, prob, DecayingSchedule(scale=0.5, k0=10), n_rounds, 3,
                    noise=1e-3, attack=spec, agg=agg, tau=tau, record_traces=True,
                )
                assert log.rounds_completed == n_rounds
                for k in range(n_rounds):
                    x, half, x_next = log.traces[k], log.half_traces[k], log.traces[k + 1]
                    for i in net.reliable:
                        received = {
                            j: half[j] if spec.kind == "none" or j not in byz
                            else _oracle_message(spec, net, x, k, i, j)
                            for j in net.neighbors(i)
                        }
                        inbox = Inbox(half[i], received)
                        if agg == "mean":
                            ref = gossip_mean(i, inbox, w[i])
                        else:
                            if tau.kind == "corollary1":
                                radius = tau_corollary1(i, inbox, w[i], net.byzantine)
                                radius = fallback if radius is None else radius
                            elif tau.kind == "remark4":
                                radius = tau_remark4(i, inbox, w[i], net.reliable)
                            else:
                                radius = radius_schedule.alpha(k)
                            ref = scc_aggregate(i, inbox, w[i], radius)
                        np.testing.assert_allclose(
                            np.atleast_1d(x_next[i]), ref, rtol=0, atol=1e-12,
                            err_msg=f"{spec} {agg} {tau} dim {prob.dim} round {k} agent {i}",
                        )
