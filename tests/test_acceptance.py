"""End-to-end acceptance gate.

Each test pins one complete experiment configuration, drives it through
the public API exactly as a user would, and asserts the tolerance frozen
when the configuration was tuned. Nothing is mocked and the slow tests
are slow on purpose; wall-clock budgets are asserted only where the
contract carries one.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

import gossipshield
from gossipshield import (
    AttackSpec,
    ConstantSchedule,
    DecayingSchedule,
    DpBudget,
    TauSpec,
    benchmark_problem,
    build_network,
    dk_bound,
    family_objective,
    global_epsilon,
    regime_compare,
    required_variance_local,
    rho_upper_bound,
    run,
    run_ensemble,
    theory_constants,
)
from dense_reference import dense_adjacency, dense_weights, virtual_dense
from gossipshield.aggregation import TAU_FLOOR, Inbox, scc_aggregate, tau_corollary1
from gossipshield.cli import privacy_trace, run_experiment
from gossipshield.config import load_config

# reference magnitudes the tuned duplicating-attack configuration lands;
# the band is two orders of magnitude either way because the step scale
# and the drift schedule are hand-tuned against a stochastic run
REF_CONSENSUS = 1.1332e-12
REF_GAP = 1.1151e-07


def test_exact_convergence_without_attackers_or_noise():
    """Empty Byzantine set, zero masking noise, admissible decaying step:
    the gap and the disagreement both reach numerical zero."""
    net = build_network("complete", 100, byz_fraction=0.0, seed=1)
    prob = benchmark_problem((), 100)
    sched = DecayingSchedule(scale=10.8563, k0=10)
    for seed in (1, 2, 3):
        t0 = time.perf_counter()
        log = run(net, prob, sched, 20_000, seed, noise=0.0, agg="scc", tau=1e3)
        elapsed = time.perf_counter() - t0
        assert log.status == "completed"
        assert log.gap[-1] < 1e-6
        assert log.consensus[-1] < 1e-10
        assert elapsed < 30.0


def test_tuned_duplicating_attack_reaches_reference_magnitudes():
    """One tenth duplicating attackers on a dense random graph.

    The additive drift decays with the step so the averaged model parks a
    few noise sigmas off the optimum, which keeps the running-best gap
    away from its zero crossings; gradient batching sets those sigmas.
    Five fixed seeds, seed-averaged finals."""
    net = build_network("random", 100, byz_fraction=0.1, seed=1, edge_p=0.998)
    prob = benchmark_problem(net.byzantine, 100, batch=100)
    sched = DecayingSchedule(scale=10.1886, k0=10)
    atk = AttackSpec(
        "perturbed_dup", p_mult=1.0, p_add=DecayingSchedule(scale=0.25, k0=10)
    )
    ens = run_ensemble(
        net, prob, sched, 50_000, (1, 2, 3, 4, 5),
        noise=1e-6, attack=atk, agg="scc", tau=1.0,
    )
    finals_d, finals_gap = [], []
    for log in ens.logs:
        assert log.status == "completed"
        finals_d.append(log.consensus[-1])
        finals_gap.append(log.gap[-1])
    mean_d = float(np.mean(finals_d))
    mean_gap = float(np.mean(finals_gap))
    assert REF_CONSENSUS / 100.0 <= mean_d <= REF_CONSENSUS * 100.0
    assert REF_GAP / 100.0 <= mean_gap <= REF_GAP * 100.0


def test_decaying_step_beats_constant_on_final_disagreement():
    """Hub network, one tenth sign-flippers: the decaying regime's
    trailing-window disagreement is below the tuned constant step's in at
    least four of five seed-matched pairs."""
    net = build_network("star", 100, byz_fraction=0.1, seed=1)
    prob = benchmark_problem(net.byzantine, 100)
    atk = AttackSpec("sign_flip", s_b=1.0)
    dec = DecayingSchedule(scale=10.1886, k0=10)
    con = ConstantSchedule(scale=1.0188e-2)
    kw = dict(noise=1e-6, attack=atk, agg="scc", tau=TauSpec("corollary1", 1000.0))
    wins = 0
    for seed in (1, 2, 3, 4, 5):
        cmp_ = regime_compare(
            run(net, prob, dec, 10_000, seed, **kw),
            run(net, prob, con, 10_000, seed, **kw),
        )
        wins += cmp_.d_decaying < cmp_.d_constant
    assert wins >= 4


def test_clipped_aggregation_separates_from_plain_mean_under_sign_flip():
    """Sign flip at one tenth Byzantine: clipping holds the final gap
    under 1e-2 while the unclipped mean baseline ends above 1e-1 or
    diverges, on at least four of five seeds.

    The flip scale is what makes this a test. Each Byzantine neighbour
    of receiver i sends -s_b times the mean of i's closed reliable
    neighbourhood. Over the reliable set the unclipped gossip map is
    then linear, W_RR - s_b * diag(beta) * N, with beta_i the Byzantine
    weight at i and N the neighbourhood-mean matrix. Evenly spaced
    attackers take one agent from each benchmark family, so the reliable
    optimum is the origin, the fixed point of that map. At unit scale
    the map is a contraction (spectral radius 0.82), so the attack pulls
    the mean baseline onto the optimum and no threshold can separate it
    from clipping. At s_b = 30 the radius is 1.91 and the mean baseline
    blows up within a few dozen rounds. Because ``gap`` is a running
    minimum, that failure shows as ``status == "diverged"``, not as a
    large final gap. The precondition is asserted first so the test
    cannot go vacuous if the network or the scale changes.
    """
    s_b = 30.0
    net = build_network("random", 100, byz_fraction=0.1, seed=1, edge_p=0.5)
    rel, byz = list(net.reliable), list(net.byzantine)
    adj, w = dense_adjacency(net), dense_weights(net)
    closed = adj[np.ix_(rel, rel)] | np.eye(len(rel), dtype=bool)
    nbhd_mean = closed / closed.sum(axis=1, keepdims=True)
    beta = w[np.ix_(rel, byz)].sum(axis=1)
    linear_mean_map = w[np.ix_(rel, rel)] - s_b * beta[:, None] * nbhd_mean
    assert np.abs(np.linalg.eigvals(linear_mean_map)).max() > 1.0

    prob = benchmark_problem(net.byzantine, 100)
    sched = DecayingSchedule(scale=10.1886, k0=10)
    atk = AttackSpec("sign_flip", s_b=s_b)
    separations = 0
    for seed in (1, 2, 3, 4, 5):
        scc = run(
            net, prob, sched, 2_000, seed,
            noise=1e-6, attack=atk, agg="scc", tau=TauSpec("corollary1", 1000.0),
        )
        mean = run(net, prob, sched, 2_000, seed, noise=1e-6, attack=atk, agg="mean")
        separations += scc.status == "completed" and scc.gap[-1] < 1e-2 and (
            mean.gap[-1] > 1e-1 or mean.status == "diverged"
        )
    assert separations >= 4


def test_contraction_inequality_on_random_inboxes():
    # one thousand accepted cases against the balanced oracle radius,
    # fresh draw stream, hard wall-clock cap
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    while checked < 1000:
        n = int(rng.integers(4, 10))
        try:
            net = build_network(
                "random", n, float(rng.uniform(0.1, 0.4)),
                seed=int(rng.integers(1 << 30)), edge_p=0.9,
            )
        except Exception:
            continue
        if not net.byzantine:
            continue
        rho = rho_upper_bound(net)
        w, block = dense_weights(net), virtual_dense(net)
        rel = list(net.reliable)
        states = rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
        for i_pos, i in enumerate(rel):
            inbox = Inbox(
                states[i],
                {
                    j: np.atleast_1d(
                        states[j]
                        if j in net.reliable
                        else rng.normal(scale=rng.choice([0.1, 1.0, 100.0]))
                    )
                    for j in net.neighbors(i)
                },
            )
            tau = tau_corollary1(i, inbox, w[i], net.byzantine)
            if tau is None or tau <= TAU_FLOOR:
                continue
            out = scc_aggregate(i, inbox, w[i], tau)
            target = float(block[i_pos] @ states[rel])
            spread = max(
                abs(states[j] - target) for j in list(net.reliable_neighbors(i)) + [i]
            )
            assert abs(float(out[0]) - target) <= rho * spread + 1e-9
            checked += 1
    assert time.perf_counter() - t0 < 5.0


def test_disagreement_stays_under_theory_ceiling():
    """Valid-regime configuration (no Byzantine coupling, so the
    contraction constant is zero): the 20-seed mean disagreement sits at
    or under the theoretical ceiling for at least 95% of rounds."""
    net = build_network("random", 100, byz_fraction=0.0, seed=2, edge_p=0.2)
    prob = benchmark_problem((), 100)
    consts = theory_constants(
        net, rho_upper_bound(net), prob.smoothness, prob.pl_constant,
        prob.sigma_sq, prob.zeta_sq, 1e-6, prob.dim,
    )
    assert consts.regime_valid
    sched = DecayingSchedule(scale=consts.theta_min, k0=consts.k0)
    ens = run_ensemble(
        net, prob, sched, 5_000, range(1, 21), noise=1e-6, agg="scc", tau=1e6,
    )
    assert all(s == "completed" for s in ens.statuses)
    d0 = float(np.mean([log.consensus[0] for log in ens.logs]))
    frac = float(np.mean(ens.consensus_mean <= dk_bound(consts, d0, ens.k, sched)))
    assert frac >= 0.95


def test_masking_noise_degrades_final_gap_monotonically():
    """Four-rung variance ladder at one tenth duplicating Byzantine: the
    seed-averaged final gap is non-decreasing in the variance, with at
    most one adjacent pair out of order at three-seed averaging."""
    net = build_network("random", 100, byz_fraction=0.1, seed=1, edge_p=0.998)
    prob = benchmark_problem(net.byzantine, 100, batch=100)
    sched = DecayingSchedule(scale=10.1886, k0=10)
    atk = AttackSpec("perturbed_dup")  # exact duplicates, no drift
    finals = []
    for var in (0.0, 1e-4, 1e-2, 1.0):
        ens = run_ensemble(
            net, prob, sched, 1_000, (1, 2, 3),
            noise=var, attack=atk, agg="scc", tau=1.0,
        )
        assert all(s == "completed" for s in ens.statuses)
        finals.append(float(ens.gap_mean_of_min[-1]))
    violations = sum(finals[i + 1] < finals[i] for i in range(len(finals) - 1))
    assert violations <= 1


def test_privacy_calculators_reproduce_hand_checked_values():
    const = ConstantSchedule(scale=1.0)
    delta = 1.25 * math.exp(-1.0)  # makes the log factor exactly one
    v = required_variance_local(1.0, delta, 1.0, const)
    assert v == pytest.approx(2.0, rel=1e-12)
    # sensitivity enters squared
    assert required_variance_local(1.0, delta, 2.0, const) == pytest.approx(
        4.0 * v, rel=1e-12
    )
    # decaying schedule divides the demand by the offset squared
    dec = DecayingSchedule(scale=1.0, k0=7)
    assert required_variance_local(1.0, delta, 1.0, dec) == pytest.approx(
        v / 49.0, rel=1e-12
    )

    budget = DpBudget(
        delta=math.exp(-1.0), grad_bound=1.0, total_samples=10,
        batch_size=3, horizon=1,
    )
    rep = global_epsilon(budget, 1.0)
    assert rep.epsilon == pytest.approx(0.2 + 2.0 * math.sqrt(20.0) / 10.0, rel=1e-12)
    assert rep.variance_ok
    assert global_epsilon(dataclasses.replace(budget, horizon=0), 1.0).epsilon == 0.0

    # tightening either privacy parameter never lowers the variance demand
    vs = [required_variance_local(e, 0.3, 1.0, const) for e in (0.05, 0.1, 0.3, 0.6, 1.0)]
    assert all(a >= b for a, b in zip(vs, vs[1:]))
    vs = [required_variance_local(0.5, d, 1.0, const) for d in (1e-8, 1e-5, 1e-3, 0.1, 0.6)]
    assert all(a >= b for a, b in zip(vs, vs[1:]))

    # end-to-end loss: strictly down in variance and sample count,
    # strictly up in horizon and gradient bound
    base = DpBudget(
        delta=1e-2, grad_bound=2.0, total_samples=1000, batch_size=10, horizon=50
    )
    down = [global_epsilon(base, v_).epsilon for v_ in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(down, down[1:]))
    down = [
        global_epsilon(dataclasses.replace(base, total_samples=q), 4.0).epsilon
        for q in (200, 400, 800, 1600)
    ]
    assert all(a > b for a, b in zip(down, down[1:]))
    up = [
        global_epsilon(dataclasses.replace(base, horizon=k), 4.0).epsilon
        for k in (1, 10, 100, 1000)
    ]
    assert all(a < b for a, b in zip(up, up[1:]))
    up = [
        global_epsilon(dataclasses.replace(base, grad_bound=b), 4.0).epsilon
        for b in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a < b for a, b in zip(up, up[1:]))


def _file_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


def test_recipe_reruns_are_byte_identical(tmp_path):
    """Shipped recipes re-run into fresh directories reproduce every
    artifact byte for byte, headers included."""
    recipes = Path(gossipshield.__file__).parent / "recipes"

    cfg = load_config(recipes / "star_signflip.yaml")
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, a)
    run_experiment(cfg, b)
    assert _file_bytes(a) == _file_bytes(b)

    cfg = load_config(recipes / "adjacent_trace.yaml")
    ta, tb = tmp_path / "ta", tmp_path / "tb"
    privacy_trace(cfg, ta)
    privacy_trace(cfg, tb)
    assert _file_bytes(ta) == _file_bytes(tb)


def test_analytic_gradients_and_sum_identity():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-3.0, 3.0, 100)
    h = 1e-6
    for family in range(1, 11):
        o = family_objective(0, family)
        fd = (
            np.asarray(o.expected_value(pts + h))
            - np.asarray(o.expected_value(pts - h))
        ) / (2.0 * h)
        assert np.abs(np.asarray(o.expected_gradient(pts)) - fd).max() < 1e-6

    prob = benchmark_problem((), 100)
    xs = rng.uniform(-8.0, 8.0, 200)
    total = sum(np.asarray(o.expected_value(xs)) for o in prob.objectives)
    ref = 10.0 * xs**2 + 30.0 * np.sin(xs) ** 2 + 10.0
    assert np.abs(total - ref).max() < 1e-9
