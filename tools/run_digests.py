"""Build fixed set-ups, run a fixed matrix of engine runs, print a digest per array.

    python3 tools/run_digests.py                  # this checkout's src/
    python3 tools/run_digests.py --src OTHER/src  # another checkout

First come the set-up cases: for random graphs at 100, 1000 and 4000
agents, star and complete graphs, and one mixed family assignment, all
at 10% Byzantine, the network's arrays, the benchmark problem's constants
(f*, x*, L, mu, sigma^2, zeta^2, and ``estimate_smoothness``), the mixing
rate, ``rho_upper_bound`` and every field of ``theory_constants``; and
the estimated constants (f*, x*, L, mu) of two 1-d custom problems: two
quadratics of different curvature, and benchmark family objectives with
one Byzantine agent. Then the run matrix calls ``engine.run`` and
``engine.run_ensemble`` directly: every attack (ALIE global and local, a
round-robin and a fixed duplication victim) under the mean and under SCC
with each radius policy, with masking noise off and on, at 100 agents
(traces recorded) and at 1000 agents; runs and ensembles that diverge,
among them runs whose Byzantine messages are +inf under SCC with either
oracle radius, on scalar and 10-d states; a 10-d custom problem under
the mean and under SCC with both oracle radii;
ensembles with one attack per member, where each seed repeats once per
attack: every attack kind (``none`` included, a round-robin and a fixed
duplication victim) with masking noise on, at 100 agents (traces
recorded) and at 1000 agents, with the members grouped per attack and
interleaved; at 100 agents also two layouts in which specs
recur in separated runs of different lengths (sign flip between ``none``
and ``silent``; global ALIE and both duplication victims between each
other and dissensus), with seeds repeating; a 10-d custom problem on 30
agents; and an ensemble with the theory bound column. Standard output is one
``sha256  case/field`` line per recorded array, plus each member's status,
so two trees run the engine byte for byte alike exactly when ``diff``
finds nothing between their outputs. It takes 12–20 s on a 2-core VM.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

LOG_FIELDS = (
    "k", "consensus", "pre_agg", "f_bar", "f_best", "gap",
    "dk_bound", "final_x", "traces", "half_traces",
)
ENSEMBLE_FIELDS = (
    "k", "consensus_mean", "pre_agg_mean", "f_bar_mean",
    "gap_mean_of_min", "gap_min_of_mean", "dk_bound",
)


def _digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _print_log(case: str, log) -> None:
    print(f"status  {case}/{log.status}/{log.diverged_at}")
    for name in LOG_FIELDS:
        value = getattr(log, name)
        if value is not None:
            print(f"{_digest(value)}  {case}/{name}")


def _print_ensemble(case: str, ens) -> None:
    for name in ENSEMBLE_FIELDS:
        value = getattr(ens, name)
        if value is not None:
            print(f"{_digest(value)}  {case}/{name}")
    for log in ens.logs:
        _print_log(f"{case}/seed{log.seed}", log)


NETWORK_FIELDS = ("recv", "send", "edge_w", "self_w", "indptr", "is_byz")
PROBLEM_FIELDS = ("f_star", "x_star", "smoothness", "pl_constant", "sigma_sq", "zeta_sq")


def _setup_cases(gs):
    """(name, net, prob) of every set-up case, all at 10% Byzantine."""
    for n, edge_p in ((100, 0.5), (1000, 0.02), (4000, 0.005)):
        net = gs.build_network("random", n, byz_fraction=0.1, seed=1, edge_p=edge_p)
        yield f"random{n}", net, gs.benchmark_problem(net.byzantine, n)
    for kind in ("star", "complete"):
        net = gs.build_network(kind, 100, byz_fraction=0.1)
        yield kind, net, gs.benchmark_problem(net.byzantine, 100)
    net = gs.build_network("random", 90, byz_fraction=0.1, seed=4, edge_p=0.2)
    family_of = np.random.default_rng(11).integers(1, 11, 90).tolist()
    yield "family_of", net, gs.benchmark_problem(net.byzantine, 90, family_of=family_of)


def _custom_setup_cases(gs):
    """(name, prob) of 1-d custom problems whose constants are estimated."""

    def quad(agent, a, c):
        return gs.LocalObjective(
            agent=agent, family="quad",
            expected_value=lambda x: a * (x - c) ** 2,
            expected_gradient=lambda x: 2.0 * a * (x - c),
            sample_value=lambda x, u, v: a * (x - c) ** 2,
            sample_gradient=lambda x, rng: 2.0 * a * (x - c),
        )

    yield "quads", gs.custom_problem([quad(0, 0.5, 1.0), quad(1, 2.0, -0.5)])
    families = [gs.family_objective(i, i % 10 + 1) for i in range(20)]
    yield "families", gs.custom_problem(families, (7,))


def _print_setup(gs, case: str, net, prob) -> None:
    for name in NETWORK_FIELDS:
        print(f"{_digest(getattr(net, name))}  {case}/net/{name}")
    for name in PROBLEM_FIELDS:
        print(f"{_digest(np.array(getattr(prob, name), dtype=float))}  {case}/prob/{name}")
    print(f"{_digest(np.array(gs.estimate_smoothness(prob)))}  {case}/estimate_smoothness")
    rho = gs.rho_upper_bound(net)
    print(f"{_digest(np.array(gs.mixing_sq(net)))}  {case}/mixing_sq")
    print(f"{_digest(np.array(rho))}  {case}/rho_upper_bound")
    consts = gs.theory_constants(
        net, rho, prob.smoothness, prob.pl_constant, prob.sigma_sq, prob.zeta_sq, 1e-6, 1
    )
    for name, value in dataclasses.asdict(consts).items():
        print(f"{_digest(np.array(value, dtype=float))}  {case}/theory/{name}")


def _cases(gs):
    """(name, net, prob, sched, rounds, kwargs) of every scalar case."""
    attacks = {
        "none": gs.AttackSpec("none"),
        "sign_flip": gs.AttackSpec("sign_flip", s_b=1.5),
        "alie": gs.AttackSpec("alie"),
        "alie_local": gs.AttackSpec("alie", alie_local=True),
        "dissensus": gs.AttackSpec("dissensus", d_r=0.7),
        "dup": gs.AttackSpec("perturbed_dup", p_mult=1.2, p_add=0.3),
        "silent": gs.AttackSpec("silent"),
    }
    radius = gs.DecayingSchedule(scale=1.0, k0=2)
    policies = {
        "mean": dict(agg="mean"),
        "corollary1": dict(agg="scc", tau=gs.TauSpec("corollary1", 1000.0)),
        "remark4": dict(agg="scc", tau=gs.TauSpec("remark4", 1.0)),
        "manual": dict(agg="scc", tau=gs.TauSpec("manual", radius)),
    }
    sched = gs.DecayingSchedule(scale=10.1886, k0=10)
    for n, edge_p, rounds, traces in ((100, 0.5, 60, True), (1000, 0.02, 8, False)):
        net = gs.build_network("random", n, byz_fraction=0.1, seed=1, edge_p=edge_p)
        prob = gs.benchmark_problem(net.byzantine, n)
        fixed = gs.AttackSpec("perturbed_dup", p_add=0.5, victim=net.reliable[3])
        for attack_name, attack in {**attacks, "dup_fixed": fixed}.items():
            for policy, kw in policies.items():
                for noise in (0.0, 1e-6):
                    name = f"n{n}/{attack_name}/{policy}/noise{noise:g}"
                    yield name, net, prob, sched, rounds, dict(
                        noise=noise, attack=attack, record_traces=traces, **kw
                    )
    # diverging runs: models blow up after round 0, half-steps blow up later
    net = gs.build_network("random", 10, byz_fraction=0.2, seed=3, edge_p=0.6)
    prob = gs.benchmark_problem(net.byzantine, 10)
    yield "diverge/models", net, prob, gs.ConstantSchedule(0.05), 20, dict(
        attack=gs.AttackSpec("perturbed_dup", p_add=1e15), agg="mean", record_traces=True
    )
    # infinite messages leave NaN oracle numerators, which take the fallback
    for policy in ("corollary1", "remark4"):
        yield f"diverge/inf_dup/{policy}", net, prob, gs.ConstantSchedule(0.05), 20, dict(
            attack=gs.AttackSpec("perturbed_dup", p_add=np.inf), record_traces=True, **policies[policy]
        )
    net = gs.build_network("random", 100, byz_fraction=0.1, seed=1, edge_p=0.5)
    prob = gs.benchmark_problem(net.byzantine, 100)
    yield "diverge/sign_flip_mean", net, prob, sched, 300, dict(
        noise=1e-6, attack=gs.AttackSpec("sign_flip", s_b=30.0), agg="mean"
    )
    quads = [
        gs.LocalObjective(
            agent=i, family="quad",
            expected_value=lambda x: x * x, expected_gradient=lambda x: 2.0 * x,
            sample_value=lambda x, u, v: x * x, sample_gradient=lambda x, rng: 2.0 * x,
        )
        for i in range(4)
    ]
    net = gs.build_network("complete", 4, byz_fraction=0.0, seed=0)
    yield "diverge/half_steps", net, gs.custom_problem(quads), gs.ConstantSchedule(4.0), 100, dict(
        agg="mean", record_traces=True
    )


def _vector_cases(gs, dim: int = 10):
    rng = np.random.default_rng(10)
    n = 100
    a = rng.uniform(0.5, 2.0, n)
    c = 3.0 + rng.standard_normal((n, dim))

    def objective(i):
        def sample_gradient(x, r):
            u = r.normal(1.0, 0.1)
            r.normal(0.0, 0.1)
            return u * a[i] * (x - c[i])

        return gs.LocalObjective(
            agent=i, family="quad",
            expected_value=lambda x: 0.5 * a[i] * float(np.sum((x - c[i]) ** 2)),
            expected_gradient=lambda x: a[i] * (x - c[i]),
            sample_value=lambda x, u, v: u * 0.5 * a[i] * float(np.sum((x - c[i]) ** 2)) + v,
            sample_gradient=sample_gradient,
        )

    net = gs.build_network("random", n, byz_fraction=0.1, seed=2, edge_p=0.5)
    prob = gs.custom_problem(
        [objective(i) for i in range(n)], net.byzantine, dim=dim,
        f_star=0.0, pl_constant=float(a.min()), smoothness=float(a.max()),
    )
    sched = gs.DecayingSchedule(scale=5.0, k0=10)
    for attack in ("sign_flip", "alie", "dissensus", "perturbed_dup"):
        for policy, kw in (
            ("mean", dict(agg="mean")),
            ("corollary1", dict(agg="scc", tau=gs.TauSpec("corollary1", 1000.0))),
            ("remark4", dict(agg="scc", tau=gs.TauSpec("remark4", 1000.0))),
        ):
            yield f"vec{dim}/{attack}/{policy}", net, prob, sched, 20, dict(
                noise=1e-4, attack=gs.AttackSpec(attack), record_traces=True, **kw
            )
    for policy in ("corollary1", "remark4"):
        yield f"vec{dim}/diverge/inf_dup/{policy}", net, prob, sched, 20, dict(
            noise=1e-4, attack=gs.AttackSpec("perturbed_dup", p_add=np.inf), record_traces=True, agg="scc",
            tau=gs.TauSpec(policy, 1000.0),
        )


def _member_attack_cases(gs):
    """(name, net, prob, sched, rounds, members, kwargs) of ensembles with
    one attack per member, where members is a list of (attack name, spec,
    seed) and every seed repeats once per attack."""
    sched = gs.DecayingSchedule(scale=10.1886, k0=10)
    oracle = dict(agg="scc", tau=gs.TauSpec("corollary1", 1000.0))
    seeds = [1, 2]
    for n, edge_p, rounds, traces in ((100, 0.5, 60, True), (1000, 0.02, 8, False)):
        net = gs.build_network("random", n, byz_fraction=0.1, seed=1, edge_p=edge_p)
        prob = gs.benchmark_problem(net.byzantine, n)
        specs = {
            "none": gs.AttackSpec("none"),
            "sign_flip": gs.AttackSpec("sign_flip", s_b=1.5),
            "alie": gs.AttackSpec("alie"),
            "alie_local": gs.AttackSpec("alie", alie_local=True),
            "dissensus": gs.AttackSpec("dissensus", d_r=0.7),
            "dup": gs.AttackSpec("perturbed_dup", p_mult=1.2, p_add=0.3),
            "dup_fixed": gs.AttackSpec("perturbed_dup", p_add=0.5, victim=net.reliable[3]),
            "silent": gs.AttackSpec("silent"),
        }
        kw = dict(noise=1e-6, record_traces=traces, **oracle)
        grouped = [(name, spec, s) for name, spec in specs.items() for s in seeds]
        interleaved = [(name, spec, s) for s in seeds for name, spec in specs.items()]
        yield f"n{n}/grouped", net, prob, sched, rounds, grouped, kw
        yield f"n{n}/interleaved", net, prob, sched, rounds, interleaved, kw
        mean_kw = dict(kw, agg="mean", tau=None)
        yield f"n{n}/grouped_mean", net, prob, sched, rounds, grouped, mean_kw
        if n == 100:
            # one spec recurring in separated runs of different lengths
            names = ["sign_flip", "sign_flip", "none", "sign_flip", "silent"] + ["sign_flip"] * 3
            recurring = [(name, specs[name], s) for name, s in zip(names, [1, 2, 1, 3, 2, 2, 3, 1])]
            yield "n100/recurring", net, prob, sched, rounds, recurring, kw
            names = ["alie", "dup", "dup_fixed", "alie", "dissensus", "dup", "alie", "dup_fixed"]
            recurring = [(name, specs[name], s) for name, s in zip(names, [1, 1, 2, 2, 1, 2, 3, 1])]
            yield "n100/recurring_stats", net, prob, sched, rounds, recurring, kw

    # 30 agents keep several 10-d copies in one round loop
    dim, n = 10, 30
    rng = np.random.default_rng(12)
    a = rng.uniform(0.5, 2.0, n)
    c = 3.0 + rng.standard_normal((n, dim))

    def objective(i):
        def sample_gradient(x, r):
            u = r.normal(1.0, 0.1)
            r.normal(0.0, 0.1)
            return u * a[i] * (x - c[i])

        return gs.LocalObjective(
            agent=i, family="quad",
            expected_value=lambda x: 0.5 * a[i] * float(np.sum((x - c[i]) ** 2)),
            expected_gradient=lambda x: a[i] * (x - c[i]),
            sample_value=lambda x, u, v: u * 0.5 * a[i] * float(np.sum((x - c[i]) ** 2)) + v,
            sample_gradient=sample_gradient,
        )

    net = gs.build_network("random", n, byz_fraction=0.1, seed=2, edge_p=0.5)
    prob = gs.custom_problem(
        [objective(i) for i in range(n)], net.byzantine, dim=dim,
        f_star=0.0, pl_constant=float(a.min()), smoothness=float(a.max()),
    )
    specs = {
        "none": gs.AttackSpec("none"),
        "sign_flip": gs.AttackSpec("sign_flip"),
        "alie": gs.AttackSpec("alie"),
        "dissensus": gs.AttackSpec("dissensus"),
        "dup": gs.AttackSpec("perturbed_dup"),
    }
    members = [(name, spec, s) for name, spec in specs.items() for s in seeds]
    yield f"vec{dim}/grouped", net, prob, gs.DecayingSchedule(scale=5.0, k0=10), 20, members, dict(
        noise=1e-4, record_traces=True, **oracle
    )


def _bound_case(gs):
    net = gs.build_network("random", 10, byz_fraction=0.0, seed=3, edge_p=0.5)
    prob = gs.benchmark_problem(n_agents=10)
    consts = gs.theory_constants(
        net, 0.0, prob.smoothness, prob.pl_constant, prob.sigma_sq, prob.zeta_sq, 0.0, 1
    )
    sched = gs.DecayingSchedule(scale=consts.theta_min, k0=consts.k0)
    return net, prob, sched, consts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the gossipshield package (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import gossipshield as gs

    # overflow in the diverging cases warns; the digests are what matter
    warnings.simplefilter("ignore")
    for name, net, prob in _setup_cases(gs):
        _print_setup(gs, f"setup/{name}", net, prob)
    for name, prob in _custom_setup_cases(gs):
        for field in PROBLEM_FIELDS[:4]:
            print(f"{_digest(np.array(getattr(prob, field), dtype=float))}  setup/custom/{name}/{field}")
    seeds = [1, 2, 3]
    for name, net, prob, sched, rounds, kw in [*_cases(gs), *_vector_cases(gs)]:
        _print_log(f"run/{name}", gs.run(net, prob, sched, rounds, 5, **kw))
        _print_ensemble(f"ensemble/{name}", gs.run_ensemble(net, prob, sched, rounds, seeds, **kw))
    for name, net, prob, sched, rounds, members, kw in _member_attack_cases(gs):
        ens = gs.run_ensemble(
            net, prob, sched, rounds, [s for _, _, s in members],
            attack=[spec for _, spec, _ in members], **kw,
        )
        _print_ensemble(f"members/{name}", dataclasses.replace(ens, logs=[]))
        for m, ((attack, _, seed), log) in enumerate(zip(members, ens.logs)):
            _print_log(f"members/{name}/{m}/{attack}/seed{seed}", log)
    net, prob, sched, consts = _bound_case(gs)
    _print_ensemble(
        "ensemble/bound", gs.run_ensemble(net, prob, sched, 25, seeds, consts=consts, agg="mean")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
