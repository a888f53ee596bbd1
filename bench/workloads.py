"""The benchmark's workloads: inputs made from a seed, timed units, checks.

Each workload repeats one *unit*, the whole job a user waits for: set-up
(config or problem assembly, landscape and theory constants), the seeded
runs, and for the sweep the CSV artifacts. Every unit of a workload does
the same operations on the same inputs, so every unit attempts the same
number of runs. Checks compare against values derived by hand or in
closed form here, or against properties the method must have, never
against stored output of the program.

The workloads reach the library only through module attributes looked up
at call time (``engine.run``, ``topology.build_network`` ...), so the
tracer in ``trace.py`` can wrap them.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from gossipshield import cli, config, engine, objectives, topology
from gossipshield.attacks import AttackSpec
from gossipshield.engine import TauSpec
from gossipshield.schedules import DecayingSchedule

# The reliable objective of the shipped benchmark when every family loses
# the same number of agents is the plain family average. Its coefficients
# summed over the ten families, basis by basis:
#   sqrt(x^4+3): 0.2-0.1-0.1 = 0      cos^2 x: 0.7+0.3 = 1
#   sin x: 2-1-1 = 0                  (x^2+2)^(1/3): -0.1+0.2-0.1 = 0
#   x^2/sqrt(x^2+1): 0.3-0.2-0.1 = 0  sin^2 x: 2+2 = 4
#   x^2: 1                            constant: 1-1 = 0
# so f(x) = (cos^2 x + 4 sin^2 x + x^2) / 10 = 0.1 + 0.3 sin^2 x + 0.1 x^2,
# minimised at x* = 0 with f* = 0.1.
BENCH_F_STAR = 0.1
# The grid-plus-golden-section oracle stops at an interval of 1e-12 around
# a minimum of curvature 0.8, so its f* is exact to rounding.
F_STAR_TOL = 1e-9
# After the runs below, f(x_bar) - f* measured 3e-8 to 6e-5 on seeds 1-4
# (zoo) and 2e-7 to 1.3e-5 (sparse, seeds 1-8); a run that does not
# converge sits far above this.
F_BAR_TOL = 1e-3
# Disagreement must shrink by these factors from the uniform(-5, 5) start;
# measured 1e-7 to 2e-5 of the start after 1000 rounds (zoo) and 3.5e-4 to
# 4.9e-4 after 50 rounds (sparse, seeds 1-8).
ZOO_SHRINK = 1e-3
SPARSE_SHRINK = 5e-3

STEP = DecayingSchedule(scale=10.1886, k0=10)
ORACLE_TAU = TauSpec("corollary1", 1000.0)


@dataclasses.dataclass
class Unit:
    """Timings and outcome of one unit of a workload."""

    wall_s: float
    setup_s: float
    round_s: float
    rounds: int
    attempted: int
    failed: int
    problems: list


def _raised(runs: int) -> Unit:
    """A unit whose set-up or runs raised: every run in it failed."""
    traceback.print_exc()
    return Unit(0.0, 0.0, 0.0, 0, runs, runs, [f"raised {sys.exc_info()[1]!r}"])


def _balanced_families(byzantine, n_agents: int, n_families: int = 10) -> bool:
    """True when each block of n_agents/n_families agents (the default
    family assignment) holds the same number of Byzantine agents."""
    block = n_agents // n_families
    lost = np.bincount([b // block for b in byzantine], minlength=n_families)
    return bool(np.all(lost == lost[0]))


def _scalar_run_problems(tag, status, d0, d_final, f_final, shrink):
    """Checks shared by the scalar-benchmark runs, whose optimum is f* = 0.1."""
    out = []
    if status != "completed":
        out.append(f"{tag}: status {status}")
    if not BENCH_F_STAR - 1e-12 <= f_final <= BENCH_F_STAR + F_BAR_TOL:
        out.append(f"{tag}: final f_bar {f_final!r} not within {F_BAR_TOL} above {BENCH_F_STAR}")
    if not d_final <= shrink * d0:
        out.append(f"{tag}: final disagreement {d_final!r} above {shrink} x {d0!r}")
    return out


# --- zoo-dense100 -------------------------------------------------------------

ZOO_ATTACKS = ("sign_flip", "alie", "dissensus", "perturbed_dup", "silent")
ZOO_CONFIG = """\
# Attack zoo at the paper's scale, one sweep cell per attack.
topology:
  kind: random
  n_agents: 100
  byz_fraction: 0.1
  seed: {topo_seed}
  edge_p: 0.5
schedule:
  kind: decaying
  scale: 10.1886
  k0: 10
noise:
  variance: 1.0e-6
attack:
  kind: sign_flip
aggregation:
  kind: scc
  allow_oracle: true
  tau:
    kind: corollary1
    value: 1000.0
run:
  horizon: 1000
  seeds: [{s1}, {s2}]
sweep:
  axes:
    - key: attack.kind
      values: [{attacks}]
"""


class ZooDense100:
    """cli.sweep_experiment with one worker over the attack zoo."""

    name = "zoo-dense100"

    def __init__(self, seed: int, out: Path):
        self.out = out / "sweep"
        self.seeds = (2 * seed + 1, 2 * seed + 2)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        self.cfg_path = out / "zoo.yaml"
        self.cfg_path.write_text(
            ZOO_CONFIG.format(
                topo_seed=seed, s1=self.seeds[0], s2=self.seeds[1],
                attacks=", ".join(ZOO_ATTACKS),
            )
        )
        self.runs = len(ZOO_ATTACKS) * len(self.seeds)
        self._first_bytes = None

    def unit(self) -> Unit:
        # the only hook outside tracing: one clock pair per sweep cell, so
        # set-up (before the first cell's rounds) and round time separate
        calls = []
        inner = cli.run_ensemble

        def timed_ensemble(*args, **kwargs):
            start = time.perf_counter()
            ens = inner(*args, **kwargs)
            calls.append((start, time.perf_counter(), sum(log.rounds_completed for log in ens.logs)))
            return ens

        # start from an empty directory, so a file the sweep fails to write
        # cannot be read from an earlier unit
        shutil.rmtree(self.out, ignore_errors=True)
        cli.run_ensemble = timed_ensemble
        start = time.perf_counter()
        try:
            cfg = config.load_config(self.cfg_path)
            cli.sweep_experiment(cfg, self.out, max_workers=1)
        except Exception:  # a raising sweep fails all its runs
            return _raised(self.runs)
        finally:
            cli.run_ensemble = inner
        wall = time.perf_counter() - start
        failed, problems = self._check_artifacts()
        return Unit(
            wall_s=wall,
            setup_s=calls[0][0] - start,
            round_s=sum(end - begin for begin, end, _ in calls),
            rounds=sum(n for _, _, n in calls),
            attempted=self.runs,
            failed=failed,
            problems=problems,
        )

    def _check_artifacts(self):
        failed, problems = 0, []
        for idx, attack in enumerate(ZOO_ATTACKS):
            for seed in self.seeds:
                path = self.out / f"cell{idx:03d}" / f"run_seed{seed}.csv"
                tag = f"{attack} seed {seed}"
                found = _check_seed_csv(path, tag) if path.exists() else [f"{tag}: no {path.name}"]
                failed += bool(found)
                problems += found
        # re-running the sweep must reproduce every artifact byte for byte
        current = {
            p.relative_to(self.out).as_posix(): p.read_bytes()
            for p in sorted(self.out.rglob("*")) if p.is_file()
        }
        if self._first_bytes is None:
            self._first_bytes = current
        elif current != self._first_bytes:
            changed = sorted(
                k for k in set(current) | set(self._first_bytes)
                if current.get(k) != self._first_bytes.get(k)
            )
            problems.append(f"re-run changed artifacts: {changed[:5]}")
        return failed, problems


def _check_seed_csv(path: Path, tag: str):
    lines = path.read_text().splitlines()
    status = lines[2].removeprefix("# status=")
    if lines[3] != "k,D,D_tilde,f_bar,f_best,gap,dk_bound":
        return [f"{tag}: unexpected columns {lines[3]!r}"]
    first = [float(v) if v else math.nan for v in lines[4].split(",")]
    last = [float(v) if v else math.nan for v in lines[-1].split(",")]
    # gap = f_best - f_star on every row, so the first row recovers f*;
    # f_bar and D are read directly because gap is a running minimum
    problems = []
    f_star = first[4] - first[5]
    if abs(f_star - BENCH_F_STAR) > F_STAR_TOL:
        problems.append(f"{tag}: recorded optimum {f_star!r}, derived {BENCH_F_STAR}")
    return problems + _scalar_run_problems(tag, status, first[1], last[1], last[3], ZOO_SHRINK)


# --- sparse-1000 --------------------------------------------------------------

class Sparse1000:
    """engine.run on a 1000-agent graph of mean degree about 20."""

    name = "sparse-1000"
    runs = 1
    n_agents = 1000
    edge_p = 0.02
    noise = 1e-6
    n_rounds = 50

    def __init__(self, seed: int, out: Path):
        self.seed = seed

    def unit(self) -> Unit:
        start = time.perf_counter()
        try:
            net = topology.build_network(
                "random", self.n_agents, byz_fraction=0.1, seed=self.seed, edge_p=self.edge_p
            )
            prob = objectives.benchmark_problem(net.byzantine, self.n_agents)
            topology.theory_constants(
                net, topology.rho_upper_bound(net), prob.smoothness, prob.pl_constant,
                prob.sigma_sq, prob.zeta_sq, self.noise, prob.dim,
            )
            ready = time.perf_counter()
            log = engine.run(
                net, prob, STEP, self.n_rounds, self.seed, noise=self.noise,
                attack=AttackSpec("sign_flip", s_b=1.0), agg="scc", tau=ORACLE_TAU,
            )
        except Exception:
            return _raised(self.runs)
        end = time.perf_counter()
        tag = f"seed {self.seed}"
        problems = []
        if not _balanced_families(net.byzantine, self.n_agents):
            problems.append(f"{tag}: families lose unequal agent counts; f* = 0.1 does not apply")
        if abs(prob.f_star - BENCH_F_STAR) > F_STAR_TOL or abs(prob.x_star) > 1e-6:
            problems.append(f"{tag}: optimum ({prob.x_star!r}, {prob.f_star!r}), derived (0, 0.1)")
        problems += _scalar_run_problems(
            tag, log.status, log.consensus[0], log.consensus[-1], log.f_bar[-1], SPARSE_SHRINK
        )
        return Unit(
            wall_s=end - start,
            setup_s=ready - start,
            round_s=end - ready,
            rounds=log.rounds_completed,
            attempted=self.runs,
            failed=int(bool(problems)),
            problems=problems,
        )


# --- vec10-custom -------------------------------------------------------------

VEC_DIM = 10
VEC_U_STD = 0.1
VEC_V_STD = 0.1
VEC_SAMPLES = 500


def _quad_sample_gradient(a, c, x, rng):
    """Gradient of u/2 * a * |x - c|^2 at a draw u ~ N(1, u_std^2); the v
    draw offsets only the value, as in the scalar families."""
    u = rng.normal(1.0, VEC_U_STD)
    rng.normal(0.0, VEC_V_STD)
    return u * a * (x - c)


def quad_objective(agent: int, a: float, c: np.ndarray) -> objectives.LocalObjective:
    """Local objective a/2 * |x - c|^2 with multiplicative u-noise."""

    def expected_value(x):
        d = np.asarray(x, dtype=float) - c
        return 0.5 * a * float(d @ d)

    def expected_gradient(x):
        return a * (np.asarray(x, dtype=float) - c)

    def sample_value(x, u, v):
        return u * expected_value(x) + v

    return objectives.LocalObjective(
        agent=agent,
        family="quadratic",
        expected_value=expected_value,
        expected_gradient=expected_gradient,
        sample_value=sample_value,
        sample_gradient=lambda x, rng: _quad_sample_gradient(a, c, x, rng),
    )


class Vec10Custom:
    """custom_problem on 10-d quadratics: an SCC run and a mean run."""

    name = "vec10-custom"
    runs = 2
    n_agents = 100
    noise = 1e-4
    n_rounds = 200
    step = DecayingSchedule(scale=5.0, k0=10)

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 10])
        self.a = rng.uniform(0.5, 2.0, self.n_agents)
        # centres around (3, ..., 3): the optimum sits away from the origin,
        # so a sign flip pushes away from it
        self.c = 3.0 + rng.standard_normal((self.n_agents, VEC_DIM))

    def unit(self) -> Unit:
        start = time.perf_counter()
        try:
            net = topology.build_network(
                "random", self.n_agents, byz_fraction=0.1, seed=self.seed, edge_p=0.5
            )
            rel = list(net.reliable)
            a, c = self.a[rel], self.c[rel]
            # closed forms over the reliable agents: the average objective is
            # mean(a)/2 |x - x*|^2 + f*, so its PL constant is mean(a) and
            # every local gradient is max(a)-Lipschitz
            x_star = (a[:, None] * c).sum(axis=0) / a.sum()
            f_star = float(np.mean(0.5 * a * np.sum((x_star - c) ** 2, axis=1)))
            objs = [quad_objective(i, self.a[i], self.c[i]) for i in range(self.n_agents)]
            prob = objectives.custom_problem(
                objs, net.byzantine, dim=VEC_DIM, f_star=f_star,
                pl_constant=float(a.mean()), smoothness=float(a.max()),
                u_std=VEC_U_STD, v_std=VEC_V_STD,
            )
            probes = [np.zeros(VEC_DIM), x_star, 2.0 * x_star]
            sigma_sq, zeta_sq = objectives.estimate_sigma_zeta(
                prob, probes, VEC_SAMPLES, np.random.default_rng([self.seed, 11])
            )
            prob = dataclasses.replace(prob, sigma_sq=sigma_sq, zeta_sq=zeta_sq)
            ready = time.perf_counter()
            kwargs = dict(noise=self.noise, attack=AttackSpec("sign_flip", s_b=1.0))
            scc = engine.run(net, prob, self.step, self.n_rounds, self.seed,
                             agg="scc", tau=ORACLE_TAU, **kwargs)
            mean = engine.run(net, prob, self.step, self.n_rounds, self.seed,
                              agg="mean", **kwargs)
        except Exception:
            return _raised(self.runs)
        end = time.perf_counter()

        tag = f"seed {self.seed}"
        failed, problems = 0, []
        for label, log in (("scc", scc), ("mean", mean)):
            found = []
            if log.status != "completed":
                found.append(f"{tag} {label}: status {log.status}")
            if log.f_bar[-1] < f_star - 1e-9 * max(1.0, f_star):
                found.append(f"{tag} {label}: f_bar {log.f_bar[-1]!r} below f* {f_star!r}")
            failed += bool(found)
            problems += found
        dist = {
            label: float(np.linalg.norm(log.final_x[rel].mean(axis=0) - x_star))
            for label, log in (("scc", scc), ("mean", mean))
        }
        if not dist["scc"] < dist["mean"]:
            problems.append(f"{tag}: SCC ends {dist['scc']:.3g} from x*, mean {dist['mean']:.3g}")
        problems += self._check_landscape(probes, sigma_sq, zeta_sq, a, c, tag)
        return Unit(
            wall_s=end - start,
            setup_s=ready - start,
            round_s=end - ready,
            rounds=scc.rounds_completed + mean.rounds_completed,
            attempted=self.runs,
            failed=failed,
            problems=problems,
        )

    @staticmethod
    def _check_landscape(probes, sigma_sq, zeta_sq, a, c, tag):
        # a sampled gradient minus the expected one is (u - 1) a (x - c), so
        # sigma^2 = u_std^2 max a^2 |x - c|^2; each Monte-Carlo estimate is
        # that times a chi-square mean of relative spread sqrt(2 / n)
        grads = [a[:, None] * (p - c) for p in probes]
        sigma_cf = VEC_U_STD**2 * max(float(np.max(np.sum(g * g, axis=1))) for g in grads)
        zeta_cf = max(
            float(np.max(np.sum((g - g.mean(axis=0)) ** 2, axis=1))) for g in grads
        )
        out = []
        tol = 6.0 * math.sqrt(2.0 / VEC_SAMPLES)
        if abs(sigma_sq / sigma_cf - 1.0) > tol:
            out.append(f"{tag}: sigma^2 {sigma_sq!r} vs closed form {sigma_cf!r}")
        if abs(zeta_sq - zeta_cf) > 1e-12 * zeta_cf:
            out.append(f"{tag}: zeta^2 {zeta_sq!r} vs closed form {zeta_cf!r}")
        return out


WORKLOADS = {w.name: w for w in (ZooDense100, Sparse1000, Vec10Custom)}
