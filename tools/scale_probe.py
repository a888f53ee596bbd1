"""Measure set-up, rounds/s, page faults and peak memory at 10^3-10^4 agents.

    python3 tools/scale_probe.py                  # this checkout's src/
    python3 tools/scale_probe.py --src OTHER/src  # another checkout
    python3 tools/scale_probe.py --agents 1000    # one row only

Each row is a ``random`` graph of n agents, 10% Byzantine, seed 1 and
``edge_p = 20/n`` (mean degree about 20), with the scalar benchmark
problem; the run is a unit sign flip against SCC with the ``corollary1``
radius, masking noise 1e-6 and the step 10.1886/(k+10). Every row runs
in a fresh child process, one row after another, so each row's peak
resident memory is its own. The child times the three set-up steps
(``build_network``; ``benchmark_problem``; ``rho_upper_bound`` plus
``theory_constants``, with scipy.sparse.linalg imported before the
clock starts), then makes a 5-round warm-up run and times a
200-round run from a fresh start. Standard output is one JSON object per
row: the directed edge count, the set-up split in seconds, rounds/s and
minor page faults per round of the timed run, and the child's peak RSS in
MiB. The probe checks nothing and claims nothing; a full run takes
about 6 s on a 2-core VM.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

AGENTS = (1000, 4000, 10_000)
WARMUP_ROUNDS = 5
TIMED_ROUNDS = 200
NOISE = 1e-6


def _row(gs, n: int) -> dict:
    # theory_constants imports this on first use; a one-time 0.3-0.4 s
    # import would swamp its split at 1000 agents
    import scipy.sparse.linalg  # noqa: F401

    t0 = time.perf_counter()
    net = gs.build_network("random", n, byz_fraction=0.1, seed=1, edge_p=20 / n)
    t1 = time.perf_counter()
    prob = gs.benchmark_problem(net.byzantine, n)
    t2 = time.perf_counter()
    gs.theory_constants(
        net, gs.rho_upper_bound(net), prob.smoothness, prob.pl_constant,
        prob.sigma_sq, prob.zeta_sq, NOISE, prob.dim,
    )
    t3 = time.perf_counter()
    sched = gs.DecayingSchedule(scale=10.1886, k0=10)
    kw = dict(
        noise=NOISE, attack=gs.AttackSpec("sign_flip", s_b=1.0), agg="scc",
        tau=gs.TauSpec("corollary1", 1000.0),
    )
    gs.run(net, prob, sched, WARMUP_ROUNDS, 1, **kw)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    log = gs.run(net, prob, sched, TIMED_ROUNDS, 1, **kw)
    elapsed = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "agents": n,
        "edges": len(net.recv),
        "network_s": round(t1 - t0, 4),
        "problem_s": round(t2 - t1, 4),
        "theory_constants_s": round(t3 - t2, 4),
        "rounds_per_s": round(TIMED_ROUNDS / elapsed, 1),
        "faults_per_round": round((usage.ru_minflt - faults) / TIMED_ROUNDS, 1),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "status": log.status,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the gossipshield package (default: this checkout's src/)",
    )
    parser.add_argument(
        "--agents", type=int, action="append", default=None,
        help="agent count of a row (repeatable; default: 1000, 4000 and 10000)",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    agents = args.agents or AGENTS
    if args.child:
        sys.path.insert(0, str(args.src.resolve()))
        import gossipshield as gs

        print(json.dumps(_row(gs, agents[0])))
        return 0
    for n in agents:
        cmd = [sys.executable, __file__, "--child", "--src", str(args.src), "--agents", str(n)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"row n={n} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print(proc.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
