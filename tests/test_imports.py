"""A fresh interpreter loads only the kernels a run uses.

scipy.sparse costs a vector run about 12 MiB of resident memory and
multiprocessing about 2 MiB more, so each test runs its code in a new
process and reads which modules it left in sys.modules. ALIE loads
scipy.special on purpose, so the vector run is checked for scipy.sparse,
not for scipy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import gossipshield

SRC = Path(gossipshield.__file__).resolve().parents[1]


def _modules_after(code: str) -> set:
    """The names in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    script = textwrap.dedent(code) + "\nimport sys\nprint(*sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stdout.split())


def test_vector_runs_leave_scipy_sparse_unloaded():
    loaded = _modules_after(
        """
        import numpy as np
        import gossipshield as gs

        def bowl(i):
            c = np.full(10, float(i))
            return gs.LocalObjective(
                agent=i, family="bowl",
                expected_value=lambda x: float(np.sum((x - c) ** 2)),
                expected_gradient=lambda x: 2.0 * (x - c),
                sample_value=lambda x, u, v: u * float(np.sum((x - c) ** 2)) + v,
                sample_gradient=lambda x, rng: rng.normal(1.0, 0.1) * 2.0 * (x - c),
            )

        net = gs.build_network("random", 20, byz_fraction=0.2, seed=1, edge_p=0.5)
        prob = gs.custom_problem(
            [bowl(i) for i in range(20)], net.byzantine, dim=10,
            f_star=0.0, pl_constant=2.0, smoothness=2.0,
        )
        sched = gs.DecayingSchedule(scale=1.0, k0=10)
        flip = gs.AttackSpec("sign_flip")
        oracle = dict(agg="scc", tau=gs.TauSpec("corollary1", 1.0))
        # dissensus sums a statistic per receiver, as sign_flip does
        for attack, kw in (
            (flip, oracle),
            (flip, dict(agg="scc", tau=gs.TauSpec("remark4", 1.0))),
            (flip, dict(agg="mean")),
            (gs.AttackSpec("dissensus"), oracle),
            (gs.AttackSpec("perturbed_dup"), oracle),
        ):
            log = gs.run(net, prob, sched, 5, 3, noise=1e-4, attack=attack, **kw)
            assert log.status == "completed"
        """
    )
    assert "gossipshield.engine" in loaded
    assert "scipy.sparse" not in loaded


def test_cli_import_leaves_multiprocessing_unloaded():
    loaded = _modules_after("import gossipshield.cli")
    assert "gossipshield.cli" in loaded
    assert "multiprocessing" not in loaded


def test_scalar_run_loads_the_sparse_kernel():
    # guards the scalar fast path: its sums go through the CSR matrix
    loaded = _modules_after(
        """
        import gossipshield as gs

        net = gs.build_network("random", 20, byz_fraction=0.2, seed=1, edge_p=0.5)
        prob = gs.benchmark_problem(n_agents=20, byzantine=net.byzantine)
        log = gs.run(net, prob, gs.ConstantSchedule(0.01), 5, 3, agg="scc", tau=gs.TauSpec())
        assert log.status == "completed"
        """
    )
    assert "scipy.sparse" in loaded
