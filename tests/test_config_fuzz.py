"""Fuzz whole configs from the config spec tables.

Every key the tables list takes either a valid value or one of a fixed
set of bad ones, and every drawn config must end in one of three ways:
refused with ConfigError, TopologyError or RegimeError; run to
"completed" with every recorded float finite; or run to "diverged" with
the round of the divergence recorded. It must never raise anything else,
and summary.txt must never hold a NaN. The examples are small (10 agents,
at most 3 rounds) and derandomized, so the suite stays quick and its
output byte-stable.
"""

import csv
import json
import math
import re
import shutil
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gossipshield import BrokenOptimumError, ConfigError, RegimeError, TopologyError, config
from gossipshield.cli import run_experiment

# the spec of each section and nested table, by the dotted path it reads
_SPECS = {
    "topology": config._TOPOLOGY,
    "problem": config._PROBLEM,
    "schedule": config._SCHEDULE,
    "noise": config._NOISE,
    "noise.from_local_dp": config._BUDGET,
    "attack": config._ATTACK,
    "aggregation": config._AGGREGATION,
    "aggregation.tau": config._TAU,
    "run": config._RUN,
    "privacy": config._PRIVACY,
    "privacy.local": config._BUDGET,
    "privacy.global": config._GLOBAL_BUDGET,
    "privacy_trace": config._PRIVACY_TRACE,
}
# a sweep runs many cells; the tests of test_config check its axes
_SKIPPED = {"sweep"}
_PATHS = sorted(f"{path}.{key}" for path, spec in _SPECS.items() for key in spec)

_BAD = [math.nan, math.inf, -math.inf, 0, -1, 1e300, "abc", None, [1.5]]

_LOCAL = {"epsilon": 0.9, "delta": 0.01, "grad_bound": 5.0}
_GLOBAL = {"delta": 0.01, "grad_bound": 5.0, "total_samples": 600, "batch_size": 32, "renyi_order": 2.0}


def _base(attack, aggregation, **sections):
    return dict({
        "topology": {"kind": "random", "n_agents": 10, "byz_fraction": 0.1, "seed": 3, "edge_p": 0.5},
        "problem": {"kind": "benchmark", "u_std": 0.1, "v_std": 0.1, "batch": 1},
        "schedule": {"kind": "decaying", "scale": 2.0, "k0": 10},
        "noise": {"variance": 1e-4},
        "attack": attack,
        "aggregation": aggregation,
        "run": {"horizon": 3, "seeds": [1, 2]},
        "privacy": {"local": dict(_LOCAL), "global": dict(_GLOBAL)},
        "privacy_trace": {"swap_agent": 3, "replacement_family": 7},
    }, **sections)


# valid configs that together set every key the tables list
_BASES = [
    _base({"kind": "sign_flip", "s_b": 1.0}, {"kind": "scc", "tau": {"kind": "manual", "value": 1.0}}),
    _base(
        {"kind": "perturbed_dup", "p_mult": 1.01, "p_add": 0.5, "victim": 3},
        {"kind": "scc", "allow_oracle": True, "tau": {"kind": "corollary1", "value": 1000.0}},
    ),
    _base(
        {"kind": "dissensus", "d_r": 1.0}, {"kind": "mean"},
        topology={"kind": "random", "n_agents": 10, "byzantine_ids": [0, 5], "seed": 3, "edge_p": 0.6},
        run={"horizon": 3, "seeds": [1]},
    ),
    _base(
        {"kind": "alie", "alie_local": True},
        {"kind": "scc", "allow_oracle": True, "tau": {"kind": "remark4", "value": 10.0}},
        schedule={"kind": "constant", "scale": 0.05},
    ),
    # no Byzantine agent, so the theory constants are in regime, and the
    # step is inside their caps (theta 0.008, k0 above 2/phi = 8.8)
    _base(
        {"kind": "none"}, {"kind": "scc", "tau": {"kind": "manual", "value": 5.0}},
        topology={"kind": "random", "n_agents": 10, "byz_fraction": 0.0, "seed": 0, "edge_p": 0.5},
        problem={
            "kind": "benchmark", "u_std": 0.1, "v_std": 0.1, "batch": 2, "family_of": list(range(1, 11)),
            "f_star": 0.1, "pl_constant": 0.0175, "smoothness": 4.1, "sigma_sq": 0.18, "zeta_sq": 16.4,
        },
        schedule={"kind": "decaying", "scale": 0.008, "k0": 10},
        noise={"from_local_dp": dict(_LOCAL)},
        run={"horizon": 2, "seeds": [4], "theory_mode": True, "bound_column": True},
    ),
]


def _has(cfg: dict, path: str) -> bool:
    """Whether cfg sets the dotted key, every section on its way a mapping."""
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    return True


def test_the_bases_set_every_key_the_tables_list():
    assert set(config._CONFIG) - _SKIPPED == {path for path in _SPECS if "." not in path}
    assert {path for path in _PATHS if any(_has(base, path) for base in _BASES)} == set(_PATHS)


@st.composite
def _configs(draw):
    """A base with up to two of its keys set to bad values; a key whose
    section an earlier edit replaced stays unset."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(_BASES))))
    paths = [path for path in _PATHS if _has(cfg, path)]
    for path in draw(st.lists(st.sampled_from(paths), max_size=2, unique=True)):
        if _has(cfg, path):
            *parents, last = path.split(".")
            node = cfg
            for part in parents:
                node = node[part]
            node[last] = draw(st.sampled_from(_BAD))
    return cfg


def _floats(path):
    """Every float cell of a run's CSV but the last round's D_tilde, which
    is NaN because no half-step follows the last round."""
    with open(path) as fh:
        header, *rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    assert math.isnan(float(rows[-1][header.index("D_tilde")]))
    rows[-1][header.index("D_tilde")] = ""
    return [float(cell) for row in rows for cell in row[1:] if cell]


@settings(
    max_examples=500, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cfg=_configs())
def test_fuzzed_configs_are_refused_or_run_cleanly(cfg, tmp_path):
    out = tmp_path / "run"
    shutil.rmtree(out, ignore_errors=True)
    try:
        with warnings.catch_warnings():
            # a warning is not a refusal: a schedule outside the theory
            # regime warns, and numpy warns as a diverging run overflows (an
            # infinite message, a huge step or std); the checks below catch
            # any NaN such a run would leave in its files
            warnings.simplefilter("ignore")
            result = run_experiment(cfg, out)
    except (ConfigError, TopologyError, RegimeError):
        assert not out.exists()
        return
    except BrokenOptimumError:
        # a given f_star above a value the run reaches is refused as soon
        # as the run reaches it, before any artifact is written
        assert "f_star" in cfg["problem"] and not out.exists()
        return
    summary = (out / "summary.txt").read_text()
    assert "nan" not in summary
    for seed, status in zip(cfg["run"]["seeds"], result["statuses"]):
        assert status in ("completed", "diverged")
        if status == "diverged":
            assert re.search(rf"seed={seed} status=diverged .* diverged_at=\d+\n", summary)
        else:
            assert all(math.isfinite(v) for v in _floats(out / f"run_seed{seed}.csv"))
