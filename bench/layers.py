"""Which library functions the traced run wraps, and the per-layer metrics
reduced from their spans.

Per-round layers count only spans whose parent is an ``engine.run`` span,
so they partition the round loop: ``engine.self_us`` is what is left of
it. A call nested inside another traced call (``consensus_error`` inside
``pre_agg_disagreement``, ``sample_gradient`` inside
``estimate_sigma_zeta``) belongs to its parent.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

import numpy as np

# metric stem -> "module:attribute path" targets; a layer whose targets are
# all gone is reported missing
ROUND_LAYERS = {
    "aggregation.scc_round": ["gossipshield.engine:scc_round"],
    "aggregation.tau_round": ["gossipshield.engine:tau_round"],
    "aggregation.mean_round": ["gossipshield.engine:mean_round"],
    "attacks.apply": ["gossipshield.attacks:AttackPlan.apply"],
    "objectives.agent_cores": ["gossipshield.objectives:GlobalProblem.agent_cores"],
    "objectives.f": ["gossipshield.objectives:GlobalProblem.f"],
    "objectives.sample_gradient": ["workloads:_quad_sample_gradient"],
    "privacy.mask_gradient": ["gossipshield.engine:mask_gradient"],
    "engine.consensus_error": ["gossipshield.engine:consensus_error"],
    "engine.pre_agg_disagreement": ["gossipshield.engine:pre_agg_disagreement"],
}
RUN_LAYER = {"engine.run": ["gossipshield.engine:run"]}
SETUP_LAYERS = {
    "topology.build_network": [
        "gossipshield.topology:build_network",
        "gossipshield.config:build_network",
    ],
    "topology.theory_constants": [
        "gossipshield.topology:rho_upper_bound",
        "gossipshield.topology:theory_constants",
        "gossipshield.config:theory_constants",
        "gossipshield.engine:theory_constants",
    ],
    "objectives.problem": [
        "gossipshield.objectives:benchmark_problem",
        "gossipshield.config:benchmark_problem",
        "gossipshield.objectives:custom_problem",
    ],
    "objectives.estimate_sigma_zeta": ["gossipshield.objectives:estimate_sigma_zeta"],
}
CLI_LAYERS = {
    "cli.run_experiment": ["gossipshield.cli:run_experiment"],
    "cli.build_experiment": ["gossipshield.cli:build_experiment"],
    "cli.run_ensemble": ["gossipshield.cli:run_ensemble"],
}
AGGREGATORS = ("aggregation.scc_round", "aggregation.mean_round")

# (name, unit) of every per-layer metric, in report order
METRICS = (
    [(f"{stem}_us", "us") for stem in ROUND_LAYERS]
    + [(f"{stem}_calls", "calls/round") for stem in ROUND_LAYERS]
    + [
        ("aggregation.dense_entries", "count"),
        ("aggregation.useful_entry_ratio", "ratio"),
        ("engine.self_us", "us"),
        ("engine.round_us", "us"),
    ]
    + [(f"{stem}_s", "s") for stem in SETUP_LAYERS]
    + [("cli.artifacts_s", "s")]
)


def _targets(specs):
    for spec in specs:
        module_name, path = spec.split(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name, None)
        if owner is not None:
            yield owner, attr


class _EntryCounter:
    """Message-matrix entries an aggregation call reads, and how many of
    them lie in a closed neighbourhood (nonzero mixing weight)."""

    def __init__(self):
        self._support = {}

    def __call__(self, args, counts):
        messages, weights = args[0], args[2]
        key = id(weights)
        if key not in self._support:
            # keep the array alive so its id is never reused for another
            self._support[key] = (weights, int(np.count_nonzero(weights)))
        per_pair = messages.size // (weights.shape[0] * weights.shape[1])
        counts["dense_entries"] += messages.size
        counts["useful_entries"] += self._support[key][1] * per_pair


def install(tracer) -> None:
    counter = _EntryCounter()
    for group in (ROUND_LAYERS, RUN_LAYER, SETUP_LAYERS, CLI_LAYERS):
        for name, specs in group.items():
            tracer.wrap(name, list(_targets(specs)), counter if name in AGGREGATORS else None)


def reduce(tracer, rounds: int) -> dict:
    """Per-layer metrics from the spans of one traced unit that ran
    `rounds` rounds."""
    spans = tracer.spans
    self_ns = tracer.self_times()
    incl = defaultdict(int)
    calls = defaultdict(int)
    run_self = 0
    artifacts = 0
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "engine.run":
            run_self += self_ns[i]
        elif name == "cli.run_experiment":
            artifacts += self_ns[i]
        if name in ROUND_LAYERS:
            if parent < 0 or spans[parent][0] != "engine.run":
                continue
        incl[name] += end - start
        calls[name] += 1

    per_round = 1e-3 / max(rounds, 1)
    values = {}
    for stem in ROUND_LAYERS:
        values[f"{stem}_us"] = incl[stem] * per_round
        values[f"{stem}_calls"] = calls[stem] / max(rounds, 1)
    dense = tracer.counts["dense_entries"]
    values["aggregation.dense_entries"] = dense / max(rounds, 1)
    values["aggregation.useful_entry_ratio"] = tracer.counts["useful_entries"] / dense if dense else 0.0
    values["engine.self_us"] = run_self * per_round
    values["engine.round_us"] = incl["engine.run"] * per_round
    for stem in SETUP_LAYERS:
        values[f"{stem}_s"] = incl[stem] * 1e-9
    values["cli.artifacts_s"] = artifacts * 1e-9
    return values
