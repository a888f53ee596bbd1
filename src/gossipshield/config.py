"""Config-file schema: parse, validate, and assemble whole experiments.

The file is YAML with fixed sections. Each section has one spec, a table
that maps each of its keys to a reader and a default; `_fields` reads a
section by its spec, and a few lines of code state the rules that span
keys. Numbers are read by the readers of errors.py, the ones the
library's entry points call. Unknown keys anywhere are an error, so
typos fail loudly instead of silently running defaults. A section's
result is its normalized form, a canonical primitive dict: the runtime
objects are built from it, and its JSON hash stamps all artifacts,
making re-runs verifiable. A new key is one spec entry.

YAML reads `1e-6` as a number here, as it reads `1.0e-6`. `null` stands
for an absent key under problem.family_of, attack.victim, privacy.local
and privacy.global, and is an error everywhere else.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import re
from collections.abc import Hashable
from pathlib import Path

import yaml

from .aggregation import ORACLE_KINDS, TauSpec
from .attacks import ATTACK_KINDS, AttackSpec
from .bounds import validate_schedule
from .errors import ConfigError, count, finite, nonnegative, number, positive, real
from .objectives import N_FAMILIES, GlobalProblem, benchmark_problem
from .privacy import DpBudget, required_variance_local, sensitivity_default
from .schedules import ConstantSchedule, DecayingSchedule, StepSizeSchedule
from .topology import (
    Network,
    TheoryConstants,
    build_network,
    rho_upper_bound,
    theory_constants,
)

__all__ = ["Experiment", "load_config", "build_experiment", "config_hash"]

# spec defaults: the key must be given, or is left out when absent
_REQUIRED = object()
_OMIT = object()


def _fields(section: dict, path: str, spec: dict) -> dict:
    """The normalized form of one section, read by its spec.

    spec maps each allowed key to (reader, default). The reader takes the
    value and the key's dotted path, checks the value and returns its
    normalized form, or _OMIT to leave the key out. An absent key takes
    its default through the same reader, unless the default is _REQUIRED
    (an error) or _OMIT. The path of the whole config is "".
    """
    where = path or "config"
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping of keys, got {section!r}")
    unknown = sorted(set(section) - set(spec), key=str)  # YAML keys may be numbers
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(spec)}")
    out = {}
    for key, (read, default) in spec.items():
        at = f"{path}.{key}" if path else key
        value = section.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{at}: missing required key")
        if value is not _OMIT:
            value = read(value, at)
        if value is not _OMIT:
            out[key] = value
    return out


def _section(spec: dict):
    return lambda value, path: _fields(value, path, spec)


def _or_null(read):
    """read, except that null stands for an absent key."""
    return lambda value, path: _OMIT if value is None else read(value, path)


def _raw(value, path: str):
    """The value as given: the constructor it reaches checks a kind."""
    return value


def _either(spec: dict, default: str, given: str):
    """A section read by spec in which the key `given` replaces the key
    `default`, which may then not be set. Configs without `given` keep the
    normalized form, and so the hash, they always had."""

    def read(section, path: str) -> dict:
        norm = _fields(section, path, spec)
        if given in norm:
            if default in section:
                raise ConfigError(f"{path}: give either {default} or {given}")
            del norm[default]
        return norm

    return read


def _choice(*options):
    def read(value, path: str):
        if value not in options:
            raise ConfigError(f"{path}: expected {'|'.join(options)}, got {value!r}")
        return value

    return read


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected a boolean")
    return value


# bounded integer readers; agent counts and ids take any integer, and
# the network refuses those out of its range
_agent = functools.partial(count, low=-math.inf)
_positive_int = functools.partial(count, low=1)
_family = functools.partial(count, low=1, high=N_FAMILIES)


def _int_list(value, path: str, read=_agent) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of integers, got {value!r}")
    return [read(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _agent_ids(value, path: str) -> list:
    """Sorted distinct ids, the set build_network flags."""
    return sorted(set(_int_list(value, path)))


def _nonempty_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list")
    return value


def _seed_list(value, path: str) -> list:
    seeds = [count(s, f"{path}[{i}]") for i, s in enumerate(_nonempty_list(value, path))]
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{path}: duplicate seeds")
    return seeds


_SCHEDULE = {
    "kind": (_choice("decaying", "constant"), _REQUIRED),
    "scale": (positive, _REQUIRED),
    "k0": (_positive_int, _OMIT),
}


def _schedule(section: dict, path: str) -> dict:
    norm = _fields(section, path, _SCHEDULE)
    if norm["kind"] == "constant" and "k0" in norm:
        raise ConfigError(f"{path}: constant schedules take no k0")
    if norm["kind"] == "decaying" and "k0" not in norm:
        raise ConfigError(f"{path}.k0: missing required key")
    return norm


def _scalar_or_schedule(read):
    """A schedule mapping, or a number read by read."""
    return lambda value, path: (_schedule if isinstance(value, dict) else read)(value, path)


def _runtime(value):
    """The runtime value of a normalized scalar or schedule."""
    if not isinstance(value, dict):
        return value
    if value["kind"] == "decaying":
        return DecayingSchedule(scale=value["scale"], k0=value["k0"])
    return ConstantSchedule(scale=value["scale"])


_TOPOLOGY = {
    "kind": (_raw, _REQUIRED),
    "n_agents": (_agent, _REQUIRED),
    "byz_fraction": (number, 0.0),  # the network refuses NaN and inf, as TopologyError
    "byzantine_ids": (_agent_ids, _OMIT),
    "seed": (count, 0),
    "edge_p": (number, 0.3),
}

_PROBLEM = {
    "kind": (_choice("benchmark"), "benchmark"),
    "u_std": (nonnegative, 0.1),
    "v_std": (nonnegative, 0.1),
    "batch": (_positive_int, 1),
    "family_of": (_or_null(functools.partial(_int_list, read=_family)), _OMIT),
    # landscape constants that override the problem's own estimates
    "f_star": (finite, _OMIT),
    "pl_constant": (nonnegative, _OMIT),
    "smoothness": (nonnegative, _OMIT),
    "sigma_sq": (nonnegative, _OMIT),
    "zeta_sq": (nonnegative, _OMIT),
}

# a per-gradient (epsilon, delta) budget under a gradient bound, the one
# spec of noise.from_local_dp and privacy.local
_BUDGET = {
    "epsilon": (finite, _REQUIRED),
    "delta": (finite, _REQUIRED),
    "grad_bound": (nonnegative, _REQUIRED),
}

_NOISE = {
    "variance": (nonnegative, 0.0),
    "from_local_dp": (_section(_BUDGET), _OMIT),
}

_ATTACK = {
    "kind": (_choice(*ATTACK_KINDS), "none"),
    # the magnitudes may be infinite: a Byzantine agent may send +inf
    "s_b": (real, _OMIT),
    "d_r": (real, _OMIT),
    "p_mult": (_scalar_or_schedule(real), _OMIT),
    "p_add": (_scalar_or_schedule(real), _OMIT),
    "victim": (_or_null(_agent), _OMIT),
    "alie_local": (_as_bool, _OMIT),
}

_TAU = {
    "kind": (_raw, "manual"),
    "value": (_scalar_or_schedule(positive), _REQUIRED),
}

_AGGREGATION = {
    "kind": (_choice("scc", "mean"), "scc"),
    "tau": (_section(_TAU), _OMIT),
    "allow_oracle": (_as_bool, False),
}


def _aggregation(section: dict, path: str) -> dict:
    norm = _fields(section, path, _AGGREGATION)
    if norm["kind"] == "mean":
        if "tau" in norm:
            raise ConfigError(f"{path}: the averaging baseline takes no tau")
        return norm
    if "tau" not in norm:
        raise ConfigError(f"{path}.tau: missing required key")
    tau_kind = norm["tau"]["kind"]
    if tau_kind in ORACLE_KINDS and not norm["allow_oracle"]:
        raise ConfigError(
            f"{path}.tau.kind {tau_kind!r} reads ground-truth labels; "
            "set aggregation.allow_oracle: true to accept that"
        )
    return norm


_RUN = {
    "horizon": (count, _REQUIRED),
    "seeds": (_seed_list, _REQUIRED),
    "theory_mode": (_as_bool, False),
    "bound_column": (_as_bool, False),
}


def _axis_key(value, path: str) -> str:
    """A dotted key whose first part names a config section."""
    if not isinstance(value, str) or value.split(".")[0] not in _CONFIG:
        raise ConfigError(f"{path}: expected a dotted key into a config section, got {value!r}")
    return value


_AXIS = {
    "key": (_axis_key, _REQUIRED),
    "values": (_nonempty_list, _REQUIRED),
}


def _axes(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    return [_fields(axis, f"{path}[{i}]", _AXIS) for i, axis in enumerate(value)]


def _sweep(section: dict, path: str):
    norm = _fields(section, path, {"axes": (_axes, [])})
    return norm if norm["axes"] else _OMIT


# the inputs of the whole-run privacy accounting, less the run's horizon
_GLOBAL_BUDGET = {
    "delta": (finite, _REQUIRED),
    "grad_bound": (nonnegative, _REQUIRED),
    "total_samples": (_positive_int, _REQUIRED),
    "batch_size": (_positive_int, _REQUIRED),
    "renyi_order": (finite, _OMIT),
}

_PRIVACY = {
    "local": (_or_null(_section(_BUDGET)), _OMIT),
    "global": (_or_null(_section(_GLOBAL_BUDGET)), _OMIT),
}


def _privacy(section: dict, path: str):
    return _fields(section, path, _PRIVACY) or _OMIT

_PRIVACY_TRACE = {
    "swap_agent": (_agent, _REQUIRED),
    "replacement_family": (_family, _REQUIRED),
}

# the sections of a config; empty sweep and privacy sections are left out
_CONFIG = {
    "topology": (_either(_TOPOLOGY, "byz_fraction", "byzantine_ids"), _REQUIRED),
    "problem": (_section(_PROBLEM), {}),
    "schedule": (_schedule, _REQUIRED),
    "noise": (_either(_NOISE, "variance", "from_local_dp"), {}),
    "attack": (_section(_ATTACK), {}),
    "aggregation": (_aggregation, {}),
    "run": (_section(_RUN), _REQUIRED),
    "sweep": (_sweep, _OMIT),
    "privacy": (_privacy, _OMIT),
    "privacy_trace": (_section(_PRIVACY_TRACE), _OMIT),
}


@dataclasses.dataclass
class Experiment:
    """A fully-assembled experiment plus its canonical config identity."""

    normalized: dict
    config_hash: str
    net: Network
    prob: GlobalProblem
    sched: StepSizeSchedule
    noise: float
    attack: AttackSpec
    agg: str
    tau: TauSpec | None
    horizon: int
    seeds: list
    consts: TheoryConstants | None
    sweep_axes: list
    budget: DpBudget | None
    local_dp: dict | None
    trace_swap: tuple | None
    noise_derived: bool


def config_hash(normalized: dict) -> str:
    return hashlib.sha256(
        json.dumps(normalized, sort_keys=True).encode()
    ).hexdigest()


# YAML 1.1 floats need a decimal point, so it reads 1e-6 as a string
_EXPONENT_FLOAT = re.compile(r"^[-+]?[0-9][0-9_]*(\.[0-9_]*)?[eE][-+]?[0-9]+$")


def _construct_mapping(self, node, deep=False):
    """SafeConstructor's mapping, except that a key given twice is an
    error: YAML would keep the last value without a word. Merge keys
    (<<) are SafeConstructor's to resolve."""
    seen = set()
    for key_node, _ in node.value:
        if key_node.tag == "tag:yaml.org,2002:merge":
            continue
        key = self.construct_object(key_node, deep=deep)
        if not isinstance(key, Hashable):
            break  # SafeConstructor refuses it below
        if key in seen:
            raise yaml.constructor.ConstructorError(
                "while constructing a mapping", node.start_mark,
                f"found duplicate key {key!r}", key_node.start_mark,
            )
        seen.add(key)
    return yaml.constructor.SafeConstructor.construct_mapping(self, node, deep)


@functools.lru_cache(maxsize=2)
def _loader(base):
    """base with one more implicit resolver, which reads 1e-6 as a float,
    and mappings that refuse a repeated key."""
    loader = type("Loader", (base,), {"construct_mapping": _construct_mapping})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+0123456789")
    )
    return loader


def _parse_yaml(text: str, where: str):
    """yaml.safe_load's result, parsed by libyaml where PyYAML has it and
    with exponents read as numbers; a YAML error becomes a ConfigError
    that keeps its line and column."""
    loader = _loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{where}: invalid YAML: {exc}") from exc


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config: {exc}") from exc
    data = _parse_yaml(text, str(path))
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping of sections")
    return data


def set_path(cfg: dict, key: str, value) -> None:
    """Set the dotted key of cfg to value, adding the sections on its way."""
    *parents, last = key.split(".")
    node = cfg
    for p in parents:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {key!r} crosses a non-section value")
    node[last] = value


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply dotted key=value strings; values parse as YAML scalars."""
    out = json.loads(json.dumps(cfg))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        set_path(out, key, _parse_yaml(raw, f"override {item!r}"))
    return out


def _shared(built: dict | None, key: list, make):
    """make(), built once per key within one dict of built objects.

    A sweep passes one dict to the builds of all its cells, so cells whose
    constructor arguments agree share one network, problem and set of
    theory constants; the key is the arguments' JSON, which tells 1 from
    1.0 and true from 1 as the parsers do. Without a dict, every call
    builds.
    """
    if built is None:
        return make()
    key = json.dumps(key, sort_keys=True, default=repr)
    if key not in built:
        built[key] = make()
    return built[key]


def build_experiment(cfg: dict, built: dict | None = None) -> Experiment:
    """Validate the whole config and assemble every runtime object.

    built, when given, is a dict shared by the builds of one sweep: the
    network, problem and theory constants are taken from it wherever an
    earlier build used the same arguments, and added to it otherwise.
    Every section is still parsed and checked.
    """
    normalized = _fields(cfg, "", _CONFIG)
    topo = normalized["topology"]
    net = _shared(built, ["network", topo], lambda: build_network(**topo))
    problem = normalized["problem"]
    prob_key = ["problem", topo, problem]
    prob = _shared(built, prob_key, lambda: benchmark_problem(
        byzantine=net.byzantine,
        n_agents=net.n_agents,
        **{k: v for k, v in problem.items() if k != "kind"},
    ))
    sched = _runtime(normalized["schedule"])
    local = normalized["noise"].get("from_local_dp")
    if local is None:
        variance = normalized["noise"]["variance"]
    else:
        variance = required_variance_local(
            local["epsilon"], local["delta"], sensitivity_default(local["grad_bound"]), sched
        )
    attack = AttackSpec(**{k: _runtime(v) for k, v in normalized["attack"].items()})
    agg = normalized["aggregation"]
    tau = None
    if "tau" in agg:
        tau = TauSpec(**{k: _runtime(v) for k, v in agg["tau"].items()})
    run = normalized["run"]
    sweep_axes = [
        (axis["key"], axis["values"]) for axis in normalized.get("sweep", {}).get("axes", [])
    ]
    privacy = normalized.get("privacy", {})
    if "local" in privacy:
        # the summary prints its variance: refused here, not after the rounds
        dp = privacy["local"]
        required_variance_local(
            dp["epsilon"], dp["delta"], sensitivity_default(dp["grad_bound"]), sched
        )
    budget = None
    if "global" in privacy:
        budget = DpBudget(horizon=run["horizon"], **privacy["global"])

    trace_swap = None
    if "privacy_trace" in normalized:
        trace = normalized["privacy_trace"]
        if trace["swap_agent"] not in net.reliable:
            raise ConfigError(
                "privacy_trace.swap_agent: the observed agent must be reliable"
            )
        trace_swap = (trace["swap_agent"], trace["replacement_family"])

    consts = None
    if run["theory_mode"] or run["bound_column"]:
        consts = _shared(built, ["consts", prob_key, variance], lambda: theory_constants(
            net,
            rho_upper_bound(net),
            prob.smoothness,
            prob.pl_constant,
            prob.sigma_sq,
            prob.zeta_sq,
            variance,
            prob.dim,
        ))
        if run["theory_mode"] and not sweep_axes:
            # a sweep's base config is only a template; its cells are checked
            validate_schedule(sched, consts, strict=True)
    if not sweep_axes:
        # so a sweep refuses a cell whose fixed victim is Byzantine before
        # any cell runs
        attack.check_victim(net.reliable)

    return Experiment(
        normalized=normalized,
        config_hash=config_hash(normalized),
        net=net,
        prob=prob,
        sched=sched,
        noise=variance,
        attack=attack,
        agg=agg["kind"],
        tau=tau,
        horizon=run["horizon"],
        seeds=run["seeds"],
        consts=consts,
        sweep_axes=sweep_axes,
        budget=budget,
        local_dp=privacy.get("local"),
        trace_swap=trace_swap,
        noise_derived=local is not None,
    )
