"""Config-file schema: parse, validate, and assemble whole experiments.

The file is YAML with fixed sections; unknown keys anywhere are an error,
so typos fail loudly instead of silently running defaults. Every parsed
config normalizes to a canonical primitive dict whose JSON hash stamps
all artifacts, making re-runs verifiable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import yaml

from .attacks import ATTACK_KINDS, AttackSpec
from .bounds import validate_schedule
from .engine import TauSpec
from .errors import ConfigError
from .objectives import GlobalProblem, benchmark_problem
from .privacy import (
    DpBudget,
    NoiseSpec,
    required_variance_local,
    sensitivity_default,
)
from .schedules import ConstantSchedule, DecayingSchedule, StepSizeSchedule
from .topology import (
    Network,
    TheoryConstants,
    build_network,
    rho_upper_bound,
    theory_constants,
)

__all__ = ["Experiment", "load_config", "build_experiment", "config_hash"]

_SECTIONS = {
    "topology",
    "problem",
    "schedule",
    "noise",
    "attack",
    "aggregation",
    "run",
    "sweep",
    "privacy",
}


def _check_keys(section: dict, allowed, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a mapping of keys, got {section!r}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed: {sorted(allowed)}")


def _need(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return section[key]


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _as_seed(value, path: str) -> int:
    seed = _as_int(value, path)
    if seed < 0:
        raise ConfigError(f"{path}: seeds must be nonnegative, got {seed}")
    return seed


def _schedule_from(section: dict, path: str) -> StepSizeSchedule:
    _check_keys(section, {"kind", "scale", "k0"}, path)
    kind = _need(section, "kind", path)
    scale = _as_float(_need(section, "scale", path), f"{path}.scale")
    if kind == "decaying":
        k0 = _as_int(_need(section, "k0", path), f"{path}.k0")
        return DecayingSchedule(scale=scale, k0=k0)
    if kind == "constant":
        if "k0" in section:
            raise ConfigError(f"{path}: constant schedules take no k0")
        return ConstantSchedule(scale=scale)
    raise ConfigError(f"{path}.kind: expected decaying|constant, got {kind!r}")


def _schedule_dict(sched: StepSizeSchedule) -> dict:
    out = {"kind": sched.kind, "scale": sched.scale}
    if isinstance(sched, DecayingSchedule):
        out["k0"] = sched.k0
    return out


def _scalar_or_schedule(value, path: str):
    if isinstance(value, dict):
        return _schedule_from(value, path)
    return _as_float(value, path)


@dataclasses.dataclass
class Experiment:
    """A fully-assembled experiment plus its canonical config identity."""

    normalized: dict
    config_hash: str
    net: Network
    prob: GlobalProblem
    sched: StepSizeSchedule
    noise: NoiseSpec
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


def _parse_yaml(text: str, where: str):
    """yaml.safe_load's result, parsed by libyaml where PyYAML has it;
    a YAML error becomes a ConfigError that keeps its line and column."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
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


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply dotted key=value strings; values parse as YAML scalars."""
    out = json.loads(json.dumps(cfg))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        parts = key.split(".")
        node = out
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} crosses a non-section value")
        node[parts[-1]] = _parse_yaml(raw, f"override {item!r}")
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


def _parse_topology(section: dict, built: dict | None):
    path = "topology"
    _check_keys(
        section,
        {"kind", "n_agents", "byz_fraction", "byzantine_ids", "seed", "edge_p"},
        path,
    )
    kind = _need(section, "kind", path)
    n = _as_int(_need(section, "n_agents", path), f"{path}.n_agents")
    frac = _as_float(section.get("byz_fraction", 0.0), f"{path}.byz_fraction")
    seed = _as_seed(section.get("seed", 0), f"{path}.seed")
    edge_p = _as_float(section.get("edge_p", 0.3), f"{path}.edge_p")
    ids = None
    if "byzantine_ids" in section:
        if "byz_fraction" in section:
            raise ConfigError(f"{path}: give either byz_fraction or byzantine_ids")
        raw = section["byzantine_ids"]
        if not isinstance(raw, list):
            raise ConfigError(f"{path}.byzantine_ids: expected a list of agent ids")
        ids = [_as_int(b, f"{path}.byzantine_ids") for b in raw]
    key = ["network", kind, n, frac, seed, edge_p, ids]
    net = _shared(built, key, lambda: build_network(
        kind, n, byz_fraction=frac, seed=seed, edge_p=edge_p, byzantine_ids=ids
    ))
    # explicit ids replace the fraction; configs without them keep the
    # normalized form, and so the hash, they always had
    norm = {"kind": kind, "n_agents": n}
    if ids is None:
        norm["byz_fraction"] = frac
    else:
        norm["byzantine_ids"] = list(net.byzantine)
    norm.update(seed=seed, edge_p=edge_p)
    return net, norm, key


def _parse_problem(section: dict, net: Network, net_key: list, built: dict | None):
    path = "problem"
    allowed = {
        "kind",
        "u_std",
        "v_std",
        "batch",
        "family_of",
        "f_star",
        "pl_constant",
        "smoothness",
        "sigma_sq",
        "zeta_sq",
    }
    _check_keys(section, allowed, path)
    kind = section.get("kind", "benchmark")
    if kind != "benchmark":
        raise ConfigError(f"{path}.kind: only 'benchmark' runs from configs")
    u_std = _as_float(section.get("u_std", 0.1), f"{path}.u_std")
    v_std = _as_float(section.get("v_std", 0.1), f"{path}.v_std")
    batch = _as_int(section.get("batch", 1), f"{path}.batch")
    family_of = section.get("family_of")
    if family_of is not None:
        if not isinstance(family_of, list):
            raise ConfigError(f"{path}.family_of: expected a list of integers, got {family_of!r}")
        family_of = [_as_int(f, f"{path}.family_of[{i}]") for i, f in enumerate(family_of)]
    overrides = {}
    for key in ("f_star", "pl_constant", "smoothness", "sigma_sq", "zeta_sq"):
        if key in section:
            overrides[key] = _as_float(section[key], f"{path}.{key}")
    key = ["problem", net_key, u_std, v_std, batch, family_of, overrides]
    prob = _shared(built, key, lambda: benchmark_problem(
        byzantine=net.byzantine,
        n_agents=net.n_agents,
        u_std=u_std,
        v_std=v_std,
        batch=batch,
        family_of=family_of,
        **overrides,
    ))
    norm = {"kind": kind, "u_std": u_std, "v_std": v_std, "batch": batch}
    if family_of is not None:
        norm["family_of"] = family_of
    norm.update(overrides)
    return prob, norm, key


def _parse_noise(section: dict, sched: StepSizeSchedule):
    path = "noise"
    _check_keys(section, {"variance", "from_local_dp"}, path)
    if "from_local_dp" in section:
        if "variance" in section:
            raise ConfigError(f"{path}: give either variance or from_local_dp")
        sub = section["from_local_dp"]
        _check_keys(sub, {"epsilon", "delta", "grad_bound"}, f"{path}.from_local_dp")
        eps = _as_float(_need(sub, "epsilon", path), f"{path}.epsilon")
        delta = _as_float(_need(sub, "delta", path), f"{path}.delta")
        bound = _as_float(_need(sub, "grad_bound", path), f"{path}.grad_bound")
        variance = required_variance_local(
            eps, delta, sensitivity_default(bound), sched
        )
        norm = {
            "from_local_dp": {"epsilon": eps, "delta": delta, "grad_bound": bound}
        }
        return variance, True, norm
    variance = _as_float(section.get("variance", 0.0), f"{path}.variance")
    if not variance >= 0:  # NaN fails too
        raise ConfigError(f"{path}.variance: must be nonnegative, got {variance}")
    return variance, False, {"variance": variance}


def _parse_attack(section: dict):
    path = "attack"
    allowed = {"kind", "s_b", "d_r", "p_mult", "p_add", "victim", "alie_local"}
    _check_keys(section, allowed, path)
    kind = section.get("kind", "none")
    if kind not in ATTACK_KINDS:
        raise ConfigError(f"{path}.kind: expected one of {ATTACK_KINDS}, got {kind!r}")
    kwargs = {}
    norm = {"kind": kind}
    for key in ("s_b", "d_r"):
        if key in section:
            kwargs[key] = _as_float(section[key], f"{path}.{key}")
            norm[key] = kwargs[key]
    for key in ("p_mult", "p_add"):
        if key in section:
            kwargs[key] = _scalar_or_schedule(section[key], f"{path}.{key}")
            norm[key] = (
                _schedule_dict(kwargs[key])
                if isinstance(kwargs[key], (DecayingSchedule, ConstantSchedule))
                else kwargs[key]
            )
    if section.get("victim") is not None:
        kwargs["victim"] = _as_int(section["victim"], f"{path}.victim")
        norm["victim"] = kwargs["victim"]
    if "alie_local" in section:
        if not isinstance(section["alie_local"], bool):
            raise ConfigError(f"{path}.alie_local: expected a boolean")
        kwargs["alie_local"] = section["alie_local"]
        norm["alie_local"] = kwargs["alie_local"]
    return AttackSpec(kind=kind, **kwargs), norm


def _parse_aggregation(section: dict):
    path = "aggregation"
    _check_keys(section, {"kind", "tau", "allow_oracle"}, path)
    kind = section.get("kind", "scc")
    if kind not in ("scc", "mean"):
        raise ConfigError(f"{path}.kind: expected scc|mean, got {kind!r}")
    allow_oracle = section.get("allow_oracle", False)
    if not isinstance(allow_oracle, bool):
        raise ConfigError(f"{path}.allow_oracle: expected a boolean")
    norm = {"kind": kind, "allow_oracle": allow_oracle}
    if kind == "mean":
        if "tau" in section:
            raise ConfigError(f"{path}: the averaging baseline takes no tau")
        return kind, None, norm
    sub = _need(section, "tau", path)
    _check_keys(sub, {"kind", "value"}, f"{path}.tau")
    tau_kind = sub.get("kind", "manual")
    value = _scalar_or_schedule(_need(sub, "value", f"{path}.tau"), f"{path}.tau.value")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}.tau.value: expected a finite radius, got {value!r}")
    if tau_kind in ("corollary1", "remark4") and not allow_oracle:
        raise ConfigError(
            f"{path}.tau.kind {tau_kind!r} reads ground-truth labels; "
            "set aggregation.allow_oracle: true to accept that"
        )
    tau = TauSpec(kind=tau_kind, value=value)
    norm["tau"] = {
        "kind": tau_kind,
        "value": _schedule_dict(value)
        if isinstance(value, (DecayingSchedule, ConstantSchedule))
        else value,
    }
    return kind, tau, norm


def _parse_run(section: dict):
    path = "run"
    allowed = {"horizon", "seeds", "theory_mode", "bound_column"}
    _check_keys(section, allowed, path)
    horizon = _as_int(_need(section, "horizon", path), f"{path}.horizon")
    seeds = _need(section, "seeds", path)
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"{path}.seeds: expected a nonempty list")
    seeds = [_as_seed(s, f"{path}.seeds") for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{path}.seeds: duplicate seeds")
    theory_mode = section.get("theory_mode", False)
    bound_column = section.get("bound_column", False)
    for name, val in (("theory_mode", theory_mode), ("bound_column", bound_column)):
        if not isinstance(val, bool):
            raise ConfigError(f"{path}.{name}: expected a boolean")
    norm = {
        "horizon": horizon,
        "seeds": seeds,
        "theory_mode": theory_mode,
        "bound_column": bound_column,
    }
    return horizon, seeds, theory_mode, bound_column, norm


def _parse_sweep(section: dict):
    path = "sweep"
    _check_keys(section, {"axes"}, path)
    axes = section.get("axes", [])
    if not isinstance(axes, list):
        raise ConfigError(f"{path}.axes: expected a list")
    parsed = []
    norm = []
    for idx, axis in enumerate(axes):
        apath = f"{path}.axes[{idx}]"
        if not isinstance(axis, dict):
            raise ConfigError(f"{apath}: expected a mapping with key and values")
        _check_keys(axis, {"key", "values"}, apath)
        key = _need(axis, "key", apath)
        values = _need(axis, "values", apath)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{apath}.values: expected a nonempty list")
        parsed.append((key, values))
        norm.append({"key": key, "values": values})
    return parsed, norm


def _parse_privacy(section: dict, horizon: int):
    path = "privacy"
    _check_keys(section, {"local", "global"}, path)
    local = section.get("local")
    local_norm = None
    if local is not None:
        _check_keys(local, {"epsilon", "delta", "grad_bound"}, f"{path}.local")
        local_norm = {
            "epsilon": _as_float(_need(local, "epsilon", path), f"{path}.local.epsilon"),
            "delta": _as_float(_need(local, "delta", path), f"{path}.local.delta"),
            "grad_bound": _as_float(
                _need(local, "grad_bound", path), f"{path}.local.grad_bound"
            ),
        }
    budget = None
    global_norm = None
    gsec = section.get("global")
    if gsec is not None:
        allowed = {"delta", "grad_bound", "total_samples", "batch_size", "renyi_order"}
        _check_keys(gsec, allowed, f"{path}.global")
        budget = DpBudget(
            delta=_as_float(_need(gsec, "delta", path), f"{path}.global.delta"),
            grad_bound=_as_float(
                _need(gsec, "grad_bound", path), f"{path}.global.grad_bound"
            ),
            total_samples=_as_int(
                _need(gsec, "total_samples", path), f"{path}.global.total_samples"
            ),
            batch_size=_as_int(
                _need(gsec, "batch_size", path), f"{path}.global.batch_size"
            ),
            horizon=horizon,
            renyi_order=(
                _as_float(gsec["renyi_order"], f"{path}.global.renyi_order")
                if "renyi_order" in gsec
                else None
            ),
        )
        global_norm = {
            "delta": budget.delta,
            "grad_bound": budget.grad_bound,
            "total_samples": budget.total_samples,
            "batch_size": budget.batch_size,
        }
        if budget.renyi_order is not None:
            global_norm["renyi_order"] = budget.renyi_order
    norm = {}
    if local_norm is not None:
        norm["local"] = local_norm
    if global_norm is not None:
        norm["global"] = global_norm
    return local_norm, budget, norm


def build_experiment(cfg: dict, built: dict | None = None) -> Experiment:
    """Validate the whole config and assemble every runtime object.

    built, when given, is a dict shared by the builds of one sweep: the
    network, problem and theory constants are taken from it wherever an
    earlier build used the same arguments, and added to it otherwise.
    Every section is still parsed and checked.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping of sections")
    _check_keys(cfg, _SECTIONS | {"privacy_trace"}, "config")
    for required in ("topology", "schedule", "run"):
        if required not in cfg:
            raise ConfigError(f"config: missing required section {required!r}")

    net, topo_norm, net_key = _parse_topology(cfg["topology"], built)
    prob, prob_norm, prob_key = _parse_problem(cfg.get("problem", {}), net, net_key, built)
    sched = _schedule_from(cfg["schedule"], "schedule")
    variance, noise_derived, noise_norm = _parse_noise(cfg.get("noise", {}), sched)
    attack, attack_norm = _parse_attack(cfg.get("attack", {}))
    agg, tau, agg_norm = _parse_aggregation(cfg.get("aggregation", {}))
    horizon, seeds, theory_mode, bound_column, run_norm = _parse_run(cfg["run"])
    sweep_axes, sweep_norm = _parse_sweep(cfg.get("sweep", {}))
    local_dp, budget, priv_norm = _parse_privacy(cfg.get("privacy", {}), horizon)

    trace_swap = None
    trace_norm = None
    if "privacy_trace" in cfg:
        tsec = cfg["privacy_trace"]
        _check_keys(tsec, {"swap_agent", "replacement_family"}, "privacy_trace")
        agent = _as_int(
            _need(tsec, "swap_agent", "privacy_trace"), "privacy_trace.swap_agent"
        )
        family = _as_int(
            _need(tsec, "replacement_family", "privacy_trace"),
            "privacy_trace.replacement_family",
        )
        if agent not in net.reliable:
            raise ConfigError(
                "privacy_trace.swap_agent: the observed agent must be reliable"
            )
        trace_swap = (agent, family)
        trace_norm = {"swap_agent": agent, "replacement_family": family}

    consts = None
    if theory_mode or bound_column:
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
        if theory_mode and not sweep_axes:
            # a sweep's base config is only a template; its cells are checked
            validate_schedule(sched, consts, strict=True)
    if not sweep_axes:
        # so a sweep refuses a cell whose fixed victim is Byzantine before
        # any cell runs
        attack.check_victim(net.reliable)

    normalized = {
        "topology": topo_norm,
        "problem": prob_norm,
        "schedule": _schedule_dict(sched),
        "noise": noise_norm,
        "attack": attack_norm,
        "aggregation": agg_norm,
        "run": run_norm,
    }
    if sweep_norm:
        normalized["sweep"] = {"axes": sweep_norm}
    if priv_norm:
        normalized["privacy"] = priv_norm
    if trace_norm:
        normalized["privacy_trace"] = trace_norm

    return Experiment(
        normalized=normalized,
        config_hash=config_hash(normalized),
        net=net,
        prob=prob,
        sched=sched,
        noise=NoiseSpec(variance),
        attack=attack,
        agg=agg,
        tau=tau,
        horizon=horizon,
        seeds=seeds,
        consts=consts,
        sweep_axes=sweep_axes,
        budget=budget,
        local_dp=local_dp,
        trace_swap=trace_swap,
        noise_derived=noise_derived,
    )
