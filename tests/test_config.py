"""Config schema: strict validation, canonical hashing, object assembly."""

import json
from pathlib import Path

import pytest
import yaml

import gossipshield
from gossipshield import ConfigError, ConstantSchedule, DecayingSchedule, RegimeError, TopologyError
from gossipshield.config import (
    apply_overrides,
    build_experiment,
    config_hash,
    load_config,
)
from gossipshield.privacy import required_variance_local, sensitivity_default


def _base_cfg():
    return {
        "topology": {"kind": "random", "n_agents": 10, "byz_fraction": 0.1, "seed": 3, "edge_p": 0.5},
        "schedule": {"kind": "decaying", "scale": 2.0, "k0": 10},
        "noise": {"variance": 1.0e-4},
        "attack": {"kind": "sign_flip", "s_b": 1.0},
        "aggregation": {"kind": "scc", "tau": {"kind": "manual", "value": 1.0}},
        "run": {"horizon": 20, "seeds": [1, 2]},
    }


def test_build_assembles_everything():
    exp = build_experiment(_base_cfg())
    assert exp.net.n_agents == 10 and len(exp.net.byzantine) == 1
    assert exp.prob.n_agents == 10
    assert isinstance(exp.sched, DecayingSchedule) and exp.sched.k0 == 10
    assert exp.noise == 1.0e-4
    assert exp.attack.kind == "sign_flip"
    assert exp.agg == "scc" and exp.tau.kind == "manual"
    assert exp.horizon == 20 and exp.seeds == [1, 2]
    assert exp.consts is None
    # defaults are materialized in the canonical form
    assert exp.normalized["problem"] == {
        "kind": "benchmark",
        "u_std": 0.1,
        "v_std": 0.1,
        "batch": 1,
    }
    assert exp.normalized["run"]["theory_mode"] is False


def test_problem_batch_rescales_sampling():
    cfg = _base_cfg()
    cfg["problem"] = {"batch": 25}
    exp = build_experiment(cfg)
    assert exp.prob.u_std == pytest.approx(0.1 / 5.0, rel=1e-15)
    assert exp.normalized["problem"]["batch"] == 25
    cfg["problem"] = {"batch": 0}
    with pytest.raises(ConfigError, match="batch"):
        build_experiment(cfg)
    cfg["problem"] = {"batch": 2.5}
    with pytest.raises(ConfigError, match="batch"):
        build_experiment(cfg)


def test_hash_ignores_spelling_and_order():
    a = build_experiment(_base_cfg())
    reordered = {k: _base_cfg()[k] for k in reversed(list(_base_cfg()))}
    b = build_experiment(reordered)
    assert a.config_hash == b.config_hash
    # equivalent numeric spellings normalize identically
    c_cfg = _base_cfg()
    c_cfg["noise"]["variance"] = 0.0001
    assert build_experiment(c_cfg).config_hash == a.config_hash
    # any real change moves the hash
    d_cfg = _base_cfg()
    d_cfg["run"]["horizon"] = 21
    assert build_experiment(d_cfg).config_hash != a.config_hash
    assert config_hash(a.normalized) == a.config_hash


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.update({"extra": {}}),
        lambda c: c["topology"].update({"p": 0.5}),
        lambda c: c["schedule"].update({"warmup": 3}),
        lambda c: c["attack"].update({"strength": 2}),
        lambda c: c["aggregation"]["tau"].update({"floor": 0.1}),
        lambda c: c["run"].update({"retries": 1}),
    ],
)
def test_unknown_keys_rejected(mutate):
    cfg = _base_cfg()
    mutate(cfg)
    with pytest.raises(ConfigError, match="unknown"):
        build_experiment(cfg)


def test_unknown_keys_of_two_types_rejected():
    # YAML keys need not be strings; sorting 1 and 'x' into the message
    # raised a TypeError with a traceback
    cfg = _base_cfg()
    cfg["topology"].update({1: 2, "x": 3})
    with pytest.raises(ConfigError, match=r"topology: unknown keys \[1, 'x'\]"):
        build_experiment(cfg)


def test_missing_and_malformed_sections():
    for drop in ("topology", "schedule", "run"):
        cfg = _base_cfg()
        del cfg[drop]
        with pytest.raises(ConfigError, match=drop):
            build_experiment(cfg)
    cfg = _base_cfg()
    del cfg["run"]["horizon"]
    with pytest.raises(ConfigError, match="horizon"):
        build_experiment(cfg)
    cfg = _base_cfg()
    cfg["run"]["seeds"] = []
    with pytest.raises(ConfigError, match="seeds"):
        build_experiment(cfg)
    cfg = _base_cfg()
    cfg["run"]["seeds"] = [1, 1]
    with pytest.raises(ConfigError, match="duplicate"):
        build_experiment(cfg)
    cfg = _base_cfg()
    cfg["topology"]["n_agents"] = 10.5
    with pytest.raises(ConfigError, match="integer"):
        build_experiment(cfg)
    cfg = _base_cfg()
    cfg["run"]["theory_mode"] = "yes"
    with pytest.raises(ConfigError, match="boolean"):
        build_experiment(cfg)
    cfg = _base_cfg()
    cfg["schedule"] = {"kind": "constant", "scale": 0.1, "k0": 5}
    with pytest.raises(ConfigError, match="no k0"):
        build_experiment(cfg)


@pytest.mark.parametrize("section", ["noise", "sweep", "run", "attack", "privacy"])
def test_null_section_rejected(section):
    cfg = _base_cfg()
    cfg[section] = None
    with pytest.raises(ConfigError, match=f"{section}: expected a mapping"):
        build_experiment(cfg)


def test_aggregation_rules():
    cfg = _base_cfg()
    cfg["aggregation"] = {"kind": "mean"}
    exp = build_experiment(cfg)
    assert exp.agg == "mean" and exp.tau is None

    cfg = _base_cfg()
    cfg["aggregation"] = {"kind": "mean", "tau": {"kind": "manual", "value": 1.0}}
    with pytest.raises(ConfigError, match="baseline takes no tau"):
        build_experiment(cfg)

    cfg = _base_cfg()
    cfg["aggregation"] = {"kind": "scc"}
    with pytest.raises(ConfigError, match="tau"):
        build_experiment(cfg)

    # ground-truth radius oracles sit behind an explicit opt-in
    cfg = _base_cfg()
    cfg["aggregation"] = {"kind": "scc", "tau": {"kind": "corollary1", "value": 10.0}}
    with pytest.raises(ConfigError, match="allow_oracle"):
        build_experiment(cfg)
    cfg["aggregation"]["allow_oracle"] = True
    assert build_experiment(cfg).tau.kind == "corollary1"


def test_tau_value_must_be_finite():
    # YAML spells NaN and infinity .nan and .inf; neither is a radius, and
    # a NaN radius would clip nothing, silently turning SCC into the mean
    for raw in (".nan", ".inf", "-.inf"):
        cfg = apply_overrides(_base_cfg(), [f"aggregation.tau.value={raw}"])
        with pytest.raises(ConfigError, match="aggregation.tau.value"):
            build_experiment(cfg)


def test_nan_inputs_refused():
    # NaN passes a check written as `value < 0`, and each of these would
    # then run to an end, unmasked or diverged, instead of being refused
    nan = float("nan")
    for build in (
        lambda: DecayingSchedule(scale=nan, k0=10),
        lambda: ConstantSchedule(nan),
    ):
        with pytest.raises(ConfigError, match="scale"):
            build()
    for key, message in (
        ("noise.variance", "noise.variance"),
        ("schedule.scale", "scale"),
        ("problem.u_std", "u_std"),
        ("problem.v_std", "v_std"),
        ("attack.s_b", "sign-flip scale"),
        ("attack.d_r", "d_r"),
        ("attack.p_mult", "p_mult"),
        ("attack.p_add", "p_add"),
    ):
        cfg = apply_overrides(_base_cfg(), [f"{key}=.nan"])
        with pytest.raises(ConfigError, match=message):
            build_experiment(cfg)
    cfg = _base_cfg()
    cfg["schedule"] = {"kind": "constant", "scale": nan}
    with pytest.raises(ConfigError, match="scale"):
        build_experiment(cfg)
    # a NaN gradient bound printed "global budget: epsilon=nan"
    for section, budget in (("local", _LOCAL), ("global", _GLOBAL)):
        cfg = _base_cfg()
        cfg["privacy"] = {section: dict(budget, grad_bound=nan)}
        with pytest.raises(ConfigError, match=rf"privacy\.{section}\.grad_bound"):
            build_experiment(cfg)


def test_family_of_must_be_a_list_of_integers():
    # int() coercion ran the string and the float list as families 1-5,
    # under one config hash, and the bools as family 1
    for family_of, message in (
        ("1234512345", r"problem\.family_of: expected a list of integers"),
        ([1.5, 2, 3, 4, 5, 1, 2, 3, 4, 5], r"problem\.family_of\[0\]: expected an integer"),
        ([True] * 10, r"problem\.family_of\[0\]: expected an integer"),
        ([1, 2, float("nan")] + [1] * 7, r"problem\.family_of\[2\]: expected an integer"),
    ):
        cfg = _base_cfg()
        cfg["problem"] = {"family_of": family_of}
        with pytest.raises(ConfigError, match=message):
            build_experiment(cfg)
    cfg = _base_cfg()
    cfg["problem"] = {"family_of": [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]}
    exp = build_experiment(cfg)
    assert exp.normalized["problem"]["family_of"] == [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]
    assert [obj.family for obj in exp.prob.objectives] == [1, 2, 3, 4, 5] * 2


def test_noise_from_local_budget():
    cfg = _base_cfg()
    cfg["noise"] = {
        "from_local_dp": {"epsilon": 0.9, "delta": 0.01, "grad_bound": 5.0}
    }
    exp = build_experiment(cfg)
    expect = required_variance_local(
        0.9, 0.01, sensitivity_default(5.0), exp.sched
    )
    assert exp.noise == expect
    assert exp.noise_derived

    cfg["noise"]["variance"] = 1.0
    with pytest.raises(ConfigError, match="either"):
        build_experiment(cfg)

    cfg = _base_cfg()
    cfg["noise"] = {"variance": -1.0}
    with pytest.raises(ConfigError, match="nonnegative"):
        build_experiment(cfg)


def test_budget_errors_name_the_full_path():
    # the (epsilon, delta, grad_bound) budget was read twice; the copy under
    # noise.from_local_dp named noise.epsilon and noise in its errors, and
    # a missing key under privacy.local named privacy
    for section, sub in (("noise", "from_local_dp"), ("privacy", "local")):
        for budget, message in (
            ({"delta": 0.01, "grad_bound": 5.0}, "epsilon: missing required key"),
            ({"epsilon": "tight", "delta": 0.01, "grad_bound": 5.0}, "epsilon: expected a number"),
            ({"epsilon": None, "delta": 0.01, "grad_bound": 5.0}, "epsilon: expected a number"),
        ):
            cfg = _base_cfg()
            cfg[section] = {sub: budget}
            with pytest.raises(ConfigError) as err:
                build_experiment(cfg)
            assert str(err.value).startswith(f"{section}.{sub}.{message}")


def test_attack_schedule_valued_params():
    cfg = _base_cfg()
    cfg["attack"] = {
        "kind": "perturbed_dup",
        "p_mult": 1.01,
        "p_add": {"kind": "decaying", "scale": 0.05, "k0": 10},
    }
    exp = build_experiment(cfg)
    assert isinstance(exp.attack.p_add, DecayingSchedule)
    assert exp.normalized["attack"]["p_add"] == {
        "kind": "decaying",
        "scale": 0.05,
        "k0": 10,
    }
    cfg["attack"]["kind"] = "teleport"
    with pytest.raises(ConfigError, match="kind"):
        build_experiment(cfg)


def test_privacy_sections():
    cfg = _base_cfg()
    cfg["privacy"] = {
        "local": {"epsilon": 0.9, "delta": 0.01, "grad_bound": 5.0},
        "global": {
            "delta": 0.01,
            "grad_bound": 5.0,
            "total_samples": 600,
            "batch_size": 32,
        },
    }
    exp = build_experiment(cfg)
    assert exp.local_dp == {"epsilon": 0.9, "delta": 0.01, "grad_bound": 5.0}
    assert exp.budget.horizon == 20
    assert exp.budget.batch_size == 32

    cfg["privacy"]["global"]["mystery"] = 1
    with pytest.raises(ConfigError, match="unknown"):
        build_experiment(cfg)


def test_privacy_trace_section():
    cfg = _base_cfg()
    cfg["privacy_trace"] = {"swap_agent": 3, "replacement_family": 7}
    exp = build_experiment(cfg)
    assert exp.trace_swap == (3, 7)
    # the observed agent must be reliable; agent 0 is flagged here
    assert 0 in build_experiment(_base_cfg()).net.byzantine
    cfg["privacy_trace"]["swap_agent"] = 0
    with pytest.raises(ConfigError, match="reliable"):
        build_experiment(cfg)


def test_topology_byzantine_ids():
    cfg = _base_cfg()
    del cfg["topology"]["byz_fraction"]
    cfg["topology"]["byzantine_ids"] = [5, 0]
    exp = build_experiment(cfg)
    assert exp.net.byzantine == (0, 5)
    assert exp.prob.reliable == exp.net.reliable
    assert exp.normalized["topology"] == {
        "kind": "random", "n_agents": 10, "byzantine_ids": [0, 5], "seed": 3, "edge_p": 0.5,
    }
    # configs without the key keep the hash they had before it existed
    assert build_experiment(_base_cfg()).config_hash == (
        "ae330a10a81576e17a6c6421ba17c91993e85c41163dc671d6d428f6e59b0bf3"
    )
    both = _base_cfg()
    both["topology"]["byzantine_ids"] = [0, 5]
    with pytest.raises(ConfigError, match="either byz_fraction or byzantine_ids"):
        build_experiment(both)
    cfg["topology"]["byzantine_ids"] = 5
    with pytest.raises(ConfigError, match="byzantine_ids"):
        build_experiment(cfg)
    cfg["topology"]["byzantine_ids"] = [0, 2.5]
    with pytest.raises(ConfigError, match="byzantine_ids"):
        build_experiment(cfg)


def test_bound_column_builds_constants():
    cfg = _base_cfg()
    cfg["topology"]["byz_fraction"] = 0.0
    cfg["attack"] = {"kind": "none"}
    cfg["run"]["bound_column"] = True
    exp = build_experiment(cfg)
    assert exp.consts is not None
    assert exp.consts.rho == 0.0
    assert exp.consts.noise_var == 1.0e-4


def test_sweep_axes_parse():
    cfg = _base_cfg()
    cfg["sweep"] = {
        "axes": [
            {"key": "noise.variance", "values": [0.0, 1.0e-4]},
            {"key": "attack.s_b", "values": [0.5, 1.0]},
        ]
    }
    exp = build_experiment(cfg)
    assert exp.sweep_axes == [
        ("noise.variance", [0.0, 1.0e-4]),
        ("attack.s_b", [0.5, 1.0]),
    ]
    cfg["sweep"]["axes"][0] = {"key": "noise.variance", "values": []}
    with pytest.raises(ConfigError, match="nonempty"):
        build_experiment(cfg)


def test_theory_mode_refuses_at_build():
    cfg = _base_cfg()
    cfg["run"]["theory_mode"] = True
    # one Byzantine agent in ten puts this network outside the regime
    with pytest.raises(RegimeError):
        build_experiment(cfg)
    # a sweep's base config is a template: each cell is checked when built
    cfg["sweep"] = {"axes": [{"key": "attack.s_b", "values": [0.5, 1.0]}]}
    assert not build_experiment(cfg).consts.regime_valid


def test_apply_overrides():
    cfg = _base_cfg()
    out = apply_overrides(cfg, ["run.horizon=5", "attack.s_b=0.5", "run.theory_mode=true"])
    assert out["run"]["horizon"] == 5
    assert out["attack"]["s_b"] == 0.5
    assert out["run"]["theory_mode"] is True
    # the original is untouched
    assert cfg["run"]["horizon"] == 20
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(cfg, ["run.horizon"])
    with pytest.raises(ConfigError, match="crosses"):
        apply_overrides(cfg, ["run.horizon.nested=1"])


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(path)
    good = tmp_path / "good.yaml"
    good.write_text("topology:\n  kind: complete\n  n_agents: 10\n")
    assert load_config(good)["topology"]["n_agents"] == 10


_RECIPES = sorted((Path(gossipshield.__file__).parent / "recipes").glob("*.yaml"))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_pure_python_loaders_agree(monkeypatch):
    assert len(_RECIPES) == 8
    scalars = []
    for path in _RECIPES:
        text = path.read_text()
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)
        # the override strings a sweep builds for its cells
        for axis in fast.get("sweep", {}).get("axes", []):
            scalars += [json.dumps(value) for value in axis["values"]]
    assert len(scalars) == 17
    exponents = ["1e-6", "-2E+3", "1_0e5", "1.e-2", "1.0e6"]
    for raw in scalars + exponents + ["5", "1.0e-4", "true", "null", "-.inf", "[1, 2]", "{a: 1}"]:
        assert yaml.load(raw, Loader=yaml.CSafeLoader) == yaml.load(raw, Loader=yaml.SafeLoader)

    used = []
    real_load = yaml.load

    def spy(stream, Loader):
        used.append(Loader)
        return real_load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    parsed = load_config(_RECIPES[0])
    fast = [apply_overrides({}, [f"v={raw}"])["v"] for raw in exponents]
    assert fast == [1e-6, -2e3, 1e6, 1e-2, 1e6]
    # libyaml's loader, which also reads exponents as numbers
    assert len(used) == 1 + len(exponents)
    assert all(issubclass(loader, yaml.CSafeLoader) for loader in used)
    # without libyaml the pure-Python parser reads the same dict
    used.clear()
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert load_config(_RECIPES[0]) == parsed
    assert apply_overrides({}, ["run.horizon=5"]) == {"run": {"horizon": 5}}
    assert [apply_overrides({}, [f"v={raw}"])["v"] for raw in exponents] == fast
    assert len(used) == 2 + len(exponents)
    assert all(issubclass(loader, yaml.SafeLoader) for loader in used)


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure_python"])
def test_repeated_keys_refused(tmp_path, monkeypatch, libyaml):
    # YAML keeps the last value of a repeated key without a word
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    path = tmp_path / "dup.yaml"
    path.write_text("noise: {variance: 1.0, variance: 2.0}\n")
    with pytest.raises(ConfigError, match=r"(?s)dup.yaml: invalid YAML.*duplicate key 'variance'.*line 1"):
        load_config(path)
    path.write_text("noise:\n  variance: 1.0\nrun: {horizon: 5}\nnoise:\n  variance: 2.0\n")
    with pytest.raises(ConfigError, match=r"(?s)duplicate key 'noise'.*line 4, column 1"):
        load_config(path)
    with pytest.raises(ConfigError, match="duplicate key 'a'"):
        apply_overrides({}, ["noise={a: 1, a: 2}"])
    # a merge key still gives way to the keys written beside it
    path.write_text("base: &b {variance: 1.0}\nnoise:\n  <<: *b\n  variance: 2.0\n")
    assert load_config(path)["noise"] == {"variance": 2.0}


def test_unreadable_configs_are_config_errors(tmp_path):
    # a YAML syntax error, a missing file and a malformed override raised
    # yaml's or the OS's own exceptions, which the command line did not catch
    bad = tmp_path / "bad.yaml"
    bad.write_text("topology: {kind: random\n")
    with pytest.raises(ConfigError, match="(?s)bad.yaml: invalid YAML.*line 1, column 11") as err:
        load_config(bad)
    assert isinstance(err.value.__cause__, yaml.YAMLError)
    with pytest.raises(ConfigError, match="cannot read") as err:
        load_config(tmp_path / "nowhere.yaml")
    assert isinstance(err.value.__cause__, FileNotFoundError)
    with pytest.raises(ConfigError, match="override 'attack.kind=\\[x': invalid YAML"):
        apply_overrides(_base_cfg(), ["attack.kind=[x"])


# The normalized form of every config is its identity: the hash stamps every
# artifact, so a parser change must leave each accepted config's hash where it
# was and keep refusing what it refused. The hashes below are literals; a
# change that moves one moves the identity of every run of that config.

_DROP = object()


def _edited(edits, cfg=None):
    """A copy of cfg (default _base_cfg()) with each (dotted key, value) set;
    the value _DROP removes the key."""
    cfg = json.loads(json.dumps(_base_cfg() if cfg is None else cfg))
    for key, value in edits:
        *parents, last = key.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
    return cfg


_FULL_PROBLEM = {
    "kind": "benchmark", "u_std": 0.2, "v_std": 0.05, "batch": 4,
    "family_of": [1, 2, 3, 4, 5] * 2, "f_star": -1.5, "pl_constant": 0.5,
    "smoothness": 3, "sigma_sq": 0.01, "zeta_sq": 0.2,
}
_DUP = {
    "kind": "perturbed_dup", "p_mult": 1.01,
    "p_add": {"kind": "decaying", "scale": 0.05, "k0": 10}, "victim": 3,
}
_LOCAL = {"epsilon": 0.9, "delta": 0.01, "grad_bound": 5}
_GLOBAL = {"delta": 0.01, "grad_bound": 5, "total_samples": 600, "batch_size": 32, "renyi_order": 2}
_AXES = [{"key": "noise.variance", "values": [0.0, 1.0e-4]}, {"key": "attack.s_b", "values": [0.5, 1]}]
_TAU_SCHEDULE = {"kind": "scc", "tau": {"kind": "manual", "value": {"kind": "decaying", "scale": 50, "k0": 5}}}
_NO_FRACTION = [("topology.byz_fraction", _DROP), ("topology.byzantine_ids", [5, 0])]

# (edits to _base_cfg(), config_hash recorded before the parsers were
# rewritten on one table-driven reader)
_ACCEPTED = [
    ([], "ae330a10a81576e17a6c6421ba17c91993e85c41163dc671d6d428f6e59b0bf3"),
    ([("schedule.scale", 2), ("aggregation.tau.value", 1), ("attack.s_b", 1)], "ae330a10a81576e17a6c6421ba17c91993e85c41163dc671d6d428f6e59b0bf3"),
    ([("topology.seed", _DROP), ("topology.edge_p", _DROP), ("topology.byz_fraction", _DROP)], "f2b5e672770d2753ce533ff84bf0b93dd289065e8a29594bc19aa1b6a1356f31"),
    ([("topology.byz_fraction", _DROP), ("topology.byzantine_ids", [5, 0, 5])], "adcfee8435a60b0b741823a05052e0707197f7091e73856cc00273d631e29d78"),
    ([("topology.byz_fraction", _DROP), ("topology.byzantine_ids", [])], "3cb199cb4111d46623dfad529b7b8207b39850bb8f7ec348f6ce726632258a1c"),
    ([("topology.kind", "complete"), ("topology.edge_p", _DROP)], "c9ccf37488bff78a27fa9116b0de1ca60e83d1430cbfd15de8170f1063f3c0f0"),
    ([("topology.kind", "star")], "57ad5417ec3d91f3d27b810b90444bb6651fde96fcd34a12ef3c9435883b1386"),
    ([("problem", _FULL_PROBLEM)], "37a02024ff2b655bb65d4dcf9a71ed6d367e4f045939dd5c56434f6d9e6febd3"),
    ([("problem", {"family_of": None})], "ae330a10a81576e17a6c6421ba17c91993e85c41163dc671d6d428f6e59b0bf3"),
    ([("problem", {})], "ae330a10a81576e17a6c6421ba17c91993e85c41163dc671d6d428f6e59b0bf3"),
    ([("schedule", {"kind": "constant", "scale": 0.05})], "57e907d2ccab14a7c6a795be25c22fe2ec92152e0390f214aa03246f84f3001a"),
    ([("noise", {"from_local_dp": _LOCAL})], "1b0f29fd8109d06b7b03f8e1acb83e14fe43f6970d62c55135f5cc307eb942f5"),
    ([("noise", {})], "b761f4ee3a236b94947b694aef7c1a5a116d4798a9e81d5514d8da96277159ea"),
    ([("noise", {"variance": 0})], "b761f4ee3a236b94947b694aef7c1a5a116d4798a9e81d5514d8da96277159ea"),
    ([("attack", {"kind": "none"})], "33aed9532f3ff63c15eb26b4972a64148690d640b35fc2f23f74056d72183499"),
    ([("attack", {})], "33aed9532f3ff63c15eb26b4972a64148690d640b35fc2f23f74056d72183499"),
    ([("attack", {"kind": "alie", "alie_local": True})], "fe4f1c1ae6aa3fc607b5689666be6e36626ad466b06f3b69dbda9f8a63a8f0b7"),
    ([("attack", {"kind": "alie", "alie_local": False})], "0a3e90e477e51b714d0d805a66bb903f5659178cdac03dad4c6e9a81af8fea9a"),
    ([("attack", {"kind": "dissensus", "d_r": 2})], "1ff6490b6ae918a534b58f84b8a6d8dbf21f86bb95abab0a56735bd02ea01619"),
    ([("attack", _DUP)], "d394e1b7d14f1b74642bd88f185eb5510b081a1db1c65d6e5b3b1b0f7d78f5af"),
    ([("attack", {"kind": "perturbed_dup", "p_mult": {"kind": "constant", "scale": 2}, "p_add": 0, "victim": None})], "6eb4fa4bfc553a7c9c8fd3b4a77d455abf9c25cb6facd6f357697ba42d2d702a"),
    ([("attack", {"kind": "silent"})], "970e106a1117c44f01519385dd957777aa59ce3d0eb709b15f9b2ffcdaeb5b3e"),
    ([("attack", {"kind": "sign_flip", "s_b": 2, "d_r": 1, "p_mult": 1, "p_add": 0.5, "victim": 4, "alie_local": False})], "1df4027ee7028131f315c2bfedfd4edcbd1e993cb75f2a8529e93627d0591678"),
    ([("attack.victim", None)], "ae330a10a81576e17a6c6421ba17c91993e85c41163dc671d6d428f6e59b0bf3"),
    ([("aggregation", {"kind": "mean"})], "30f44d2457455ba159b19da5a35becd643b795ffa367ba247b683b0c82ac4c56"),
    ([("aggregation", {"kind": "mean", "allow_oracle": True})], "1fcfd9e187ea7d464bdb82ddacc5d912235fa299785c901972a056f4a64e8c75"),
    ([("aggregation", {"kind": "scc", "tau": {"value": 3}})], "206d4468a18a6d09710bbff1c97c31e96c2798750aadcd7878126b5ed42b7adc"),
    ([("aggregation", {"tau": {"kind": "manual", "value": 0.5}})], "d8f7a820a8f93ee3a38093b9f7a8dbf8ee2cada106614d39a0ce069bac397082"),
    ([("aggregation", _TAU_SCHEDULE)], "f32666fd1ac895d5ee4696f764cf137855238b8a240824148663b8cc25d156c3"),
    ([("aggregation", {"kind": "scc", "allow_oracle": True, "tau": {"kind": "corollary1", "value": 1000}})], "3a609a0161d61cd2c0d05afe47e152e4a61392230110c20dc40cb9ee2dd445e3"),
    ([("aggregation", {"kind": "scc", "allow_oracle": True, "tau": {"kind": "remark4", "value": {"kind": "constant", "scale": 10}}})], "78bd66b3d3e5bf8692c21bb6c144c50cfb39d287f126e02c43e9e427a29775e3"),
    ([("aggregation", {"kind": "scc", "allow_oracle": False, "tau": {"kind": "manual", "value": 1.0e3}})], "27e58c1be525341b33c86ffb0cfafad811e18f2725d3801cc2b30563b886b70c"),
    ([("topology.byz_fraction", 0.0), ("attack", {"kind": "none"}), ("run.bound_column", True), ("run.theory_mode", False)], "4a6924a6229cbc630d386ac9a87848057cb5920c34a66fffa67f623593c30d14"),
    ([("run.theory_mode", True), ("sweep", {"axes": [{"key": "attack.s_b", "values": [0.5, 1.0]}]})], "e28eaaef04925e27f927d57cdfbc483bc25298f8603c8ea176654f1b8272638d"),
    ([("sweep", {"axes": _AXES})], "504f3ce5456be891f1a61f1bb44c3c9303503d5941b9b941d9a53f8988ebf619"),
    ([("sweep", {})], "ae330a10a81576e17a6c6421ba17c91993e85c41163dc671d6d428f6e59b0bf3"),
    ([("sweep", {"axes": []})], "ae330a10a81576e17a6c6421ba17c91993e85c41163dc671d6d428f6e59b0bf3"),
    ([("privacy", {"local": _LOCAL})], "ccbfb590dd2695886c9d6d2caf928d9377cf87bfddaaae4eefc6539c81e47642"),
    ([("privacy", {"global": _GLOBAL})], "19dfd8ef48205c5762eee0f2ab84c0f4138d2ee147752c0579a3c7277d5b76fb"),
    ([("privacy", {"local": _LOCAL, "global": {k: v for k, v in _GLOBAL.items() if k != "renyi_order"}})], "657b13dae6c9f6e9df13dcfbe8596d7a1cb591a033ac2c7ee30361216f324bef"),
    ([("privacy", {})], "ae330a10a81576e17a6c6421ba17c91993e85c41163dc671d6d428f6e59b0bf3"),
    ([("privacy", {"local": None, "global": None})], "ae330a10a81576e17a6c6421ba17c91993e85c41163dc671d6d428f6e59b0bf3"),
    ([("privacy_trace", {"swap_agent": 3, "replacement_family": 7})], "fc7e6f41a8eb0a462b10f809aa938f98ca59133ebca60731dbe9111c9ea6bbbf"),
]

_GOOD_SCC = {"kind": "scc", "tau": {"kind": "manual", "value": 1.0}}
# (edits to _base_cfg(), the error type, a pattern its message matches: the
# dotted path of the fault wherever the message names one)
_REFUSED = [
    ([("extra", {})], ConfigError, "config: unknown keys"),
    ([("topology", _DROP)], ConfigError, "topology"),
    ([("schedule", _DROP)], ConfigError, "schedule"),
    ([("run", _DROP)], ConfigError, "run"),
    ([("topology.p", 0.5)], ConfigError, r"topology: unknown keys \['p'\]"),
    ([("topology.kind", _DROP)], ConfigError, "topology.*kind"),
    ([("topology.n_agents", _DROP)], ConfigError, "topology.*n_agents"),
    ([("topology.n_agents", 10.5)], ConfigError, r"topology\.n_agents: expected an integer"),
    ([("topology.kind", "ring")], TopologyError, "unknown topology kind 'ring'"),
    ([("topology.byz_fraction", 0.9)], TopologyError, "byz_fraction"),
    ([("topology.seed", -1)], ConfigError, r"topology\.seed: seeds must be nonnegative"),
    ([("topology.byzantine_ids", [0, 5])], ConfigError, "topology: give either byz_fraction or byzantine_ids"),
    ([("topology.byz_fraction", _DROP), ("topology.byzantine_ids", 5)], ConfigError, r"topology\.byzantine_ids"),
    ([("topology.byz_fraction", _DROP), ("topology.byzantine_ids", [0, 2.5])], ConfigError, r"topology\.byzantine_ids"),
    ([("topology.byz_fraction", _DROP), ("topology.byzantine_ids", [0, 10])], TopologyError, "out of range"),
    ([("problem", {"kind": "custom"})], ConfigError, r"problem\.kind"),
    ([("problem", {"u_std": "wide"})], ConfigError, r"problem\.u_std: expected a number"),
    ([("problem", {"batch": 2.5})], ConfigError, r"problem\.batch: expected an integer"),
    ([("problem", {"batch": 0})], ConfigError, "batch"),
    ([("problem", {"family_of": "1234512345"})], ConfigError, r"problem\.family_of: expected a list"),
    ([("problem", {"family_of": [1, 2.0] + [1] * 8})], ConfigError, r"problem\.family_of\[1\]: expected an integer"),
    ([("problem", {"smoothness": True})], ConfigError, r"problem\.smoothness: expected a number"),
    ([("problem", {"mystery": 1})], ConfigError, "problem: unknown keys"),
    ([("schedule.kind", "cyclic")], ConfigError, r"schedule\.kind: expected decaying\|constant"),
    ([("schedule.scale", _DROP)], ConfigError, "schedule.*scale"),
    ([("schedule.k0", _DROP)], ConfigError, "schedule.*k0"),
    ([("schedule.k0", 2.0)], ConfigError, r"schedule\.k0: expected an integer"),
    ([("schedule.scale", -1.0)], ConfigError, "scale must be positive"),
    ([("schedule", {"kind": "constant", "scale": 0.1, "k0": 5})], ConfigError, "schedule: constant schedules take no k0"),
    ([("schedule.warmup", 3)], ConfigError, "schedule: unknown keys"),
    ([("noise.variance", -1.0)], ConfigError, r"noise\.variance: must be nonnegative"),
    ([("noise.variance", "1e-6")], ConfigError, r"noise\.variance: expected a number"),
    ([("noise.variance", float("inf"))], ConfigError, r"noise\.variance: must be nonnegative and finite"),
    ([("noise.from_local_dp", _LOCAL)], ConfigError, "noise: give either variance or from_local_dp"),
    ([("noise", {"from_local_dp": {"delta": 0.01, "grad_bound": 5.0}})], ConfigError, "noise.*epsilon"),
    ([("noise", {"from_local_dp": dict(_LOCAL, epsilon="tight")})], ConfigError, r"noise\.(from_local_dp\.)?epsilon"),
    ([("noise", {"from_local_dp": dict(_LOCAL, epsilon=2.0)})], ConfigError, "epsilon must lie in"),
    ([("noise", {"from_local_dp": dict(_LOCAL, sigma=1.0)})], ConfigError, r"noise\.from_local_dp: unknown keys"),
    ([("attack.kind", "teleport")], ConfigError, r"attack\.kind"),
    ([("attack.strength", 2)], ConfigError, "attack: unknown keys"),
    ([("attack.s_b", -1.0)], ConfigError, "sign-flip scale"),
    ([("attack.alie_local", "yes")], ConfigError, r"attack\.alie_local: expected a boolean"),
    ([("attack.victim", 2.0)], ConfigError, r"attack\.victim: expected an integer"),
    ([("attack", dict(_DUP, victim=0))], ConfigError, "victim 0"),
    ([("attack", dict(_DUP, p_add={"kind": "decaying", "scale": 0.05}))], ConfigError, r"attack\.p_add.*k0"),
    ([("attack", dict(_DUP, p_mult={"kind": "linear", "scale": 1.0}))], ConfigError, r"attack\.p_mult\.kind"),
    ([("attack", dict(_DUP, p_mult="1.5"))], ConfigError, r"attack\.p_mult: expected a number"),
    ([("aggregation.kind", "median")], ConfigError, r"aggregation\.kind: expected scc\|mean"),
    ([("aggregation", {"kind": "mean", "tau": {"kind": "manual", "value": 1.0}})], ConfigError, "aggregation: the averaging baseline takes no tau"),
    ([("aggregation", {"kind": "scc"})], ConfigError, "aggregation.*tau"),
    ([("aggregation", {})], ConfigError, "aggregation.*tau"),
    ([("aggregation", {"kind": "scc", "tau": {"kind": "manual"}})], ConfigError, r"aggregation\.tau.*value"),
    ([("aggregation.tau.floor", 0.1)], ConfigError, r"aggregation\.tau: unknown keys"),
    ([("aggregation.tau.kind", "median")], ConfigError, "unknown clipping-radius kind 'median'"),
    ([("aggregation.tau.kind", "corollary1")], ConfigError, r"aggregation\.tau\.kind 'corollary1' reads ground-truth labels"),
    ([("aggregation.tau.kind", "remark4"), ("aggregation.allow_oracle", False)], ConfigError, "allow_oracle: true"),
    ([("aggregation.allow_oracle", 1)], ConfigError, r"aggregation\.allow_oracle: expected a boolean"),
    ([("aggregation.tau.value", float("inf"))], ConfigError, r"aggregation\.tau\.value: expected a finite radius"),
    ([("aggregation.tau.value", float("nan"))], ConfigError, r"aggregation\.tau\.value: expected a finite radius"),
    ([("aggregation.tau.value", -1.0)], ConfigError, "clipping radius must be positive"),
    ([("aggregation", dict(_TAU_SCHEDULE, tau={"value": {"kind": "constant", "scale": 1.0, "k0": 2}}))], ConfigError, r"aggregation\.tau\.value: constant schedules take no k0"),
    ([("run.horizon", _DROP)], ConfigError, "run.*horizon"),
    ([("run.seeds", _DROP)], ConfigError, "run.*seeds"),
    ([("run.horizon", 2.0)], ConfigError, r"run\.horizon: expected an integer"),
    ([("run.seeds", [])], ConfigError, r"run\.seeds: expected a nonempty list"),
    ([("run.seeds", 3)], ConfigError, r"run\.seeds: expected a nonempty list"),
    ([("run.seeds", [1, 1])], ConfigError, r"run\.seeds: duplicate seeds"),
    ([("run.seeds", [1, -2])], ConfigError, r"run\.seeds: seeds must be nonnegative"),
    ([("run.theory_mode", "yes")], ConfigError, r"run\.theory_mode: expected a boolean"),
    ([("run.bound_column", 0)], ConfigError, r"run\.bound_column: expected a boolean"),
    ([("run.retries", 1)], ConfigError, "run: unknown keys"),
    ([("run.theory_mode", True)], RegimeError, "outside the theory regime"),
    ([("sweep", {"axes": {"key": "attack.s_b"}})], ConfigError, r"sweep\.axes: expected a list"),
    ([("sweep", {"axes": ["attack.s_b"]})], ConfigError, r"sweep\.axes\[0\]: expected a mapping"),
    ([("sweep", {"axes": [_AXES[0], {"key": "attack.s_b", "values": []}]})], ConfigError, r"sweep\.axes\[1\]\.values: expected a nonempty list"),
    ([("sweep", {"axes": [{"values": [1]}]})], ConfigError, r"sweep\.axes\[0\].*key"),
    ([("sweep", {"axes": [{"key": "attack.s_b"}]})], ConfigError, r"sweep\.axes\[0\].*values"),
    ([("sweep", {"axes": [dict(_AXES[0], step=1)]})], ConfigError, r"sweep\.axes\[0\]: unknown keys"),
    ([("sweep", {"grid": []})], ConfigError, "sweep: unknown keys"),
    ([("privacy", {"local": {"delta": 0.01, "grad_bound": 5.0}})], ConfigError, "privacy.*epsilon"),
    ([("privacy", {"local": dict(_LOCAL, epsilon="tight")})], ConfigError, r"privacy\.local\.epsilon: expected a number"),
    ([("privacy", {"local": dict(_LOCAL, sigma=1.0)})], ConfigError, r"privacy\.local: unknown keys"),
    ([("privacy", {"global": dict(_GLOBAL, mystery=1)})], ConfigError, r"privacy\.global: unknown keys"),
    ([("privacy", {"global": {k: v for k, v in _GLOBAL.items() if k != "total_samples"}})], ConfigError, "privacy.*total_samples"),
    ([("privacy", {"global": dict(_GLOBAL, batch_size=2.0)})], ConfigError, r"privacy\.global\.batch_size: expected an integer"),
    ([("privacy", {"global": dict(_GLOBAL, delta=2.0)})], ConfigError, "delta must lie in"),
    ([("privacy", {"global": dict(_GLOBAL, batch_size=700)})], ConfigError, "batch_size <= total_samples"),
    ([("privacy", {"budget": {}})], ConfigError, "privacy: unknown keys"),
    ([("privacy_trace", {"swap_agent": 0, "replacement_family": 7})], ConfigError, r"privacy_trace\.swap_agent: the observed agent must be reliable"),
    ([("privacy_trace", {"swap_agent": 3})], ConfigError, "privacy_trace.*replacement_family"),
    ([("privacy_trace", {"swap_agent": 3.0, "replacement_family": 7})], ConfigError, r"privacy_trace\.swap_agent: expected an integer"),
    ([("privacy_trace", {"swap_agent": 3, "replacement_family": 7, "seed": 1})], ConfigError, "privacy_trace: unknown keys"),
    # a sweep axis key must be a dotted key into a config section; the
    # first of these got a config_hash before, and its sweep then failed
    # building its first cell
    ([("sweep", {"axes": [{"key": None, "values": [1]}]})], ConfigError, r"sweep\.axes\[0\]\.key: expected a dotted key"),
    ([("sweep", {"axes": [_AXES[0], {"key": "nosuch.x", "values": [1]}]})], ConfigError, r"sweep\.axes\[1\]\.key: expected a dotted key"),
    ([("sweep", {"axes": [{"key": 3, "values": [1]}]})], ConfigError, r"sweep\.axes\[0\]\.key: expected a dotted key"),
    # landscape constants the problem builders refuse by name
    ([("problem", {"f_star": float("nan")})], ConfigError, "f_star must be finite, got nan"),
    ([("problem", {"f_star": float("inf")})], ConfigError, "f_star must be finite, got inf"),
    ([("problem", {"smoothness": float("inf")})], ConfigError, "smoothness must be finite and nonnegative, got inf"),
    ([("problem", {"pl_constant": -1.0})], ConfigError, "pl_constant must be finite and nonnegative, got -1.0"),
    ([("problem", {"sigma_sq": float("nan")})], ConfigError, "sigma_sq must be finite and nonnegative, got nan"),
    ([("problem", {"zeta_sq": -1.0})], ConfigError, "zeta_sq must be finite and nonnegative, got -1.0"),
]

_FULL = _edited([
    ("problem", _FULL_PROBLEM),
    ("attack", dict(_DUP, s_b=1.0, d_r=1.0, alie_local=False)),
    ("aggregation", dict(_TAU_SCHEDULE, allow_oracle=False)),
    ("run", {"horizon": 20, "seeds": [1, 2], "theory_mode": False, "bound_column": False}),
    ("sweep", {"axes": _AXES}),
    ("privacy", {"local": _LOCAL, "global": _GLOBAL}),
    ("privacy_trace", {"swap_agent": 3, "replacement_family": 7}),
])
_FULL_IDS = _edited(_NO_FRACTION, _FULL)
_FULL_DP = _edited([("noise", {"from_local_dp": _LOCAL})], _FULL)
_FULL_MEAN = _edited([("aggregation", {"kind": "mean", "allow_oracle": False})], _FULL)

# null in each key and section of a config that sets every key: null is an
# absent key for problem.family_of, attack.victim, privacy.local and
# privacy.global (the config_hash then equals the one without the key), and
# an error everywhere else
_NULLS = [
    (_FULL, "topology", ConfigError, "topology: expected a mapping"),
    (_FULL, "problem", ConfigError, "problem: expected a mapping"),
    (_FULL, "schedule", ConfigError, "schedule: expected a mapping"),
    (_FULL, "noise", ConfigError, "noise: expected a mapping"),
    (_FULL, "attack", ConfigError, "attack: expected a mapping"),
    (_FULL, "aggregation", ConfigError, "aggregation: expected a mapping"),
    (_FULL, "run", ConfigError, "run: expected a mapping"),
    (_FULL, "sweep", ConfigError, "sweep: expected a mapping"),
    (_FULL, "privacy", ConfigError, "privacy: expected a mapping"),
    (_FULL, "privacy_trace", ConfigError, "privacy_trace: expected a mapping"),
    (_FULL, "topology.kind", TopologyError, "unknown topology kind None"),
    (_FULL, "topology.n_agents", ConfigError, r"topology\.n_agents: expected an integer"),
    (_FULL, "topology.byz_fraction", ConfigError, r"topology\.byz_fraction: expected a number"),
    (_FULL, "topology.seed", ConfigError, r"topology\.seed: expected an integer"),
    (_FULL, "topology.edge_p", ConfigError, r"topology\.edge_p: expected a number"),
    (_FULL_IDS, "topology.byzantine_ids", ConfigError, r"topology\.byzantine_ids: expected a list"),
    (_FULL, "problem.kind", ConfigError, r"problem\.kind"),
    (_FULL, "problem.u_std", ConfigError, r"problem\.u_std: expected a number"),
    (_FULL, "problem.v_std", ConfigError, r"problem\.v_std: expected a number"),
    (_FULL, "problem.batch", ConfigError, r"problem\.batch: expected an integer"),
    (_FULL, "problem.family_of", None, "7afd5bd9f51189a2bce8b6d7cc59ccc9d10ac6f35767f078fdbdbeadf841f4c8"),
    (_FULL, "problem.f_star", ConfigError, r"problem\.f_star: expected a number"),
    (_FULL, "problem.pl_constant", ConfigError, r"problem\.pl_constant: expected a number"),
    (_FULL, "problem.smoothness", ConfigError, r"problem\.smoothness: expected a number"),
    (_FULL, "problem.sigma_sq", ConfigError, r"problem\.sigma_sq: expected a number"),
    (_FULL, "problem.zeta_sq", ConfigError, r"problem\.zeta_sq: expected a number"),
    (_FULL, "schedule.kind", ConfigError, r"schedule\.kind: expected decaying\|constant"),
    (_FULL, "schedule.scale", ConfigError, r"schedule\.scale: expected a number"),
    (_FULL, "schedule.k0", ConfigError, r"schedule\.k0: expected an integer"),
    (_FULL, "noise.variance", ConfigError, r"noise\.variance: expected a number"),
    (_FULL_DP, "noise.from_local_dp", ConfigError, r"noise\.from_local_dp: expected a mapping"),
    (_FULL_DP, "noise.from_local_dp.epsilon", ConfigError, r"noise\.(from_local_dp\.)?epsilon: expected a number"),
    (_FULL_DP, "noise.from_local_dp.delta", ConfigError, r"noise\.(from_local_dp\.)?delta: expected a number"),
    (_FULL_DP, "noise.from_local_dp.grad_bound", ConfigError, r"noise\.(from_local_dp\.)?grad_bound: expected a number"),
    (_FULL, "attack.kind", ConfigError, r"attack\.kind"),
    (_FULL, "attack.s_b", ConfigError, r"attack\.s_b: expected a number"),
    (_FULL, "attack.d_r", ConfigError, r"attack\.d_r: expected a number"),
    (_FULL, "attack.p_mult", ConfigError, r"attack\.p_mult: expected a number"),
    (_FULL, "attack.p_add", ConfigError, r"attack\.p_add: expected a number"),
    (_FULL, "attack.p_add.kind", ConfigError, r"attack\.p_add\.kind"),
    (_FULL, "attack.p_add.scale", ConfigError, r"attack\.p_add\.scale: expected a number"),
    (_FULL, "attack.p_add.k0", ConfigError, r"attack\.p_add\.k0: expected an integer"),
    (_FULL, "attack.victim", None, "a838bcdb93c325429a764406d54352da59e50dac3629f6baef667ebe6da84ae8"),
    (_FULL, "attack.alie_local", ConfigError, r"attack\.alie_local: expected a boolean"),
    (_FULL, "aggregation.kind", ConfigError, r"aggregation\.kind: expected scc\|mean"),
    (_FULL, "aggregation.allow_oracle", ConfigError, r"aggregation\.allow_oracle: expected a boolean"),
    (_FULL, "aggregation.tau", ConfigError, r"aggregation\.tau: expected a mapping"),
    (_FULL_MEAN, "aggregation.tau", ConfigError, "aggregation"),
    (_FULL, "aggregation.tau.kind", ConfigError, "unknown clipping-radius kind None"),
    (_FULL, "aggregation.tau.value", ConfigError, r"aggregation\.tau\.value: expected a number"),
    (_FULL, "aggregation.tau.value.kind", ConfigError, r"aggregation\.tau\.value\.kind"),
    (_FULL, "aggregation.tau.value.scale", ConfigError, r"aggregation\.tau\.value\.scale: expected a number"),
    (_FULL, "aggregation.tau.value.k0", ConfigError, r"aggregation\.tau\.value\.k0: expected an integer"),
    (_FULL, "run.horizon", ConfigError, r"run\.horizon: expected an integer"),
    (_FULL, "run.seeds", ConfigError, r"run\.seeds: expected a nonempty list"),
    (_FULL, "run.theory_mode", ConfigError, r"run\.theory_mode: expected a boolean"),
    (_FULL, "run.bound_column", ConfigError, r"run\.bound_column: expected a boolean"),
    (_FULL, "sweep.axes", ConfigError, r"sweep\.axes: expected a list"),
    (_edited([("sweep.axes", [None])], _FULL), "", ConfigError, r"sweep\.axes\[0\]: expected a mapping"),
    (_edited([("sweep.axes", [{"key": "attack.s_b", "values": None}])], _FULL), "", ConfigError, r"sweep\.axes\[0\]\.values: expected a nonempty list"),
    (_edited([("sweep.axes", [{"key": None, "values": [1]}])], _FULL), "", ConfigError, r"sweep\.axes\[0\]\.key: expected a dotted key"),
    (_FULL, "privacy.local", None, "b4d5fed0d2659e23291e6aca059bee2df8f69850d5216f168e9f0f25b05c9576"),
    (_FULL, "privacy.global", None, "34e8548e2611475cb415d2a10b24b18a05396106f7d24658669a5cc8558fed30"),
    (_FULL, "privacy.local.epsilon", ConfigError, r"privacy\.local\.epsilon: expected a number"),
    (_FULL, "privacy.local.delta", ConfigError, r"privacy\.local\.delta: expected a number"),
    (_FULL, "privacy.local.grad_bound", ConfigError, r"privacy\.local\.grad_bound: expected a number"),
    (_FULL, "privacy.global.delta", ConfigError, r"privacy\.global\.delta: expected a number"),
    (_FULL, "privacy.global.grad_bound", ConfigError, r"privacy\.global\.grad_bound: expected a number"),
    (_FULL, "privacy.global.total_samples", ConfigError, r"privacy\.global\.total_samples: expected an integer"),
    (_FULL, "privacy.global.batch_size", ConfigError, r"privacy\.global\.batch_size: expected an integer"),
    (_FULL, "privacy.global.renyi_order", ConfigError, r"privacy\.global\.renyi_order: expected a number"),
    (_FULL, "privacy_trace.swap_agent", ConfigError, r"privacy_trace\.swap_agent: expected an integer"),
    (_FULL, "privacy_trace.replacement_family", ConfigError, r"privacy_trace\.replacement_family: expected an integer"),
]

_RECIPE_HASHES = {
    "adjacent_trace": "486f70d575cee8c3315f90ba210254c622942ba79cfbbc1f279feec3b61f3ba1",
    "attack_zoo_sweep": "553e0cc5b6eab9e5aaa59511520bf34e0bbe5c1d3f52de8d928c41a16dfec97e",
    "byz_sweep": "d657a56b0682dafe74a10895ac11a2d22e6d1b9d3487c8bf2f4681194a4c8a9c",
    "complete_dissensus": "c0f7f0fa3e4dce21e8a74ac73e29711d9eaa3aa56372753846b977ddb9732500",
    "noise_sweep": "9af1a4e9de295a5e10f1147b7da8ef900bee1c27f5bd38c443d7a58136a1a3a3",
    "random_alie": "704d3e479c886ec3a889362bd3cf94c624c2a7b7814186e3a474263c1a78b674",
    "star_signflip": "8d0775b5875faa52b0180fcdd7cd3707c0537edea049ab527376877da2a767b5",
    "theory_bound": "ce380732f78ac1ef2fde93f894a8d021a0f8897919a6374f397202929e215e75",
}
_FULL_HASHES = [
    (_FULL, "14e2346f6f7f29f82e20836c54e52cc2c5fff783fba033dc209ed8e732455671"),
    (_FULL_IDS, "8a9a45998ebca524b8dd34a6383141880f17945920e5e7d7d5149fb6b81c522a"),
    (_FULL_DP, "152dbebb6f70ee1ac73f0bc6c07e4099685f0c3b5206a074d6642c1b722f1536"),
    (_FULL_MEAN, "c56b89f8b9b69d848b3cad22a4145b7e5eeb2507226d4a3b7ee66c443bb39fd5"),
]


@pytest.mark.parametrize(
    "cfg, expected",
    [(_edited(edits), h) for edits, h in _ACCEPTED] + _FULL_HASHES,
    ids=[f"accepted{i:02d}" for i in range(len(_ACCEPTED) + len(_FULL_HASHES))],
)
def test_accepted_configs_keep_their_hash(cfg, expected):
    exp = build_experiment(cfg)
    assert exp.config_hash == expected
    assert config_hash(exp.normalized) == expected


def test_recipes_keep_their_hash():
    assert {p.stem: build_experiment(load_config(p)).config_hash for p in _RECIPES} == _RECIPE_HASHES


@pytest.mark.parametrize(
    "edits, error, pattern", _REFUSED, ids=[f"refused{i:02d}" for i in range(len(_REFUSED))]
)
def test_refused_configs_stay_refused(edits, error, pattern):
    with pytest.raises(error, match=pattern) as err:
        build_experiment(_edited(edits))
    assert type(err.value) is error


@pytest.mark.parametrize(
    "cfg, key, error, outcome", _NULLS, ids=[f"null{i:02d}" for i in range(len(_NULLS))]
)
def test_null_is_absent_for_four_keys_only(cfg, key, error, outcome):
    probe = _edited([(key, None)], cfg) if key else cfg
    if error is None:
        # outcome is the accepted config's hash, the one it has without the key
        exp = build_experiment(probe)
        assert exp.config_hash == outcome
        if key:
            assert build_experiment(_edited([(key, _DROP)], cfg)).config_hash == outcome
        return
    with pytest.raises(error, match=outcome) as err:
        build_experiment(probe)
    assert type(err.value) is error
