"""Config schema: strict validation, canonical hashing, object assembly."""

import json
from pathlib import Path

import pytest
import yaml

import gossipshield
from gossipshield import ConfigError, ConstantSchedule, DecayingSchedule, RegimeError
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
    assert exp.noise.variance == 1.0e-4
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


def test_noise_from_local_budget():
    cfg = _base_cfg()
    cfg["noise"] = {
        "from_local_dp": {"epsilon": 0.9, "delta": 0.01, "grad_bound": 5.0}
    }
    exp = build_experiment(cfg)
    expect = required_variance_local(
        0.9, 0.01, sensitivity_default(5.0), exp.sched
    )
    assert exp.noise.variance == expect
    assert exp.noise_derived

    cfg["noise"]["variance"] = 1.0
    with pytest.raises(ConfigError, match="either"):
        build_experiment(cfg)

    cfg = _base_cfg()
    cfg["noise"] = {"variance": -1.0}
    with pytest.raises(ConfigError, match="nonnegative"):
        build_experiment(cfg)


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
    assert len(_RECIPES) == 7
    scalars = []
    for path in _RECIPES:
        text = path.read_text()
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)
        # the override strings a sweep builds for its cells
        for axis in fast.get("sweep", {}).get("axes", []):
            scalars += [json.dumps(value) for value in axis["values"]]
    assert len(scalars) == 17
    for raw in scalars + ["5", "1.0e-4", "true", "null", "-.inf", "[1, 2]", "{a: 1}"]:
        assert yaml.load(raw, Loader=yaml.CSafeLoader) == yaml.load(raw, Loader=yaml.SafeLoader)

    used = []
    real_load = yaml.load

    def spy(stream, Loader):
        used.append(Loader)
        return real_load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    parsed = load_config(_RECIPES[0])
    assert used == [yaml.CSafeLoader]
    # without libyaml the pure-Python parser reads the same dict
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert load_config(_RECIPES[0]) == parsed
    assert apply_overrides({}, ["run.horizon=5"]) == {"run": {"horizon": 5}}
    assert used[1:] == [yaml.SafeLoader, yaml.SafeLoader]


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
