"""Runner artifacts: byte-stable CSVs, sweep plumbing, paired traces."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import gossipshield
from gossipshield.bounds import dk_bound
from gossipshield.cli import main, privacy_trace, run_experiment, sweep_experiment
from gossipshield.config import build_experiment, load_config
from gossipshield.errors import ConfigError
from gossipshield.privacy import required_variance_local, sensitivity_default
from gossipshield.schedules import DecayingSchedule


def _cfg(**over):
    base = {
        "topology": {"kind": "random", "n_agents": 10, "byz_fraction": 0.1, "seed": 3, "edge_p": 0.5},
        "schedule": {"kind": "decaying", "scale": 2.0, "k0": 10},
        "noise": {"variance": 1.0e-4},
        "attack": {"kind": "sign_flip"},
        "aggregation": {"kind": "scc", "tau": {"kind": "manual", "value": 1.0}},
        "run": {"horizon": 30, "seeds": [1, 2]},
    }
    base.update(over)
    return base


def _write(tmp_path, cfg, name="case.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_run_artifacts_and_byte_stability(tmp_path):
    out = tmp_path / "out"
    first = run_experiment(_cfg(), out)
    names = {"run_seed1.csv", "run_seed2.csv", "ensemble.csv", "summary.txt", "config.json"}
    assert {p.name for p in out.iterdir()} == names
    blobs = {name: (out / name).read_bytes() for name in names}

    again = run_experiment(_cfg(), out)
    assert again["hash"] == first["hash"]
    for name in names:
        assert (out / name).read_bytes() == blobs[name], name

    lines = (out / "run_seed1.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={first['hash']}"
    assert lines[1] == "# seed=1"
    assert lines[2] == "# status=completed"
    assert lines[3] == "k,D,D_tilde,f_bar,f_best,gap,dk_bound"
    assert len(lines) == 4 + 31
    # no bound requested: the column stays empty
    assert lines[4].endswith(",")
    assert lines[-1].split(",")[2] == "nan"  # no half-step after the last round

    ens = (out / "ensemble.csv").read_text().splitlines()
    assert ens[1] == "# seeds=1|2"
    assert ens[2] == ("k,D_mean,D_tilde_mean,f_bar_mean,gap_mean_of_min,"
                      "gap_min_of_mean,dk_bound")
    assert len(ens) == 3 + 31

    stored = json.loads((out / "config.json").read_text())
    assert stored["run"]["seeds"] == [1, 2]


def test_run_rejects_sweep_config(tmp_path):
    cfg = _cfg(sweep={"axes": [{"key": "attack.s_b", "values": [0.5, 1.0]}]})
    with pytest.raises(ConfigError, match="sweep verb"):
        run_experiment(cfg, tmp_path / "x")


def test_sweep_cells_and_summary(tmp_path):
    cfg = _cfg(
        run={"horizon": 10, "seeds": [1]},
        sweep={
            "axes": [
                {"key": "attack.s_b", "values": [0.5, 1.0]},
                {"key": "noise.variance", "values": [0.0, 1.0e-4]},
            ]
        },
    )
    out = tmp_path / "sw"
    results = sweep_experiment(cfg, out, max_workers=1)
    assert len(results) == 4
    cells = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert cells == ["cell000", "cell001", "cell002", "cell003"]
    for cell in cells:
        assert (out / cell / "run_seed1.csv").exists()
    rows = (out / "sweep_summary.csv").read_text().splitlines()
    assert rows[1].startswith("cell,axes,")
    assert len(rows) == 2 + 4
    assert 'attack.s_b=0.5;noise.variance=0.0' in rows[2]
    assert 'attack.s_b=1.0;noise.variance=0.0001' in rows[5]
    # cells really ran different configs
    hashes = {
        json.loads((out / c / "config.json").read_text())["attack"].get("s_b")
        for c in cells
    }
    assert hashes == {0.5, 1.0}
    with pytest.raises(ConfigError, match="axes"):
        sweep_experiment(_cfg(), tmp_path / "nosweep")


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = _cfg(
        run={"horizon": 8, "seeds": [1]},
        sweep={"axes": [{"key": "attack.s_b", "values": [0.5, 1.0]}]},
    )
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    sweep_experiment(cfg, serial, max_workers=1)
    sweep_experiment(cfg, parallel, max_workers=2)
    for rel in ("sweep_summary.csv", "cell000/run_seed1.csv", "cell001/ensemble.csv"):
        assert (serial / rel).read_bytes() == (parallel / rel).read_bytes()


@pytest.fixture
def inline_pool(monkeypatch):
    """An in-process stand-in for the sweep's process pool, so no process
    is started. It records the pool size the sweep asks for and the
    function each map runs; the returned dict holds both lists."""
    import concurrent.futures

    seen = {"sizes": [], "mapped": []}

    class InlinePool:
        def __init__(self, max_workers):
            seen["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            seen["mapped"].append(fn)
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return seen


def test_sweep_pool_has_no_more_workers_than_groups(tmp_path, monkeypatch, capsys, inline_pool):
    # under fork every worker starts at the first submit, however few
    # groups there are
    import os

    sizes = inline_pool["sizes"]
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = _cfg(
        run={"horizon": 3, "seeds": [1]},
        sweep={"axes": [{"key": "noise.variance", "values": [0.0, 1.0e-4, 1.0e-3]}]},
    )
    sweep_experiment(cfg, tmp_path / "serial", max_workers=1)
    for workers in (None, 8, 2):
        sweep_experiment(cfg, tmp_path / f"pool{workers}", max_workers=workers)
        summary = (tmp_path / f"pool{workers}" / "sweep_summary.csv").read_bytes()
        assert summary == (tmp_path / "serial" / "sweep_summary.csv").read_bytes()
    assert sizes == [3, 3, 2]  # three groups, one per noise variance
    for workers in (0, -1, True, 2.0):
        with pytest.raises(ConfigError, match="max_workers"):
            sweep_experiment(cfg, tmp_path / "refused", max_workers=workers)
    path = _write(tmp_path, cfg)
    assert main(["sweep", str(path), "--out", str(tmp_path / "cli"), "--workers", "0"]) == 2
    assert "error: max_workers: must be at least 1, got 0" in capsys.readouterr().err
    assert sizes == [3, 3, 2] and not (tmp_path / "refused").exists()


def test_sweep_builds_each_cell_once_and_maps_run_cells(tmp_path, monkeypatch, inline_pool):
    # the pool runs the groups of experiments the parent built and checked:
    # one build for the base config and one per cell, whatever the pool size
    from gossipshield import cli

    builds = []
    inner = cli.build_experiment

    def counted(cfg, built=None):
        builds.append(cfg)
        return inner(cfg, built)

    monkeypatch.setattr(cli, "build_experiment", counted)
    cfg = _cfg(
        run={"horizon": 3, "seeds": [1]},
        sweep={"axes": [
            {"key": "noise.variance", "values": [0.0, 1.0e-4]},
            {"key": "attack.kind", "values": ["sign_flip", "silent"]},
        ]},
    )
    for workers in (1, 2):
        builds.clear()
        sweep_experiment(cfg, tmp_path / f"w{workers}", max_workers=workers)
        assert len(builds) == 1 + 4, workers
    assert inline_pool == {"sizes": [2], "mapped": [cli._run_cells]}


_RECIPES = sorted((Path(gossipshield.__file__).parent / "recipes").glob("*.yaml"))


@pytest.mark.parametrize("recipe", _RECIPES, ids=lambda p: p.stem)
def test_built_experiments_survive_a_pickle_round_trip(recipe, tmp_path, monkeypatch):
    # every group _run_cells is given, a run's or each of a sweep's, crosses
    # a process boundary intact: the unpickled network is derived again by
    # its constructor, and the copy writes the original's bytes
    import pickle

    from gossipshield import cli

    inner = cli._run_cells
    ran = []

    def round_trip(group):
        clone = pickle.loads(pickle.dumps(group))
        for (_, exp, _), (_, twin, _) in zip(group, clone):
            for name in ("recv", "send", "edge_w", "self_w", "indptr", "is_byz"):
                arr = getattr(twin.net, name)
                assert not arr.flags.writeable, name
                assert np.array_equal(arr, getattr(exp.net, name)), name
            assert twin.net.reliable == exp.net.reliable
        moved = [(idx, exp, str(tmp_path / "copy" / Path(out).name)) for idx, exp, out in clone]
        inner(moved)
        result = inner(group)
        for (_, _, out), (_, _, twin_out) in zip(group, moved):
            files = sorted(p.relative_to(out) for p in Path(out).rglob("*"))
            assert files == sorted(p.relative_to(twin_out) for p in Path(twin_out).rglob("*"))
            for rel in files:
                assert (Path(out) / rel).read_bytes() == (Path(twin_out) / rel).read_bytes(), rel
        ran.append(len(group))
        return result

    monkeypatch.setattr(cli, "_run_cells", round_trip)
    cfg = load_config(recipe)
    # what is pickled does not depend on the horizon, and the digest test
    # runs every recipe in full
    cfg["run"]["horizon"] = min(cfg["run"]["horizon"], 50)
    if "sweep" in cfg:
        sweep_experiment(cfg, tmp_path / "out", max_workers=1)
    else:
        run_experiment(cfg, tmp_path / "out")
    assert sum(ran) == (
        np.prod([len(axis["values"]) for axis in cfg["sweep"]["axes"]]) if "sweep" in cfg else 1
    )


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's seeds."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(list(args[4]) if len(args) > 4 else None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


ZOO_KINDS = ["none", "sign_flip", "alie", "dissensus", "perturbed_dup", "silent"]


def test_attack_sweep_is_one_ensemble_on_one_build(tmp_path, monkeypatch):
    from gossipshield import cli, config

    cfg = _cfg(
        attack={"kind": "sign_flip", "victim": 4},
        run={"horizon": 12, "seeds": [1, 2]},
        sweep={"axes": [{"key": "attack.kind", "values": ZOO_KINDS}]},
    )
    out = tmp_path / "sw"
    ensembles = _counted(monkeypatch, cli, "run_ensemble")
    builds = _counted(monkeypatch, config, "benchmark_problem")
    sweep_experiment(cfg, out, max_workers=1)
    assert ensembles == [[1, 2] * len(ZOO_KINDS)]
    assert len(builds) == 1
    # each cell's files are the ones run_experiment writes for it alone
    for idx, kind in enumerate(ZOO_KINDS):
        cell_cfg = _cfg(attack={"kind": kind, "victim": 4}, run={"horizon": 12, "seeds": [1, 2]})
        alone = tmp_path / f"alone{idx}"
        run_experiment(cell_cfg, alone)
        cell = out / f"cell{idx:03d}"
        assert sorted(p.name for p in cell.iterdir()) == sorted(p.name for p in alone.iterdir())
        for path in alone.iterdir():
            assert (cell / path.name).read_bytes() == path.read_bytes(), (kind, path.name)


def test_attack_by_noise_sweep_runs_one_ensemble_per_variance(tmp_path, monkeypatch):
    from gossipshield import cli

    variances = [0.0, 1.0e-4, 1.0e-2]
    cfg = _cfg(
        run={"horizon": 10, "seeds": [1, 2]},
        sweep={"axes": [
            {"key": "attack.kind", "values": ["sign_flip", "silent"]},
            {"key": "noise.variance", "values": variances},
        ]},
    )
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    ensembles = _counted(monkeypatch, cli, "run_ensemble")
    sweep_experiment(cfg, serial, max_workers=1)
    assert ensembles == [[1, 2, 1, 2]] * len(variances)
    # the pool runs the same groups in other processes
    sweep_experiment(cfg, parallel, max_workers=2)
    files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    assert len(files) == 1 + 6 * 5
    for rel in files:
        assert (serial / rel).read_bytes() == (parallel / rel).read_bytes(), rel
    for idx, (kind, variance) in enumerate(
        (k, v) for k in ("sign_flip", "silent") for v in variances
    ):
        stored = json.loads((serial / f"cell{idx:03d}" / "config.json").read_text())
        assert (stored["attack"]["kind"], stored["noise"]["variance"]) == (kind, variance)


def _trace_cfg(noise=0.0, replacement=9):
    cfg = _cfg(
        topology={"kind": "complete", "n_agents": 10, "byz_fraction": 0.0, "seed": 1},
        attack={"kind": "none"},
        aggregation={"kind": "mean"},
        noise={"variance": noise},
        run={"horizon": 25, "seeds": [1]},
    )
    cfg["privacy_trace"] = {"swap_agent": 3, "replacement_family": replacement}
    return cfg


def test_privacy_trace_pairs(tmp_path):
    # agent 3 holds family 4 here; swapping to 9 changes the dynamics
    out = tmp_path / "tr"
    res = privacy_trace(_trace_cfg(noise=0.0, replacement=9), out)
    assert res["max_deviation"] > 0.0
    base = (out / "trace_base_seed1.csv").read_text().splitlines()
    swap = (out / "trace_swapped_seed1.csv").read_text().splitlines()
    assert base[3] == "k," + ",".join(f"x_{i}" for i in range(10))
    assert len(base) == len(swap) == 4 + 26

    # swapping a family to itself is the identity experiment
    out2 = tmp_path / "tr_same"
    res2 = privacy_trace(_trace_cfg(noise=0.0, replacement=4), out2)
    assert res2["max_deviation"] == 0.0
    assert (out2 / "trace_base_seed1.csv").read_bytes() == (
        out2 / "trace_swapped_seed1.csv"
    ).read_bytes().replace(b"# variant=swapped", b"# variant=base")

    cfg = _trace_cfg()
    del cfg["privacy_trace"]
    with pytest.raises(ConfigError, match="privacy_trace"):
        privacy_trace(cfg, tmp_path / "missing")


def test_privacy_trace_runs_one_ensemble_per_variant(tmp_path, monkeypatch):
    from gossipshield import cli

    ensembles = _counted(monkeypatch, cli, "run_ensemble")
    cfg = _trace_cfg(noise=1.0e-4)
    cfg["run"]["seeds"] = [1, 2, 3]
    out = tmp_path / "tr"
    privacy_trace(cfg, out)
    assert ensembles == [[1, 2, 3], [1, 2, 3]]
    for seed in (1, 2, 3):
        for label in ("base", "swapped"):
            lines = (out / f"trace_{label}_seed{seed}.csv").read_text().splitlines()
            assert lines[1:3] == [f"# seed={seed}", f"# variant={label}"]
            assert len(lines) == 4 + 26


def test_privacy_trace_refuses_a_byzantine_swap_agent(tmp_path, capsys):
    cfg = _cfg()
    cfg["privacy_trace"] = {"swap_agent": 3, "replacement_family": 9}
    path = _write(tmp_path, cfg)
    # agent 0 is flagged in this network; the override must be refused
    argv = ["privacy-trace", str(path), "--out", str(tmp_path / "x")]
    assert main(argv + ["--set", "privacy_trace.swap_agent=0"]) == 2
    assert "swap_agent: the observed agent must be reliable" in capsys.readouterr().err
    # the config key is the one way to set the swapped agent
    with pytest.raises(SystemExit):
        main(argv + ["--swap", "3"])


_ADJACENT = Path(gossipshield.__file__).parent / "recipes" / "adjacent_trace.yaml"


def test_main_privacy_trace_refuses_sweep_axes(tmp_path, capsys):
    cfg = load_config(_ADJACENT)
    cfg["sweep"] = {"axes": [{"key": "noise.variance", "values": [1.0e-2, 1.0e-1]}]}
    out = tmp_path / "x"
    assert main(["privacy-trace", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    assert "config declares sweep axes; use the sweep verb" in capsys.readouterr().err
    assert not out.exists()


def test_main_privacy_trace_refuses_an_undefined_bound_column(tmp_path, capsys):
    # the recipe's step scale 1.0 is far above its theta (about 1e-33)
    out = tmp_path / "x"
    argv = ["privacy-trace", str(_ADJACENT), "--out", str(out), "--set", "run.bound_column=true"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "error: disagreement bound undefined outside the regime" in capsys.readouterr().err
    assert not out.exists()


def test_main_run_and_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GOSSIPSHIELD_OUT", str(tmp_path / "root"))
    path = _write(tmp_path, _cfg())
    assert main(["run", str(path), "--set", "run.horizon=5"]) == 0
    out_dir = tmp_path / "root" / "case"
    assert (out_dir / "summary.txt").exists()
    rows = (out_dir / "run_seed1.csv").read_text().splitlines()
    assert len(rows) == 4 + 6  # horizon override took effect

    assert main(["report", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "config_hash:" in printed
    assert "run_seed1.csv: completed" in printed

    assert main(["report", str(tmp_path / "nowhere")]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg = _cfg()
    cfg["typo_section"] = {}
    path = _write(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_main_reports_unreadable_configs(tmp_path, capsys):
    # each of these exited 1 with a traceback
    bad = tmp_path / "bad.yaml"
    bad.write_text("topology: {kind: random\n")
    recipe = Path(gossipshield.__file__).parent / "recipes" / "star_signflip.yaml"
    for argv, message in (
        (["run", str(bad)], "line 1, column 11"),
        (["run", str(tmp_path / "nowhere.yaml")], "cannot read the config"),
        (["run", str(recipe), "--set", "attack.kind=[x"], "override 'attack.kind=[x'"),
    ):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_main_refuses_non_integer_families(tmp_path, capsys):
    # the float list ran as families 1-5; the NaN exited 1 with a traceback
    recipe = Path(gossipshield.__file__).parent / "recipes" / "star_signflip.yaml"
    cfg = yaml.safe_load(recipe.read_text())
    n = cfg["topology"]["n_agents"]
    for bad in (1.5, float("nan")):
        cfg["problem"] = {"family_of": [bad] + [1] * (n - 1)}
        path = tmp_path / "families.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: problem.family_of[0]: expected an integer")
        assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["run.bound_column", "run.theory_mode"])
# the bound column warns that the schedule is outside the regime, then refuses
@pytest.mark.filterwarnings("ignore:running outside the theory regime")
def test_main_refused_run_leaves_no_directory(tmp_path, capsys, key):
    # random_alie's 20% Byzantine network is outside the contraction regime
    recipe = Path(gossipshield.__file__).parent / "recipes" / "random_alie.yaml"
    out = tmp_path / "o"
    argv = ["run", str(recipe), "--out", str(out), "--set", f"{key}=true",
            "--set", "run.horizon=5"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_main_sweep_verb(tmp_path, capsys):
    cfg = _cfg(
        run={"horizon": 6, "seeds": [1]},
        sweep={"axes": [{"key": "attack.s_b", "values": [0.5, 1.0]}]},
    )
    path = _write(tmp_path, cfg)
    out = tmp_path / "sweepout"
    assert main(["sweep", str(path), "--out", str(out), "--workers", "1"]) == 0
    assert (out / "sweep_summary.csv").exists()
    assert "2 cells" in capsys.readouterr().out


# the second cell's bound column is undefined, so the sweep refuses while
# it builds its cells, before any cell runs
def test_main_refused_sweep_leaves_no_directory(tmp_path, capsys, monkeypatch):
    from gossipshield import cli

    ensembles = _counted(monkeypatch, cli, "run_ensemble")
    cfg = _cfg(
        schedule={"kind": "decaying", "scale": 1.0e-6, "k0": 1000},
        run={"horizon": 10, "seeds": [1], "bound_column": True},
        sweep={"axes": [{"key": "topology.byz_fraction", "values": [0.0, 0.1]}]},
    )
    path = _write(tmp_path, cfg)
    out = tmp_path / "sweepout"
    assert main(["sweep", str(path), "--out", str(out), "--workers", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert ensembles == []
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.yaml"]


# theta and theta_min of the 50-agent network below, equal there
_THETA = 0.005565153427786793


def _in_regime_cfg(**run):
    """demos/theory_bound_check.py's regime with a bound column: no
    Byzantine agents, stepped at the network's theta_min and k0 for this
    masking variance."""
    return _cfg(
        topology={"kind": "random", "n_agents": 50, "byz_fraction": 0.0, "seed": 2, "edge_p": 0.2},
        schedule={"kind": "decaying", "scale": _THETA, "k0": 13},
        noise={"variance": 1.0e-6},
        attack={"kind": "none"},
        aggregation={"kind": "scc", "tau": {"kind": "manual", "value": 1.0e6}},
        run={"horizon": 30, "seeds": [1, 2], "bound_column": True, **run},
    )


def _csv_columns(path):
    """The float columns of a CSV that run wrote, by header name."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(lines[0].split(","))}


def test_bound_columns_are_ceilings_from_the_logs(tmp_path):
    cfg = _in_regime_cfg()
    exp = build_experiment(cfg)
    run_experiment(cfg, tmp_path / "out")
    k = np.arange(31)
    d0 = {}
    for seed in (1, 2):
        cols = _csv_columns(tmp_path / "out" / f"run_seed{seed}.csv")
        d0[seed] = cols["D"][0]
        # each seed's ceiling starts from its own initial disagreement
        assert cols["dk_bound"] == dk_bound(exp.consts, d0[seed], k, exp.sched).tolist()
    assert d0[1] != d0[2]
    # the ensemble's starts from the seeds' mean
    mean_d0 = float(np.mean([d0[1], d0[2]]))
    cols = _csv_columns(tmp_path / "out" / "ensemble.csv")
    assert cols["dk_bound"] == dk_bound(exp.consts, mean_d0, k, exp.sched).tolist()


@pytest.mark.parametrize("section", [
    # a Byzantine neighbour puts rho above rho_bar
    {"topology": {"kind": "random", "n_agents": 50, "byz_fraction": 0.1, "seed": 2, "edge_p": 0.2}},
    {"schedule": {"kind": "decaying", "scale": _THETA, "k0": 12}},  # k0 * phi < 2
    {"schedule": {"kind": "decaying", "scale": 2 * _THETA, "k0": 13}},
    {"schedule": {"kind": "constant", "scale": 2 * _THETA}},
], ids=["byzantine", "k0", "decaying", "constant"])
def test_main_refused_bound_column_runs_no_round(tmp_path, capsys, monkeypatch, section):
    from gossipshield import cli

    ensembles = _counted(monkeypatch, cli, "run_ensemble")
    out = tmp_path / "o"
    argv = ["run", str(_write(tmp_path, {**_in_regime_cfg(), **section})), "--out", str(out)]
    with warnings.catch_warnings():
        # the refusal comes first, so no regime warning is raised before it
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "error: disagreement bound undefined outside the regime" in capsys.readouterr().err
    assert ensembles == []
    assert not out.exists()
    # the admissible config runs
    argv = ["run", str(_write(tmp_path, _in_regime_cfg(horizon=3))), "--out", str(out)]
    assert main(argv) == 0
    assert ensembles == [[1, 2]]


def test_main_refuses_a_sweep_cell_whose_fixed_victim_is_byzantine(tmp_path, capsys, monkeypatch):
    from gossipshield import cli

    ensembles = _counted(monkeypatch, cli, "run_ensemble")
    # agent 5 is reliable at byz_fraction 0.0 and 0.1 and Byzantine at 0.2
    cfg = _cfg(
        topology={"kind": "random", "n_agents": 20, "byz_fraction": 0.1, "seed": 2, "edge_p": 0.9},
        attack={"kind": "perturbed_dup", "victim": 5},
        run={"horizon": 10, "seeds": [1]},
        sweep={"axes": [{"key": "topology.byz_fraction", "values": [0.0, 0.1, 0.2, 0.3]}]},
    )
    path = _write(tmp_path, cfg)
    out = tmp_path / "sweepout"
    with pytest.raises(ConfigError, match="victim 5"):
        sweep_experiment(cfg, out, max_workers=1)
    assert main(["sweep", str(path), "--out", str(out), "--workers", "1"]) == 2
    assert "victim 5" in capsys.readouterr().err
    assert ensembles == []
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.yaml"]


def test_sweep_into_existing_directory_replaces_its_own_files(tmp_path):
    cfg = _cfg(
        run={"horizon": 6, "seeds": [1]},
        sweep={"axes": [{"key": "attack.s_b", "values": [0.5, 1.0]}]},
    )
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    sweep_experiment(cfg, fresh, max_workers=1)
    (reused / "cell000").mkdir(parents=True)
    (reused / "cell000" / "run_seed1.csv").write_text("stale\n")
    (reused / "notes.txt").write_text("kept\n")
    sweep_experiment(cfg, reused, max_workers=1)
    for rel in ("sweep_summary.csv", "cell000/run_seed1.csv", "cell001/ensemble.csv"):
        assert (fresh / rel).read_bytes() == (reused / rel).read_bytes()
    assert (reused / "notes.txt").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "reused"]


@pytest.mark.parametrize("override", ["run.seeds=[-2]", "topology.seed=-3"])
def test_main_rejects_negative_seeds(tmp_path, capsys, override):
    path = _write(tmp_path, _cfg())
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out), "--set", override]) == 2
    # the config parser names the offending key
    err = capsys.readouterr().err
    assert override.split("=")[0] in err and "must be at least 0" in err
    assert not out.exists()


@pytest.mark.parametrize("override", ["noise=null", "sweep=null", "run=null"])
def test_main_rejects_null_sections(tmp_path, capsys, override):
    recipe = Path(gossipshield.__file__).parent / "recipes" / "star_signflip.yaml"
    out = tmp_path / "o"
    assert main(["run", str(recipe), "--out", str(out), "--set", override]) == 2
    assert f"{override.split('=')[0]}: expected a mapping" in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_an_empty_section_key(tmp_path, capsys):
    path = tmp_path / "case.yaml"
    path.write_text(yaml.safe_dump(_cfg()).replace("noise:\n  variance: 0.0001\n", "noise:\n"))
    assert yaml.safe_load(path.read_text())["noise"] is None
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "noise: expected a mapping" in capsys.readouterr().err
    assert not out.exists()


def test_exponent_floats_without_a_decimal_point(tmp_path):
    # YAML 1.1 reads 1e-06 as a string, and json.dumps(1e-06) is 1e-06: a
    # sweep over these values built its cells by writing each value out
    # and parsing it back, and exited 2 with "expected a number, got
    # '1e-06'"; 1e-6 in a file or a --set override did the same
    axes = [{"key": "noise.variance", "values": [0.0, 1.0e-6, 1e-05]}]
    cfg = _cfg(run={"horizon": 5, "seeds": [1]}, sweep={"axes": axes})
    sweep_experiment(cfg, tmp_path / "sweep", max_workers=1)
    rows = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in rows[2:]] == [
        "noise.variance=0.0", "noise.variance=1e-06", "noise.variance=1e-05",
    ]
    stored = json.loads((tmp_path / "sweep" / "cell001" / "config.json").read_text())
    assert stored["noise"]["variance"] == 1e-6

    text = yaml.safe_dump(_cfg(run={"horizon": 5, "seeds": [1]}))
    assert "variance: 0.0001" in text
    path = tmp_path / "exp.yaml"
    path.write_text(text.replace("variance: 0.0001", "variance: 1e-6"))
    for argv, variance in (
        ([], 1e-6),
        (["--set", "noise.variance=1E-5"], 1e-5),
        (["--set", "aggregation.tau.value=1e+16"], 1e-6),
    ):
        out = tmp_path / "run"
        assert main(["run", str(path), "--out", str(out), *argv]) == 0
        stored = json.loads((out / "config.json").read_text())
        assert stored["noise"]["variance"] == variance
    assert stored["aggregation"]["tau"]["value"] == 1e16

    # a sweep key crosses no value, as an override does not
    cfg["sweep"] = {"axes": [{"key": "run.horizon.nested", "values": [1]}]}
    with pytest.raises(ConfigError, match="crosses a non-section value"):
        sweep_experiment(cfg, tmp_path / "crossing")


def _summary(tmp_path, cfg, name="out"):
    run_experiment(cfg, tmp_path / name)
    return (tmp_path / name / "summary.txt").read_text().splitlines()


def test_summary_prints_the_theory_block_in_regime(tmp_path):
    # demos/theory_bound_check.py's regime: no Byzantine agents, stepped at
    # the network's theta_min and k0 for this masking variance
    cfg = _cfg(
        topology={"kind": "random", "n_agents": 50, "byz_fraction": 0.0, "seed": 2, "edge_p": 0.2},
        schedule={"kind": "decaying", "scale": 0.005565153427786793, "k0": 13},
        noise={"variance": 1.0e-6},
        attack={"kind": "none"},
        aggregation={"kind": "scc", "tau": {"kind": "manual", "value": 1.0e6}},
        run={"horizon": 30, "seeds": [1, 2], "bound_column": True},
    )
    lines = _summary(tmp_path, cfg)
    block = lines[lines.index("theory:") + 1 :]
    assert block[0].startswith("  contraction rho=0.0 admissible=")
    assert block[1].startswith("  mixing=") and block[1].endswith(" k0=13")
    assert block[2] == (
        "  theta=0.005565153427786793 theta_min=0.005565153427786793 regime_valid=True"
    )
    last = (tmp_path / "out" / "ensemble.csv").read_text().splitlines()[-1]
    assert block[3] == f"  disagreement ceiling final={last.split(',')[-1]}"
    total = float(block[4].removeprefix("  gap ceiling total="))
    terms = [line.split(" = ") for line in block[5:]]
    assert [name for name, _ in terms] == [
        "    initial_gap (initial)", "    sampling_tail (sampling)",
        "    disagreement_contraction (byzantine)", "    disagreement_mean (disagreement)",
        "    disagreement_weighted (byzantine)", "    contraction_floor (byzantine)",
        "    masking_floor (privacy)",
    ]
    # the total is the sum of its parts; no Byzantine agent, no Byzantine term
    assert total == sum(float(value) for _, value in terms)
    assert [value for name, value in terms if "byzantine" in name] == ["0.0"] * 3

    # a run of no rounds has no decaying-regime gap bound
    cfg["run"]["horizon"] = 0
    lines = _summary(tmp_path, cfg, "empty")
    assert lines[-1] == "  gap ceiling skipped: decaying-regime bound needs at least one round"


def test_summary_prints_the_constant_regime_gap_ceiling(tmp_path):
    # the in-regime network above, stepped at theta_min for every round
    cfg = _cfg(
        topology={"kind": "random", "n_agents": 50, "byz_fraction": 0.0, "seed": 2, "edge_p": 0.2},
        schedule={"kind": "constant", "scale": 0.005565153427786793},
        noise={"variance": 1.0e-6},
        attack={"kind": "none"},
        aggregation={"kind": "scc", "tau": {"kind": "manual", "value": 1.0e6}},
        run={"horizon": 30, "seeds": [1, 2], "bound_column": True},
    )
    lines = _summary(tmp_path, cfg)
    block = lines[lines.index("theory:") + 1 :]
    assert block[2].endswith(" regime_valid=True")
    total = float(block[4].removeprefix("  gap ceiling total="))
    terms = [line.split(" = ") for line in block[5:]]
    assert [name for name, _ in terms] == [
        "    initial_gap (initial)", "    disagreement_contraction (byzantine)",
        "    disagreement_mean (disagreement)", "    disagreement_weighted (byzantine)",
        "    sampling_step (sampling)", "    contraction_floor (byzantine)",
        "    masking_floor (privacy)",
    ]
    assert total == sum(float(value) for _, value in terms)
    assert [value for name, value in terms if "byzantine" in name] == ["0.0"] * 3


def test_summary_prints_the_local_budget(tmp_path):
    local = {"epsilon": 0.5, "delta": 0.01, "grad_bound": 5.0}
    need = required_variance_local(0.5, 0.01, sensitivity_default(5.0), DecayingSchedule(2.0, 10))
    lines = _summary(tmp_path, _cfg(privacy={"local": local}))
    privacy = lines[lines.index("privacy:") + 1 :]
    assert privacy == [
        "  masking variance=0.0001 (configured)",
        f"  local budget (eps=0.5, delta=0.01): required variance={need!r} met=False",
    ]
    # masking derived from the same budget meets it
    cfg = _cfg(noise={"from_local_dp": local}, privacy={"local": local})
    privacy = _summary(tmp_path, cfg, "derived")[-2:]
    assert privacy == [
        f"  masking variance={need!r} (derived from local budget)",
        f"  local budget (eps=0.5, delta=0.01): required variance={need!r} met=True",
    ]
