"""Experiment runner: run/sweep/privacy-trace/report over config files.

Artifacts are deterministic by construction: floats print with repr (their
shortest round-trip form), nothing embeds a clock, and every file header
carries the canonical config hash, so re-running a config reproduces every
byte. Output lands under $GOSSIPSHIELD_OUT (default ./runs).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .bounds import ConvergenceBoundInputs, dk_bound, theorem2_rhs, theorem3_rhs
from .config import apply_overrides, build_experiment, load_config, set_path
from .engine import EnsembleResult, run_ensemble
from .errors import ConfigError, GossipShieldError, count
from .objectives import benchmark_problem
from .privacy import global_epsilon, required_variance_local, sensitivity_default
from .schedules import DecayingSchedule

__all__ = ["main", "run_experiment", "sweep_experiment", "privacy_trace"]

_RUN_COLUMNS = "k,D,D_tilde,f_bar,f_best,gap,dk_bound"
_ENSEMBLE_COLUMNS = (
    "k,D_mean,D_tilde_mean,f_bar_mean,gap_mean_of_min,gap_min_of_mean,dk_bound"
)


def _fmt(x) -> str:
    return repr(float(x))


def _out_root() -> Path:
    return Path(os.environ.get("GOSSIPSHIELD_OUT", "runs"))


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _rows(k, columns):
    """One CSV row per round of k: the round, then a cell per column, each
    the repr of its float as _fmt writes it; a None column is empty cells."""
    cells = [
        [""] * len(k) if col is None else map(repr, np.asarray(col, dtype=float).tolist())
        for col in columns
    ]
    for row in zip(map(str, np.asarray(k).tolist()), *cells):
        yield ",".join(row)


def _seed_csv(log, cfg_hash: str):
    yield f"# config_hash={cfg_hash}"
    yield f"# seed={log.seed}"
    yield f"# status={log.status}"
    yield _RUN_COLUMNS
    yield from _rows(
        log.k, (log.consensus, log.pre_agg, log.f_bar, log.f_best, log.gap, log.dk_bound)
    )


def _ensemble_csv(ens, cfg_hash: str, seeds):
    yield f"# config_hash={cfg_hash}"
    yield "# seeds=" + "|".join(str(s) for s in seeds)
    yield _ENSEMBLE_COLUMNS
    yield from _rows(ens.k, (
        ens.consensus_mean, ens.pre_agg_mean, ens.f_bar_mean,
        ens.gap_mean_of_min, ens.gap_min_of_mean, ens.dk_bound,
    ))


def _bounds_block(exp, ens):
    if exp.consts is None:
        return
    c = exp.consts
    yield "theory:"
    yield f"  contraction rho={_fmt(c.rho)} admissible={_fmt(c.rho_bar)}"
    yield f"  mixing={_fmt(c.mixing_sq)} phi={_fmt(c.phi)} k0={c.k0}"
    yield (
        f"  theta={_fmt(c.theta)} theta_min={_fmt(c.theta_min)} "
        f"regime_valid={c.regime_valid}"
    )
    if ens.dk_bound is not None:
        yield f"  disagreement ceiling final={_fmt(ens.dk_bound[-1])}"
    try:
        inputs = ConvergenceBoundInputs(
            consts=c,
            f0_gap=float(np.mean([log.gap[0] for log in ens.logs])),
            d_series=ens.consensus_mean,
            schedule=exp.sched,
        )
        if isinstance(exp.sched, DecayingSchedule):
            breakdown = theorem2_rhs(inputs)
        else:
            breakdown = theorem3_rhs(inputs)
    except GossipShieldError as exc:
        yield f"  gap ceiling skipped: {exc}"
        return
    yield f"  gap ceiling total={_fmt(breakdown.total)}"
    for term in breakdown.terms:
        yield f"    {term.name} ({term.driver}) = {_fmt(term.value)}"


def _privacy_block(exp):
    yield "privacy:"
    source = "derived from local budget" if exp.noise_derived else "configured"
    yield f"  masking variance={_fmt(exp.noise)} ({source})"
    if exp.local_dp is not None:
        need = required_variance_local(
            exp.local_dp["epsilon"],
            exp.local_dp["delta"],
            sensitivity_default(exp.local_dp["grad_bound"]),
            exp.sched,
        )
        ok = exp.noise >= need * (1.0 - 1e-12)
        yield (
            f"  local budget (eps={_fmt(exp.local_dp['epsilon'])}, "
            f"delta={_fmt(exp.local_dp['delta'])}): required variance={_fmt(need)} "
            f"met={ok}"
        )
    if exp.budget is not None:
        report = global_epsilon(exp.budget, exp.noise)
        yield (
            f"  global budget: epsilon={_fmt(report.epsilon)} "
            f"delta={_fmt(exp.budget.delta)}"
        )
        yield (
            f"    variance_ok={report.variance_ok} "
            f"renyi_cap={_fmt(report.renyi_cap)} "
            f"preconditions_ok={report.preconditions_ok}"
        )


def _summary_lines(exp, ens):
    yield f"config_hash: {exp.config_hash}"
    yield (
        f"network: {exp.normalized['topology']['kind']} n={exp.net.n_agents} "
        f"reliable={len(exp.net.reliable)} byzantine={len(exp.net.byzantine)}"
    )
    yield (
        f"attack: {exp.attack.kind}  aggregation: {exp.agg}  "
        f"schedule: {exp.sched.kind} scale={_fmt(exp.sched.scale)}"
    )
    yield f"horizon: {exp.horizon}  seeds: {','.join(str(s) for s in exp.seeds)}"
    yield "per-seed:"
    for log in ens.logs:
        tail = f" diverged_at={log.diverged_at}" if log.status == "diverged" else ""
        yield (
            f"  seed={log.seed} status={log.status} final_D={_fmt(log.consensus[-1])} "
            f"final_gap={_fmt(log.gap[-1])}{tail}"
        )
    yield "ensemble:"
    yield f"  final_D_mean={_fmt(ens.consensus_mean[-1])}"
    yield f"  final_gap_mean_of_min={_fmt(ens.gap_mean_of_min[-1])}"
    yield f"  final_gap_min_of_mean={_fmt(ens.gap_min_of_mean[-1])}"
    yield from _privacy_block(exp)
    yield from _bounds_block(exp, ens)


def _write_run(exp, ens, out_dir: Path) -> dict:
    """Write one experiment's per-seed CSVs, ensemble CSV, summary and
    config, and return the small result dict used by sweep summaries."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for log in ens.logs:
        _write_lines(
            out_dir / f"run_seed{log.seed}.csv", _seed_csv(log, exp.config_hash)
        )
    _write_lines(
        out_dir / "ensemble.csv", _ensemble_csv(ens, exp.config_hash, exp.seeds)
    )
    _write_lines(out_dir / "summary.txt", _summary_lines(exp, ens))
    (out_dir / "config.json").write_text(
        json.dumps(exp.normalized, sort_keys=True, indent=2) + "\n"
    )
    return {
        "hash": exp.config_hash,
        "statuses": ens.statuses,
        "final_gap_mean_of_min": float(ens.gap_mean_of_min[-1]),
        "final_d_mean": float(ens.consensus_mean[-1]),
        "n_seed_files": len(ens.logs),
    }


def _run_cells(cells) -> list:
    """Run experiments that differ at most in their attack as one
    run_ensemble call with one member per cell and seed, then write each
    cell's artifacts from its own members.

    cells holds (idx, exp, out_dir) triples; the result is one
    (idx, result dict) pair per cell, in the order given.
    """
    first = cells[0][1]
    seeds = first.seeds
    ens = run_ensemble(
        first.net,
        first.prob,
        first.sched,
        first.horizon,
        seeds * len(cells),
        consts=first.consts,
        noise=first.noise,
        attack=[exp.attack for _, exp, _ in cells for _ in seeds],
        agg=first.agg,
        tau=first.tau,
    )
    results = []
    for c, (idx, exp, out_dir) in enumerate(cells):
        logs = ens.logs[c * len(seeds) : (c + 1) * len(seeds)]
        cell = EnsembleResult.from_logs(logs, exp.prob.f_star, exp.sched, exp.consts)
        results.append((idx, _write_run(exp, cell, Path(out_dir))))
    return results


def run_experiment(cfg: dict, out_dir: Path) -> dict:
    """Execute one config: per-seed CSVs, ensemble CSV, summary. Returns
    a small result dict used by sweep summaries. A config that fails to
    build or run leaves no output directory behind."""
    exp = build_experiment(cfg)
    if exp.sweep_axes:
        raise ConfigError("config declares sweep axes; use the sweep verb")
    return _run_cells([(0, exp, out_dir)])[0][1]


def _strip_sweep(cfg: dict) -> dict:
    out = json.loads(json.dumps(cfg))
    out.pop("sweep", None)
    return out


def _sweep_worker(group):
    """Build one group's cells in this process and run them as one."""
    built = {}
    return _run_cells([(idx, build_experiment(cell_cfg, built), out) for idx, cell_cfg, out in group])


def _publish(stage: Path, out_dir: Path) -> None:
    """Move a finished sweep into out_dir: one rename when out_dir is new,
    otherwise file by file over what is there, as writing in place would."""
    if not out_dir.exists():
        stage.rename(out_dir)
        return
    for src in sorted(stage.rglob("*")):
        if src.is_file():
            dst = out_dir / src.relative_to(stage)
            dst.parent.mkdir(parents=True, exist_ok=True)
            os.replace(src, dst)


def sweep_experiment(cfg: dict, out_dir: Path, max_workers: int | None = None) -> list:
    """Cartesian sweep over the declared axes, one subdirectory per cell.

    Every cell is built and checked before any runs, its bound column
    included. The builds share one network, problem and set of theory
    constants wherever their sections agree, and cells that are equal
    except for their attack form one group: one run_ensemble call whose
    members are the group's cells times the seeds. Each cell's artifacts
    are those run_experiment writes for it. The groups run in a pool of
    min(max_workers or the CPU count, groups) processes, unless that is 1.

    The cells and the summary are written into a temporary sibling of
    out_dir and moved into place only after every cell has returned, so
    a sweep that fails in any cell leaves out_dir as it was."""
    workers = (os.cpu_count() or 1) if max_workers is None else count(max_workers, "max_workers", 1)
    built = {}
    exp = build_experiment(cfg, built)
    axes = exp.sweep_axes
    if not axes:
        raise ConfigError("sweep verb needs a sweep.axes section")
    keys = [key for key, _ in axes]
    cells = list(itertools.product(*(values for _, values in axes)))
    target = out_dir.resolve()
    stage = target.with_name(f".{target.name}.{os.getpid()}.partial")
    shutil.rmtree(stage, ignore_errors=True)
    stage.mkdir(parents=True)
    try:
        groups = {}
        for idx, combo in enumerate(cells):
            cell_cfg = _strip_sweep(cfg)
            for key, val in zip(keys, combo):
                set_path(cell_cfg, key, val)
            cell_exp = build_experiment(cell_cfg, built)
            if cell_exp.consts is not None:
                # a bound column dk_bound refuses fails before any group runs
                dk_bound(cell_exp.consts, 0.0, 0, cell_exp.sched)
            rest = {k: v for k, v in cell_exp.normalized.items() if k != "attack"}
            groups.setdefault(json.dumps(rest, sort_keys=True), []).append(
                (idx, cell_cfg, cell_exp, str(stage / f"cell{idx:03d}"))
            )
        groups = list(groups.values())

        workers = min(workers, len(groups))
        if workers == 1:
            results = [
                pair for group in groups
                for pair in _run_cells([(idx, e, out) for idx, _, e, out in group])
            ]
        else:
            # imported here: only a pool loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            jobs = [[(idx, c, out) for idx, c, _, out in group] for group in groups]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = [pair for pairs in pool.map(_sweep_worker, jobs) for pair in pairs]
        results.sort(key=lambda pair: pair[0])

        n_files = sum(res["n_seed_files"] for _, res in results)
        expected = len(cells) * len(exp.seeds)
        assert n_files == expected, f"artifact count {n_files} != {expected}"

        lines = [f"# config_hash={exp.config_hash}", "cell,axes,statuses,final_gap_mean_of_min,final_D_mean"]
        for idx, res in results:
            axes_txt = ";".join(
                f"{key}={json.dumps(val)}" for key, val in zip(keys, cells[idx])
            )
            lines.append(
                ",".join(
                    (
                        f"cell{idx:03d}",
                        axes_txt,
                        "|".join(res["statuses"]),
                        _fmt(res["final_gap_mean_of_min"]),
                        _fmt(res["final_d_mean"]),
                    )
                )
            )
        _write_lines(stage / "sweep_summary.csv", lines)
        _publish(stage, out_dir)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return [res for _, res in results]


def _trace_csv(log, cfg_hash: str, label: str):
    yield f"# config_hash={cfg_hash}"
    yield f"# seed={log.seed}"
    yield f"# variant={label}"
    n = log.traces.shape[1]
    yield "k," + ",".join(f"x_{i}" for i in range(n))
    yield from _rows(log.k, log.traces.T)


def privacy_trace(cfg: dict, out_dir: Path) -> dict:
    """Paired runs on adjacent function sets with identical seeds.

    The observed agent's objective is replaced by the configured family in
    the second run; everything else, including every random draw, stays
    fixed. Each variant's seeds run as one ensemble. Emits full per-agent
    trajectory CSVs for both variants plus the largest per-round deviation
    an observer of the traces would see.
    """
    exp = build_experiment(cfg)
    if exp.trace_swap is None:
        raise ConfigError(
            "privacy-trace needs a privacy_trace section with "
            "swap_agent and replacement_family"
        )
    agent, family = exp.trace_swap
    families = [obj.family for obj in exp.prob.objectives]
    swapped_families = list(families)
    swapped_families[agent] = family
    prob_swapped = benchmark_problem(
        byzantine=exp.net.byzantine,
        n_agents=exp.net.n_agents,
        u_std=exp.prob.u_std,
        v_std=exp.prob.v_std,
        family_of=swapped_families,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    base_logs, swap_logs = (
        run_ensemble(
            exp.net, prob, exp.sched, exp.horizon, exp.seeds, noise=exp.noise,
            attack=exp.attack, agg=exp.agg, tau=exp.tau, record_traces=True,
        ).logs
        for prob in (exp.prob, prob_swapped)
    )
    max_dev = 0.0
    lines = [
        f"config_hash: {exp.config_hash}",
        f"swap_agent: {agent}  family: {families[agent]} -> {family}",
        f"masking variance: {_fmt(exp.noise)}",
        "per-seed max per-round trace deviation:",
    ]
    for seed, base, swap in zip(exp.seeds, base_logs, swap_logs):
        for label, log in (("base", base), ("swapped", swap)):
            _write_lines(
                out_dir / f"trace_{label}_seed{seed}.csv", _trace_csv(log, exp.config_hash, label)
            )
        rows = min(len(base.k), len(swap.k))
        dev = float(
            np.max(np.abs(base.traces[:rows] - swap.traces[:rows]))
        ) if rows else float("nan")
        max_dev = max(max_dev, dev)
        lines.append(f"  seed={seed} deviation={_fmt(dev)}")
    lines.append(f"max_deviation: {_fmt(max_dev)}")
    _write_lines(out_dir / "trace_summary.txt", lines)
    return {"hash": exp.config_hash, "max_deviation": max_dev}


def report(run_dir: Path) -> str:
    """Re-read a finished run directory and render its summary."""
    summary = run_dir / "summary.txt"
    if not summary.exists():
        raise ConfigError(f"{run_dir} has no summary.txt; not a finished run")
    parts = [summary.read_text().rstrip("\n")]
    seeds = sorted(run_dir.glob("run_seed*.csv"))
    if seeds:
        parts.append("seed files:")
        for path in seeds:
            with open(path) as fh:
                header = [next(fh).rstrip("\n") for _ in range(3)]
            status = header[2].removeprefix("# status=")
            parts.append(f"  {path.name}: {status}")
    return "\n".join(parts)


def _resolve_out(args, cfg_path: Path) -> Path:
    if args.out is not None:
        return Path(args.out)
    return _out_root() / cfg_path.stem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gossipshield",
        description="resilient decentralized optimization experiment runner",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep", "privacy-trace"):
        p = sub.add_parser(verb)
        p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config value (dotted path, YAML scalar)",
        )
        if verb == "sweep":
            p.add_argument("--workers", type=int, default=None)
    p_report = sub.add_parser("report")
    p_report.add_argument("run_dir", type=Path)
    args = parser.parse_args(argv)

    try:
        if args.verb == "report":
            print(report(args.run_dir))
            return 0
        cfg = apply_overrides(load_config(args.config), args.overrides)
        out_dir = _resolve_out(args, args.config)
        if args.verb == "run":
            result = run_experiment(cfg, out_dir)
            print(f"wrote {out_dir} (hash {result['hash'][:12]})")
        elif args.verb == "sweep":
            results = sweep_experiment(cfg, out_dir, max_workers=args.workers)
            print(f"wrote {out_dir}: {len(results)} cells")
        else:
            result = privacy_trace(cfg, out_dir)
            print(
                f"wrote {out_dir} (max trace deviation "
                f"{_fmt(result['max_deviation'])})"
            )
        return 0
    except GossipShieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
