"""A/B benchmark: run two checkouts' bench/run.py alternately, pair by pair.

    python3 tools/bench_ab.py --baseline OTHER --workload zoo-dense100 \\
        --pairs 10 --seconds 40 [--first-seed 101]

OTHER is a checkout of the parent (``git archive`` or ``git clone``) with
its own ``bench/`` and ``src/``. Pair p runs the workload once on each
tree with the seed first_seed + p, so every pair sees fresh inputs, and
the side that runs first alternates: the baseline first in even pairs,
this checkout first in odd ones. Run length is the same on both sides.

For every end-to-end metric of this checkout's BENCHMARK.json the report
gives each side's median and quartiles, the per-pair ratio change /
baseline, how many pairs the change won (ties count for neither side)
and whether the medians differ by more than the baseline's quartile
spread. It also counts runs that were not correct or had failed
operations. The last line of standard output is the summary as one JSON
object; each run's own output goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(tree / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    print(proc.stdout, file=sys.stderr, end="")
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: bench/run.py exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> tuple:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(metrics: list, base_runs: list, change_runs: list) -> dict:
    """Per metric: both sides' quartiles, per-pair ratios, wins and
    whether the median gap exceeds the baseline's quartile spread."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        losses = sum((c < b) if higher else (c > b) for b, c in zip(base, change))
        bq, cq = _quartiles(base), _quartiles(change)
        gap = (cq[1] - bq[1]) if higher else (bq[1] - cq[1])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "baseline": bq,
            "change": cq,
            "ratios": [c / b if b else float("nan") for b, c in zip(base, change)],
            "wins": wins,
            "losses": losses,
            "pairs": len(base),
            "median_gap_beats_spread": gap > bq[2] - bq[0],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="checkout to compare against (holds bench/ and src/)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--first-seed", type=int, default=101,
                        help="seed of the first pair; pair p uses first_seed + p")
    args = parser.parse_args(argv)
    baseline = args.baseline.resolve()
    if not (baseline / "bench" / "run.py").is_file():
        print(f"no bench/run.py under {baseline}", file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    base_runs, change_runs = [], []
    for p in range(args.pairs):
        seed = args.first_seed + p
        sides = [(baseline, base_runs), (ROOT, change_runs)]
        for tree, runs in sides if p % 2 == 0 else sides[::-1]:
            runs.append(_run(tree, args.workload, seed, args.seconds))

    summary = summarize(metrics, base_runs, change_runs)
    bad = {
        side: sum(not r["correct"] or r["failed"] > 0 for r in runs)
        for side, runs in (("baseline", base_runs), ("change", change_runs))
    }
    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    print(f"{args.workload}: {args.pairs} pairs, seeds {seeds}, {args.seconds:g} s per run, "
          f"runs not correct or with failures: baseline {bad['baseline']}, change {bad['change']}")
    print("| metric | baseline median [q1, q3] | change median [q1, q3] | ratio median "
          "| change won | beats spread |")
    print("| --- | --- | --- | --- | --- | --- |")
    for name, m in summary.items():
        b, c = m["baseline"], m["change"]
        print(f"| {name} ({m['unit']}) | {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}] "
              f"| {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}] | {statistics.median(m['ratios']):.3f} "
              f"| {m['wins']}/{m['pairs']} | {'yes' if m['median_gap_beats_spread'] else 'no'} |")
    for name, m in summary.items():
        print(f"{name} ratios: " + " ".join(f"{r:.3f}" for r in m["ratios"]))
    print(json.dumps({"workload": args.workload, "seeds": seeds, "seconds": args.seconds,
                      "not_correct_or_failed": bad, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
