"""gossipshield benchmark: run workloads, print metrics, check outputs.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a child process of its own, one after another;
without --workload all three run. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from the traced run. Outputs (sweep artifacts, span
files) go to .bench_out/ at the root of the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("zoo-dense100", "sparse-1000", "vec10-custom")
# one workload's child must end within this, so that a single-workload
# run exits inside three minutes
CHILD_TIMEOUT_S = 170.0


def _run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="gossipshield benchmark", usage=__doc__.split("\n\n")[1].strip()
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gossipshield").is_dir():
        print(f"no gossipshield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = _run_child(name, args.seed, args.seconds, args.trace)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 4
        res = results[name]
        print(
            f"{name}: seed {args.seed}, {res['units']} units, {res['rounds']} rounds, "
            f"runs attempted {res['attempted']}, failed {res['failed']}, "
            f"correct {res['correct']}"
        )
        for metric, m in res["metrics"].items():
            print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}")
        if res.get("missing_layers"):
            print(f"  missing layers: {', '.join(res['missing_layers'])}")
        if res.get("span_file"):
            print(f"  spans: {res['span_file']}")

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
