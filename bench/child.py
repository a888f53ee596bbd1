"""Run one workload in this process and print its result as JSON.

Started by run.py, one process per workload, so that peak resident memory
is the workload's own. Repeats the workload's unit until the next unit
would end after --seconds (at least MIN_UNITS units), then prints one JSON
line. With --trace 1 the units alternate untraced and traced; each
per-layer metric is the median over the traced units, and the spans of
the last traced unit are written to --out.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_UNITS = 3


def _load():
    if not (SRC / "gossipshield" / "__init__.py").is_file():
        sys.exit(f"no gossipshield sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gossipshield

    if Path(gossipshield.__file__).resolve().parent != SRC / "gossipshield":
        sys.exit(f"imported gossipshield from {gossipshield.__file__}, not {SRC}")
    import layers
    import spans
    import workloads

    return workloads, layers, spans


def _rate(units) -> float:
    """Median over units of the unit's rounds divided by the wall time of
    the calls that ran them."""
    return statistics.median(u.rounds / u.round_s if u.round_s > 0 else 0.0 for u in units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workloads, layers, spans = _load()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload](args.seed, args.out / f"{args.workload}-seed{args.seed}")

    plain, traced, layer_values = [], [], []
    tracer = None
    start = time.perf_counter()
    while True:
        tracing = bool(args.trace) and len(plain) > len(traced)
        if tracing:
            tracer = spans.Tracer()
            layers.install(tracer)
        try:
            unit = work.unit()
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            traced.append(unit)
            layer_values.append(layers.reduce(tracer, unit.rounds))
        else:
            plain.append(unit)
        print(
            f"{args.workload}: unit {len(plain) + len(traced)}{' traced' if tracing else ''}: "
            f"wall {unit.wall_s:.3f} s, setup {unit.setup_s:.3f} s, "
            f"{unit.rounds} rounds in {unit.round_s:.3f} s",
            file=sys.stderr,
        )
        for problem in unit.problems:
            print(f"{args.workload}: {problem}", file=sys.stderr)
        done = plain + traced
        elapsed = time.perf_counter() - start
        typical = statistics.median(u.wall_s for u in done)
        if len(done) >= MIN_UNITS and (not args.trace or traced) and elapsed + typical > args.seconds:
            break

    result = {
        "correct": not any(u.problems for u in done),
        "attempted": sum(u.attempted for u in done),
        "failed": sum(u.failed for u in done),
        "units": len(done),
        "rounds": sum(u.rounds for u in done),
    }
    if not args.trace:
        metrics = {
            "rounds_per_s": (_rate(plain), "rounds/s"),
            "wall_s": (statistics.median(u.wall_s for u in plain), "s"),
            "setup_s": (statistics.median(u.setup_s for u in plain), "s"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        untraced, with_spans = _rate(plain), _rate(traced)
        metrics = {
            name: (statistics.median(v[name] for v in layer_values), unit)
            for name, unit in layers.METRICS
        }
        metrics["trace.rounds_per_s_untraced"] = (untraced, "rounds/s")
        metrics["trace.rounds_per_s_traced"] = (with_spans, "rounds/s")
        metrics["trace.overhead_ratio"] = (untraced / with_spans if with_spans else 0.0, "ratio")
        result["missing_layers"] = tracer.missing
        # spans of the last traced unit only, which keeps the file and the
        # tracer's memory to one unit's worth
        span_file = args.out / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(span_file)
        result["span_file"] = str(span_file.relative_to(ROOT))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
