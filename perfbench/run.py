"""Sweep benchmark for vecop: time to a certified-optimal table.

    python3 perfbench/run.py --workload joint-sweep --seed 42 --seconds 20 --trace 0

Run from the root of a checkout; vecop is imported from its src/. With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run and writes its spans to
perfbench/traces/. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The workloads, metrics and baseline are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vecop" / "__init__.py").is_file():
        print(f"perfbench: no vecop sources at {SRC}", file=sys.stderr)
        return 2
    # HiGHS prints from C straight to file descriptor 1. Point that at
    # stderr for the whole run and write results to a private copy of the
    # real stdout, so the JSON line stays last.
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.path.insert(0, str(SRC))
    import bench
    import gate
    import vecop

    if Path(vecop.__file__).resolve().parent != SRC / "vecop":
        print(f"perfbench: imported vecop from {vecop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        known = ", ".join(bench.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2

    result = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), SRC, gate.load_reference()
    )
    if result.tracer is not None:
        result.tracer.write(
            Path(__file__).parent / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        )

    lines = [f"workload {args.workload}  seed {args.seed}  sweeps {result.sweeps}  trace {args.trace}"]
    for name, m in result.metrics.items():
        value = f"{m.value:.6f}" if isinstance(m.value, float) else str(m.value)
        lines.append(f"{name:28s} {value:>16s} {m.unit:10s} {m.note}")
    failed = len(result.failures)
    lines.append(
        f"{'failed_frac':28s} {failed / result.attempted:16.6f} {'ratio':10s} "
        f"{failed} of {result.attempted} cells failed the gate"
    )
    lines.extend(f"  FAILED {f}" for f in result.failures)
    summary = {
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {n: {"value": m.value, "unit": m.unit} for n, m in result.metrics.items()},
    }
    lines.append(json.dumps(summary))
    os.write(result_fd, ("\n".join(lines) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
