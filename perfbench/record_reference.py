"""Record the reference rows the correctness gate compares against.

    python3 perfbench/record_reference.py --commit <short hash>

Run from the root of a checkout at the commit the reference should describe.
It sweeps every lot any workload can reach: the default lot for the joint
workloads and every lot of the seeded pool for power-lots. Each row keeps its
status, and power-only rows also keep their objective.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vecop import harness  # noqa: E402
from vecop.scenario import ObjectivePreset, generate_default  # noqa: E402

import bench  # noqa: E402
import gate  # noqa: E402


def record_lot(lot: int, plans) -> dict:
    rows = {}
    for demands, settings, presets in plans:
        table = harness.sweep(
            generate_default(lot), demands=demands, settings=settings, presets=presets, threads=2
        )
        for r in table.rows:
            power = r.objective == ObjectivePreset.POWER_ONLY and r.status == "optimal"
            key = gate.row_key(r.demand_kbps, r.setting, r.objective)
            rows[key] = [r.status, r.objective_value if power else None]
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True)
    args = parser.parse_args()
    plans: dict[int, set] = defaultdict(set)
    for w in bench.WORKLOADS.values():
        for lot in range(bench.LOT_POOL) if w.seeded else [bench.DEFAULT_LOT]:
            plans[lot].add((w.demands, w.settings, w.presets))
    lines = [f'{{"commit": {json.dumps(args.commit)}, "lots": {{']
    for i, lot in enumerate(sorted(plans)):
        sep = "," if i + 1 < len(plans) else ""
        rows = record_lot(lot, sorted(plans[lot], key=str))
        lines.append(f'"{lot}": {json.dumps(rows)}{sep}')
        print(f"lot {lot} recorded", file=sys.stderr)
    lines.append("}}")
    gate.REFERENCE_PATH.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
