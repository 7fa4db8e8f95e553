"""Tests of the benchmark itself: count determinism, the gate, metric names.

    python3 -m pytest -q perfbench/test_perfbench.py

About forty seconds; run from the root of a checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import gate  # noqa: E402
from tracing import Tracer, _covered  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (
    "highs.bb_nodes",
    "formulation.variables",
    "formulation.binaries",
    "formulation.constraints",
    "formulation.nonzeros",
)
# Short joint workload: delay pre-solve plus joint solve with real B&B.
SHORT = bench.Workload((1000.0,), (bench.VE, bench.CLOUD), (bench.POWER, bench.JOINT), 1, False, 1, 100.0)
SHORT_2T = bench.Workload(SHORT.demands, SHORT.settings, SHORT.presets, 2, False, 1, 100.0)
TINY = bench.Workload((1000.0,), (bench.CLOUD,), (bench.POWER,), 1, False, 1, 100.0)


def traced(workload, reference):
    tracer = Tracer()
    sweep = bench.run_sweep(workload, bench.DEFAULT_LOT, reference, tracer)
    return tracer, sweep


def test_counts_repeat_exactly_across_runs_and_threads():
    reference = gate.load_reference()
    runs = [
        traced(SHORT, reference),
        traced(SHORT, reference),
        traced(SHORT_2T, reference),
    ]
    for _, sweep in runs:
        assert sweep.failures == []
    first = {k: runs[0][0].counts[k] for k in COUNTS}
    assert first["highs.bb_nodes"] > 0 and first["formulation.nonzeros"] > 0
    for tracer, _ in runs[1:]:
        assert {k: tracer.counts[k] for k in COUNTS} == first


def test_gate_fails_every_cell_on_a_corrupted_reference():
    reference = gate.load_reference()
    key = gate.row_key(1000.0, bench.CLOUD, bench.POWER)
    status, objective = reference["lots"][str(bench.DEFAULT_LOT)][key]
    assert bench.run_sweep(TINY, bench.DEFAULT_LOT, reference).failures == []

    for corrupt in (["infeasible", None], [status, objective * 0.5]):
        bad = {"lots": {str(bench.DEFAULT_LOT): {key: corrupt}}}
        sweep = bench.run_sweep(TINY, bench.DEFAULT_LOT, bad)
        assert len(sweep.failures) == len(TINY.cells()) == 1


def test_every_metric_is_reported_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "power-lots", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(bench.WORKLOADS["power-lots"].cells())
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    text = "\n".join(lines[:-1])
    for name, unit in [*expected.items(), ("failed_frac", "ratio")]:
        assert any(name in line and unit in line.split() for line in lines[:-1]), text
        assert result["metrics"].get(name, {"value": 1.0})["value"] > 0

    tracer, sweep = traced(TINY, gate.load_reference())
    layers = bench.per_layer(tracer, [sweep], [sweep], TINY.threads)
    assert {n: m.unit for n, m in layers.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_self_times_add_up_to_the_traced_sweep():
    tracer, _ = traced(SHORT, gate.load_reference())
    assert abs(sum(tracer.self_times().values()) - sum(tracer.durations("harness.sweep"))) < 1e-6


def test_covered_merges_overlapping_children_and_percentile_is_nearest_rank():
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    values = [float(i) for i in range(40, 0, -1)]
    assert bench.percentile(values, 75.0) == 30.0
    assert bench.percentile(values, 100.0) == 40.0
