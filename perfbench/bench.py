"""Workloads, timed sweeps and metrics of the sweep benchmark.

Needs vecop importable (run.py puts the checkout's src/ on sys.path first).
Every sweep goes through vecop.harness.sweep exactly as a user calls it;
timings are taken only around calls into the layers' public functions.
"""

from __future__ import annotations

import itertools
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from vecop import harness, solver
from vecop.scenario import ObjectivePreset, ProcessingSetting, generate_default

import gate
from tracing import Tracer

DEFAULT_LOT = 42
# Lots that seeded workloads draw from: lot = (seed + i) mod LOT_POOL. The
# reference holds a recorded row for every lot in the pool.
LOT_POOL = 128
SETUP_REPEATS = 5

POWER = ObjectivePreset.POWER_ONLY
JOINT = ObjectivePreset.JOINT_EQUAL
VO = ProcessingSetting.VEHICLES_ONLY
VE = ProcessingSetting.VEHICLES_AND_EDGE
CLOUD = ProcessingSetting.CLOUD_ONLY


@dataclass(frozen=True)
class Workload:
    demands: tuple[float, ...]
    settings: tuple[ProcessingSetting, ...]
    presets: tuple[ObjectivePreset, ...]
    threads: int
    # False: every sweep is on the default lot. True: consecutive lots from
    # the seed, one lot per sweep.
    seeded: bool
    # Lots in a traced run, which does a fixed amount of work so that its
    # counts are exact.
    traced_lots: int
    # Percentile reported as solve_tail_s, fixed so that it keeps its meaning
    # however many sweeps a run completes.
    tail_pct: float

    def lots(self, seed: int) -> Iterator[int]:
        if not self.seeded:
            return itertools.repeat(DEFAULT_LOT)
        return ((seed + i) % LOT_POOL for i in itertools.count())

    def cells(self) -> list[tuple[float, ProcessingSetting]]:
        return [(d, s) for d in self.demands for s in self.settings]


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "joint-sweep": Workload((1000.0,), (VO, VE, CLOUD), (POWER, JOINT), 1, False, 1, 100.0),
    "joint-sweep-2t": Workload((1000.0,), (VO, VE, CLOUD), (POWER, JOINT), 2, False, 1, 100.0),
    "power-lots": Workload((1000.0, 2000.0, 3000.0, 4000.0), (VO,), (POWER,), 1, True, 20, 85.0),
}

_SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import scipy.optimize
import vecop.harness
from vecop.scenario import generate_default, validate
for lot in sys.argv[2:]:
    validate(generate_default(int(lot)))
"""


def measure_setup(src: Path, lots: list[int], repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of a fresh interpreter importing vecop and scipy.optimize and
    generating and validating the lots, once per repeat."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(src), *map(str, lots)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


@contextmanager
def timed_solves(times: list[float]):
    """Record the wall time of every solver.solve call the harness makes."""
    original = solver.solve

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)

    solver.solve = timed
    try:
        yield
    finally:
        solver.solve = original


@dataclass
class Sweep:
    wall: float
    solve_times: list[float]
    rows: int
    failures: list[str] = field(default_factory=list)


def run_sweep(
    workload: Workload, lot: int, reference: dict, tracer: Optional[Tracer] = None
) -> Sweep:
    """One harness.sweep over the workload's cells on one lot, then the gate."""
    scenario = generate_default(lot)
    collected = {}

    def collect(demand, setting, preset, variant, result):
        collected[(demand, setting, preset)] = (variant, result)

    solve_times: list[float] = []
    if tracer is not None:
        tracer.lot = lot
        layers = tracer.installed()
        root = tracer.span("harness.sweep", cell=str(lot), root=True)
    else:
        layers = timed_solves(solve_times)
        root = nullcontext()
    table = None
    with layers:
        start = time.perf_counter()
        try:
            with root:
                table = harness.sweep(
                    scenario,
                    demands=workload.demands,
                    settings=workload.settings,
                    presets=workload.presets,
                    threads=workload.threads,
                    collect=collect,
                )
        except Exception:  # noqa: BLE001 - a raising sweep fails its cells
            traceback.print_exc()
        wall = time.perf_counter() - start
    cells = workload.cells()
    if table is None:
        failures = [f"lot {lot} {d:g}/{s.value}: sweep raised" for d, s in cells]
        return Sweep(wall, solve_times, 0, failures)
    failures = []
    for demand, setting in cells:
        problem = gate.check_cell(
            reference, lot, demand, setting, workload.presets, table, collected
        )
        if problem:
            failures.append(problem)
    return Sweep(wall, solve_times, len(table.rows), failures)


def warm_up(workload: Workload, seed: int) -> None:
    """One untimed tiny solve, so lazy imports inside scipy finish first."""
    lot = next(workload.lots(seed))
    harness.sweep(generate_default(lot), demands=(1000.0,), settings=(CLOUD,), presets=(POWER,))


def timed_sweeps(workload: Workload, seed: int, seconds: float, reference: dict) -> list[Sweep]:
    """Untraced sweeps on successive lots until `seconds` have passed; whole
    sweeps only, so the last one may end late."""
    sweeps = []
    start = time.perf_counter()
    for lot in workload.lots(seed):
        sweeps.append(run_sweep(workload, lot, reference))
        if time.perf_counter() - start >= seconds:
            return sweeps
    raise AssertionError("unreachable: lot sequences are endless")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


def end_to_end(sweeps: list[Sweep], setup: list[float], tail_pct: float) -> dict[str, Metric]:
    walls = [s.wall for s in sweeps]
    solves = [t for s in sweeps for t in s.solve_times]
    tail = percentile(solves, tail_pct)
    above = sum(1 for t in solves if t > tail)
    return {
        "sweep_wall_s": Metric(statistics.median(walls), "s", f"median of {len(walls)} sweeps"),
        "solve_p50_s": Metric(statistics.median(solves), "s", f"median of {len(solves)} solves"),
        "solve_tail_s": Metric(tail, "s", f"p{tail_pct:g} of {len(solves)} solves, {above} above"),
        "setup_s": Metric(statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB", "ru_maxrss of the benchmark process"),
    }


def per_layer(tracer: Tracer, traced: list[Sweep], untraced: list[Sweep], threads: int) -> dict[str, Metric]:
    """Totals over the traced sweeps; the untraced sweeps did the same work."""
    own = tracer.self_times()
    milp = tracer.durations("highs.milp")
    solves = tracer.durations("solver.solve")
    traced_wall = sum(tracer.durations("harness.sweep"))
    untraced_wall = sum(s.wall for s in untraced)
    rows = sum(s.rows for s in traced)

    def seconds(name: str) -> Metric:
        return Metric(own.get(name, 0.0), "s", "self time")

    metrics = {
        "highs.milp_s": Metric(sum(milp), "s", f"{len(milp)} milp calls"),
        "highs.milp_max_s": Metric(max(milp, default=0.0), "s", "slowest milp call"),
        "highs.bb_nodes": Metric(tracer.counts["highs.bb_nodes"], "count", "summed over milp calls"),
    }
    for name in ("variables", "binaries", "constraints", "nonzeros"):
        key = f"formulation.{name}"
        metrics[key] = Metric(tracer.counts[key], "count", "summed over formulated models")
    metrics.update(
        {
            "formulation.formulate_s": seconds("formulation.formulate"),
            "solver.solve_self_s": seconds("solver.solve"),
            "delaymodel.build_tables_s": seconds("delaymodel.build_tables"),
            "linkmodel.build_links_s": seconds("linkmodel.build_links"),
            "formulation.evaluate_s": seconds("formulation.evaluate"),
            "scenario.validate_s": seconds("scenario.validate"),
            "harness.self_s": seconds("harness.sweep"),
            "trace.census_s": seconds("trace.census"),
            "harness.rows_per_solve": Metric(rows / len(solves), "rows/solve", f"{rows} rows"),
            "harness.thread_busy_frac": Metric(
                sum(solves) / (threads * traced_wall), "ratio", f"{threads} threads"
            ),
            "trace.sweep_wall_s": Metric(traced_wall, "s", f"{len(traced)} traced sweeps"),
            "trace.overhead_s": Metric(
                traced_wall - untraced_wall, "s", "traced minus untraced sweep wall"
            ),
        }
    )
    return metrics


@dataclass
class Result:
    metrics: dict[str, Metric]
    attempted: int
    failures: list[str]
    sweeps: int
    tracer: Optional[Tracer] = None


def run(name: str, seed: int, seconds: float, trace: bool, src: Path, reference: dict) -> Result:
    workload = WORKLOADS[name]
    fixed_lots = list(itertools.islice(workload.lots(seed), workload.traced_lots))
    warm_up(workload, seed)
    if trace:
        # Each lot untraced, then traced, so that drifting machine speed
        # does not read as tracing overhead.
        tracer = Tracer()
        untraced, traced = [], []
        for lot in fixed_lots:
            untraced.append(run_sweep(workload, lot, reference))
            traced.append(run_sweep(workload, lot, reference, tracer))
        sweeps = untraced + traced
        metrics = per_layer(tracer, traced, untraced, workload.threads)
    else:
        tracer = None
        setup = measure_setup(src, sorted(set(fixed_lots)))
        sweeps = timed_sweeps(workload, seed, seconds, reference)
        metrics = end_to_end(sweeps, setup, workload.tail_pct)
    failures = [f for s in sweeps for f in s.failures]
    attempted = len(sweeps) * len(workload.cells())
    return Result(metrics, attempted, failures, len(sweeps), tracer)
