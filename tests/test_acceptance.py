"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"criterion N (...): PASS/FAIL" line on the live terminal.
"""

import collections
import dataclasses
import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from vecop import harness, solver
from vecop.delaymodel import QueueSpec, build_table, lookup, mm1_delay, packets_per_second
from vecop.formulation import formulate
from vecop.harness import table_to_csv
from vecop.linkmodel import build_links, dbm_to_watts
from vecop.lp_io import export_lp, read_lp, structurally_equal
from vecop.scenario import (
    POWER_WEIGHTS,
    ObjectivePreset,
    ObjectiveWeights,
    ProcessingSetting,
    generate_default,
    validate,
)

# The default sweep's canonical CSV (lot 42, one thread), as
# harness.table_to_csv writes it.
GOLDEN_SWEEP = Path(__file__).resolve().parent / "data" / "default_sweep.csv"

PO = ObjectivePreset.POWER_ONLY
JE = ObjectivePreset.JOINT_EQUAL
VO = ProcessingSetting.VEHICLES_ONLY
VE = ProcessingSetting.VEHICLES_AND_EDGE
CO = ProcessingSetting.CLOUD_ONLY


@contextmanager
def verdict(capsys, num: int, name: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num} ({name}): PASS")


# ---------------------------------------------------------------------------
# Shared expensive computations (session scope)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def oracle_results(oracle_corpus):
    """100-seed cross-check corpus under both objective presets. The wall
    time counts the oracle's one enumeration per seed and every solve."""
    weights = {
        PO: POWER_WEIGHTS,
        JE: ObjectiveWeights(0.5 / 25.0, 0.5 / 0.00025),
    }
    results = []
    t0 = time.perf_counter()
    for seed, oracle in enumerate(oracle_corpus):
        for preset, w in weights.items():
            a = solver.solve(oracle.scenario, oracle.linkset, oracle.tables, w)
            results.append((seed, preset, a, oracle.best(w)))
    wall = time.perf_counter() - t0 + sum(oracle.wall_time for oracle in oracle_corpus)
    return results, wall


@pytest.fixture(scope="session")
def default_sweep():
    """Single-threaded full default sweep plus every raw solver result, and
    every solver.solve call of it: its positional arguments, its bounds, its
    result and how many times it ran HiGHS."""
    scenario = generate_default(42)
    collected = {}
    solves, runs = [], []
    solve, milp = solver.solve, solver.milp

    def collect(demand, setting, preset, variant, result):
        collected[(demand, setting, preset)] = (variant, result)

    def counted(*args, **kwargs):
        runs.append(1)
        return milp(*args, **kwargs)

    def recorded(*args, **kwargs):
        before = len(runs)
        result = solve(*args, **kwargs)
        solves.append((args, kwargs.get("bounds"), result, len(runs) - before))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "milp", counted)
        patch.setattr(solver, "solve", recorded)
        t0 = time.perf_counter()
        table = harness.sweep(scenario, threads=1, collect=collect)
        wall = time.perf_counter() - t0
    return table, collected, wall, solves


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence(capsys, oracle_results):
    results, wall = oracle_results
    with verdict(capsys, 1, "oracle equivalence, 100 seeds x 2 presets"):
        assert len(results) == 200
        for seed, preset, a, b in results:
            assert a.status == b.status, f"seed {seed} {preset.value}: {a.status} vs {b.status}"
            if a.status != "optimal":
                continue
            rel = abs(a.objective_value - b.objective_value) / max(1.0, abs(b.objective_value))
            assert rel <= 1e-6, f"seed {seed} {preset.value}: rel gap {rel:.2e}"
            if a.allocation.sort_key() != b.allocation.sort_key():
                # Distinct allocations are acceptable only as objective ties.
                assert rel <= 1e-6
        assert wall < 60.0, f"oracle corpus took {wall:.1f}s"


def test_criterion_2_evaluator_independence(capsys, oracle_results, default_sweep):
    results, _ = oracle_results
    _table, collected, _wall, _solves = default_sweep
    with verdict(capsys, 2, "HiGHS's dual bound matches every optimal objective at 1e-9"):
        # objective_value is evaluate()'s score of the decoded allocation; the
        # dual bound is HiGHS's proof about the model, unscaled by solve().
        optimal = [a for _seed, _preset, a, _b in results if a.status == "optimal"]
        assert len(collected) == 36
        optimal += [r for _variant, r in collected.values() if r.status == "optimal"]
        for result in optimal:
            bound = result.stats.mip_dual_bound
            assert abs(bound - result.objective_value) <= 1e-9 * abs(result.objective_value)


def test_criterion_3_lookup_conservatism(capsys):
    with verdict(capsys, 3, "lookup-table conservatism and refinement, 1000 triples"):
        rng = random.Random(20260823)
        for _ in range(1000):
            mu = rng.uniform(10.0, 1e6)
            bins = rng.randint(2, 128)
            rho = rng.uniform(0.05, 0.99)
            table = build_table(QueueSpec("q", mu, rho), bins)
            lam = rng.uniform(0.0, table.arrival_bounds[-1])
            assert lookup(table, lam) >= mm1_delay(lam, mu)
            # equality at bin boundaries
            k = rng.randrange(bins)
            boundary = table.arrival_bounds[k]
            assert lookup(table, boundary) == pytest.approx(
                mm1_delay(boundary, mu), rel=1e-12
            )
            # refinement never increases any answer
            fine = build_table(QueueSpec("q", mu, rho), bins * 2)
            assert lookup(fine, lam) <= lookup(table, lam) + 1e-15


def test_criterion_4_exact_constants(capsys):
    with verdict(capsys, 4, "fiber delay, DSRC service rate, +22 dBm"):
        s = generate_default(42)
        linkset = build_links(s)
        fiber = next(l for l in linkset.links if l.medium.value == "FIBER")
        assert abs(fiber.prop_delay - 0.00125) <= 1e-12
        assert packets_per_second(27e6, 1500.0) == 2250.0
        assert abs(dbm_to_watts(22.0) - 0.15849) <= 1e-5


def test_criterion_5_infeasibility_reproduction(capsys):
    with verdict(capsys, 5, "6000 kbps infeasible under VEHICLES_ONLY at 1.1 MIPS/kbps"):
        base = generate_default(42)
        configured = validate(
            dataclasses.replace(
                base,
                settings=dataclasses.replace(
                    base.settings, processing_setting=VO, mips_per_kbps=1.1
                ),
            )
        )
        table = harness.sweep(configured, settings=(VO,), presets=(PO,))
        for d in harness.DEFAULT_DEMANDS[:-1]:
            row = table.row(d, VO, PO)
            assert row.status == "optimal", f"{d} kbps should solve"
        last = table.row(6000.0, VO, PO)
        assert last.status == "infeasible"
        assert last.infeasible_reason.startswith("C3")
        assert 6000.0 * 1.1 > 6400.0  # the configured overload


def _band(values):
    return f"{min(values):.1f}%..{max(values):.1f}%"


def test_criterion_6_trend_families(capsys, default_sweep):
    table, collected, wall, _solves = default_sweep
    with verdict(capsys, 6, "four directional trend families on the default sweep"):
        summary = harness.report(table)
        fam = summary["families"]
        inc = fam["power_increase_joint_vs_power_pct"]
        sav = fam["power_saving_vs_cloud_pct"]
        red = fam["delay_reduction_joint_vs_power_pct"]
        edge = fam["delay_reduction_edge_vs_cloud_pct"]

        # (a) joint never beats power-only on power; the premium is larger
        # without edge offload (paper: 22%-34% vs 3%-6%).
        for setting in (VO.value, VE.value):
            for v in inc[setting].values():
                assert v >= -1e-9
        assert statistics.mean(inc[VO.value].values()) > statistics.mean(inc[VE.value].values())

        # (b) joint delay strictly improves wherever the allocations differ
        # (paper: decrease of 48%-74%).
        for setting in (VO, VE):
            for d in harness.DEFAULT_DEMANDS:
                p = table.row(d, setting, PO)
                j = table.row(d, setting, JE)
                same = (
                    abs(j.total_power_w - p.total_power_w) <= 1e-9 * max(1.0, p.total_power_w)
                    and abs(j.max_delay_s - p.max_delay_s) <= 1e-9 * max(1.0, p.max_delay_s)
                )
                if not same:
                    assert j.max_delay_s < p.max_delay_s, f"{setting.value} @ {d}"

        # (c) distributed settings consume less power than the cloud at every
        # point (paper: savings 89%-73%).
        for setting in (VO.value, VE.value):
            for v in sav[setting].values():
                assert v > 0.0

        # (d) vehicles+edge joint delay beats the cloud at every point
        # (paper: reduces the delay by 60-80%).
        assert len(edge) == len(harness.DEFAULT_DEMANDS)
        for v in edge.values():
            assert v > 0.0

        assert wall < 600.0, f"sweep took {wall:.1f}s"

    with capsys.disabled():
        diff = [v for s in (VO.value, VE.value) for v in red[s].values() if v > 1e-6]
        print(
            f"  bands: power increase VO {_band(list(inc[VO.value].values()))} "
            f"(paper 22%..34%), VE {_band(list(inc[VE.value].values()))} (paper 3%..6%); "
            f"delay reduction where changed {_band(diff)} (paper 48%..74%); "
            f"power saving vs cloud {_band([v for s in sav.values() for v in s.values()])} "
            f"(paper 73%..89%); edge-vs-cloud delay {_band(list(edge.values()))} "
            f"(paper 60%..80%); sweep wall {wall:.1f}s"
        )


def test_criterion_7_power_monotonicity(capsys, default_sweep):
    table, _collected, _wall, _solves = default_sweep
    with verdict(capsys, 7, "power-only power non-decreasing in demand"):
        for setting in (VO, VE, CO):
            series = [
                table.row(d, setting, PO)
                for d in harness.DEFAULT_DEMANDS
            ]
            values = [r.total_power_w for r in series if r.status == "optimal"]
            assert values, f"{setting.value}: no feasible points"
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-9, f"{setting.value}: {hi} < {lo}"


def test_criterion_8_lp_round_trip(capsys, default_scenario, default_linkset, default_tables):
    with verdict(capsys, 8, "LP export/read structural equality, both presets"):
        presets = (
            POWER_WEIGHTS,
            ObjectiveWeights(0.5 / 16.384, 0.5 / 0.000161270419),
        )
        for weights in presets:
            model = formulate(default_scenario, default_linkset, default_tables, weights)
            back = read_lp(export_lp(model))
            assert structurally_equal(back, model, tol=1e-12)


def test_criterion_9_sweep_determinism(capsys, default_sweep):
    table_serial, _collected, _wall, _solves = default_sweep
    with verdict(capsys, 9, "1-thread and 4-thread sweeps byte-identical"):
        table_threaded = harness.sweep(generate_default(42), threads=4)
        assert table_to_csv(table_threaded) == table_to_csv(table_serial)


def test_default_sweep_matches_golden(default_sweep):
    """Every number of the default sweep, pinned byte for byte: a model
    change that moves any optimum, or its tie-break, shows here."""
    table, _collected, _wall, _solves = default_sweep
    assert table_to_csv(table).encode() == GOLDEN_SWEEP.read_bytes()


def _kind(weights: ObjectiveWeights) -> str:
    if weights.w_delay == 0.0:
        return "power"
    return "delay" if weights.w_power == 0.0 else "joint"


def test_floors_certify_the_default_sweep_before_highs(default_sweep):
    """The shared-idle power bound certifies 12 of the 18 power-only solves
    (1000 and 2000 kbps in every setting, 3000 and 4000 kbps vehicles-only,
    and cloud-only at every demand), the first-hop bound 17 of the 18
    delay-only pre-solves (not 6000 kbps vehicles-only, where T* is below
    the nearest allocation's delay), and P* with T* 8 of the 18 joint solves
    (vehicles and edge at 1000 and 2000 kbps, and cloud-only, where the
    power-only optimum is also the fastest). So HiGHS runs 17 times in the
    sweep's 54 solves. A certified result says so in its stats, and no
    other does."""
    *_, solves = default_sweep
    total, certified = collections.Counter(), collections.Counter()
    for args, _bounds, result, runs in solves:
        kind = _kind(args[3])
        total[kind] += 1
        stats = result.stats
        assert stats.certified_by == (None if runs else "floors")
        if runs == 0:
            certified[kind] += 1
            assert (stats.nodes_explored, stats.mip_gap) == (0, 0.0)
            assert stats.mip_dual_bound == result.objective_value
    assert total == {"power": 18, "delay": 18, "joint": 18}
    assert certified == {"power": 12, "delay": 17, "joint": 8}
    assert sum(runs for *_, runs in solves) == 17


def test_certified_results_match_highs_without_the_floors(default_sweep):
    """Each certified result of the default sweep, against HiGHS's optimum
    of the same model with the floors taken off the bounds (a power-only
    solve's bounds are the power_bounds it resolves): the same status, max
    delay and objective, to the last bit, and the same power where the
    objective weighs it. A delay-only optimum's power is any optimum's:
    HiGHS serves 1000 kbps vehicles and edge at 19.38 W, the certified
    nearest allocation at 16.38 W, both at T*."""
    *_, solves = default_sweep
    checked = 0
    for args, bounds, result, runs in solves:
        if runs:
            continue
        weights = args[3]
        if bounds is None:
            bounds = solver.power_bounds(*args[:4])
        plain = solver.solve(
            *args[:4], bounds=dataclasses.replace(bounds, delay_floor=None, power_floor=None)
        )
        assert plain.stats.mip_dual_bound is not None, "HiGHS ran"

        def numbers(r):
            shown = [r.max_delay, r.objective_value]
            if weights.w_power > 0.0:
                shown.append(r.total_power)
            return [r.status, *map(repr, shown)]

        cell = (args[0].demands[0].traffic, args[0].settings.processing_setting, weights)
        assert numbers(plain) == numbers(result), cell
        checked += 1
    assert checked == 37


# HiGHS's seed is an option scipy's milp does not know: it passes it through
# and warns, listing it with the feasibility-jump option in either order.
@pytest.mark.filterwarnings(
    r"ignore:Unrecognized options detected. \{[^}]*'random_seed'[^}]*\}. :RuntimeWarning"
)
def test_default_sweep_matches_golden_at_another_highs_seed(monkeypatch):
    """A second HiGHS path through every solve: another random seed, on the
    thread pool, must certify the same optima and tie-breaks."""
    milp, seeds = solver.milp, []

    def seeded(*args, options, **kwargs):
        seeds.append(1)
        return milp(*args, options={**options, "random_seed": 1}, **kwargs)

    monkeypatch.setattr(solver, "milp", seeded)
    table = harness.sweep(generate_default(42), threads=2)
    assert seeds
    assert table_to_csv(table).encode() == GOLDEN_SWEEP.read_bytes()
