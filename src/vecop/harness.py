"""Experiment harness: demand sweeps, comparison metrics, canonical CSV.

A sweep runs the cross product demand x processing-setting x objective preset
and records one row per cell; infeasible cells are recorded, not dropped.
report() condenses a sweep into the four comparison-metric families of the
evaluation protocol: joint-vs-power power increase per setting, power saving
versus the cloud baseline, joint-vs-power delay reduction, and the
vehicles+edge-vs-cloud delay reduction under the joint objective.

All emission is canonical (fixed column order, 9 significant digits, LF) and
stamped with provenance(): scenario hash, rho, bins, packet size, core energy
per bit and solver limits; the weights are in every row.
"""

from __future__ import annotations

import dataclasses
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import delaymodel, linkmodel, solver
# Not called here: perfbench/tracing.py wraps harness.evaluate by name.
from .formulation import evaluate  # noqa: F401
from .scenario import (
    POWER_WEIGHTS,
    DemandSpec,
    ObjectivePreset,
    ProcessingSetting,
    Scenario,
    emit_scenario,
    validate,
)
from .solver import MAX_NODES, Limits

__all__ = [
    "SweepRow",
    "ResultTable",
    "HarnessError",
    "sweep",
    "percent_change",
    "report",
    "table_to_csv",
    "table_to_plotdata",
    "report_to_text",
    "scenario_hash",
    "provenance",
    "DEFAULT_DEMANDS",
    "DEFAULT_SETTINGS",
    "DEFAULT_PRESETS",
]

DEFAULT_DEMANDS = (1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0)
DEFAULT_SETTINGS = (
    ProcessingSetting.VEHICLES_ONLY,
    ProcessingSetting.VEHICLES_AND_EDGE,
    ProcessingSetting.CLOUD_ONLY,
)
DEFAULT_PRESETS = (ObjectivePreset.POWER_ONLY, ObjectivePreset.JOINT_EQUAL)


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class SweepRow:
    demand_kbps: float
    setting: ProcessingSetting
    objective: ObjectivePreset
    status: str  # "optimal" | "infeasible"
    total_power_w: float = 0.0
    max_delay_s: float = 0.0
    objective_value: float = 0.0
    w_power: float = 0.0
    w_delay: float = 0.0
    infeasible_reason: str = ""


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[SweepRow, ...]
    metadata: dict = field(default_factory=dict)

    def row(
        self, demand: float, setting: ProcessingSetting, objective: ObjectivePreset
    ) -> Optional[SweepRow]:
        for r in self.rows:
            if r.demand_kbps == demand and r.setting == setting and r.objective == objective:
                return r
        return None


def scenario_hash(scenario: Scenario) -> str:
    return hashlib.sha256(emit_scenario(scenario).encode()).hexdigest()[:16]


def provenance(scenario: Scenario) -> dict:
    """Inputs that fix a result beyond the weights: stamped on every output."""
    return {
        "scenario_hash": scenario_hash(scenario),
        "mips_per_kbps": scenario.settings.mips_per_kbps,
        "rho_max": scenario.settings.rho_max,
        "bins": scenario.settings.bins,
        "packet_size_bytes": scenario.settings.packet_size,
        "core_energy_per_bit_j": scenario.settings.core_energy_per_bit,
        "limits_max_nodes": MAX_NODES,
    }


def percent_change(baseline: float, variant: float) -> float:
    """100 * (variant - baseline) / baseline."""
    if baseline == 0:
        raise HarnessError("percent_change: zero baseline")
    return 100.0 * (variant - baseline) / baseline


def _percent_reduction(baseline: float, variant: float) -> float:
    """-percent_change, but +0.0 (not -0.0) for an unchanged value."""
    return 0.0 - percent_change(baseline, variant)


def _with_demand(scenario: Scenario, demand_kbps: float, setting: ProcessingSetting) -> Scenario:
    """Scenario variant: single swept demand size and processing setting."""
    if len(scenario.demands) != 1:
        raise HarnessError("sweep expects a single-demand scenario")
    base = scenario.demands[0]
    demand = DemandSpec(
        id=base.id,
        source=base.source,
        traffic=demand_kbps,
        load=demand_kbps * scenario.settings.mips_per_kbps,
    )
    settings = dataclasses.replace(scenario.settings, processing_setting=setting)
    return validate(dataclasses.replace(scenario, demands=(demand,), settings=settings))


def _solve_cell(
    variant: Scenario,
    linkset: linkmodel.LinkSet,
    tables: dict[str, delaymodel.DelayTable],
    presets: Sequence[ObjectivePreset],
    limits: Limits,
    collect=None,
) -> list[SweepRow]:
    """All requested objective rows of one (demand, setting) cell, given as
    its _with_demand variant and the sweep's shared link graph and tables.

    Both presets start from the cell's power-only result, solved once; the
    joint preset takes it through solver.solve_joint.
    """
    linkmodel.check_sources(variant, linkset)
    demand_kbps = variant.demands[0].traffic
    setting = variant.settings.processing_setting
    power = None
    rows = []
    for preset in presets:
        if power is None:
            power = solver.solve(variant, linkset, tables, POWER_WEIGHTS, limits)
        result = (
            power
            if preset == ObjectivePreset.POWER_ONLY
            else solver.solve_joint(variant, linkset, tables, power, limits)
        )
        if collect is not None:
            collect(demand_kbps, setting, preset, variant, result)
        rows.append(
            SweepRow(
                demand_kbps=demand_kbps,
                setting=setting,
                objective=preset,
                status=result.status,
                total_power_w=result.total_power,
                max_delay_s=result.max_delay,
                objective_value=result.objective_value,
                w_power=result.weights.w_power,
                w_delay=result.weights.w_delay,
                infeasible_reason=result.infeasible_reason,
            )
        )
    return rows


def sweep(
    scenario: Scenario,
    demands: Sequence[float] = DEFAULT_DEMANDS,
    settings: Sequence[ProcessingSetting] = DEFAULT_SETTINGS,
    presets: Sequence[ObjectivePreset] = DEFAULT_PRESETS,
    limits: Limits = Limits(),
    threads: int = 1,
    collect=None,
) -> ResultTable:
    """One row per (demand, setting, objective); cells are independent.

    Cells may run in parallel; assembly order is the given list order, so the
    output is identical for any thread count. `collect(demand, setting,
    preset, variant_scenario, result)`, when given, observes every solver
    result as it is produced (any order under threading).
    """
    for d in demands:
        if d <= 0:
            raise HarnessError(f"demand sizes must be > 0, got {d}")
    for p in presets:
        if p not in DEFAULT_PRESETS:
            raise HarnessError(f"sweep runs the POWER_ONLY and JOINT_EQUAL presets, got {p.value}")
    variants = [_with_demand(scenario, d, s) for d in demands for s in settings]
    cell_rows: list[list[SweepRow]] = []
    if variants:
        # Neither the link graph nor the delay tables depend on the demand
        # or the processing setting, so every cell reads one shared pair.
        linkset = linkmodel.build_links(variants[0])
        tables = delaymodel.build_tables(variants[0], linkset)
        shared = (linkset, tables, presets, limits, collect)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(_solve_cell, v, *shared) for v in variants]
                cell_rows = [f.result() for f in futures]
        else:
            cell_rows = [_solve_cell(v, *shared) for v in variants]
    rows = tuple(r for rs in cell_rows for r in rs)
    metadata = {
        **provenance(scenario),
        "demands_kbps": list(demands),
        "settings": [s.value for s in settings],
        "objectives": [p.value for p in presets],
    }
    return ResultTable(rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# Canonical emission
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _meta_lines(metadata: dict) -> list[str]:
    return [f"# {k}: {metadata[k]}" for k in sorted(metadata)]


CSV_COLUMNS = (
    "demand_kbps",
    "setting",
    "objective",
    "status",
    "total_power_w",
    "max_delay_s",
    "objective_value",
    "w_power",
    "w_delay",
    "infeasible_reason",
)


def table_to_csv(table: ResultTable) -> str:
    lines = _meta_lines(table.metadata)
    lines.append(",".join(CSV_COLUMNS))
    for r in table.rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.demand_kbps),
                    r.setting.value,
                    r.objective.value,
                    r.status,
                    _fmt(r.total_power_w),
                    _fmt(r.max_delay_s),
                    _fmt(r.objective_value),
                    _fmt(r.w_power),
                    _fmt(r.w_delay),
                    r.infeasible_reason.replace(",", ";"),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def table_to_plotdata(table: ResultTable) -> str:
    """Long-format CSV (figure, series, x, y) for external plotting tools.

    figure "power": y = total power in W; figure "delay": y = max delay in ms.
    Infeasible cells are omitted (they have no y value).
    """
    lines = _meta_lines(table.metadata)
    lines.append("figure,series,demand_kbps,value")
    for figure, pick in (("power", lambda r: r.total_power_w), ("delay", lambda r: r.max_delay_s * 1e3)):
        for r in table.rows:
            if r.status != "optimal":
                continue
            series = f"{r.setting.value}/{r.objective.value}"
            lines.append(f"{figure},{series},{_fmt(r.demand_kbps)},{_fmt(pick(r))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report: the four comparison-metric families
# ---------------------------------------------------------------------------

def report(table: ResultTable) -> dict:
    """Summary document with per-demand values of the four metric families.

    1. power_increase_joint_vs_power_pct[setting]: joint objective's extra
       power relative to the power-only optimum, per distributed setting.
    2. power_saving_vs_cloud_pct[setting]: power-only power saved relative to
       the CLOUD_ONLY power-only baseline.
    3. delay_reduction_joint_vs_power_pct[setting]: joint objective's delay
       reduction relative to the power-only allocation's delay.
    4. delay_reduction_edge_vs_cloud_pct: vehicles+edge joint delay reduction
       relative to the CLOUD_ONLY joint delay.

    Pure function of the table; raises "baseline absent" when the CLOUD_ONLY
    rows required by families 2 and 4 are missing.
    """
    demands = sorted({r.demand_kbps for r in table.rows})
    settings = [s for s in DEFAULT_SETTINGS if any(r.setting == s for r in table.rows)]
    if ProcessingSetting.CLOUD_ONLY not in settings:
        raise HarnessError("baseline absent: no CLOUD_ONLY rows in table")
    distributed = [s for s in settings if s != ProcessingSetting.CLOUD_ONLY]

    def opt(demand, setting, objective) -> Optional[SweepRow]:
        r = table.row(demand, setting, objective)
        return r if r is not None and r.status == "optimal" else None

    families: dict[str, dict] = {
        "power_increase_joint_vs_power_pct": {s.value: {} for s in distributed},
        "power_saving_vs_cloud_pct": {s.value: {} for s in distributed},
        "delay_reduction_joint_vs_power_pct": {s.value: {} for s in distributed},
        "delay_reduction_edge_vs_cloud_pct": {},
    }
    for d in demands:
        cloud_p = opt(d, ProcessingSetting.CLOUD_ONLY, ObjectivePreset.POWER_ONLY)
        cloud_j = opt(d, ProcessingSetting.CLOUD_ONLY, ObjectivePreset.JOINT_EQUAL)
        for s in distributed:
            p = opt(d, s, ObjectivePreset.POWER_ONLY)
            j = opt(d, s, ObjectivePreset.JOINT_EQUAL)
            if p and j:
                families["power_increase_joint_vs_power_pct"][s.value][d] = percent_change(
                    p.total_power_w, j.total_power_w
                )
                if p.max_delay_s > 0:
                    families["delay_reduction_joint_vs_power_pct"][s.value][d] = _percent_reduction(
                        p.max_delay_s, j.max_delay_s
                    )
            if p and cloud_p:
                families["power_saving_vs_cloud_pct"][s.value][d] = _percent_reduction(
                    cloud_p.total_power_w, p.total_power_w
                )
        edge_j = opt(d, ProcessingSetting.VEHICLES_AND_EDGE, ObjectivePreset.JOINT_EQUAL)
        if edge_j and cloud_j and cloud_j.max_delay_s > 0:
            families["delay_reduction_edge_vs_cloud_pct"][d] = _percent_reduction(
                cloud_j.max_delay_s, edge_j.max_delay_s
            )
    return {"metadata": dict(table.metadata), "families": families}


def report_to_text(summary: dict) -> str:
    lines = []
    for k in sorted(summary["metadata"]):
        lines.append(f"# {k}: {summary['metadata'][k]}")
    fam = summary["families"]

    def emit_per_setting(title: str, data: dict):
        lines.append(title)
        for setting in sorted(data):
            for d in sorted(data[setting]):
                lines.append(f"  {setting} @ {_fmt(d)} kbps: {_fmt(data[setting][d])}%")

    emit_per_setting("power increase, joint vs power-only:", fam["power_increase_joint_vs_power_pct"])
    emit_per_setting("power saving vs cloud (power-only):", fam["power_saving_vs_cloud_pct"])
    emit_per_setting(
        "delay reduction, joint vs power-only:", fam["delay_reduction_joint_vs_power_pct"]
    )
    lines.append("delay reduction, vehicles+edge vs cloud (joint):")
    for d in sorted(fam["delay_reduction_edge_vs_cloud_pct"]):
        lines.append(f"  @ {_fmt(d)} kbps: {_fmt(fam['delay_reduction_edge_vs_cloud_pct'][d])}%")
    return "\n".join(lines) + "\n"
