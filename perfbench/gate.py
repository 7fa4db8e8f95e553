"""Correctness gate applied to every sweep the benchmark times.

A cell (lot, demand, setting) fails when its sweep raised (the harness's own
evaluator recheck raises HarnessError on a mismatch), when a row's status
differs from the reference recorded at the seed commit, when a power-only
objective is higher than its reference, or when a joint objective is higher
than the same cell's power-only allocation re-evaluated at the joint weights.
Joint objectives are not compared with reference values: a better-scaled
delay pre-solve legitimately moves T* and with it the joint weights.
"""

from __future__ import annotations

import json
from pathlib import Path

from vecop import delaymodel, linkmodel
from vecop.formulation import evaluate
from vecop.scenario import ObjectivePreset

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-6


def row_key(demand: float, setting, preset) -> str:
    return f"{demand:g}/{setting.value}/{preset.value}"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def check_cell(reference: dict, lot: int, demand: float, setting, presets, table, collected) -> str:
    """Empty string when the cell passes, else the first failure found."""
    expected = reference["lots"].get(str(lot))
    if expected is None:
        return f"lot {lot}: no reference"
    for preset in presets:
        key = row_key(demand, setting, preset)
        row = table.row(demand, setting, preset)
        if row is None:
            return f"lot {lot} {key}: row missing"
        if key not in expected:
            return f"lot {lot} {key}: no reference"
        ref_status, ref_objective = expected[key]
        if row.status != ref_status:
            return f"lot {lot} {key}: status {row.status}, reference {ref_status}"
        if row.status != "optimal":
            continue
        if preset == ObjectivePreset.POWER_ONLY:
            if row.objective_value > ref_objective * (1.0 + REL_TOL):
                return f"lot {lot} {key}: objective {row.objective_value!r} > reference {ref_objective!r}"
        elif preset == ObjectivePreset.JOINT_EQUAL:
            variant, power = collected[(demand, setting, ObjectivePreset.POWER_ONLY)]
            _, joint = collected[(demand, setting, preset)]
            linkset = linkmodel.build_links(variant)
            tables = delaymodel.build_tables(variant, linkset)
            bound = evaluate(variant, linkset, tables, power.allocation, joint.weights)
            if row.objective_value > bound.objective_value * (1.0 + REL_TOL):
                return (
                    f"lot {lot} {key}: joint objective {row.objective_value!r} > "
                    f"power-only allocation at joint weights {bound.objective_value!r}"
                )
    return ""
