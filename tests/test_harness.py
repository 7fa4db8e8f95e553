import dataclasses

import pytest

from vecop import delaymodel, linkmodel, solver
from vecop.harness import (
    CSV_COLUMNS,
    HarnessError,
    ResultTable,
    SweepRow,
    percent_change,
    report,
    report_to_text,
    scenario_hash,
    sweep,
    table_to_csv,
    table_to_plotdata,
)
from vecop.scenario import ObjectivePreset, ProcessingSetting, ScenarioError, validate

from conftest import make_cloud, make_edge, make_vehicle, small_scenario

PO = ObjectivePreset.POWER_ONLY
JE = ObjectivePreset.JOINT_EQUAL
VO = ProcessingSetting.VEHICLES_ONLY
VE = ProcessingSetting.VEHICLES_AND_EDGE
CO = ProcessingSetting.CLOUD_ONLY


def test_percent_change():
    assert percent_change(100.0, 120.0) == pytest.approx(20.0)
    assert percent_change(100.0, 20.0) == pytest.approx(-80.0)
    with pytest.raises(HarnessError, match="zero baseline"):
        percent_change(0.0, 1.0)


def test_scenario_hash_stability(default_scenario):
    h = scenario_hash(default_scenario)
    assert h == scenario_hash(default_scenario)
    assert len(h) == 16 and all(c in "0123456789abcdef" for c in h)


def test_sweep_rejects_bad_demands(default_scenario):
    with pytest.raises(HarnessError, match="must be > 0"):
        sweep(default_scenario, demands=(0.0,))


def test_sweep_rejects_presets_it_cannot_weight(default_scenario):
    with pytest.raises(HarnessError, match="CUSTOM"):
        sweep(default_scenario, presets=(ObjectivePreset.CUSTOM,))


@pytest.fixture(scope="module")
def mini_table():
    s = small_scenario(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20), make_edge("e1", 15, 20)],
        traffic=400.0,
        setting=VE,
        bins=8,
    )
    return sweep(s, demands=(400.0, 1200.0), settings=(VO, VE), presets=(PO, JE))


def test_sweep_shape_and_order(mini_table):
    assert len(mini_table.rows) == 8
    # row order is demand-major, then setting, then preset order
    key = [(r.demand_kbps, r.setting, r.objective) for r in mini_table.rows]
    assert key == [
        (d, s, o) for d in (400.0, 1200.0) for s in (VO, VE) for o in (PO, JE)
    ]
    assert all(r.status == "optimal" for r in mini_table.rows)


def test_sweep_thread_determinism(mini_table):
    s = small_scenario(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20), make_edge("e1", 15, 20)],
        traffic=400.0,
        setting=VE,
        bins=8,
    )
    threaded = sweep(s, demands=(400.0, 1200.0), settings=(VO, VE), presets=(PO, JE), threads=4)
    assert table_to_csv(threaded) == table_to_csv(mini_table)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_builds_one_link_graph_and_one_set_of_tables(monkeypatch, threads):
    s = small_scenario(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20), make_edge("e1", 15, 20)],
        traffic=400.0,
        bins=8,
    )
    calls = []
    for module, name in ((linkmodel, "build_links"), (delaymodel, "build_tables")):

        def counted(*args, _build=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    table = sweep(s, demands=(400.0, 1200.0), settings=(VO, VE), presets=(PO,), threads=threads)
    assert len(table.rows) == 4
    assert sorted(calls) == ["build_links", "build_tables"]


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_checks_each_cell_for_an_isolated_source(threads):
    # v1 has no outgoing link. It serves its own demand under VEHICLES_ONLY,
    # so the graph built from the first cell passes, but no CLOUD_ONLY
    # allocation can leave v1.
    base = small_scenario([make_vehicle("v1", 0, 0)], traffic=400.0)
    far = (
        make_vehicle("v1", 0, 0), make_vehicle("v2", 9e4, 0), make_edge("e1", 9e4, 10), make_cloud()
    )
    s = validate(dataclasses.replace(base, lot_width=1e5, lot_height=1e5, nodes=far))
    assert "v1" not in linkmodel.build_links(s).senders
    assert sweep(s, demands=(400.0,), settings=(VO,), presets=(PO,)).rows[0].status == "optimal"
    with pytest.raises(ScenarioError, match="isolated demand source 'v1'"):
        sweep(s, demands=(400.0,), settings=(VO, CO), presets=(PO,), threads=threads)


def test_sweep_joint_weights_positive(mini_table):
    for r in mini_table.rows:
        if r.objective == JE:
            assert r.w_power > 0.0
            # T* = 0 cells degenerate to power-only weights; either way the
            # preset label survives in the row
            assert r.w_delay >= 0.0


def test_csv_canonical_form(mini_table):
    text = table_to_csv(mini_table)
    lines = text.splitlines()
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("# "))
    assert lines[header_at] == ",".join(CSV_COLUMNS)
    assert len(lines) == header_at + 1 + len(mini_table.rows)
    assert text.endswith("\n") and "\r" not in text
    meta_keys = [l.split(":")[0][2:] for l in lines[:header_at]]
    assert meta_keys == sorted(meta_keys)
    assert any(l.startswith("# scenario_hash: ") for l in lines[:header_at])


def test_plotdata_long_format(mini_table):
    text = table_to_plotdata(mini_table)
    lines = [l for l in text.splitlines() if not l.startswith("# ")]
    assert lines[0] == "figure,series,demand_kbps,value"
    body = [l.split(",") for l in lines[1:]]
    assert {row[0] for row in body} == {"power", "delay"}
    assert all(row[1].count("/") == 1 for row in body)
    # delay figure reports milliseconds
    power_rows = [r for r in body if r[0] == "power"]
    assert len(power_rows) == len(mini_table.rows)


def _row(d, s, o, power, delay, status="optimal"):
    return SweepRow(
        demand_kbps=d, setting=s, objective=o, status=status,
        total_power_w=power, max_delay_s=delay, objective_value=power,
        w_power=1.0, w_delay=0.0,
    )


def test_report_synthetic_families():
    rows = (
        _row(1000.0, VO, PO, 20.0, 0.002),
        _row(1000.0, VO, JE, 25.0, 0.001),
        _row(1000.0, VE, PO, 20.0, 0.002),
        _row(1000.0, VE, JE, 21.0, 0.0005),
        _row(1000.0, CO, PO, 100.0, 0.004),
        _row(1000.0, CO, JE, 100.0, 0.004),
    )
    summary = report(ResultTable(rows, {"scenario_hash": "x"}))
    fam = summary["families"]
    assert fam["power_increase_joint_vs_power_pct"][VO.value][1000.0] == pytest.approx(25.0)
    assert fam["power_increase_joint_vs_power_pct"][VE.value][1000.0] == pytest.approx(5.0)
    assert fam["power_saving_vs_cloud_pct"][VO.value][1000.0] == pytest.approx(80.0)
    assert fam["delay_reduction_joint_vs_power_pct"][VO.value][1000.0] == pytest.approx(50.0)
    assert fam["delay_reduction_edge_vs_cloud_pct"][1000.0] == pytest.approx(87.5)
    text = report_to_text(summary)
    assert "power saving vs cloud" in text
    assert "@ 1000 kbps: 80%" in text


def test_report_requires_cloud_baseline():
    rows = (_row(1000.0, VO, PO, 20.0, 0.002),)
    with pytest.raises(HarnessError, match="baseline absent"):
        report(ResultTable(rows, {}))


def test_report_skips_infeasible_cells():
    rows = (
        _row(1000.0, VO, PO, 20.0, 0.002),
        _row(1000.0, VO, JE, 0.0, 0.0, status="infeasible"),
        _row(1000.0, CO, PO, 100.0, 0.004),
        _row(1000.0, CO, JE, 100.0, 0.004),
    )
    summary = report(ResultTable(rows, {}))
    fam = summary["families"]
    assert fam["power_increase_joint_vs_power_pct"][VO.value] == {}
    assert fam["power_saving_vs_cloud_pct"][VO.value][1000.0] == pytest.approx(80.0)


def test_sweep_records_infeasible_rows():
    s = small_scenario(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20)], traffic=400.0, bins=8
    )
    table = sweep(s, demands=(400.0, 2000.0), settings=(VO,), presets=(PO,))
    good = table.row(400.0, VO, PO)
    bad = table.row(2000.0, VO, PO)
    assert good.status == "optimal"
    assert bad.status == "infeasible"
    assert bad.infeasible_reason.startswith("C3")
    csv = table_to_csv(table)
    assert "infeasible" in csv


def test_sweep_raises_when_a_capped_joint_solve_is_infeasible(monkeypatch):
    # The delay cap comes from allocations the joint model admits, so a
    # capped joint solve that finds none is a fault, not an infeasible cell.
    s = small_scenario(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20)], traffic=1000.0, bins=8
    )
    joint_weights = solver.joint_weights

    def wrong_cap(*args, **kwargs):
        weights, bounds = joint_weights(*args, **kwargs)
        return weights, solver.Bounds(delay_cap=0.0, witness=bounds.witness)

    monkeypatch.setattr(solver, "joint_weights", wrong_cap)
    with pytest.raises(solver.SolverError, match="delay_cap=0.0"):
        sweep(s, demands=(1000.0,), settings=(VO,), presets=(PO, JE))

