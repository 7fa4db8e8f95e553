import importlib.resources
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vecop import cli, delaymodel, harness, linkmodel, solver
from vecop.cli import (
    EXIT_INFEASIBLE,
    EXIT_LIMITS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from vecop.formulation import DELAY_UNIT, model_census
from vecop.lp_io import export_lp, read_lp, structurally_equal
from vecop.scenario import (
    POWER_WEIGHTS,
    ObjectivePreset,
    ProcessingSetting,
    emit_scenario,
    parse_scenario,
)

from conftest import edge_relay_scenario, make_cloud, make_edge, make_vehicle, small_scenario

GOLDEN = str(importlib.resources.files("vecop") / "data" / "parking-lot-8v2e.json")


@pytest.fixture()
def tiny_scenario_path(tmp_path):
    s = small_scenario(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20)], traffic=400.0, bins=8
    )
    p = tmp_path / "tiny.json"
    p.write_text(emit_scenario(s))
    return str(p)


@pytest.fixture()
def overload_scenario_path(tmp_path):
    s = small_scenario(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20)], traffic=2000.0, bins=8
    )
    p = tmp_path / "over.json"
    p.write_text(emit_scenario(s))
    return str(p)


def test_validate_ok(capsys):
    assert main(["validate", "--scenario", GOLDEN]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_missing_file():
    assert main(["validate", "--scenario", "/nonexistent.json"]) == EXIT_USAGE


def test_validate_bad_document(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{\"lot\": {}}")
    assert main(["validate", "--scenario", str(p)]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_non_finite_scenario_exits_with_validation(tmp_path, capsys):
    # A cloud at infinite fiber length once solved as "optimal" with an
    # infinite delay.
    raw = json.loads(Path(GOLDEN).read_text())
    raw["nodes"][-1]["fiber_length_m"] = float("inf")
    p = tmp_path / "inf.json"
    p.write_text(json.dumps(raw))
    argv = ["solve", "--scenario", str(p), "--setting", "CLOUD_ONLY", "--objective", "power"]
    assert main(argv) == EXIT_VALIDATION
    assert "fiber_length: must be finite" in capsys.readouterr().err


def test_module_entry_point_runs_without_warnings():
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "vecop.cli", "validate",
         "--scenario", GOLDEN],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout.strip() == "ok"


def test_solve_joint_writes_no_runtime_warning(tmp_path):
    # solve passes HiGHS an option scipy does not know; scipy's warning
    # about it must not reach a user.
    out = tmp_path / "result.json"
    run = subprocess.run(
        [sys.executable, "-m", "vecop.cli", "solve", "--scenario", GOLDEN,
         "--objective", "joint", "-o", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert run.returncode == EXIT_OK, run.stderr
    assert "RuntimeWarning" not in run.stderr
    assert json.loads(out.read_text())["status"] == "optimal"


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


def test_gen_matches_golden(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["gen", "--seed", "42", "-o", str(out)]) == EXIT_OK
    assert out.read_text() == Path(GOLDEN).read_text()


def test_links_csv(tmp_path):
    out = tmp_path / "links.csv"
    assert main(["links", "--scenario", GOLDEN, "--csv", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "tx,rx,medium,distance_m,capacity_bps,radiated_mW,prop_ns,txdelay_us"
    assert len(lines) == 1 + 92
    assert any(",FIBER," in l for l in lines[1:])


def test_table_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["table", "--scenario", GOLDEN, "--link", "l000", "--csv", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "k,lambda_pps,delay_us"
    assert len(lines) == 1 + 64
    assert main(["table", "--scenario", GOLDEN, "--link", "nope"]) == EXIT_USAGE
    assert "unknown link" in capsys.readouterr().err


def test_export_lp_parses(tiny_scenario_path, tmp_path):
    out = tmp_path / "model.lp"
    assert main(["export", "--scenario", tiny_scenario_path, "-o", str(out)]) == EXIT_OK
    assert out.read_text().startswith("Minimize\n")
    assert read_lp(out.read_text()).constraints


def test_export_stats(tiny_scenario_path, capsys):
    assert main(["export", "--scenario", tiny_scenario_path, "--stats"]) == EXIT_OK
    census = json.loads(capsys.readouterr().out)
    assert set(census) == {"variables", "binaries", "integers", "constraints"}
    assert census["variables"] > census["binaries"] > 0


def test_solve_power(tiny_scenario_path, tmp_path):
    out = tmp_path / "result.json"
    assert (
        main(["solve", "--scenario", tiny_scenario_path, "--objective", "power", "-o", str(out)])
        == EXIT_OK
    )
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal"
    assert doc["total_power_w"] == pytest.approx(7.5, abs=1e-9)
    assert doc["allocation"]["d1"]["serving"] == ["v1"]
    assert "scenario_hash" in doc["provenance"]
    # The floors' certificate (v1 serves alone, at the least processing
    # power of any covering set): HiGHS did not run.
    assert doc["stats"]["mip_gap"] == 0.0
    assert doc["stats"]["mip_dual_bound"] == pytest.approx(7.5, rel=1e-9)
    assert doc["stats"]["certified_by"] == "floors"


def test_solve_provenance_matches_sweep_header(tiny_scenario_path, tmp_path):
    out = tmp_path / "result.json"
    assert main(["solve", "--scenario", tiny_scenario_path, "-o", str(out)]) == EXIT_OK
    provenance = json.loads(out.read_text())["provenance"]
    assert provenance["core_energy_per_bit_j"] == 2e-8
    table = harness.sweep(
        parse_scenario(Path(tiny_scenario_path).read_text()),
        demands=(400.0,),
        settings=(ProcessingSetting.VEHICLES_ONLY,),
        presets=(ObjectivePreset.POWER_ONLY,),
    )
    assert provenance == {k: table.metadata[k] for k in provenance}


def test_solve_joint_matches_sweep_cell(tmp_path):
    # 1000 kbps overloads v1 (800 MIPS), so the delay optimum T* is positive.
    s = small_scenario(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20)], traffic=1000.0, bins=8
    )
    p = tmp_path / "split.json"
    p.write_text(emit_scenario(s))
    out = tmp_path / "result.json"
    assert main(["solve", "--scenario", str(p), "--objective", "joint", "-o", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    row = harness.sweep(
        s,
        demands=(1000.0,),
        settings=(ProcessingSetting.VEHICLES_ONLY,),
        presets=(ObjectivePreset.JOINT_EQUAL,),
    ).rows[0]
    assert row.w_delay > 0.0
    assert doc["weights"] == {
        "preset": "JOINT_EQUAL", "w_power": row.w_power, "w_delay": row.w_delay
    }
    assert doc["objective_value"] == row.objective_value


def test_export_joint_writes_the_model_solve_solves(tmp_path, capsys, monkeypatch):
    # The default lot, vehicles only: T* > 0, so the joint model is solved
    # under the pre-solves' delay cap, and its power-only optimum is far
    # slower than T*, so no floor certifies it before HiGHS runs.
    models = []
    formulate = solver.formulate

    def seen(*args, **kwargs):
        models.append(formulate(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(solver, "formulate", seen)
    argv = ["--scenario", GOLDEN, "--setting", "VEHICLES_ONLY", "--objective", "joint"]
    assert main(["solve", *argv, "-o", str(tmp_path / "result.json")]) == EXIT_OK
    solved = models[-1]
    assert next(v for v in solved.variables if v.name == "T").upper is not None
    capsys.readouterr()
    assert main(["export", *argv, "--stats"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == model_census(solved)
    lp = tmp_path / "joint.lp"
    assert main(["export", *argv, "-o", str(lp)]) == EXIT_OK
    assert lp.read_text() == export_lp(solved)


def test_export_power_writes_the_capped_model_solve_solves(tmp_path, monkeypatch):
    # A cell whose power-only solve reaches HiGHS (conftest's
    # edge_relay_scenario): solve formulates its power-only model under the
    # reference allocation's power cap, and export writes that model, with
    # fewer r than the uncapped one.
    scenario = tmp_path / "relay.json"
    scenario.write_text(emit_scenario(edge_relay_scenario()))
    models = []
    formulate = solver.formulate

    def seen(*args, **kwargs):
        models.append(formulate(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(solver, "formulate", seen)
    argv = ["--scenario", str(scenario), "--objective", "power"]
    assert main(["solve", *argv, "-o", str(tmp_path / "result.json")]) == EXIT_OK
    (solved,) = models
    assert json.loads((tmp_path / "result.json").read_text())["stats"]["certified_by"] is None
    lp = tmp_path / "power.lp"
    assert main(["export", *argv, "-o", str(lp)]) == EXIT_OK
    assert lp.read_text() == export_lp(solved)
    s = cli._load_scenario(str(scenario), None)
    ls = linkmodel.build_links(s)
    uncapped = formulate(s, ls, delaymodel.build_tables(s, ls), POWER_WEIGHTS)
    assert len(solved.metadata["r"]) < len(uncapped.metadata["r"])


def test_export_joint_writes_the_floored_model_of_the_default_lot(tmp_path, monkeypatch):
    # The default lot (1000 kbps, vehicles only): export writes the joint
    # model that solve hands HiGHS, with T in [T*, cap]. The power floor
    # certifies the power-only solve and the first-hop bound the delay-only
    # pre-solve, so neither builds a model.
    models, bounds = [], []
    formulate, joint_weights = solver.formulate, solver.joint_weights

    def seen(*args, **kwargs):
        models.append(formulate(*args, **kwargs))
        return models[-1]

    def resolved(*args, **kwargs):
        bounds.append(joint_weights(*args, **kwargs))
        return bounds[-1]

    monkeypatch.setattr(solver, "formulate", seen)
    monkeypatch.setattr(solver, "joint_weights", resolved)
    argv = ["--scenario", GOLDEN, "--setting", "VEHICLES_ONLY", "--objective", "joint"]
    assert main(["solve", *argv, "-o", str(tmp_path / "result.json")]) == EXIT_OK
    (joint,) = models
    [(_weights, joint_bounds)] = bounds
    cap, floor = joint_bounds.delay_cap, joint_bounds.delay_floor
    t = next(v for v in joint.variables if v.name == "T")
    assert (t.lower, t.upper) == (floor / DELAY_UNIT, cap / DELAY_UNIT)
    assert 0.0 < floor < cap
    lp = tmp_path / "joint.lp"
    assert main(["export", *argv, "-o", str(lp)]) == EXIT_OK
    assert structurally_equal(read_lp(lp.read_text()), joint)


def test_export_joint_exits_infeasible_without_a_power_optimum(
    overload_scenario_path, tmp_path, capsys
):
    # 2000 kbps exceeds both vehicles: the power-only pre-solve is
    # infeasible, so there are no joint weights and no model to write.
    out = tmp_path / "joint.lp"
    argv = ["export", "--scenario", overload_scenario_path, "--objective", "joint"]
    assert main([*argv, "-o", str(out)]) == EXIT_INFEASIBLE
    assert "power-only pre-solve found no allocation" in capsys.readouterr().err
    assert not out.exists()


def test_solve_joint_solves_no_model_twice(
    tiny_scenario_path, overload_scenario_path, tmp_path, monkeypatch
):
    calls = []
    solve = solver.solve

    def counted(*args, **kwargs):
        calls.append((args[3].w_power, args[3].w_delay))
        return solve(*args, **kwargs)

    monkeypatch.setattr(solver, "solve", counted)
    out = tmp_path / "result.json"
    # 400 kbps stays on the source vehicle: T_p = 0, so T* = 0 needs no
    # delay-only solve and the joint result is the power-only one.
    argv = ["solve", "--scenario", tiny_scenario_path, "--objective", "joint", "-o", str(out)]
    assert main(argv) == EXIT_OK
    assert calls == [(1.0, 0.0)]
    doc = json.loads(out.read_text())
    assert doc["weights"] == {"preset": "JOINT_EQUAL", "w_power": 1.0, "w_delay": 0.0}
    calls.clear()
    argv[2] = overload_scenario_path
    assert main(argv) == EXIT_INFEASIBLE
    assert calls == [(1.0, 0.0)]


def _sweep_joint(s, tmp_path):
    harness.sweep(
        s,
        demands=(s.demands[0].traffic,),
        settings=(ProcessingSetting.VEHICLES_ONLY,),
        presets=(ObjectivePreset.POWER_ONLY, ObjectivePreset.JOINT_EQUAL),
    )


def _cli_joint(s, tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(emit_scenario(s))
    argv = ["solve", "--scenario", str(p), "--objective", "joint"]
    assert main([*argv, "-o", str(tmp_path / "result.json")]) == EXIT_OK


def _kind(weights):
    return {(1.0, 0.0): "power", (0.0, 1.0): "delay"}.get(
        (weights.w_power, weights.w_delay), "joint"
    )


@pytest.mark.parametrize("front_end", [_sweep_joint, _cli_joint], ids=["sweep", "cli"])
@pytest.mark.parametrize(
    "traffic, solves",
    [
        # 1000 kbps overloads v1 (800 MIPS): T* > 0, so the power solve, then
        # the capped delay-only pre-solve and the capped joint solve.
        (1000.0, [("power", False), ("delay", True), ("joint", True)]),
        # 400 kbps stays on the source vehicle: T_p = 0, the power solve only.
        (400.0, [("power", False)]),
    ],
)
def test_front_ends_solve_the_one_joint_chain(front_end, traffic, solves, tmp_path, monkeypatch):
    s = small_scenario(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20)], traffic=traffic, bins=8
    )
    calls = []
    solve = solver.solve

    def recorded(*args, bounds=None, **kwargs):
        calls.append((args[3], None if bounds is None else bounds.delay_cap))
        return solve(*args, bounds=bounds, **kwargs)

    monkeypatch.setattr(solver, "solve", recorded)
    front_end(s, tmp_path)
    seen = calls[:]
    calls.clear()
    linkset = linkmodel.build_links(s)
    tables = delaymodel.build_tables(s, linkset)
    power = solver.solve(s, linkset, tables, POWER_WEIGHTS)
    solver.solve_joint(s, linkset, tables, power)
    assert [(_kind(w), cap is not None) for w, cap in seen] == solves
    assert seen == calls


def test_solve_joint_and_custom(tiny_scenario_path, tmp_path):
    out = tmp_path / "result.json"
    assert (
        main(["solve", "--scenario", tiny_scenario_path, "--objective", "joint", "-o", str(out)])
        == EXIT_OK
    )
    doc = json.loads(out.read_text())
    assert doc["weights"]["preset"] == "JOINT_EQUAL"
    assert (
        main(
            [
                "solve",
                "--scenario",
                tiny_scenario_path,
                "--objective",
                "custom:0.02,2000",
                "-o",
                str(out),
            ]
        )
        == EXIT_OK
    )
    doc = json.loads(out.read_text())
    assert doc["weights"] == {"preset": "CUSTOM", "w_power": 0.02, "w_delay": 2000.0}


@pytest.mark.parametrize(
    "objective, preset",
    [("power", "POWER_ONLY"), ("joint", "JOINT_EQUAL"), ("custom:0.02,2000", "CUSTOM")],
)
def test_solve_labels_the_requested_objective(overload_scenario_path, tmp_path, objective, preset):
    # The power-only model is infeasible, so no joint weights are ever built:
    # the label still names the objective the command asked for.
    out = tmp_path / "result.json"
    argv = ["solve", "--scenario", overload_scenario_path, "--objective", objective]
    assert main([*argv, "-o", str(out)]) == EXIT_INFEASIBLE
    doc = json.loads(out.read_text())
    assert doc["status"] == "infeasible"
    assert doc["weights"]["preset"] == preset


@pytest.mark.parametrize("command", ["solve", "export"])
@pytest.mark.parametrize(
    "spec", ["custom:-1,0", "custom:0,-1", "custom:0,0", "custom:nan,1", "custom:1,inf"]
)
def test_custom_weights_validated(command, spec, tiny_scenario_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved with invalid weights")

    monkeypatch.setattr(solver, "solve", unreachable)
    monkeypatch.setattr(solver, "formulate", unreachable)
    argv = [command, "--scenario", tiny_scenario_path, "--objective", spec]
    assert main(argv) == EXIT_VALIDATION
    assert f"custom objective {spec!r}" in capsys.readouterr().err


def test_solve_objective_spelling(tiny_scenario_path):
    assert main(["solve", "--scenario", tiny_scenario_path, "--objective", "bogus"]) == EXIT_VALIDATION
    assert (
        main(["solve", "--scenario", tiny_scenario_path, "--objective", "custom:1"])
        == EXIT_VALIDATION
    )


def test_solve_stdout_is_only_the_document(tiny_scenario_path):
    # HiGHS can print diagnostics from C to file descriptor 1 during a solve.
    # The child writes such a line through C stdio before every milp call.
    child = (
        "import ctypes, sys\n"
        "from vecop import solver\n"
        "from vecop.cli import main\n"
        "real = solver.milp\n"
        "def noisy(*args, **kwargs):\n"
        "    ctypes.CDLL(None).printf(b'C-LEVEL DIAGNOSTIC\\n')\n"
        "    return real(*args, **kwargs)\n"
        "solver.milp = noisy\n"
        "sys.exit(main())\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", child, "solve", "--scenario", tiny_scenario_path,
         "--objective", "custom:0.001,1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert run.returncode == EXIT_OK
    assert "C-LEVEL DIAGNOSTIC" in run.stderr
    assert json.loads(run.stdout)["status"] == "optimal"


def test_solve_infeasible_exit(overload_scenario_path, tmp_path):
    out = tmp_path / "result.json"
    code = main(
        ["solve", "--scenario", overload_scenario_path, "--objective", "power", "-o", str(out)]
    )
    assert code == EXIT_INFEASIBLE
    doc = json.loads(out.read_text())
    assert doc["status"] == "infeasible"
    assert doc["infeasible_reason"].startswith("C3")


def test_solve_limits_exit(tmp_path):
    nodes = [make_vehicle(f"v{i}", float(i), 0.0) for i in range(1, 14)]
    s = small_scenario(nodes, traffic=400.0, bins=8)
    p = tmp_path / "big.json"
    p.write_text(emit_scenario(s))
    assert main(["solve", "--scenario", str(p)]) == EXIT_LIMITS
    assert main(["solve", "--scenario", str(p), "--force", "-o", str(tmp_path / "r.json")]) == EXIT_OK


def test_solve_exits_with_limits_when_highs_stops(tmp_path, monkeypatch, capsys):
    # No floor certifies edge_relay_scenario's power-only optimum, so HiGHS
    # has a model to solve.
    p = tmp_path / "relay.json"
    p.write_text(emit_scenario(edge_relay_scenario()))
    real = solver.milp

    def time_limit(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status, res.success, res.message = 1, False, "Time limit reached."
        return res

    monkeypatch.setattr(solver, "milp", time_limit)
    assert main(["solve", "--scenario", str(p)]) == EXIT_LIMITS
    assert "status 1: Time limit reached" in capsys.readouterr().err


def test_sweep_csv_and_plotdata(tiny_scenario_path, tmp_path):
    csv = tmp_path / "sweep.csv"
    plot = tmp_path / "plot.csv"
    code = main(
        [
            "sweep",
            "--scenario",
            tiny_scenario_path,
            "--demands",
            "400",
            "800",
            "--settings",
            "VEHICLES_ONLY",
            "--objectives",
            "power",
            "--csv",
            str(csv),
            "--plotdata",
            str(plot),
        ]
    )
    assert code == EXIT_OK
    lines = [l for l in csv.read_text().splitlines() if not l.startswith("# ")]
    assert len(lines) == 1 + 2
    assert plot.read_text().splitlines()[-1].startswith("delay,")


def test_sweep_json(tiny_scenario_path, tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "--scenario",
            tiny_scenario_path,
            "--demands",
            "400",
            "--settings",
            "VEHICLES_ONLY",
            "--objectives",
            "power",
            "--json",
            str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["status"] == "optimal"
    assert "nodes_explored" not in doc["rows"][0]
    assert doc["metadata"]["demands_kbps"] == [400.0]


def test_report_requires_cloud(tiny_scenario_path, capsys):
    code = main(
        [
            "report",
            "--scenario",
            tiny_scenario_path,
            "--demands",
            "400",
            "--settings",
            "VEHICLES_ONLY",
        ]
    )
    assert code == EXIT_VALIDATION
    assert "baseline absent" in capsys.readouterr().err


def test_report_text_and_json(tmp_path, capsys):
    s = small_scenario(
        [
            make_vehicle("v1", 5, 20),
            make_vehicle("v2", 25, 20),
            make_edge("e1", 15, 10),
            make_cloud(),
        ],
        traffic=1000.0,
        setting=ProcessingSetting.VEHICLES_AND_EDGE,
        bins=8,
    )
    path = tmp_path / "cloud.json"
    path.write_text(emit_scenario(s))
    args = ["report", "--scenario", str(path), "--demands", "1000",
            "--settings", "VEHICLES_AND_EDGE", "CLOUD_ONLY"]
    assert main(args) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    out = tmp_path / "report.json"
    assert main(args + ["--json", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["metadata"]["settings"] == ["VEHICLES_AND_EDGE", "CLOUD_ONLY"]
    fam = doc["families"]
    saving = fam["power_saving_vs_cloud_pct"]["VEHICLES_AND_EDGE"]["1000.0"]
    edge_vs_cloud = fam["delay_reduction_edge_vs_cloud_pct"]["1000.0"]
    assert 0.0 < saving < 100.0 and 0.0 < edge_vs_cloud < 100.0
    # The text form prints the same numbers under the family headings.
    at = lines.index("power saving vs cloud (power-only):")
    assert lines[at + 1] == f"  VEHICLES_AND_EDGE @ 1000 kbps: {harness._fmt(saving)}%"
    at = lines.index("delay reduction, vehicles+edge vs cloud (joint):")
    assert lines[at + 1] == f"  @ 1000 kbps: {harness._fmt(edge_vs_cloud)}%"
    # The joint optimum keeps the power-only delay: a reduction of +0, not -0.
    unchanged = fam["delay_reduction_joint_vs_power_pct"]["VEHICLES_AND_EDGE"]["1000.0"]
    assert unchanged == 0.0 and math.copysign(1.0, unchanged) == 1.0
    assert not [line for line in lines if "-0%" in line]
