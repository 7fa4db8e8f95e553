"""Command-line front end.

Subcommands: validate | gen | links | table | export | solve | sweep | report.
Exit codes: 0 ok, 1 usage, 2 validation error, 3 infeasible, 4 limits (an
instance over the size limit, or HiGHS stopped without an optimum).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional, Sequence

from . import delaymodel, harness, linkmodel, lp_io, solver
from .formulation import model_census
from .harness import _fmt
from .scenario import (
    POWER_WEIGHTS,
    ObjectivePreset,
    ObjectiveWeights,
    ProcessingSetting,
    Scenario,
    ScenarioError,
    emit_scenario,
    generate_default,
    parse_scenario,
    validate,
)
from .solver import InstanceTooLarge, Limits, SolverStopped

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_LIMITS = 4


def _write(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as f:
            f.write(text)


def _load_scenario(path: str, setting: Optional[str] = None) -> Scenario:
    with open(path) as f:
        scenario = parse_scenario(f.read())
    if setting is not None:
        settings = dataclasses.replace(
            scenario.settings, processing_setting=ProcessingSetting(setting)
        )
        scenario = validate(dataclasses.replace(scenario, settings=settings))
    return scenario


def _parse_objective(spec: str) -> tuple[ObjectivePreset, ObjectiveWeights]:
    """power | joint | custom:wp,wd -> (the requested preset, the weights of
    its first solve). JOINT_EQUAL's first solve is power-only; its pre-solves
    and joint solve follow."""
    if spec == "power":
        return ObjectivePreset.POWER_ONLY, POWER_WEIGHTS
    if spec == "joint":
        return ObjectivePreset.JOINT_EQUAL, POWER_WEIGHTS
    if spec.startswith("custom:"):
        parts = spec[len("custom:") :].split(",")
        if len(parts) != 2:
            raise ValueError(f"malformed custom objective {spec!r}; expected custom:wp,wd")
        w_power, w_delay = float(parts[0]), float(parts[1])
        if not all(math.isfinite(w) and w >= 0.0 for w in (w_power, w_delay)):
            raise ValueError(f"custom objective {spec!r}: weights must be finite and non-negative")
        if w_power == 0.0 and w_delay == 0.0:
            raise ValueError(f"custom objective {spec!r}: weights must not both be zero")
        return ObjectivePreset.CUSTOM, ObjectiveWeights(w_power, w_delay)
    raise ValueError(f"unknown objective {spec!r}; expected power, joint, or custom:wp,wd")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    _load_scenario(args.scenario)
    print("ok")
    return EXIT_OK


def _cmd_gen(args) -> int:
    scenario = generate_default(args.seed)
    _write(emit_scenario(scenario), args.output)
    return EXIT_OK


def _cmd_links(args) -> int:
    scenario = _load_scenario(args.scenario, args.setting)
    linkset = linkmodel.build_links(scenario)
    lines = ["tx,rx,medium,distance_m,capacity_bps,radiated_mW,prop_ns,txdelay_us"]
    for link in linkset.links:
        lines.append(
            ",".join(
                [
                    link.tx_device,
                    link.rx_device,
                    link.medium.value,
                    _fmt(link.distance),
                    _fmt(link.capacity),
                    _fmt(link.radiated_power * 1e3),
                    _fmt(link.prop_delay * 1e9),
                    _fmt(link.tx_delay_per_packet * 1e6),
                ]
            )
        )
    _write("\n".join(lines) + "\n", args.csv)
    return EXIT_OK


def _cmd_table(args) -> int:
    scenario = _load_scenario(args.scenario, args.setting)
    linkset = linkmodel.build_links(scenario)
    tables = delaymodel.build_tables(scenario, linkset)
    if args.link not in tables:
        print(f"error: unknown link {args.link!r}; known: {' '.join(sorted(tables))}", file=sys.stderr)
        return EXIT_USAGE
    table = tables[args.link]
    lines = ["k,lambda_pps,delay_us"]
    for k, (lam, q) in enumerate(zip(table.arrival_bounds, table.delays), start=1):
        lines.append(f"{k},{_fmt(lam)},{_fmt(q * 1e6)}")
    _write("\n".join(lines) + "\n", args.csv)
    return EXIT_OK


def _cmd_export(args) -> int:
    preset, weights = _parse_objective(args.objective)
    scenario = _load_scenario(args.scenario, args.setting)
    linkset = linkmodel.build_links(scenario)
    tables = delaymodel.build_tables(scenario, linkset)
    limits = Limits(force=args.force)
    bounds = None
    if preset == ObjectivePreset.JOINT_EQUAL:
        power = solver.solve(scenario, linkset, tables, weights, limits)
        weights, bounds = solver.joint_weights(scenario, linkset, tables, power, limits)
        if weights is None:
            print("infeasible: power-only pre-solve found no allocation", file=sys.stderr)
            return EXIT_INFEASIBLE
    model, _bounds = solver.capped_model(scenario, linkset, tables, weights, bounds)
    if args.stats:
        census = model_census(model)
        print(json.dumps(census, indent=2, sort_keys=True))
        return EXIT_OK
    _write(lp_io.export_lp(model), args.output)
    return EXIT_OK


def _result_document(scenario, preset, result) -> str:
    doc = {
        "provenance": harness.provenance(scenario),
        "status": result.status,
        "weights": {
            "preset": preset.value,
            "w_power": result.weights.w_power,
            "w_delay": result.weights.w_delay,
        },
        "stats": {
            "nodes_explored": result.stats.nodes_explored,
            "wall_time_s": result.stats.wall_time,
            "mip_gap": result.stats.mip_gap,
            "mip_dual_bound": result.stats.mip_dual_bound,
            "certified_by": result.stats.certified_by,
        },
    }
    if result.status == "optimal":
        doc.update(
            {
                "total_power_w": result.total_power,
                "max_delay_s": result.max_delay,
                "objective_value": result.objective_value,
                "per_device_power_w": dict(sorted(result.per_device_power.items())),
                "per_target_delay_s": {
                    d: dict(sorted(t.items())) for d, t in sorted(result.per_target_delay.items())
                },
                "allocation": {
                    d_id: {
                        "serving": list(da.serving),
                        "fractions": {n: da.fractions[n] for n in sorted(da.fractions)},
                        "routes": {n: list(da.routes[n]) for n in sorted(da.routes)},
                    }
                    for d_id, da in sorted(result.allocation.demands.items())
                },
            }
        )
    else:
        doc["infeasible_reason"] = result.infeasible_reason
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_solve(args) -> int:
    preset, weights = _parse_objective(args.objective)
    scenario = _load_scenario(args.scenario, args.setting)
    linkset = linkmodel.build_links(scenario)
    tables = delaymodel.build_tables(scenario, linkset)
    limits = Limits(force=args.force)
    result = solver.solve(scenario, linkset, tables, weights, limits)
    if preset == ObjectivePreset.JOINT_EQUAL:
        result = solver.solve_joint(scenario, linkset, tables, result, limits)
    _write(_result_document(scenario, preset, result), args.output)
    return EXIT_OK if result.status == "optimal" else EXIT_INFEASIBLE


def _sweep_args(args, scenario):
    demands = tuple(args.demands) if args.demands else harness.DEFAULT_DEMANDS
    settings = (
        tuple(ProcessingSetting(s) for s in args.settings)
        if args.settings
        else harness.DEFAULT_SETTINGS
    )
    objectives = (
        tuple({"power": ObjectivePreset.POWER_ONLY, "joint": ObjectivePreset.JOINT_EQUAL}[o] for o in args.objectives)
        if args.objectives
        else harness.DEFAULT_PRESETS
    )
    limits = Limits(force=args.force)
    return harness.sweep(
        scenario, demands, settings, objectives, limits=limits, threads=args.threads
    )


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.scenario)
    table = _sweep_args(args, scenario)
    if args.csv is not None or (args.plotdata is None and args.json is None):
        _write(harness.table_to_csv(table), args.csv)
    if args.plotdata is not None:
        _write(harness.table_to_plotdata(table), args.plotdata)
    if args.json is not None:
        doc = {"metadata": table.metadata, "rows": [dataclasses.asdict(r) for r in table.rows]}
        _write(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n", args.json)
    return EXIT_OK


def _cmd_report(args) -> int:
    scenario = _load_scenario(args.scenario)
    table = _sweep_args(args, scenario)
    summary = harness.report(table)
    if args.json is not None:
        _write(json.dumps(summary, indent=2, sort_keys=True) + "\n", args.json)
    else:
        _write(harness.report_to_text(summary), None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_setting(p):
    p.add_argument(
        "--setting",
        choices=[s.value for s in ProcessingSetting],
        default=None,
        help="override the scenario's processing setting",
    )


def _add_limits(p):
    p.add_argument("--force", action="store_true", help="override instance size limits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecop",
        description="Vehicular/edge/cloud processing-allocation optimizer and benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario document")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen", help="generate the default parking-lot scenario")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("links", help="dump the feasible link set as CSV")
    p.add_argument("--scenario", required=True)
    _add_setting(p)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_links)

    p = sub.add_parser("table", help="print one link's delay lookup table as CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--link", required=True)
    _add_setting(p)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("export", help="export the MILP as LP-format text")
    p.add_argument("--scenario", required=True)
    _add_setting(p)
    p.add_argument("--objective", default="power")
    p.add_argument("--stats", action="store_true", help="print the model census instead")
    p.add_argument("-o", "--output", default=None)
    _add_limits(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("solve", help="solve one instance to optimality")
    p.add_argument("--scenario", required=True)
    _add_setting(p)
    p.add_argument("--objective", default="power", help="power | joint | custom:wp,wd")
    p.add_argument("-o", "--output", default=None)
    _add_limits(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="run the demand x setting x objective sweep")
    p.add_argument("--scenario", required=True)
    p.add_argument("--demands", type=float, nargs="*", default=None, help="kbit/s values")
    p.add_argument(
        "--settings", nargs="*", choices=[s.value for s in ProcessingSetting], default=None
    )
    p.add_argument("--objectives", nargs="*", choices=["power", "joint"], default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--plotdata", default=None)
    _add_limits(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="sweep and summarize the four comparison metrics")
    p.add_argument("--scenario", required=True)
    p.add_argument("--demands", type=float, nargs="*", default=None)
    p.add_argument(
        "--settings", nargs="*", choices=[s.value for s in ProcessingSetting], default=None
    )
    p.add_argument("--objectives", nargs="*", choices=["power", "joint"], default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", default=None)
    _add_limits(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    # HiGHS's C-level prints go to stderr (solver._stdout_to_stderr).
    try:
        return args.func(args)
    except (InstanceTooLarge, SolverStopped) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LIMITS
    except (ScenarioError, harness.HarnessError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
