"""Solve the default parking-lot instance under both objectives and print
where the processing lands, what it costs, and how long each target waits.

Run:  python3 demos/solve_default.py
"""

from vecop import delaymodel, linkmodel, solver
from vecop.scenario import POWER_WEIGHTS, generate_default


def show(tag, result):
    print(f"== {tag} ==")
    print(f"status          {result.status}")
    if result.status != "optimal":
        print(f"reason          {result.infeasible_reason}")
        return
    print(f"total power     {result.total_power:.4f} W")
    print(f"max delay       {result.max_delay * 1e6:.1f} us")
    print(f"objective       {result.objective_value:.6g}")
    for d_id, da in sorted(result.allocation.demands.items()):
        for n in da.serving:
            route = " -> ".join(da.routes[n]) or "(local)"
            print(f"  {d_id}: {da.fractions[n] * 100:5.1f}% on {n:6s} via {route}")
    print()


def main():
    scenario = generate_default(42)
    linkset = linkmodel.build_links(scenario)
    tables = delaymodel.build_tables(scenario, linkset)

    power = solver.solve(scenario, linkset, tables, POWER_WEIGHTS)
    show("power only", power)
    show("joint (equal-weighted)", solver.solve_joint(scenario, linkset, tables, power))


if __name__ == "__main__":
    main()
