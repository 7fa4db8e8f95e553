"""Exact optimizer for desk-scale instances.

solve() certifies optimality by branch-and-bound over the exact MILP built by
the formulation module (same bins, same big-M semantics), then decodes the
serving set and routes back into an Allocation, completes the processing
split canonically with greedy_split, and re-derives every reported number
through formulation.evaluate — so solver and evaluator agree to the last bit.

brute_force() is the deliberately plain oracle twin. oracle_candidates()
enumerates serving sets and simple-path products with no pruning, every
candidate checked and scored by formulation.evaluate once per instance;
OracleCandidates.best() picks the optimum at any weights, with lexicographic
tie-breaking by (serving node ids, route link ids).
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import sys
import threading
import time
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.optimize import Bounds as VariableBounds
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import coo_matrix

from . import delaymodel, powermodel
from .delaymodel import DelayTable
from .formulation import (
    CONTINUOUS,
    Allocation,
    AllocationError,
    Bounds,
    DemandAllocation,
    MilpModel,
    SolveResult,
    SolverStats,
    _arc_power,
    _carries,
    _covering_sets,
    _floor_delay,
    _floor_distances,
    _idle_devices,
    _power_floors,
    _pps,
    evaluate,
    formulate,
)
from .linkmodel import Link, LinkSet
from .scenario import (
    POWER_WEIGHTS,
    DemandSpec,
    ObjectiveWeights,
    Scenario,
    eligible_processors,
)

__all__ = [
    "MAX_NODES",
    "Limits",
    "SolverError",
    "InstanceTooLarge",
    "SolverStopped",
    "Bounds",
    "solve",
    "capped_model",
    "power_bounds",
    "joint_weights",
    "solve_joint",
    "greedy_split",
    "OracleCandidates",
    "oracle_candidates",
    "brute_force",
]

CAPACITY_TOL = 1e-9
# Largest instance solve() takes without Limits.force.
MAX_NODES = 12
# Largest objective cost handed to HiGHS (see solve()).
OBJECTIVE_PEAK = 1e5
# Largest instance brute_force enumerates.
BRUTE_FORCE_MAX_NODES = 6
# Relative slack on a delay cap, so that the allocation it was taken from
# stays feasible despite rounding (see joint_weights()).
CAP_MARGIN = 1e-6
# Relative slack below a delay (a power) under which _first_hop_floor
# (_power_floor) looks for a faster (cheaper) allocation: their sums add
# evaluate()'s terms in another order.
FLOOR_MARGIN = 1e-9
# Search steps after which _first_hop_floor gives up, proving nothing. The
# default sweeps of lots 42-61 take at most 1,768 (about 10 ms).
FLOOR_WORK_LIMIT = 20_000

# solve() turns HiGHS's feasibility jump off, an option scipy's milp does not
# know: it passes it through and warns on every call. Only that exact
# message is silenced, so any other unknown option still warns. A filter,
# not catch_warnings, which is not thread-safe: the harness solves on a
# thread pool.
warnings.filterwarnings(
    "ignore",
    message=r"Unrecognized options detected: \{'mip_heuristic_run_feasibility_jump'\}\. ",
    category=RuntimeWarning,
)


class SolverError(ValueError):
    pass


class InstanceTooLarge(SolverError):
    pass


class SolverStopped(SolverError):
    """HiGHS stopped with neither an optimum nor a proof of infeasibility
    (a time or iteration limit, or another non-success exit)."""


@dataclass(frozen=True)
class Limits:
    force: bool = False


def greedy_split(targets: list[str], demand: DemandSpec, scenario: Scenario) -> dict[str, float]:
    """Fractions per serving node, filling ascending marginal cost per MIPS.

    Marginal cost of node n is (power_max - power_idle) / capacity of its
    processor; ties break by node id. Optimal completion for a fixed serving
    set and fixed routes: power is linear in the fractions and the delay does
    not depend on them.
    """
    load = demand.load or 0.0
    order = sorted(
        targets,
        key=lambda n: (
            (scenario.node(n).processor.power_max - scenario.node(n).processor.power_idle)
            / scenario.node(n).processor.capacity,
            n,
        ),
    )
    total_capacity = sum(scenario.node(n).processor.capacity for n in targets)
    if load > total_capacity * (1.0 + CAPACITY_TOL):
        raise SolverError(
            f"demand {demand.id}: insufficient capacity {total_capacity} MIPS for load {load}"
        )
    fractions = {n: 0.0 for n in targets}
    remaining = load
    for n in order:
        if remaining <= 0.0:
            break
        take = min(remaining, scenario.node(n).processor.capacity)
        fractions[n] = take / load
        remaining -= take
    if remaining > load * 1e-12:
        raise SolverError(f"demand {demand.id}: split left {remaining} MIPS unplaced")
    # Renormalize float dust so fractions sum to exactly 1.
    s = sum(fractions.values())
    if s > 0:
        fractions = {n: x / s for n, x in fractions.items()}
    return fractions


def _split_for(
    serving_by_demand: dict[str, tuple[str, ...]], scenario: Scenario
) -> dict[str, dict[str, float]]:
    """Canonical processing fractions for every demand.

    Single demand uses greedy_split. Multiple demands share node capacity,
    which turns the optimal completion into a small transportation LP.
    """
    demands = [d for d in scenario.demands if d.id in serving_by_demand]
    if len(demands) == 1:
        d = demands[0]
        return {d.id: greedy_split(list(serving_by_demand[d.id]), d, scenario)}
    from scipy.optimize import linprog

    cols = [(d.id, n) for d in demands for n in serving_by_demand[d.id]]
    cost = []
    for d in demands:
        for n in serving_by_demand[d.id]:
            p = scenario.node(n).processor
            cost.append((p.power_max - p.power_idle) / p.capacity * (d.load or 0.0))
    a_eq = [[1.0 if cd == d.id else 0.0 for cd, _ in cols] for d in demands]
    b_eq = [1.0] * len(demands)
    nodes = sorted({n for _, n in cols})
    loads = {d.id: d.load or 0.0 for d in demands}
    a_ub = [[loads[cd] if cn == n else 0.0 for cd, cn in cols] for n in nodes]
    b_ub = [scenario.node(n).processor.capacity for n in nodes]
    with _stdout_to_stderr():
        res = linprog(
            cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=[(0.0, 1.0)] * len(cols), method="highs",
        )
    if not res.success:
        raise SolverError(f"processing split infeasible: {res.message}")
    out: dict[str, dict[str, float]] = {d.id: {} for d in demands}
    for (cd, cn), x in zip(cols, res.x):
        out[cd][cn] = float(x)
    for d in demands:  # renormalize solver dust
        s = sum(out[d.id].values())
        out[d.id] = {n: x / s for n, x in out[d.id].items()}
    return out


# ---------------------------------------------------------------------------
# MILP bridge
# ---------------------------------------------------------------------------

# File descriptor 1 is process-wide, and so is the count of its users.
_redirect_lock = threading.Lock()
_redirect_users = 0
_saved_stdout_fd = -1
# C's fflush, resolved once: a CDLL handle costs about 13 us to build, and
# every HiGHS call flushes twice.
_fflush = ctypes.CDLL(None).fflush
_fflush.argtypes, _fflush.restype = [ctypes.c_void_p], ctypes.c_int


def _flush_c_stdio() -> None:
    _fflush(None)


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at stderr while HiGHS runs.

    HiGHS prints some diagnostics from C straight to fd 1, where they would
    corrupt a caller's stdout (a JSON document, a CSV). Reference-counted, so
    that solves running at once on pool threads share one redirect.
    """
    global _redirect_users, _saved_stdout_fd
    with _redirect_lock:
        if _redirect_users == 0:
            sys.stdout.flush()
            _flush_c_stdio()
            _saved_stdout_fd = os.dup(1)
            os.dup2(2, 1)
        _redirect_users += 1
    try:
        yield
    finally:
        with _redirect_lock:
            _redirect_users -= 1
            if _redirect_users == 0:
                _flush_c_stdio()
                os.dup2(_saved_stdout_fd, 1)
                os.close(_saved_stdout_fd)


def _to_arrays(model: MilpModel):
    names = [v.name for v in model.variables]
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for name, coef in model.objective.items():
        c[index[name]] = coef
    integrality = np.array([0 if v.kind == CONTINUOUS else 1 for v in model.variables])
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper if v.upper is not None else np.inf for v in model.variables])
    rows, cols, vals, lo, hi = [], [], [], [], []
    for i, con in enumerate(model.constraints):
        for name, coef in con.coeffs.items():
            rows.append(i)
            cols.append(index[name])
            vals.append(coef)
        if con.sense == "<=":
            lo.append(-np.inf)
            hi.append(con.rhs)
        elif con.sense == ">=":
            lo.append(con.rhs)
            hi.append(np.inf)
        else:
            lo.append(con.rhs)
            hi.append(con.rhs)
    matrix = coo_matrix((vals, (rows, cols)), shape=(len(model.constraints), n))
    return names, c, integrality, VariableBounds(lower, upper), LinearConstraint(matrix, lo, hi)


def _walk_route(
    scenario: Scenario, linkset: LinkSet, d_id: str, source: str, target: str,
    chosen: set[str],
) -> tuple[str, ...]:
    """Order the chosen link ids into the source->target simple path.

    Spurious flow cycles disconnected from the path (possible at zero power
    weight, where they are cost-free) are dropped.
    """
    by_tx: dict[str, str] = {}
    for link_id in chosen:
        link = linkset.link(link_id)
        if link.tx_node in by_tx:
            raise SolverError(
                f"demand {d_id}, target {target}: branching flow at {link.tx_node}"
            )
        by_tx[link.tx_node] = link_id
    path = []
    at = source
    seen = {source}
    while at != target:
        link_id = by_tx.get(at)
        if link_id is None:
            raise SolverError(f"demand {d_id}, target {target}: flow stops at {at}")
        path.append(link_id)
        at = linkset.link(link_id).rx_node
        if at in seen:
            raise SolverError(f"demand {d_id}, target {target}: flow revisits {at}")
        seen.add(at)
    return tuple(path)


def _decode(
    scenario: Scenario, linkset: LinkSet, model: MilpModel, names: list[str], x: np.ndarray
) -> Allocation:
    value = dict(zip(names, x))
    meta = model.metadata
    demands: dict[str, DemandAllocation] = {}
    serving_by_demand = {}
    for d in scenario.demands:
        serving = tuple(
            n for n in meta["targets"][d.id] if value.get(meta["y"][(d.id, n)], 0.0) > 0.5
        )
        serving_by_demand[d.id] = serving
    splits = _split_for(serving_by_demand, scenario)
    chosen: dict[tuple[str, str], set[str]] = {}
    for (d_id, n, link_id), rv in meta["r"].items():
        if value[rv] > 0.5:
            chosen.setdefault((d_id, n), set()).add(link_id)
    for d in scenario.demands:
        serving = serving_by_demand[d.id]
        routes: dict[str, tuple[str, ...]] = {}
        for n in serving:
            if n == d.source:
                routes[n] = ()
                continue
            routes[n] = _walk_route(
                scenario, linkset, d.id, d.source, n, chosen.get((d.id, n), set())
            )
        demands[d.id] = DemandAllocation(
            serving=serving, fractions=splits[d.id], routes=routes
        )
    return Allocation(demands=demands)


def capped_model(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    weights: ObjectiveWeights,
    bounds: Optional[Bounds] = None,
) -> tuple[MilpModel, Bounds]:
    """The model solve() hands HiGHS, and the bounds it is formulated
    under: `bounds`, or power_bounds() when none are given, which solve()
    resolves before its certificate check. `vecop export` writes this
    model, also where solve() certifies the bounds' witness without it."""
    if bounds is None:
        bounds = power_bounds(scenario, linkset, tables, weights)
    return formulate(scenario, linkset, tables, weights, bounds), bounds


def solve(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    weights: ObjectiveWeights,
    limits: Limits = Limits(),
    bounds: Optional[Bounds] = None,
) -> SolveResult:
    """Provably optimal allocation, or an infeasibility report naming the
    binding constraint family.

    The bounds are `bounds` (joint_weights() gives them for the joint
    chain) or, when none are given, power_bounds(), resolved once. Before
    any model is built, their witness, if it scores no more than the
    floors, w_power * power_floor + w_delay * delay_floor (a missing floor
    counts 0), is certified optimal: it is returned, evaluated at
    `weights`, without running HiGHS, with 0 nodes, a gap of 0.0, the
    floors' objective as its dual bound and certified_by "floors".

    Otherwise HiGHS solves capped_model() under the same bounds. A model
    that HiGHS reports infeasible raises SolverError when an allocation
    proves it feasible: the bounds' witness or, without one,
    _nearest_allocation (single demand).
    Any HiGHS exit other than optimal or infeasible raises SolverStopped.
    """
    start = time.perf_counter()
    if len(scenario.nodes) > MAX_NODES and not limits.force:
        raise InstanceTooLarge(
            f"instance too large: {len(scenario.nodes)} nodes "
            f"(limit {MAX_NODES}; use force to override)"
        )
    eligible = sorted(eligible_processors(scenario))
    if not eligible:
        return SolveResult(
            status="infeasible", weights=weights, infeasible_reason="no eligible processors"
        )
    total_capacity = sum(scenario.node(n).processor.capacity for n in eligible)
    for d in scenario.demands:
        if (d.load or 0.0) > total_capacity * (1.0 + CAPACITY_TOL):
            return SolveResult(
                status="infeasible",
                weights=weights,
                stats=SolverStats(wall_time=time.perf_counter() - start),
                infeasible_reason=(
                    f"C3: demand {d.id} load {d.load} MIPS exceeds eligible processing "
                    f"capacity {total_capacity} MIPS"
                ),
            )
    if bounds is None:
        bounds = power_bounds(scenario, linkset, tables, weights)
    if bounds.witness is not None:
        # Every allocation's power and max delay are at least the floors
        # (at least 0 where none is known), and the weights are not
        # negative, so no objective is below the floors'. A witness that
        # scores no more is optimal: the gap is closed before any model.
        floor = weights.w_power * (bounds.power_floor or 0.0) + weights.w_delay * (
            bounds.delay_floor or 0.0
        )
        witness = bounds.witness
        # evaluate()'s objective, term for term.
        if weights.w_power * witness.total_power + weights.w_delay * witness.max_delay <= floor:
            result = evaluate(scenario, linkset, tables, witness.allocation, weights)
            stats = SolverStats(
                wall_time=time.perf_counter() - start,
                mip_gap=0.0,
                mip_dual_bound=floor,
                certified_by="floors",
            )
            return replace(result, stats=stats)

    model, bounds = capped_model(scenario, linkset, tables, weights, bounds)
    names, c, integrality, var_bounds, constraint = _to_arrays(model)
    # HiGHS prunes nodes within 1e-6 objective units of the incumbent, and
    # its LP tolerances on reduced costs are absolute too. Any objective
    # (power-only tens of watts, joint about 1, delay-only about 3e-4)
    # would lose better allocations within them, so its costs are scaled
    # up to OBJECTIVE_PEAK. At a peak of 1e3 two access points about 1e-11
    # of the power apart still went to the worse one; 1e5 keeps them apart.
    # The reported numbers come from evaluate().
    peak = np.abs(c).max(initial=0.0)
    scale = OBJECTIVE_PEAK / peak if 0.0 < peak < OBJECTIVE_PEAK else 1.0
    c = c * scale
    with _stdout_to_stderr():
        res = milp(
            c,
            constraints=constraint,
            bounds=var_bounds,
            integrality=integrality,
            options={
                "mip_rel_gap": 0.0,
                "presolve": True,
                "mip_heuristic_run_feasibility_jump": False,
            },
        )
    wall = time.perf_counter() - start
    gap, bound = res.get("mip_gap"), res.get("mip_dual_bound")
    stats = SolverStats(
        nodes_explored=int(res.get("mip_node_count") or 0),
        wall_time=wall,
        mip_gap=None if gap is None else float(gap),
        mip_dual_bound=None if bound is None else float(bound) / scale,
    )
    if res.status == 2:
        witness = bounds.witness or _nearest_allocation(scenario, linkset, tables)
        if witness is not None:
            raise SolverError(
                f"HiGHS reports the model under {bounds!r} infeasible, yet an allocation "
                f"of {witness.total_power!r} W and max delay {witness.max_delay!r} s meets it"
            )
        return SolveResult(
            status="infeasible",
            weights=weights,
            stats=stats,
            infeasible_reason="C4/C5/C7: no feasible routing to any sufficient serving set",
        )
    if not res.success:
        raise SolverStopped(f"HiGHS stopped without an optimum: status {res.status}: {res.message}")
    allocation = _decode(scenario, linkset, model, names, res.x)
    return replace(evaluate(scenario, linkset, tables, allocation, weights), stats=stats)


def _tree_allocation(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    serving: list[str],
    via: dict[str, Link],
    weights: ObjectiveWeights,
) -> Optional[SolveResult]:
    """The single demand served by `serving`, each node on its path of the
    shortest-path tree `via` (_floor_distances from the source), split by
    greedy_split and scored by evaluate at `weights`; None when the
    allocation breaks a shared budget."""
    (demand,) = scenario.demands
    routes = {}
    for n in serving:
        route: list[str] = []
        at = n
        while at != demand.source:
            route.append(via[at].id)
            at = via[at].tx_node
        routes[n] = tuple(reversed(route))
    allocation = Allocation(
        demands={
            demand.id: DemandAllocation(
                serving=tuple(sorted(serving)),
                fractions=greedy_split(serving, demand, scenario),
                routes=routes,
            )
        }
    )
    try:
        return evaluate(scenario, linkset, tables, allocation, weights)
    except AllocationError:
        return None


def _nearest_allocation(
    scenario: Scenario, linkset: LinkSet, tables: dict[str, DelayTable]
) -> Optional[SolveResult]:
    """A feasible allocation to cap the delay-only solve by, scored at
    weights (0, 1), or None.

    Serves the eligible nodes nearest the source by floor delay (ties by
    node id), as few as cover the load, each on its floor-shortest path over
    the links that carry the stream, split by greedy_split. None for
    several demands, when the reachable eligible nodes cannot cover the
    load, or when the allocation breaks a shared budget. Its callers run it
    only where all eligible nodes together cover the load.
    """
    if len(scenario.demands) != 1:
        return None
    (demand,) = scenario.demands
    pps = _pps(demand, scenario)
    links = [link for link in linkset.links if _carries(link, tables, pps)]
    weight = {link.id: _floor_delay(link, tables, pps) for link in links}
    dist, via = _floor_distances(links, weight, demand.source, into=False)
    serving: list[str] = []
    capacity = 0.0
    for n in sorted(eligible_processors(scenario), key=lambda n: (dist.get(n, np.inf), n)):
        if n not in dist:
            return None
        serving.append(n)
        capacity += scenario.node(n).processor.capacity
        if (demand.load or 0.0) <= capacity * (1.0 + CAPACITY_TOL):
            break
    return _tree_allocation(scenario, linkset, tables, serving, via, ObjectiveWeights(0.0, 1.0))


def _first_hop_floor(
    scenario: Scenario, linkset: LinkSet, tables: dict[str, DelayTable], t: float
) -> bool:
    """Whether no allocation of the single demand has a max delay below
    t * (1 - FLOOR_MARGIN), by a first-hop congestion bound.

    A route leaves the source once, on its first hop h, and never comes
    back. So the stream served at n over h is no faster than h's
    propagation, transmission and queue delay at the rate of all the
    streams that leave on h, plus the floor distance (_floor_delay) from
    h's far end into n: every later link carries at least the stream's own
    rate, and lookup does not decrease with the rate. The bound drops the
    C5 budgets and all sharing after the first hop.

    Only eligible nodes whose floor distance from the source is below the
    limit can serve. A depth-first search adds them, nearest first, each
    with one of its first hops, while the set does not cover the load, and
    prunes every hop that pushes a stream on it to the limit. Every serving
    set holds a minimal covering one, whose streams share no more, so a
    search that covers the load nowhere proves the claim. False for several
    demands, or when the search passes FLOOR_WORK_LIMIT steps.
    """
    if len(scenario.demands) != 1:
        return False
    (demand,) = scenario.demands
    limit = t * (1.0 - FLOOR_MARGIN)
    pps = _pps(demand, scenario)
    links = [
        link for link in linkset.links
        if link.rx_node != demand.source and _carries(link, tables, pps)
    ]
    weight = {link.id: _floor_delay(link, tables, pps) for link in links}
    dist, _via = _floor_distances(links, weight, demand.source, into=False)
    members = sorted(
        (n for n in eligible_processors(scenario) if dist.get(n, np.inf) < limit),
        key=lambda n: (dist[n], n),
    )
    # Each remote member's first hops, with the hop's delay but its queue
    # plus the floor distance on into the member.
    hops: dict[str, list[tuple[Link, float]]] = {}
    for n in members:
        if n == demand.source:
            continue
        into, _via = _floor_distances(links, weight, n, into=True)
        hops[n] = sorted(
            (
                (link, link.prop_delay + link.tx_delay_per_packet + into[link.rx_node])
                for link in links
                if link.tx_node == demand.source and link.rx_node in into
            ),
            key=lambda option: option[1],
        )
    t_bps = demand.traffic * 1000.0
    queues: dict[tuple[str, int], float] = {}

    def queue(link: Link, streams: int) -> float:
        """The link's queue delay under `streams` streams, at the rate that
        evaluate() sums; inf above rho_max * mu (C7)."""
        key = (link.id, streams)
        if key not in queues:
            traffic = 0.0
            for _ in range(streams):
                traffic += t_bps
            rate = delaymodel.packets_per_second(traffic, scenario.settings.packet_size)
            table = tables[link.id]
            queues[key] = (
                np.inf if rate > table.arrival_bounds[-1] * (1.0 + CAPACITY_TOL)
                else delaymodel.lookup(table, rate)
            )
        return queues[key]

    load = demand.load or 0.0
    capacity = [scenario.node(n).processor.capacity for n in members]
    work = 0

    def covered(total: float) -> bool:
        # Looser than greedy_split's test, so that float dust in the sum
        # loses no covering set.
        return load <= total * (1.0 + 2.0 * CAPACITY_TOL)

    def faster(start: int, total: float, shared: dict[str, tuple[int, float]]) -> bool:
        """Whether members[start:] extend the chosen ones, whose first hops
        carry `shared` (streams, the largest rest of a path), to a set that
        covers the load with every stream below the limit. True also past
        FLOOR_WORK_LIMIT steps: nothing is proven then."""
        nonlocal work
        work += 1
        if work > FLOOR_WORK_LIMIT or covered(total):
            return True
        if not covered(total + sum(capacity[start:])):
            return False
        for j in range(start, len(members)):
            n = members[j]
            if n == demand.source:
                if faster(j + 1, total + capacity[j], shared):
                    return True
                continue
            for link, rest in hops[n]:
                streams, longest = shared.get(link.id, (0, 0.0))
                if max(longest, rest) + queue(link, streams + 1) >= limit:
                    continue
                shared[link.id] = (streams + 1, max(longest, rest))
                found = faster(j + 1, total + capacity[j], shared)
                shared[link.id] = (streams, longest)
                if found:
                    return True
        return False

    return not faster(0, 0.0, {})


def _reference_allocation(
    scenario: Scenario, linkset: LinkSet, tables: dict[str, DelayTable]
) -> Optional[SolveResult]:
    """A feasible allocation to cap the power-only solve by, scored at
    POWER_WEIGHTS, or None.

    Weighs each link that carries the stream by its power floor
    (formulation._power_floors) and serves the covering set with the least
    processing power plus the members' least path floors from the source:
    over the count vectors of identical processors (_covering_sets), the
    nearest members of each group. Each member takes its floor-shortest
    path, and greedy_split splits the load. None for several demands, when
    no reachable set covers the load, or when the allocation breaks a
    shared budget.
    """
    if len(scenario.demands) != 1:
        return None
    (demand,) = scenario.demands
    pps = _pps(demand, scenario)
    links = [link for link in linkset.links if _carries(link, tables, pps)]
    weight = _power_floors(scenario, linkset, demand, links)
    dist, via = _floor_distances(links, weight, demand.source, into=False)
    groups, sets = _covering_sets(scenario, demand)
    nearest = [sorted((dist[n], n) for n in members if n in dist) for members in groups]
    best: Optional[tuple[float, tuple[int, ...]]] = None
    for counts, power in sets:
        if any(c > len(near) for c, near in zip(counts, nearest)):
            continue
        cost = power + sum(f for c, near in zip(counts, nearest) for f, _n in near[:c])
        if best is None or cost < best[0]:
            best = (cost, counts)
    if best is None:
        return None
    serving = [n for c, near in zip(best[1], nearest) for _f, n in near[:c]]
    return _tree_allocation(scenario, linkset, tables, serving, via, POWER_WEIGHTS)


def _power_floor(
    scenario: Scenario, linkset: LinkSet, tables: dict[str, DelayTable], p: float
) -> bool:
    """Whether no allocation of the single demand draws less than
    p * (1 - FLOOR_MARGIN), by a shared-idle power bound.

    An allocation's power is its processing power, plus each stream's
    _arc_power on every link of its path (additive per stream), plus the
    idle power of the union of the interface devices it activates. The
    bound is the least, over the count vectors of _covering_sets and over
    whether the source serves, of the set's processing power plus, per
    group, the sum of the c_g smallest f_k(m) of its remote members, k the
    number of remote members. f_k(m) is the least, over source-m paths, of
    the path's _arc_power, the full idle power of its last link's receiving
    device, and 1/k of the idle power of every other device that
    _power_floors charges along it. Devices that receive on some link and
    belong to an eligible node other than the source are left out there.
    Why it is a floor: the members' last receiving devices are distinct,
    and no member's is among the others, which are all in the union at
    least once. So the union's idle power is at least the last devices'
    plus the largest idle power that one path's other devices draw, and
    that largest one is at least the mean over the k paths. A member with
    no share of the load only adds power, so the set of those with one
    covers the load and bounds it. The bound drops the C5 and C7 budgets,
    and Dijkstra's least walk, where it is not a path, only lowers it.
    False for several demands.
    """
    if len(scenario.demands) != 1:
        return False
    (demand,) = scenario.demands
    source = demand.source
    limit = p * (1.0 - FLOOR_MARGIN)
    pps = _pps(demand, scenario)
    links = [link for link in linkset.links if _carries(link, tables, pps)]
    specs = powermodel.device_specs(scenario)
    core = scenario.settings.core_energy_per_bit
    t_bps = demand.traffic * 1000.0
    members = set(eligible_processors(scenario)) - {source}
    receivers = {link.rx_device for link in linkset.links}
    # The devices a member's last link may enter.
    own = {link.rx_device for link in linkset.links if link.rx_node in members}

    def idle(dev: str) -> float:
        return specs[dev].power_idle if dev in specs else 0.0

    # Per link, its arc power and the idle power it shares among the k
    # paths; per member, the links that enter it.
    arc, shared = {}, {}
    into: dict[str, list[Link]] = {}
    for link in links:
        arc[link.id] = _arc_power(link, t_bps, specs, core)
        shared[link.id] = sum(
            idle(dev) for dev in _idle_devices(link, source, receivers) if dev not in own
        )
        if link.rx_node in members:
            into.setdefault(link.rx_node, []).append(link)
    groups, sets = _covering_sets(scenario, demand)
    home = next((g for g, group in enumerate(groups) if source in group), None)
    nearest: dict[int, list[list[float]]] = {}

    def least(k: int) -> list[list[float]]:
        """Each group's f_k of its reachable remote members, ascending."""
        if k not in nearest:
            weight = {link.id: arc[link.id] + shared[link.id] / k for link in links}
            dist, _via = _floor_distances(links, weight, source, into=False)
            f = {
                m: min(
                    (
                        dist[link.tx_node] + weight[link.id] + idle(link.rx_device)
                        for link in entering
                        if link.tx_node in dist
                    ),
                    default=np.inf,
                )
                for m, entering in into.items()
            }
            nearest[k] = [
                sorted(f[m] for m in group if f.get(m, np.inf) < np.inf) for group in groups
            ]
        return nearest[k]

    for counts, power in sets:
        for local in (False, True):
            if local and (home is None or counts[home] == 0):
                continue
            remote = [c - (local and g == home) for g, c in enumerate(counts)]
            k = sum(remote)
            cost = power
            if k:
                per_group = least(k)
                if any(c > len(f) for c, f in zip(remote, per_group)):
                    continue
                cost += sum(sum(f[:c]) for c, f in zip(remote, per_group))
            if cost < limit:
                return False
    return True


def power_bounds(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    weights: ObjectiveWeights,
) -> Bounds:
    """The bounds solve() takes when it is given none: when the objective is
    power-only (w_delay = 0 < w_power), a power cap at the total power of
    _reference_allocation, its witness, and a power floor at the same power
    when _power_floor proves that no allocation draws less (solve() then
    certifies the witness without HiGHS); else, as when there is no
    reference allocation, no bounds."""
    if weights.w_delay != 0.0 or weights.w_power <= 0.0:
        return Bounds()
    reference = _reference_allocation(scenario, linkset, tables)
    if reference is None:
        return Bounds()
    power = reference.total_power
    proven = _power_floor(scenario, linkset, tables, power)
    return Bounds(power_cap=power, power_floor=power if proven else None, witness=reference)


def joint_weights(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    power: SolveResult,
    limits: Limits = Limits(),
) -> tuple[Optional[ObjectiveWeights], Optional[Bounds]]:
    """JOINT_EQUAL weights for an instance whose power-only result is
    `power`, and the Bounds to solve them under: a cap and a floor on the
    joint optimum's max delay.

    Normalizes by P* = power.total_power and by T* from a delay-only solve,
    which runs under the smaller of two feasible allocations' delays, so T*
    is no worse: T_p of the power-only allocation and T_h of
    _nearest_allocation. That allocation is the pre-solve's witness, and
    its delay is also the pre-solve's floor when _first_hop_floor proves
    that no allocation beats it: solve() then certifies it without HiGHS.
    The joint optimum o scores no worse than either reference allocation r,
    w_power P_o + w_delay T_o <= w_power P_r + w_delay T_r, and P_o >= P*, so
    T_o <= T_r + w_power (P_r - P*) / w_delay: T_p for the power-only
    allocation, T* + w_power (P_d - P*) / w_delay for the delay-only one of
    power P_d. Both caps carry a relative CAP_MARGIN, and each solve's
    witness is the allocation its cap was taken from.
    The floors are T* and P* themselves, with no margin: no allocation's
    max delay or power is below them. The delay floor never exceeds the
    cap, as T_p >= T* and P_d >= P*. Where the witness has P* and T*, as
    where the power-only optimum is also the fastest, solve() certifies it
    without HiGHS.

    When T* is zero (local processing) the joint objective degenerates to
    power-only: POWER_WEIGHTS with no bounds, and the joint result is then
    `power` itself. T_p = 0 gives T* = 0 without the delay-only solve.
    (None, None) when `power` is not optimal: the instance is then
    infeasible under any weights.
    """
    if power.status != "optimal":
        return None, None
    if power.max_delay == 0.0:
        return POWER_WEIGHTS, None
    witness = power
    nearest = _nearest_allocation(scenario, linkset, tables)
    if nearest is not None and nearest.max_delay < power.max_delay:
        witness = nearest
    t_witness = witness.max_delay
    proven = _first_hop_floor(scenario, linkset, tables, t_witness)
    delay = solve(
        scenario, linkset, tables, ObjectiveWeights(0.0, 1.0), limits,
        bounds=Bounds(
            delay_cap=t_witness * (1.0 + CAP_MARGIN),
            delay_floor=t_witness if proven else None,
            witness=witness,
        ),
    )
    t_star = delay.max_delay
    if t_star == 0.0:
        return POWER_WEIGHTS, None
    # Each objective weighs 0.5 at its own optimum (P* > 0: every device draws idle power).
    weights = ObjectiveWeights(0.5 / power.total_power, 0.5 / t_star)
    via_delay = t_star + weights.w_power * (delay.total_power - power.total_power) / weights.w_delay
    witness = power if power.max_delay <= via_delay else delay
    cap = min(power.max_delay, via_delay) * (1.0 + CAP_MARGIN)
    return weights, Bounds(
        delay_cap=cap, delay_floor=t_star, power_floor=power.total_power, witness=witness
    )


def solve_joint(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    power: SolveResult,
    limits: Limits = Limits(),
) -> SolveResult:
    """JOINT_EQUAL result for an instance whose power-only result is `power`.

    `power` itself when it is not optimal (the instance is infeasible under
    any weights) or when T* = 0 (the joint objective is then power-only),
    otherwise the joint solve under the bounds joint_weights() gives.
    """
    weights, bounds = joint_weights(scenario, linkset, tables, power, limits)
    if weights is None or weights.w_delay == 0.0:
        return power
    return solve(scenario, linkset, tables, weights, limits, bounds=bounds)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _all_simple_paths(linkset: LinkSet, source: str, target: str) -> list[tuple[str, ...]]:
    paths: list[tuple[str, ...]] = []

    def walk(vertex: str, visited: frozenset, path: tuple[str, ...]):
        if vertex == target:
            paths.append(path)
            return
        for link in sorted(linkset.out_links(vertex), key=lambda l: l.id):
            if link.rx_node in visited:
                continue
            walk(link.rx_node, visited | {link.rx_node}, path + (link.id,))

    walk(source, frozenset({source}), ())
    return paths


@dataclass(frozen=True)
class OracleCandidates:
    """Every feasible allocation of one instance that brute_force compares,
    in enumeration order, with its total power P and max delay T.

    Neither a candidate's feasibility nor its P and T depend on the weights,
    so one enumeration serves every weight: best() picks for one weight.
    """

    scenario: Scenario
    linkset: LinkSet
    tables: dict[str, DelayTable]
    candidates: tuple[tuple[Allocation, float, float], ...]
    nodes_explored: int  # route products tried
    capacity_ok: bool  # some serving set covers the load
    wall_time: float  # of the enumeration

    def best(self, weights: ObjectiveWeights) -> SolveResult:
        """The least w_power P + w_delay T, ties within 1e-9 of the best so
        far broken by Allocation.sort_key, scanned in enumeration order (the
        tolerance is not transitive, so the order matters); the winner is
        scored by evaluate at `weights`."""
        start = time.perf_counter()
        winner: Optional[Allocation] = None
        winner_obj = 0.0
        for alloc, power, delay in self.candidates:
            # evaluate()'s objective, term for term.
            obj = weights.w_power * power + weights.w_delay * delay
            if winner is None:
                winner, winner_obj = alloc, obj
                continue
            tol = 1e-9 * max(1.0, abs(winner_obj))
            if obj < winner_obj - tol or (
                abs(obj - winner_obj) <= tol and alloc.sort_key() < winner.sort_key()
            ):
                winner, winner_obj = alloc, obj
        if winner is None:
            result = SolveResult(
                status="infeasible",
                weights=weights,
                infeasible_reason=(
                    "C4/C5: no feasible routing to any sufficient serving set"
                    if self.capacity_ok
                    else "C3: demand load exceeds eligible processing capacity"
                ),
            )
        else:
            result = evaluate(self.scenario, self.linkset, self.tables, winner, weights)
        wall = self.wall_time + time.perf_counter() - start
        return replace(
            result, stats=SolverStats(nodes_explored=self.nodes_explored, wall_time=wall)
        )


def oracle_candidates(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
) -> OracleCandidates:
    """Exhaustive enumeration: every serving set, every route product.

    Single demand, at most BRUTE_FORCE_MAX_NODES nodes. No pruning beyond
    hard feasibility; each candidate is checked and scored by evaluate once.
    """
    start = time.perf_counter()
    if len(scenario.nodes) > BRUTE_FORCE_MAX_NODES:
        raise InstanceTooLarge(f"brute_force limited to {BRUTE_FORCE_MAX_NODES} nodes")
    if len(scenario.demands) != 1:
        raise SolverError("brute_force handles a single demand")
    demand = scenario.demands[0]
    eligible = sorted(eligible_processors(scenario))

    path_cache = {
        n: _all_simple_paths(linkset, demand.source, n) for n in eligible if n != demand.source
    }

    candidates = []
    explored = 0
    capacity_ok = False
    for k in range(1, len(eligible) + 1):
        for serving in itertools.combinations(eligible, k):
            cap = sum(scenario.node(n).processor.capacity for n in serving)
            if cap < (demand.load or 0.0) * (1.0 - CAPACITY_TOL):
                continue
            capacity_ok = True
            remote = [n for n in serving if n != demand.source]
            if any(not path_cache[n] for n in remote):
                continue
            fractions = greedy_split(list(serving), demand, scenario)
            if any(f == 0.0 for f in fractions.values()):
                # Weakly dominated: dropping a zero-fraction node removes its
                # stream without raising any power or delay term, and the
                # smaller serving set is enumerated on its own.
                continue
            for route_combo in itertools.product(*(path_cache[n] for n in remote)):
                explored += 1
                alloc = Allocation(
                    demands={
                        demand.id: DemandAllocation(
                            serving=serving,
                            fractions=dict(fractions),
                            routes={
                                **{n: r for n, r in zip(remote, route_combo)},
                                **({demand.source: ()} if demand.source in serving else {}),
                            },
                        )
                    }
                )
                try:
                    # The checks do not depend on the weights.
                    result = evaluate(scenario, linkset, tables, alloc, POWER_WEIGHTS)
                except AllocationError:
                    continue
                candidates.append((alloc, result.total_power, result.max_delay))

    return OracleCandidates(
        scenario, linkset, tables, tuple(candidates), explored, capacity_ok,
        time.perf_counter() - start,
    )


def brute_force(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    weights: ObjectiveWeights,
) -> SolveResult:
    """Exhaustive reference search: oracle_candidates(...).best(weights).

    Deterministic lexicographic tie-breaking.
    """
    return oracle_candidates(scenario, linkset, tables).best(weights)
