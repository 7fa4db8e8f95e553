"""Mixed-integer linear model of the allocation problem, plus an
independent allocation evaluator.

Decision structure: processing splits fractionally across serving nodes
(x, y) while the data stream is replicated whole to every serving node over
one simple path each (binary r). Queueing delay enters linearly through
each link's integer lookup-table bin index (n), the secants of the table's
convex delays (Q), and a per-(demand, target, route link) gated copy (q)
feeding the max-delay variable T.

The evaluator recomputes constraints, power and delay from first principles
and shares no bookkeeping with the solver. It is the one place that checks
an allocation's constraints; powermodel only prices what passed them.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Optional

from . import delaymodel, powermodel
from .delaymodel import DelayTable
from .linkmodel import Link, LinkSet, Medium
from .scenario import (
    DemandSpec,
    ObjectiveWeights,
    Scenario,
    eligible_processors,
)

__all__ = [
    "Variable",
    "Constraint",
    "MilpModel",
    "DemandAllocation",
    "Allocation",
    "SolveResult",
    "SolverStats",
    "Bounds",
    "AllocationError",
    "FormulationError",
    "formulate",
    "route_links",
    "stream_links",
    "evaluate",
    "model_census",
]

FRACTION_TOL = 1e-9
# The model's delay variables (Q, q, T) count microseconds: path delays of
# 1e-4..1e-2 s would sit near HiGHS's feasibility tolerances (1e-7..1e-6).
DELAY_UNIT = 1e-6


class FormulationError(ValueError):
    pass


class AllocationError(ValueError):
    """Constraint violation report: family, offending entity, slack."""

    def __init__(self, family: str, entity: str, slack: float, detail: str = ""):
        self.family = family
        self.entity = entity
        self.slack = slack
        msg = f"{family}, {entity}, deficit {slack:g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


# ---------------------------------------------------------------------------
# Allocation / result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemandAllocation:
    serving: tuple[str, ...]  # node ids with y = 1, sorted
    fractions: dict[str, float]  # node id -> x in [0, 1]
    routes: dict[str, tuple[str, ...]]  # node id -> link ids (empty for the source)


@dataclass(frozen=True)
class Allocation:
    demands: dict[str, DemandAllocation]

    def link_traffic(self, scenario: Scenario) -> dict[str, float]:
        """bit/s carried per link; replicated streams add up per target."""
        traffic: dict[str, float] = {}
        for d in scenario.demands:
            da = self.demands.get(d.id)
            if da is None:
                continue
            t_bps = d.traffic * 1000.0
            for route in da.routes.values():
                for link_id in route:
                    traffic[link_id] = traffic.get(link_id, 0.0) + t_bps
        return traffic

    def processing_mips(self, scenario: Scenario) -> dict[str, float]:
        mips: dict[str, float] = {}
        for d in scenario.demands:
            da = self.demands.get(d.id)
            if da is None:
                continue
            for node_id, x in da.fractions.items():
                if x > 0.0:
                    mips[node_id] = mips.get(node_id, 0.0) + x * (d.load or 0.0)
        return mips

    def sort_key(self) -> tuple:
        """Deterministic comparison key for tie-breaking between optima."""
        key = []
        for d_id in sorted(self.demands):
            da = self.demands[d_id]
            key.append((d_id, da.serving, tuple(da.routes[n] for n in da.serving)))
        return tuple(key)


@dataclass(frozen=True)
class SolverStats:
    nodes_explored: int = 0
    wall_time: float = 0.0
    # HiGHS's relative gap and dual bound (in the weights' units) at its
    # exit; None where HiGHS gave none (proved infeasible, or not run).
    mip_gap: Optional[float] = None
    mip_dual_bound: Optional[float] = None


@dataclass(frozen=True)
class SolveResult:
    status: str  # "optimal" | "infeasible"
    weights: ObjectiveWeights
    allocation: Optional[Allocation] = None
    total_power: float = 0.0
    max_delay: float = 0.0
    objective_value: float = 0.0
    per_device_power: dict[str, float] = field(default_factory=dict)
    per_target_delay: dict[str, dict[str, float]] = field(default_factory=dict)
    stats: SolverStats = field(default_factory=SolverStats)
    infeasible_reason: str = ""


@dataclass(frozen=True)
class Bounds:
    """What is known of an instance's optimum before its model is built.

    `delay_cap` (seconds) and `power_cap` (watts) are upper bounds on the
    optimum's max delay and total power, `delay_floor` (seconds) a max
    delay that no allocation beats; None where nothing is known.
    `witness` is an evaluated allocation that meets the caps, the proof
    that the model built under them is feasible (see solver.solve).
    """

    delay_cap: Optional[float] = None
    delay_floor: Optional[float] = None
    power_cap: Optional[float] = None
    witness: Optional[SolveResult] = field(default=None, repr=False)

    def __post_init__(self):
        if None not in (self.delay_floor, self.delay_cap) and self.delay_floor > self.delay_cap:
            raise FormulationError(
                f"delay floor {self.delay_floor!r} s above the delay cap {self.delay_cap!r} s"
            )


# ---------------------------------------------------------------------------
# MILP model container
# ---------------------------------------------------------------------------

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # BINARY | INTEGER | CONTINUOUS
    lower: float = 0.0
    upper: Optional[float] = None  # None = +inf


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict[str, float]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class MilpModel:
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]
    objective: dict[str, float]  # minimized
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        declared = {v.name for v in self.variables}
        for c in self.constraints:
            undeclared = set(c.coeffs) - declared
            if undeclared:
                raise FormulationError(f"constraint {c.name} references undeclared {undeclared}")
        if set(self.objective) - declared:
            raise FormulationError("objective references undeclared variables")


_NAME_RE = re.compile(r"[^A-Za-z0-9]")


def _nm(raw: str) -> str:
    return _NAME_RE.sub("_", raw)


def route_links(linkset: LinkSet, source: str, target: str) -> list[Link]:
    """Links a stream replicated from `source` to `target` may use, in link
    set order.

    A simple source-target path never enters the source or leaves the
    target, and flow conservation keeps it out of every dead end (a node
    without outgoing links, such as the cloud) other than the target.
    """
    return [
        link
        for link in linkset.links
        if link.rx_node != source
        and link.tx_node != target
        and (link.rx_node == target or linkset.out_links(link.rx_node))
    ]


def _pps(demand: DemandSpec, scenario: Scenario) -> float:
    """Packet arrival rate of one stream of `demand`."""
    return delaymodel.packets_per_second(demand.traffic * 1000.0, scenario.settings.packet_size)


def _carries(link: Link, tables: dict[str, DelayTable], pps: float) -> bool:
    """Whether a stream of `pps` packets/s fits under the link's rho_max * mu."""
    # The margin keeps a rate on the cap, up to float dust, in.
    return pps <= tables[link.id].arrival_bounds[-1] * (1.0 + 1e-9)


def _floor_delay(link: Link, tables: dict[str, DelayTable], pps: float) -> float:
    """Least delay the link adds to a path of a stream of `pps` packets/s:
    propagation plus transmission plus the queue delay at the stream's own
    rate (a link that carries it has at least that rate)."""
    return link.prop_delay + link.tx_delay_per_packet + delaymodel.lookup(tables[link.id], pps)


def _floor_distances(
    links: list[Link], weight: dict[str, float], start: str, into: bool
) -> tuple[dict[str, float], dict[str, Link]]:
    """Dijkstra over `links`: the least total weight from `start` to every
    node it reaches, or, with `into`, from every node that reaches `start`;
    and each reached node's last link on such a path (the link it leaves
    by, with `into`)."""
    adjacent: dict[str, list[tuple[str, Link]]] = {}
    for link in links:
        u, v = (link.rx_node, link.tx_node) if into else (link.tx_node, link.rx_node)
        adjacent.setdefault(u, []).append((v, link))
    dist = {start: 0.0}
    via: dict[str, Link] = {}
    heap = [(0.0, start)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, link in adjacent.get(u, ()):
            dv = du + weight[link.id]
            if dv < dist.get(v, math.inf):
                dist[v] = dv
                via[v] = link
                heapq.heappush(heap, (dv, v))
    return dist, via


def _arc_power(link: Link, t_bps: float, specs: dict, core_energy_per_bit: float) -> float:
    """Power a stream of `t_bps` bit/s adds by crossing `link`, the power
    coefficient of its r: both endpoint devices' load-proportional power,
    the transmitter's share of the link's radiated power and, on fiber, the
    core per-bit energy."""
    power = 0.0
    for dev in (link.tx_device, link.rx_device):
        spec = specs.get(dev)
        if spec is not None:
            power += (spec.power_max - spec.power_idle) * t_bps / spec.capacity
    tx_spec = specs.get(link.tx_device)
    if tx_spec is not None:
        power += link.radiated_power * t_bps / tx_spec.capacity
    if link.medium == Medium.FIBER:
        power += core_energy_per_bit * t_bps
    return power


def _power_floors(
    scenario: Scenario, linkset: LinkSet, demand: DemandSpec, links: list[Link]
) -> dict[str, float]:
    """Least power each of `links` adds to a simple path of a stream of
    `demand` (w_l): the link's _arc_power, the idle power of its receiving
    device, and that of its transmitting device when the link leaves the
    source or the device receives on no link (an AP's `.onu`). A simple
    path enters every node but the source once and leaves every node once,
    so along it these idle powers belong to distinct devices."""
    specs = powermodel.device_specs(scenario)
    core = scenario.settings.core_energy_per_bit
    t_bps = demand.traffic * 1000.0
    receivers = {link.rx_device for link in linkset.links}
    floors = {}
    for link in links:
        idle = [link.rx_device]
        if link.tx_node == demand.source or link.tx_device not in receivers:
            idle.append(link.tx_device)
        floors[link.id] = _arc_power(link, t_bps, specs, core) + sum(
            specs[dev].power_idle for dev in idle if dev in specs
        )
    return floors


def _covering_sets(
    scenario: Scenario, demand: DemandSpec
) -> tuple[list[list[str]], list[tuple[tuple[int, ...], float]]]:
    """Serving sets that cover `demand`'s load, up to identical processors.

    Returns the groups of eligible nodes with identical processors (node ids
    sorted, groups in ascending marginal cost per MIPS), and every count
    vector over the groups whose capacity covers the load, with the least
    processing power of such a set: each member's idle power plus the fill
    of ascending marginal cost (greedy_split's split, which is optimal for
    a fixed set).
    """
    groups: dict[tuple[float, float, float], list[str]] = {}
    for n in sorted(eligible_processors(scenario)):
        p = scenario.node(n).processor
        groups.setdefault((p.capacity, p.power_idle, p.power_max), []).append(n)
    kinds = sorted(groups, key=lambda k: ((k[2] - k[1]) / k[0], k))
    load = demand.load or 0.0
    sets = []
    for counts in itertools.product(*(range(len(groups[k]) + 1) for k in kinds)):
        capacity = sum(c * k[0] for c, k in zip(counts, kinds))
        # greedy_split's margin.
        if not any(counts) or load > capacity * (1.0 + FRACTION_TOL):
            continue
        power, remaining = 0.0, load
        for c, (cap, idle, peak) in zip(counts, kinds):
            take = min(remaining, c * cap)
            power += c * idle + (peak - idle) * take / cap
            remaining -= take
        sets.append((counts, power))
    return [groups[k] for k in kinds], sets


def _under_cap(
    links: list[Link], weight: dict[str, float], source: str, target: str, cap: float,
    base: float = 0.0,
) -> list[Link]:
    """The links l for which base + fwd(l.tx) + w_l + bwd(l.rx) is at most
    the cap (up to float dust): fwd and bwd are the least total weights from
    the source and into the target over `links`, so every simple
    source-target path through a dropped link weighs more than the cap."""
    fwd, _ = _floor_distances(links, weight, source, into=False)
    bwd, _ = _floor_distances(links, weight, target, into=True)
    limit = cap * (1.0 + 1e-9)
    return [
        link
        for link in links
        if base + fwd.get(link.tx_node, math.inf) + weight[link.id]
        + bwd.get(link.rx_node, math.inf)
        <= limit
    ]


def stream_links(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    delay_cap: Optional[float] = None,
    power_cap: Optional[float] = None,
) -> dict[tuple[DemandSpec, str], list[Link]]:
    """Links each (demand, remote target) stream may use, in link set order.

    Starts from the stream's route_links and drops every link whose
    rho_max * mu is below the stream's own packet rate (C7_load forbids it).

    Under a `delay_cap` (seconds) it also drops every link l for which
    fwd(l.tx) + w_l + bwd(l.rx) exceeds the cap: w_l is the link's
    _floor_delay at the stream's rate, and fwd/bwd are the least floor
    delays from the source and into the target.
    No path through such a link fits under the cap, and C9 holds every
    served path's delay under T, which the cap bounds.

    Under a `power_cap` (watts) it also drops every link l for which
    base(n) + fwd(l.tx) + w_l + bwd(l.rx) exceeds the cap: w_l is the
    link's _power_floors, fwd/bwd the least sums of them from the source
    and into the target n, and base(n) the least processing power of a
    serving set that covers the load and holds n (_covering_sets). Every
    cycle-free allocation that routes the stream through l draws at least
    that much, whatever the C5 and C7 budgets. So the cap drops no optimum
    when the objective is power-only (w_delay = 0 < w_power, where every r
    costs power and no optimum has a cycle) and some allocation draws at
    most the cap.
    """
    eligible = sorted(eligible_processors(scenario))
    streams: dict[tuple[DemandSpec, str], list[Link]] = {}
    for d in scenario.demands:
        pps = _pps(d, scenario)
        if power_cap is not None:
            carried = [link for link in linkset.links if _carries(link, tables, pps)]
            power = _power_floors(scenario, linkset, d, carried)
            groups, sets = _covering_sets(scenario, d)
            base = {
                n: min((p for counts, p in sets if counts[g]), default=math.inf)
                for g, members in enumerate(groups)
                for n in members
            }
        for n in eligible:
            if n == d.source:
                continue
            links = [
                link for link in route_links(linkset, d.source, n) if _carries(link, tables, pps)
            ]
            if delay_cap is not None:
                weight = {link.id: _floor_delay(link, tables, pps) for link in links}
                links = _under_cap(links, weight, d.source, n, delay_cap)
            if power_cap is not None:
                links = _under_cap(links, power, d.source, n, power_cap, base[n])
            streams[d, n] = links
    return streams


def formulate(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    weights: ObjectiveWeights,
    bounds: Bounds = Bounds(),
) -> MilpModel:
    """Assemble variables, constraints and the weighted objective.

    Constraint families (names carry the family prefix):
      C1 demand completion, C2 linking, C3 processing capacity,
      C4 per-target unsplittable routing (flow conservation + simple path),
      C5c per-interface aggregate budget (an AP's `.wifi` row is also its
      cell's C5b budget), C6 traffic-driven activation (one C6_act row per
      stream, side and device: the stream's route links out of, or into,
      the device sum to at most its activation; one C6_exit row per demand:
      the source serves it alone or some device receiving from the source
      is active), C7 queue stability and queue delay (one
      C7_load row and one C7_queue secant row per step between kept bins),
      C8 queue-on-path gating, C9 max-delay epigraph.

    Each (demand, remote target) stream gets routing variables only on its
    stream_links, and nothing else exists unless some stream can use it:
    a link gets n, Q, C7_load and C7_queue only if some stream's arc set
    holds it; a demand's targets, the only nodes with x, y, C2, C4_flow and
    C9 (and terms in C1 and C3), are its source if eligible and the nodes
    whose stream has an arc; a device gets its activation a only if a row
    touches it (the cpu of a target, an endpoint of a held link).
    C7_load caps every held link's arrival rate at rho_max * mu, which
    keeps its traffic under the link capacity (rho_max < 1), so the
    per-link capacity C5a needs no row of its own.

    Delay variables are in DELAY_UNIT (microseconds); the objective term is
    w_delay * DELAY_UNIT * T, so the objective value stays in the weights'
    units.

    With a delay weight each link's queue delay is exact through one
    integer bin index n in [1, K], K the link's kept bins (reachable_bins):
    C7_load covers the link's arrival rate by n equal bins, and Q lies on or
    above each secant of consecutive kept bins' delays. Those delays are
    convex in the bin, so at an integer n the secants' upper envelope is bin
    n's table delay.

    At zero delay weight the queue-bin machinery (n, Q, q, T; C7_queue, C8,
    C9) is left out and C7_load is the plain stability cap: the delay
    variables would be unconstrained by the objective there and only
    inflate the search space.

    `bounds.delay_cap`, with a delay weight, bounds T and drops every
    stream's links that no path under it can use (stream_links). Through
    the arc sets it may remove links, targets and devices, and lower the
    kept bins. `bounds.delay_floor`, with a delay weight, is T's lower
    bound.

    `bounds.power_cap` drops every stream's links that no allocation under
    it can use (stream_links), which is exact at w_delay = 0 < w_power;
    solver.power_bounds gives one for single-demand power-only models. Like
    a delay cap it may remove links, targets and devices; it bounds no
    variable.
    """
    with_delay = weights.w_delay != 0.0
    eligible = sorted(eligible_processors(scenario))
    if not eligible:
        raise FormulationError("no eligible processors")

    specs = powermodel.device_specs(scenario)
    packet = scenario.settings.packet_size
    node_ids = [n.id for n in scenario.nodes]

    variables: list[Variable] = []
    constraints: list[Constraint] = []
    objective: dict[str, float] = {}

    def var(name: str, kind: str, lower: float = 0.0, upper: Optional[float] = None) -> str:
        if kind == BINARY:
            lower, upper = 0.0, 1.0
        variables.append(Variable(name, kind, lower, upper))
        return name

    def con(name: str, coeffs: dict[str, float], sense: str, rhs: float) -> None:
        constraints.append(Constraint(name, dict(coeffs), sense, rhs))

    def obj_add(name: str, coef: float) -> None:
        if coef != 0.0:
            objective[name] = objective.get(name, 0.0) + coef

    # Arc set of every (demand, remote target) stream; a delay cap binds
    # only a model that has T. Only the links some stream holds, the targets
    # a stream reaches and the devices their rows touch enter the model.
    cap = bounds.delay_cap if with_delay else None
    routes = {
        stream: links
        for stream, links in stream_links(scenario, linkset, tables, cap, bounds.power_cap).items()
        if links
    }
    held = {link.id for links in routes.values() for link in links}
    used = [link for link in linkset.links if link.id in held]
    targets = {
        d.id: [n for n in eligible if n == d.source or (d, n) in routes] for d in scenario.demands
    }
    touched = {f"{n}.cpu" for ns in targets.values() for n in ns}
    touched |= {dev for link in used for dev in (link.tx_device, link.rx_device)}

    # Activation variables, one per modeled device that a row touches.
    a = {dev: var(f"a_{_nm(dev)}", BINARY) for dev in sorted(specs) if dev in touched}

    # Queue bin index per used link, up to the bin of its largest reachable
    # arrival rate, and the bin's delay.
    n_bin: dict[str, str] = {}
    q_link: dict[str, str] = {}
    top = reachable_bins(scenario, linkset, tables, routes) if with_delay else {}
    if with_delay:
        for link in used:
            table, k_top = tables[link.id], top[link.id]
            n_bin[link.id] = var(f"n_{link.id}", INTEGER, 1.0, k_top + 1.0)
            q_link[link.id] = var(
                f"Q_{link.id}", CONTINUOUS,
                table.delays[0] / DELAY_UNIT, table.delays[k_top] / DELAY_UNIT,
            )
        t_var = var(
            "T", CONTINUOUS,
            0.0 if bounds.delay_floor is None else bounds.delay_floor / DELAY_UNIT,
            None if bounds.delay_cap is None else bounds.delay_cap / DELAY_UNIT,
        )

    x: dict[tuple[str, str], str] = {}
    y: dict[tuple[str, str], str] = {}
    r: dict[tuple[str, str, str], str] = {}
    q: dict[tuple[str, str, str], str] = {}

    for d in scenario.demands:
        for n in targets[d.id]:
            x[d.id, n] = var(f"x_{_nm(d.id)}_{_nm(n)}", CONTINUOUS, 0.0, 1.0)
            y[d.id, n] = var(f"y_{_nm(d.id)}_{_nm(n)}", BINARY)
            if n != d.source:
                for link in routes[d, n]:
                    r[d.id, n, link.id] = var(f"r_{_nm(d.id)}_{_nm(n)}_{link.id}", BINARY)
                    if with_delay:
                        q[d.id, n, link.id] = var(
                            f"q_{_nm(d.id)}_{_nm(n)}_{link.id}", CONTINUOUS, 0.0, None
                        )

    # bit/s carried per link as a linear form in the r variables.
    traffic = {d.id: d.traffic * 1000.0 for d in scenario.demands}
    carried: dict[str, dict[str, float]] = {link.id: {} for link in linkset.links}
    for (d_id, _n, l_id), rv in r.items():
        carried[l_id][rv] = traffic[d_id]

    # C1 / C2 / C3.
    for d in scenario.demands:
        con(f"C1_complete_{_nm(d.id)}", {x[d.id, n]: 1.0 for n in targets[d.id]}, "=", 1.0)
        for n in targets[d.id]:
            con(f"C2_xy_{_nm(d.id)}_{_nm(n)}", {x[d.id, n]: 1.0, y[d.id, n]: -1.0}, "<=", 0.0)
            con(
                f"C2_ya_{_nm(d.id)}_{_nm(n)}",
                {y[d.id, n]: 1.0, a[f"{n}.cpu"]: -1.0},
                "<=",
                0.0,
            )
    for n in eligible:
        coeffs = {x[d.id, n]: (d.load or 0.0) for d in scenario.demands if (d.id, n) in x}
        if coeffs:
            con(f"C3_cap_{_nm(n)}", coeffs, "<=", scenario.node(n).processor.capacity)

    # C4: binary per-target flow conservation plus simple-path degree caps.
    for (d, n), links in routes.items():
        flow: dict[str, dict[str, float]] = {v: {} for v in node_ids}
        out: dict[str, dict[str, float]] = {v: {} for v in node_ids}
        for link in links:
            rv = r[d.id, n, link.id]
            flow[link.tx_node][rv] = 1.0
            flow[link.rx_node][rv] = -1.0
            out[link.tx_node][rv] = 1.0
        flow[d.source][y[d.id, n]] = -1.0
        flow[n][y[d.id, n]] = 1.0
        for v in node_ids:
            if flow[v]:
                con(f"C4_flow_{_nm(d.id)}_{_nm(n)}_{_nm(v)}", flow[v], "=", 0.0)
            if out[v]:
                con(f"C4_deg_{_nm(d.id)}_{_nm(n)}_{_nm(v)}", out[v], "<=", 1.0)

    # C5c per-interface budgets. An AP cell's links are exactly those its
    # `.wifi` interface terminates, within the AP bandwidth, so that
    # interface's row is also the C5b cell budget.
    touching: dict[str, list[Link]] = {}
    for link in linkset.links:
        touching.setdefault(link.tx_device, []).append(link)
        touching.setdefault(link.rx_device, []).append(link)
    for dev in sorted(touching):
        if dev in specs:
            coeffs = {rv: t for link in touching[dev] for rv, t in carried[link.id].items()}
            if coeffs:
                con(f"C5c_iface_{_nm(dev)}", coeffs, "<=", specs[dev].capacity)

    # C6: carrying traffic activates both endpoint devices. A device sits on
    # one node, which C4 lets a stream leave and enter at most once, so one
    # row per (stream, side, device) sums the stream's links through it.
    for (d, n), links in routes.items():
        for side in ("tx", "rx"):
            act: dict[str, dict[str, float]] = {}
            for link in links:
                dev = link.tx_device if side == "tx" else link.rx_device
                if dev in a:
                    act.setdefault(dev, {})[r[d.id, n, link.id]] = 1.0
            for dev, coeffs in act.items():
                coeffs[a[dev]] = -1.0
                con(f"C6_act_{_nm(d.id)}_{_nm(n)}_{side}_{_nm(dev)}", coeffs, "<=", 0.0)

    # C6 source exit (a cut around the source): unless the source serves the
    # demand alone, some remote target is served, and its path leaves the
    # source on a held link, whose C6_act rx row activates the receiving
    # device. Without it the LP pays a fraction of each receiver's idle power.
    for d in scenario.demands:
        exits = {
            link.rx_device
            for (dd, _n), links in routes.items() if dd.id == d.id
            for link in links if link.tx_node == d.source
        }
        if not exits or not exits <= a.keys():
            continue
        coeffs = {a[dev]: 1.0 for dev in sorted(exits)}
        s_key = (d.id, d.source)
        if s_key in y and scenario.node(d.source).processor.capacity >= (d.load or 0.0):
            coeffs[y[s_key]] = 1.0
        con(f"C6_exit_{_nm(d.id)}", coeffs, ">=", 1.0)

    # C7: the arrival rate stays under rho_max * mu, and with delay it is
    # covered by n bins of the first bin's width. Q lies on or above every
    # secant of consecutive kept bins' delays, at an integer n bin n's delay.
    for link in used:
        table = tables[link.id]
        load = {
            rv: delaymodel.packets_per_second(t, packet) for rv, t in carried[link.id].items()
        }
        if not with_delay:
            con(f"C7_load_{link.id}", load, "<=", table.arrival_bounds[-1])
            continue
        load[n_bin[link.id]] = -table.arrival_bounds[0]
        con(f"C7_load_{link.id}", load, "<=", 0.0)
        for k in range(1, top[link.id] + 1):
            low, high = table.delays[k - 1] / DELAY_UNIT, table.delays[k] / DELAY_UNIT
            con(
                f"C7_queue_{link.id}_k{k}",
                {q_link[link.id]: 1.0, n_bin[link.id]: low - high},
                ">=",
                low - (high - low) * k,
            )

    if with_delay:
        # C8: q_{d,n,l} >= Q_l - M_l (1 - r); M_l is the link's largest
        # reachable bin delay.
        for (d_id, n, l_id), qv in q.items():
            big_m = tables[l_id].delays[top[l_id]] / DELAY_UNIT
            con(
                f"C8_gate_{qv}",
                {q_link[l_id]: 1.0, qv: -1.0, r[d_id, n, l_id]: big_m},
                "<=",
                big_m,
            )

        # C9: per-(demand, target) max-delay epigraph.
        for (d, n), links in routes.items():
            coeffs = {t_var: -1.0}
            for link in links:
                rv = r[d.id, n, link.id]
                coeffs[rv] = (link.prop_delay + link.tx_delay_per_packet) / DELAY_UNIT
                coeffs[q[d.id, n, link.id]] = 1.0
            con(f"C9_delay_{_nm(d.id)}_{_nm(n)}", coeffs, "<=", 0.0)

    # Objective: w_power * P_total(a, x, r) + w_delay * T.
    wp, wd = weights.w_power, weights.w_delay
    for dev, av in a.items():
        obj_add(av, wp * specs[dev].power_idle)
    for d in scenario.demands:
        for n in targets[d.id]:
            spec = specs[f"{n}.cpu"]
            span = spec.power_max - spec.power_idle
            obj_add(x[d.id, n], wp * span * (d.load or 0.0) / spec.capacity)
    core = scenario.settings.core_energy_per_bit
    for (d_id, _n, l_id), rv in r.items():
        obj_add(rv, wp * _arc_power(linkset.link(l_id), traffic[d_id], specs, core))
    if with_delay:
        obj_add(t_var, wd * DELAY_UNIT)

    metadata = {
        # Variable-name maps for decoding a solution vector back into an
        # Allocation (solver module).
        "targets": targets,
        "y": dict(y),
        "r": dict(r),
    }
    return MilpModel(tuple(variables), tuple(constraints), objective, metadata)


def reachable_bins(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    streams: dict[tuple[DemandSpec, str], list[Link]],
) -> dict[str, int]:
    """Index (from 0) of the highest queue bin each link in some stream's
    arc set (stream_links) can reach: the bin of the summed packet rate of
    the streams whose set holds the link, at most rho_max * mu (the last
    bin). Higher bins could only raise the delay. formulate() keeps bins
    0..top of each such link: its bin index n ranges over 1..top + 1."""
    peak: dict[str, float] = {}
    for (d, _n), links in streams.items():
        pps = _pps(d, scenario)
        for link in links:
            peak[link.id] = peak.get(link.id, 0.0) + pps
    top = {}
    for link in linkset.links:
        if link.id in peak:
            bounds = tables[link.id].arrival_bounds
            # The margin keeps a rate on a bin bound, up to float dust, inside.
            reach = bisect.bisect_left(bounds, peak[link.id] * (1.0 + 1e-9))
            top[link.id] = min(len(bounds) - 1, reach)
    return top


def model_census(model: MilpModel) -> dict[str, int]:
    return {
        "variables": len(model.variables),
        "binaries": sum(1 for v in model.variables if v.kind == BINARY),
        "integers": sum(1 for v in model.variables if v.kind == INTEGER),
        "constraints": len(model.constraints),
    }


# ---------------------------------------------------------------------------
# Independent evaluator
# ---------------------------------------------------------------------------

def _check_route(
    scenario: Scenario, linkset: LinkSet, d_id: str, source: str, target: str, route: tuple[str, ...]
) -> None:
    entity = f"demand {d_id}, target {target}"
    if target == source:
        if route:
            raise AllocationError("C4", entity, len(route), "source route must be empty")
        return
    if not route:
        raise AllocationError("C4", entity, 1.0, "missing route for served target")
    seen = set()
    at = source
    for link_id in route:
        link = linkset.link(link_id)
        if link.tx_node != at:
            raise AllocationError("C4", entity, 1.0, f"link {link_id} does not continue the path")
        if link.rx_node in seen or link.rx_node == source:
            raise AllocationError("C4", entity, 1.0, "route revisits a vertex")
        seen.add(link.rx_node)
        at = link.rx_node
    if at != target:
        raise AllocationError("C4", entity, 1.0, f"route ends at {at}, not {target}")


def evaluate(
    scenario: Scenario,
    linkset: LinkSet,
    tables: dict[str, DelayTable],
    allocation: Allocation,
    weights: ObjectiveWeights,
) -> SolveResult:
    """Check an allocation against every constraint family, then price it.

    Raises AllocationError at the first violated family (C1-C5, C7). No
    other module checks an allocation: powermodel.system_power prices only
    what passed here. Link traffic, processor MIPS and the device specs are
    computed once and shared by the checks, the queue rates and the pricing.
    """
    eligible = eligible_processors(scenario)

    for d in scenario.demands:
        da = allocation.demands.get(d.id)
        if da is None:
            raise AllocationError("C1", f"demand {d.id}", 1.0, "demand not allocated")
        total = sum(da.fractions.values())
        if abs(total - 1.0) > FRACTION_TOL:
            raise AllocationError("C1", f"demand {d.id}", 1.0 - total)
        for n, xv in da.fractions.items():
            if xv < -FRACTION_TOL or xv > 1.0 + FRACTION_TOL:
                raise AllocationError("C1", f"demand {d.id}, node {n}", xv, "fraction out of [0,1]")
            if xv > FRACTION_TOL and n not in da.serving:
                raise AllocationError("C2", f"demand {d.id}, node {n}", xv, "x > 0 requires y = 1")
        for n in da.serving:
            if n not in eligible:
                raise AllocationError("C2", f"demand {d.id}, node {n}", 1.0, "node not eligible")
            _check_route(scenario, linkset, d.id, d.source, n, da.routes.get(n, ()))
        for n in da.routes:
            if n not in da.serving:
                raise AllocationError(
                    "C4", f"demand {d.id}, target {n}", 1.0, "route to a node that does not serve"
                )

    processing_mips = allocation.processing_mips(scenario)
    for n_id, mips in processing_mips.items():
        cap = scenario.node(n_id).processor.capacity
        if mips > cap * (1.0 + FRACTION_TOL):
            raise AllocationError("C3", f"node {n_id}", mips - cap)

    link_traffic = allocation.link_traffic(scenario)
    iface_t: dict[str, float] = {}
    for link in linkset.links:
        t = link_traffic.get(link.id, 0.0)
        if t > link.capacity * (1.0 + FRACTION_TOL):
            raise AllocationError("C5a", f"link {link.id}", t - link.capacity)
        iface_t[link.tx_device] = iface_t.get(link.tx_device, 0.0) + t
        iface_t[link.rx_device] = iface_t.get(link.rx_device, 0.0) + t
    # A cell's links are exactly those its AP's `.wifi` interface terminates.
    for e in scenario.edges():
        cell_t = iface_t.get(f"{e.id}.wifi", 0.0)
        ap_bw = e.radio(Medium.WIFI).bandwidth
        if cell_t > ap_bw * (1.0 + FRACTION_TOL):
            raise AllocationError("C5b", f"cell {e.id}", cell_t - ap_bw)
    specs = powermodel.device_specs(scenario)
    for dev, t in iface_t.items():
        spec = specs.get(dev)
        if spec is not None and t > spec.capacity * (1.0 + FRACTION_TOL):
            raise AllocationError("C5c", f"interface {dev}", t - spec.capacity)

    packet = scenario.settings.packet_size
    lam = {l: delaymodel.packets_per_second(t, packet) for l, t in link_traffic.items()}
    for link_id, rate in lam.items():
        cap = tables[link_id].arrival_bounds[-1]
        if rate > cap * (1.0 + FRACTION_TOL):
            raise AllocationError("C7", f"link {link_id}", rate - cap, "exceeds rho_max")

    breakdown = powermodel.system_power(scenario, linkset, link_traffic, processing_mips, specs)

    per_target_delay: dict[str, dict[str, float]] = {}
    max_delay = 0.0
    for d in scenario.demands:
        da = allocation.demands[d.id]
        per_target_delay[d.id] = {}
        for n in da.serving:
            links = [linkset.link(l) for l in da.routes.get(n, ())]
            delay = delaymodel.path_delay(links, tables, lam)
            per_target_delay[d.id][n] = delay
            max_delay = max(max_delay, delay)

    objective = weights.w_power * breakdown.total + weights.w_delay * max_delay
    return SolveResult(
        status="optimal",
        weights=weights,
        allocation=allocation,
        total_power=breakdown.total,
        max_delay=max_delay,
        objective_value=objective,
        per_device_power=dict(breakdown.per_device),
        per_target_delay=per_target_delay,
    )
