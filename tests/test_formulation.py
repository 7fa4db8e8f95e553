import bisect
import dataclasses
import math
import re
from pathlib import Path

import pytest
from scipy.optimize import milp

from vecop import delaymodel, linkmodel, powermodel, solver
from vecop.formulation import (
    DELAY_UNIT,
    INTEGER,
    Allocation,
    AllocationError,
    Bounds,
    Constraint,
    DemandAllocation,
    FormulationError,
    MilpModel,
    Variable,
    _nm,
    evaluate,
    formulate,
    model_census,
    reachable_bins,
    route_links,
    stream_links,
)
from vecop.scenario import (
    DemandSpec,
    POWER_WEIGHTS,
    Medium,
    ObjectiveWeights,
    ProcessingSetting,
    eligible_processors,
    validate,
)
from vecop.solver import _all_simple_paths, _to_arrays

from conftest import (
    make_edge,
    make_vehicle,
    small_scenario,
    two_demand_scenario,
)

FORMATS_MD = Path(__file__).resolve().parents[1] / "docs" / "formats.md"

POWER = POWER_WEIGHTS
JOINT = ObjectiveWeights(0.02, 2000.0)


@pytest.fixture(scope="module")
def default_model(default_scenario, default_linkset, default_tables):
    return formulate(default_scenario, default_linkset, default_tables, JOINT)


def _ctx(nodes, **kw):
    s = small_scenario(nodes, **kw)
    ls = linkmodel.build_links(s)
    tb = delaymodel.build_tables(s, ls)
    return s, ls, tb


def model_census_formula(scenario, linkset, tables, delay_cap=None, power_cap=None):
    """Closed-form variable/constraint counts, given the stream_links of
    each stream, of the delay-weighted model (w_delay != 0), which carries
    the queue-bin machinery, under `delay_cap` and `power_cap` as
    stream_links() takes them.
    Only the links some stream holds, the targets (the eligible source and
    the nodes whose stream has an arc) and the devices their rows touch
    count. `integers` are the bin indexes n, which `binaries` leaves out."""
    eligible = sorted(eligible_processors(scenario))
    d_count = len(scenario.demands)
    streams = stream_links(scenario, linkset, tables, delay_cap, power_cap)
    steps = sum(reachable_bins(scenario, linkset, tables, streams).values())
    specs = powermodel.device_specs(scenario)
    routes = [(d.source, n, links) for (d, n), links in streams.items() if links]
    arcs = [l for _s, _n, links in routes for l in links]
    used = {l.id for l in arcs}
    local = {d.source for d in scenario.demands} & set(eligible)
    targets = len(routes) + sum(1 for d in scenario.demands if d.source in local)
    ends = {dev for l in arcs for dev in (l.tx_device, l.rx_device)} & set(specs)
    cpus = local | {n for _s, n, _l in routes}
    devices = ends | {f"{n}.cpu" for n in cpus}

    variables = (
        len(devices)  # a
        + 2 * len(used)  # n, Q
        + 1  # T
        + 2 * targets  # x, y
        + 2 * len(arcs)  # r, q
    )
    binaries = len(devices) + targets + len(arcs)

    exits = [
        {l.rx_device for (dd, _n), links in streams.items() if dd.id == d.id
         for l in links if l.tx_node == d.source}
        for d in scenario.demands
    ]
    constraints = (
        d_count  # C1
        + 2 * targets  # C2
        + len(cpus)  # C3
        + sum(  # C4 flow + degree
            len({s, n} | {l.tx_node for l in links} | {l.rx_node for l in links})
            + len({l.tx_node for l in links})
            for s, n, links in routes
        )
        + len(ends)  # C5c
        + sum(  # C6, per stream, side and device
            len({l.tx_device for l in links} & specs.keys())
            + len({l.rx_device for l in links} & specs.keys())
            for _s, _n, links in routes
        )
        + sum(1 for e in exits if e and e <= specs.keys())  # C6 source exit
        + len(used) + steps  # C7 load, queue secants
        + len(arcs)  # C8
        + len(routes)  # C9
    )
    return {
        "variables": variables,
        "binaries": binaries,
        "integers": len(used),
        "constraints": constraints,
    }


def test_census_matches_closed_form(
    default_model, default_scenario, default_linkset, default_tables
):
    census = model_census(default_model)
    assert census == model_census_formula(default_scenario, default_linkset, default_tables)
    # Default instance: 11 nodes, 92 links, 9 remote targets of one demand;
    # each stream gets routing variables only on its route links.
    r_vars = [v for v in default_model.variables if v.name.startswith("r_")]
    assert len(r_vars) < 9 * len(default_linkset.links)
    assert census["variables"] > 0 and census["binaries"] < census["variables"]


def _stream_counts(streams, linkset):
    """How many streams' arc sets hold each link."""
    held = {link.id: 0 for link in linkset.links}
    for links in streams.values():
        for link in links:
            held[link.id] += 1
    return held


def _queue_steps(model, link_id):
    """The k of the link's C7_queue_<link>_k<k> secant rows, ascending."""
    prefix = f"C7_queue_{link_id}_k"
    return sorted(int(c.name[len(prefix):]) for c in model.constraints
                  if c.name.startswith(prefix))


def test_reachable_bins_hold_the_largest_arrival_rate(
    default_model, default_scenario, default_linkset, default_tables
):
    # Default lot: one demand, 9 remote targets (7 vehicles, 2 edges); every
    # link some stream holds keeps exactly the bins up to the one its peak
    # rate falls into: one stream rate per target whose route links hold the
    # link (nothing is dropped at 1000 kbps without a cap), at most
    # rho_max * mu. The kept-bin count is the upper bound of the link's bin
    # index n, which has one C7_queue secant row per step between kept bins.
    # A link no stream holds (one into the source) has no bin index.
    (d,) = default_scenario.demands
    pps = delaymodel.packets_per_second(d.traffic * 1000.0, 1500.0)
    targets = sorted(eligible_processors(default_scenario) - {d.source})
    held = {link.id: 0 for link in default_linkset.links}
    for n in targets:
        for link in route_links(default_linkset, d.source, n):
            held[link.id] += 1
    streams = stream_links(default_scenario, default_linkset, default_tables)
    assert _stream_counts(streams, default_linkset) == held
    used = [link for link in default_linkset.links if held[link.id]]
    assert 0 < len(used) < len(default_linkset.links)
    top = reachable_bins(default_scenario, default_linkset, default_tables, streams)
    assert list(top) == [link.id for link in used]
    variables = {v.name: v for v in default_model.variables}
    index = {n: v for n, v in variables.items() if n.startswith("n_")}
    assert list(index) == [f"n_{link.id}" for link in used]
    assert all(v.kind == INTEGER and v.lower == 1.0 for v in index.values())
    kept = sum(v.upper for v in index.values())
    assert kept == sum(k + 1 for k in top.values()) < 64 * len(used)
    below_all = 0
    for link in used:
        table, k = default_tables[link.id], top[link.id]
        peak = min(held[link.id] * pps, table.arrival_bounds[-1])
        assert delaymodel.lookup(table, peak) == table.delays[k]
        assert variables[f"n_{link.id}"].upper == k + 1
        assert _queue_steps(default_model, link.id) == list(range(1, k + 1))
        below_all += k < bisect.bisect_left(table.arrival_bounds, len(targets) * pps)
    # Counting the streams per link, not every remote stream, lowers some
    # links' top bin.
    assert below_all > 0


def test_delay_cap_none_is_the_uncapped_model(
    default_model, default_scenario, default_linkset, default_tables
):
    capped = formulate(default_scenario, default_linkset, default_tables, JOINT, Bounds())
    assert capped == default_model
    assert next(v for v in capped.variables if v.name == "T").upper is None


def _big_ms(model, link_id):
    """The r coefficients (big-Ms) of the link's C8 rows."""
    gates = [
        c for c in model.constraints
        if c.name.startswith("C8_gate_") and c.name.endswith(f"_{link_id}")
    ]
    return [coef for c in gates for v, coef in c.coeffs.items() if v.startswith("r_")]


def test_delay_cap_bounds_t_and_trims_bins(default_scenario, default_linkset, default_tables):
    # A cap reaches the model in two places: T's bound and the arc sets. A
    # link keeps the bins up to the one its capped streams reach together,
    # fewer than without the cap when the cap takes streams off it; a link
    # no capped stream holds has no queue block at all.
    (base,) = default_scenario.demands
    s = validate(
        dataclasses.replace(
            default_scenario, demands=(DemandSpec(base.id, base.source, 4000.0, 4000.0),)
        )
    )
    cap = 1e-3
    model = formulate(s, default_linkset, default_tables, JOINT, Bounds(delay_cap=cap))
    variables = {v.name: v for v in model.variables}
    assert variables["T"].upper == cap / DELAY_UNIT
    pps = delaymodel.packets_per_second(4000.0 * 1000.0, 1500.0)
    held = _stream_counts(stream_links(s, default_linkset, default_tables, cap), default_linkset)
    uncapped = _stream_counts(stream_links(s, default_linkset, default_tables), default_linkset)
    dropped = trimmed = gated = 0
    for link in default_linkset.links:
        table = default_tables[link.id]
        if not held[link.id]:
            assert f"n_{link.id}" not in variables and f"Q_{link.id}" not in variables
            assert not _queue_steps(model, link.id)
            dropped += bool(uncapped[link.id])
            continue
        reach, full = (
            table.delays.index(
                delaymodel.lookup(table, min(count * pps, table.arrival_bounds[-1]))
            )
            for count in (held[link.id], uncapped[link.id])
        )
        kept = list(range(int(variables[f"n_{link.id}"].upper)))
        assert kept == list(range(reach + 1)), link.id
        assert _queue_steps(model, link.id) == kept[1:], link.id
        trimmed += reach < full
        top = table.delays[kept[-1]] / DELAY_UNIT
        assert variables[f"Q_{link.id}"].lower == table.delays[0] / DELAY_UNIT
        assert variables[f"Q_{link.id}"].upper == top
        big_ms = _big_ms(model, link.id)
        assert all(m == top for m in big_ms), link.id
        gated += bool(big_ms)
    # The cap takes some links from every stream, and some streams from
    # other links, which lowers their top bin.
    assert dropped > 0 and trimmed > 0 and gated > 0


def test_delay_cap_zero_leaves_only_local_processing():
    s, ls, tb = _ctx(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20)], traffic=400.0, bins=8
    )
    model = formulate(s, ls, tb, JOINT, Bounds(delay_cap=0.0))
    # No path fits under a zero cap: the source is the only target, and no
    # stream keeps a routing variable or a link a queue block.
    assert model.metadata["targets"] == {"d1": ["v1"]}
    assert not model.metadata["r"]
    assert not any(v.name[:2] in ("n_", "Q_", "q_") for v in model.variables)
    names, c, integrality, bounds, constraint = _to_arrays(model)
    res = milp(c, constraints=constraint, bounds=bounds, integrality=integrality)
    assert res.status == 0
    value = dict(zip(names, res.x))
    assert value["y_d1_v1"] > 0.5 and value["x_d1_v1"] == pytest.approx(1.0)


def test_constraint_families_present(default_model):
    prefixes = {c.name.split("_")[0] for c in default_model.constraints}
    assert prefixes == {"C1", "C2", "C3", "C4", "C5c", "C6", "C7", "C8", "C9"}


def _families(model):
    return {"_".join(c.name.split("_")[:2]) for c in model.constraints}


def test_formats_doc_lists_the_emitted_families(
    default_scenario, default_linkset, default_tables
):
    text = FORMATS_MD.read_text()
    paragraph = text[text.index("Constraint families:"):].split("\n\n")[0]
    documented = set(re.findall(r"`(C\d[a-z]?_[a-z]+)`", paragraph))
    emitted = set()
    for setting in ProcessingSetting:
        s = validate(
            dataclasses.replace(
                default_scenario,
                settings=dataclasses.replace(
                    default_scenario.settings, processing_setting=setting
                ),
            )
        )
        for weights in (POWER, JOINT):
            emitted |= _families(formulate(s, default_linkset, default_tables, weights))
    assert documented == emitted


def test_trim_drops_delay_machinery(default_scenario, default_linkset, default_tables):
    trimmed = formulate(default_scenario, default_linkset, default_tables, POWER)
    names = {v.name for v in trimmed.variables}
    assert "T" not in names
    assert not any(n.startswith("n_") or n.startswith("Q_") for n in names)
    prefixes = {c.name.split("_")[0] for c in trimmed.constraints}
    assert "C8" not in prefixes and "C9" not in prefixes
    # stability survives as a plain linear cap on the routing variables
    loads = [c for c in trimmed.constraints if c.name.startswith("C7_load_")]
    assert loads and all(all(v.startswith("r_") for v in c.coeffs) for c in loads)
    assert _families(trimmed) & {"C7_queue"} == set()


def test_trim_ignored_with_delay_weight(default_scenario, default_linkset, default_tables):
    full = formulate(default_scenario, default_linkset, default_tables, JOINT)
    assert any(v.name == "T" for v in full.variables)
    # with delay, C7_load bounds the arrival rate by n bins of the link's
    # first bin's width
    loads = [c for c in full.constraints if c.name.startswith("C7_load_")]
    streams = stream_links(default_scenario, default_linkset, default_tables)
    assert len(loads) == len({link.id for links in streams.values() for link in links})
    for c in loads:
        link_id = c.name[len("C7_load_"):]
        assert c.coeffs[f"n_{link_id}"] == -default_tables[link_id].arrival_bounds[0]
        assert all(v.startswith("r_") for v in c.coeffs if v != f"n_{link_id}")


def test_queue_rows_charge_each_bins_delay(default_scenario, default_linkset, default_tables):
    # At every integer bin index n of a link, the least Q its C7_queue rows
    # and bounds allow is bin n's table delay; with and without a cap.
    # Only the links some stream holds have a bin index.
    for cap in (None, 1e-3):
        model = formulate(
            default_scenario, default_linkset, default_tables, JOINT, Bounds(delay_cap=cap)
        )
        variables = {v.name: v for v in model.variables}
        rows: dict[str, list[Constraint]] = {}
        for c in model.constraints:
            if c.name.startswith("C7_queue_"):
                rows.setdefault(c.name[len("C7_queue_"):].rsplit("_k", 1)[0], []).append(c)
        streams = stream_links(default_scenario, default_linkset, default_tables, cap)
        held = {link.id for links in streams.values() for link in links}
        assert {n for n in variables if n.startswith("n_")} == {f"n_{l}" for l in held}
        for link in default_linkset.links:
            if link.id not in held:
                continue
            n_var, q_var = variables[f"n_{link.id}"], variables[f"Q_{link.id}"]
            delays = default_tables[link.id].delays
            for n in range(1, int(n_var.upper) + 1):
                least = max(
                    [q_var.lower]
                    + [c.rhs - c.coeffs[n_var.name] * n for c in rows.get(link.id, [])]
                )
                assert least == pytest.approx(delays[n - 1] / DELAY_UNIT, rel=1e-12), link.id
            assert q_var.upper == delays[int(n_var.upper) - 1] / DELAY_UNIT


def test_route_links_cover_every_simple_path(oracle_corpus):
    for seed, oracle in enumerate(oracle_corpus):
        s, ls = oracle.scenario, oracle.linkset
        (d,) = s.demands
        for n in sorted(eligible_processors(s) - {d.source}):
            links = route_links(ls, d.source, n)
            used = {l for path in _all_simple_paths(ls, d.source, n) for l in path}
            assert used <= {l.id for l in links}, f"seed {seed}, target {n}"
            assert not [l.id for l in links if l.rx_node == d.source or l.tx_node == n]


def test_route_links_are_per_stream():
    # A link into demand d1's source stays usable by demand d2's stream.
    base = small_scenario(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 20, 0), make_vehicle("v3", 40, 0)]
    )
    s = validate(
        dataclasses.replace(
            base, demands=(DemandSpec("d1", "v1", 400.0), DemandSpec("d2", "v2", 400.0))
        )
    )
    ls = linkmodel.build_links(s)
    into_v1 = {l.id for l in ls.links if l.rx_node == "v1"}
    assert into_v1
    assert not into_v1 & {l.id for l in route_links(ls, "v1", "v3")}
    assert into_v1 <= {l.id for l in route_links(ls, "v2", "v1")}
    tb = delaymodel.build_tables(s, ls)
    model = formulate(s, ls, tb, JOINT)
    assert model_census(model) == model_census_formula(s, ls, tb)
    routed = model.metadata["r"]
    assert not any(("d1", n, l) in routed for n in ("v2", "v3") for l in into_v1)
    assert all(("d2", "v1", l) in routed for l in into_v1)


def _floor_delay(ls, tb, path, pps):
    return sum(
        ls.link(l).prop_delay + ls.link(l).tx_delay_per_packet + delaymodel.lookup(tb[l], pps)
        for l in path
    )


def test_stream_links_use_each_demands_own_rate():
    # Unequal traffic (1000 and 1500 kbps) at 64 bins puts the two demands'
    # stream rates in different DSRC bins. At the floor delay of each simple
    # path as the cap, every path that fits keeps its links; a one-hop path
    # just over the cap loses its link. A rate shared by both demands
    # overstates one demand's floor delays (the first check fails) or
    # understates the other's (the second one does).
    base = two_demand_scenario()
    s = validate(dataclasses.replace(base, settings=dataclasses.replace(base.settings, bins=64)))
    ls = linkmodel.build_links(s)
    tb = delaymodel.build_tables(s, ls)
    pps = {d.id: delaymodel.packets_per_second(d.traffic * 1000.0, 1500.0) for d in s.demands}
    sensitive = {d.id: 0 for d in s.demands}
    for d in s.demands:
        (other,) = (p for d_id, p in pps.items() if d_id != d.id)
        for n in sorted(eligible_processors(s) - {d.source}):
            paths = _all_simple_paths(ls, d.source, n)
            floors = [_floor_delay(ls, tb, p, pps[d.id]) for p in paths]
            for path, cap in zip(paths, floors):
                kept = {l.id for l in stream_links(s, ls, tb, cap)[d, n]}
                for fits, floor in zip(paths, floors):
                    if floor <= cap:
                        assert set(fits) <= kept, (d.id, n, path)
                if len(path) == 1:
                    below = stream_links(s, ls, tb, cap * (1.0 - 1e-6))[d, n]
                    assert path[0] not in {l.id for l in below}, (d.id, n)
                    sensitive[d.id] += _floor_delay(ls, tb, path, other) != cap
    assert all(sensitive.values()), sensitive


def test_stream_links_drop_links_a_stream_overloads():
    # 26 Mbit/s is above DSRC's rho_max * mu (~25.65 Mbit/s) but not WiFi's:
    # the stream loses every DSRC link, and the floor delays under a cap
    # never look up a rate beyond a table.
    s, ls, tb = _ctx(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 5, 0), make_edge("e1", 20, 0)],
        traffic=26000.0,
        setting=ProcessingSetting.VEHICLES_AND_EDGE,
        mips_per_kbps=0.01,
    )
    (d,) = s.demands
    pps = delaymodel.packets_per_second(26000.0 * 1000.0, 1500.0)
    dsrc = {l.id for l in ls.links if l.medium == Medium.DSRC}
    assert all(pps > tb[l].arrival_bounds[-1] for l in dsrc)
    assert dsrc & {l.id for n in ("v2", "e1") for l in route_links(ls, d.source, n)}
    for (_d, n), links in stream_links(s, ls, tb).items():
        assert [l for l in route_links(ls, d.source, n) if l.id not in dsrc] == links, n
    # Under a cap the floor delays skip the dropped links: the stream to e1
    # cannot reach v2 (only DSRC leads there from v1) and loses v2 -> e1.
    hops = {
        n: [(l.tx_node, l.rx_node) for l in links]
        for (_d, n), links in stream_links(s, ls, tb, 1.0).items()
    }
    assert hops == {"e1": [("v1", "e1")], "v2": [("v1", "e1"), ("e1", "v2")]}
    model = formulate(s, ls, tb, JOINT, Bounds(delay_cap=1.0))
    assert not any(l in dsrc for (_d, _n, l) in model.metadata["r"])


def test_census_matches_closed_form_under_a_cap(
    default_scenario, default_linkset, default_tables
):
    for cap in (4e-4, 1e-3):
        model = formulate(
            default_scenario, default_linkset, default_tables, JOINT, Bounds(delay_cap=cap)
        )
        assert model_census(model) == model_census_formula(
            default_scenario, default_linkset, default_tables, cap
        )
    # The default lot's power cap (18.31 W) on its own and with a delay cap.
    power = solver.power_bounds(
        default_scenario, default_linkset, default_tables, POWER
    ).power_cap
    for cap in (None, 1e-3):
        model = formulate(
            default_scenario, default_linkset, default_tables, JOINT,
            Bounds(delay_cap=cap, power_cap=power),
        )
        assert model_census(model) == model_census_formula(
            default_scenario, default_linkset, default_tables, cap, power
        )
    s = two_demand_scenario()
    ls = linkmodel.build_links(s)
    tb = delaymodel.build_tables(s, ls)
    cap = 6e-4
    model = formulate(s, ls, tb, JOINT, Bounds(delay_cap=cap))
    assert model_census(model) == model_census_formula(s, ls, tb, cap)


def test_delay_floor_bounds_t_and_changes_nothing_else(
    default_scenario, default_linkset, default_tables
):
    # The floor is T's lower bound: the census, the rows, the objective and
    # every other variable stay as they are under the cap alone.
    ctx = (default_scenario, default_linkset, default_tables)
    cap, floor = 1e-3, 4e-4
    capped = formulate(*ctx, JOINT, Bounds(delay_cap=cap))
    floored = formulate(*ctx, JOINT, Bounds(delay_cap=cap, delay_floor=floor))
    assert model_census(floored) == model_census(capped)
    assert floored.constraints == capped.constraints
    assert floored.objective == capped.objective
    t = next(v for v in floored.variables if v.name == "T")
    assert (t.lower, t.upper) == (floor / DELAY_UNIT, cap / DELAY_UNIT)
    assert [v for v in floored.variables if v.name != "T"] == [
        v for v in capped.variables if v.name != "T"
    ]
    # Without a cap the floor bounds T alone too; without a delay weight
    # there is no T to bound.
    assert model_census(formulate(*ctx, JOINT, Bounds(delay_floor=floor))) == model_census(
        formulate(*ctx, JOINT)
    )
    assert formulate(*ctx, POWER, Bounds(delay_floor=floor)) == formulate(*ctx, POWER)
    with pytest.raises(FormulationError, match="delay floor"):
        Bounds(delay_cap=floor, delay_floor=cap)


def test_power_cap_keeps_every_allocation_under_it(oracle_corpus):
    # Every feasible candidate that draws at most the cap routes each remote
    # member over arcs its stream keeps, so the capped model holds every
    # allocation that could beat the reference (the reference itself too).
    routed = dropped = 0
    for seed, oracle in enumerate(oracle_corpus):
        s, ls, tb = oracle.scenario, oracle.linkset, oracle.tables
        cap = solver.power_bounds(s, ls, tb, POWER).power_cap
        if cap is None:
            continue
        capped = {
            n: {l.id for l in links}
            for (_d, n), links in stream_links(s, ls, tb, power_cap=cap).items()
        }
        dropped += sum(len(links) for links in stream_links(s, ls, tb).values()) - sum(
            len(links) for links in capped.values()
        )
        for alloc, power, _delay in oracle.candidates:
            if power > cap:
                continue
            (da,) = alloc.demands.values()
            for n, route in da.routes.items():
                assert set(route) <= capped.get(n, set()), (
                    f"seed {seed}, target {n}, route {route}: {power!r} W <= cap {cap!r} W"
                )
                routed += bool(route)
    assert routed > 0 and dropped > 0


def _check_declares_only_what_streams_use(s, ls, tb, weights, cap=None):
    """Every queue block sits on a link some stream's arc set holds, every
    x/y on the source or a target whose stream has an arc, and every
    activation a in some row."""
    model = formulate(s, ls, tb, weights, Bounds(delay_cap=cap))
    streams = stream_links(s, ls, tb, cap if weights.w_delay else None)
    held = {link.id for links in streams.values() for link in links}
    targets = {
        f"{_nm(d.id)}_{_nm(n)}"
        for d in s.demands
        for n in eligible_processors(s)
        if n == d.source or streams[d, n]
    }
    in_rows = {v for c in model.constraints for v in c.coeffs}
    for v in model.variables:
        kind, _, rest = v.name.partition("_")
        if kind in ("n", "Q"):
            assert rest in held, v.name
        elif kind in ("x", "y"):
            assert rest in targets, v.name
        elif kind == "a":
            assert v.name in in_rows, v.name
    for c in model.constraints:
        if c.name.startswith("C7_"):
            assert c.name.split("_")[2] in held, c.name
    return len(held) < len(ls.links)


def test_model_declares_only_what_streams_use(default_scenario, default_linkset, default_tables):
    pruned = 0
    for setting in ProcessingSetting:
        s = validate(
            dataclasses.replace(
                default_scenario,
                settings=dataclasses.replace(
                    default_scenario.settings, processing_setting=setting
                ),
            )
        )
        for weights, cap in ((POWER, None), (JOINT, None), (JOINT, 1e-3)):
            pruned += _check_declares_only_what_streams_use(
                s, default_linkset, default_tables, weights, cap
            )
    s = two_demand_scenario()
    ls = linkmodel.build_links(s)
    tb = delaymodel.build_tables(s, ls)
    for weights, cap in ((POWER, None), (JOINT, None), (JOINT, 6e-4)):
        pruned += _check_declares_only_what_streams_use(s, ls, tb, weights, cap)
    # Some models leave links out.
    assert pruned > 0


def _check_activation_rows(ls, model):
    """Each C6_act row sums one stream's route links out of (tx) or into
    (rx) one node, and holds each (r, endpoint device) pair exactly once."""
    stream_of = {rv: (d_id, n) for (d_id, n, _l), rv in model.metadata["r"].items()}
    link_of = {rv: ls.link(l_id) for (_d, _n, l_id), rv in model.metadata["r"].items()}
    declared = {v.name for v in model.variables}
    rows = [c for c in model.constraints if c.name.startswith("C6_act_")]
    held: dict[tuple[str, str], int] = {}
    for c in rows:
        assert (c.sense, c.rhs) == ("<=", 0.0)
        acts = [v for v, coef in c.coeffs.items() if v.startswith("a_") and coef == -1.0]
        routed = [v for v, coef in c.coeffs.items() if v.startswith("r_") and coef == 1.0]
        assert len(acts) == 1 and routed and len(acts) + len(routed) == len(c.coeffs), c.name
        (d_id, n), = {stream_of[rv] for rv in routed}
        side = c.name[len(f"C6_act_{d_id}_{n}_"):].split("_")[0]
        node = {"tx": "tx_node", "rx": "rx_node"}[side]
        assert len({getattr(link_of[rv], node) for rv in routed}) == 1, c.name
        for rv in routed:
            held[rv, acts[0]] = held.get((rv, acts[0]), 0) + 1
    pairs = [
        (rv, f"a_{_nm(dev)}")
        for rv, link in link_of.items()
        for dev in (link.tx_device, link.rx_device)
        if f"a_{_nm(dev)}" in declared
    ]
    assert pairs and sorted(held) == sorted(pairs)
    assert set(held.values()) == {1}
    return rows


def test_activation_rows_aggregate_per_stream_side_and_device(default_model, default_linkset):
    rows = _check_activation_rows(default_linkset, default_model)
    # Fewer rows than (r, endpoint device) pairs: the aggregation bites.
    pairs = sum(len(c.coeffs) - 1 for c in rows)
    assert len(rows) < pairs
    s = two_demand_scenario()
    ls = linkmodel.build_links(s)
    tb = delaymodel.build_tables(s, ls)
    for weights in (POWER, JOINT):
        _check_activation_rows(ls, formulate(s, ls, tb, weights))


def _point_of(model, scenario, linkset, allocation):
    """The power-only model's variable values at `allocation`: x, y and r
    from it, and a = 1 on each device it processes on or carries traffic
    through. Every value it sets must name a declared variable."""
    value = {v.name: 0.0 for v in model.variables}

    def put(name, v):
        assert name in value, name
        value[name] = v

    traffic = allocation.link_traffic(scenario)
    active = {f"{n}.cpu" for n in allocation.processing_mips(scenario)}
    for link in linkset.links:
        if traffic.get(link.id, 0.0) > 0.0:
            active |= {link.tx_device, link.rx_device}
    for dev in active & powermodel.device_specs(scenario).keys():
        put(f"a_{_nm(dev)}", 1.0)
    r = model.metadata["r"]
    for d_id, da in allocation.demands.items():
        for n in da.serving:
            put(model.metadata["y"][d_id, n], 1.0)
            put(f"x_{_nm(d_id)}_{_nm(n)}", da.fractions[n])
            for l_id in da.routes.get(n, ()):
                put(r[d_id, n, l_id], 1.0)
    return value


def test_power_model_accepts_the_oracle_optimum(oracle_corpus):
    # Every row of the power-only model, C6_exit included, holds at the
    # oracle's optimum, and the objective prices it at the oracle's power:
    # so no row cuts off that optimum, whatever HiGHS returns.
    checked = local = 0
    for seed, oracle in enumerate(oracle_corpus):
        s, ls, tb = oracle.scenario, oracle.linkset, oracle.tables
        best = oracle.best(POWER)
        if best.status != "optimal":
            continue
        model = formulate(s, ls, tb, POWER)
        value = _point_of(model, s, ls, best.allocation)
        for v in model.variables:
            assert v.lower <= value[v.name] <= (math.inf if v.upper is None else v.upper)
        for c in model.constraints:
            lhs = sum(coef * value[name] for name, coef in c.coeffs.items())
            tol = 1e-9 * max(1.0, abs(c.rhs))
            ok = {"<=": lhs <= c.rhs + tol, ">=": lhs >= c.rhs - tol, "=": abs(lhs - c.rhs) <= tol}
            assert ok[c.sense], f"seed {seed}: {c.name}: {lhs!r} {c.sense} {c.rhs!r}"
        priced = sum(coef * value[name] for name, coef in model.objective.items())
        assert priced == pytest.approx(best.total_power, rel=1e-9), f"seed {seed}"
        assert any(c.name.startswith("C6_exit_") for c in model.constraints), f"seed {seed}"
        checked += 1
        local += best.allocation.demands["d1"].serving == ("v1",)
    # The corpus has optima that serve at the source alone, where only the
    # y term of C6_exit holds the row, and optima that leave it.
    assert 0 < local < checked


def test_model_rejects_undeclared_names():
    with pytest.raises(FormulationError):
        MilpModel(
            variables=(Variable("x", "continuous"),),
            constraints=(Constraint("c", {"ghost": 1.0}, "<=", 0.0),),
            objective={"x": 1.0},
        )


def test_objective_weighting_is_linear(default_scenario, default_linkset, default_tables):
    m1 = formulate(default_scenario, default_linkset, default_tables, ObjectiveWeights(1.0, 0.0))
    m2 = formulate(default_scenario, default_linkset, default_tables, ObjectiveWeights(2.0, 0.0))
    for name, c in m1.objective.items():
        if name == "T":
            continue
        assert m2.objective[name] == pytest.approx(2.0 * c, rel=1e-12)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

def _two_vehicle():
    return _ctx([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=400.0)


def test_evaluate_local_processing():
    s, ls, tb = _two_vehicle()
    alloc = Allocation({"d1": DemandAllocation(("v1",), {"v1": 1.0}, {"v1": ()})})
    r = evaluate(s, ls, tb, alloc, POWER)
    assert r.total_power == pytest.approx(7.5, abs=1e-12)
    assert r.max_delay == 0.0
    assert r.objective_value == pytest.approx(7.5, abs=1e-12)


def test_evaluate_remote_delay():
    s, ls, tb = _two_vehicle()
    link = next(l for l in ls.links if l.tx_node == "v1" and l.medium == Medium.DSRC)
    alloc = Allocation({"d1": DemandAllocation(("v2",), {"v2": 1.0}, {"v2": (link.id,)})})
    r = evaluate(s, ls, tb, alloc, JOINT)
    lam = 400e3 / (8 * 1500)
    expected_delay = (
        link.prop_delay
        + link.tx_delay_per_packet
        + delaymodel.lookup(tb[link.id], lam)
    )
    assert r.max_delay == pytest.approx(expected_delay, rel=1e-12)
    assert r.per_target_delay == {"d1": {"v2": pytest.approx(expected_delay, rel=1e-12)}}
    assert r.objective_value == pytest.approx(
        0.02 * r.total_power + 2000.0 * r.max_delay, rel=1e-12
    )


def _alloc(serving, fractions, routes):
    return Allocation({"d1": DemandAllocation(serving, fractions, routes)})


@pytest.mark.parametrize(
    "family,mutate",
    [
        ("C1", lambda hop: _alloc(("v1",), {"v1": 0.6}, {"v1": ()})),
        ("C2", lambda hop: _alloc((), {"v1": 1.0}, {})),
        ("C4", lambda hop: _alloc(("v2",), {"v2": 1.0}, {"v2": ()})),
        pytest.param("C1", lambda hop: Allocation({}), id="C1-demand-missing"),
        pytest.param(
            "C1",
            lambda hop: _alloc(("v1", "v2"), {"v1": 1.5, "v2": -0.5}, {"v1": (), "v2": ()}),
            id="C1-fraction-outside-0-1",
        ),
        pytest.param(
            "C2",
            lambda hop: _alloc(("e1",), {"e1": 1.0}, {"e1": (hop["v1", "e1"],)}),
            id="C2-node-not-eligible",
        ),
        pytest.param(
            "C4",
            lambda hop: _alloc(("v1",), {"v1": 1.0}, {"v1": (hop["v1", "v2"],)}),
            id="C4-source-route-not-empty",
        ),
        pytest.param(
            "C4",
            lambda hop: _alloc(
                ("v2",), {"v2": 1.0}, {"v2": (hop["v1", "v2"], hop["v2", "v3"], hop["v3", "v2"])}
            ),
            id="C4-route-revisits-a-vertex",
        ),
        pytest.param(
            "C4",
            lambda hop: _alloc(("v3",), {"v3": 1.0}, {"v3": (hop["v1", "v2"],)}),
            id="C4-route-ends-elsewhere",
        ),
    ],
)
def test_evaluate_rejects_by_family(family, mutate):
    # Vehicles only, so the edge node e1 is in range but may not serve.
    s, ls, tb = _ctx(
        [
            make_vehicle("v1", 0, 0),
            make_vehicle("v2", 30, 0),
            make_vehicle("v3", 15, 20),
            make_edge("e1", 15, 0),
        ]
    )
    hop = {(l.tx_node, l.rx_node): l.id for l in ls.links}
    with pytest.raises(AllocationError) as e:
        evaluate(s, ls, tb, mutate(hop), POWER)
    assert e.value.family == family


def test_evaluate_rejects_overloaded_processor():
    s, ls, tb = _ctx(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=1200.0
    )
    alloc = Allocation({"d1": DemandAllocation(("v1",), {"v1": 1.0}, {"v1": ()})})
    with pytest.raises(AllocationError) as e:
        evaluate(s, ls, tb, alloc, POWER)
    assert e.value.family == "C3"
    assert e.value.slack == pytest.approx(400.0, abs=1e-9)


def _c5a_over_one_link():
    # 28 Mbit/s on one 27 Mbit/s DSRC hop.
    s, ls, tb = _ctx(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=28000.0, mips_per_kbps=0.01
    )
    hop = next(l for l in ls.links if l.tx_node == "v1" and l.medium == Medium.DSRC)
    return s, ls, tb, {"v2": (hop.id,)}, 1e6


def _c5b_over_one_cell():
    # 60 Mbit/s to e1 and on through e1 to v2: each WiFi link carries at most
    # 120 Mbit/s, but the 150 Mbit/s cell carries 180.
    s, ls, tb = _ctx(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0), make_edge("e1", 15, 0)],
        traffic=60000.0,
        setting=ProcessingSetting.VEHICLES_AND_EDGE,
        mips_per_kbps=0.01,
    )
    hop = {(l.tx_node, l.rx_node): l.id for l in ls.links if l.medium == Medium.WIFI}
    return s, ls, tb, {"e1": (hop["v1", "e1"],), "v2": (hop["v1", "e1"], hop["e1", "v2"])}, 30e6


def _c5c_over_one_interface():
    # Two 14 Mbit/s DSRC hops, each under rho_max, leave v1's 27 Mbit/s radio.
    s, ls, tb = _ctx(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0), make_vehicle("v3", 0, 30)],
        traffic=14000.0,
        mips_per_kbps=0.01,
    )
    hop = {(l.tx_node, l.rx_node): l.id for l in ls.links if l.medium == Medium.DSRC}
    return s, ls, tb, {"v2": (hop["v1", "v2"],), "v3": (hop["v1", "v3"],)}, 1e6


@pytest.mark.parametrize(
    "family,build",
    [("C5a", _c5a_over_one_link), ("C5b", _c5b_over_one_cell), ("C5c", _c5c_over_one_interface)],
)
def test_evaluate_rejects_over_capacity(family, build):
    s, ls, tb, routes, excess = build()
    serving = tuple(sorted(routes))
    alloc = Allocation(
        {"d1": DemandAllocation(serving, {n: 1.0 / len(serving) for n in serving}, routes)}
    )
    with pytest.raises(AllocationError) as e:
        evaluate(s, ls, tb, alloc, POWER)
    assert e.value.family == family
    assert e.value.slack == pytest.approx(excess, rel=1e-12)


def test_evaluate_rejects_bad_route_shape():
    s, ls, tb = _two_vehicle()
    back = next(l for l in ls.links if l.tx_node == "v2" and l.medium == Medium.DSRC)
    alloc = Allocation({"d1": DemandAllocation(("v2",), {"v2": 1.0}, {"v2": (back.id,)})})
    with pytest.raises(AllocationError) as e:
        evaluate(s, ls, tb, alloc, POWER)
    assert e.value.family == "C4"


def test_evaluate_rejects_routes_to_nodes_that_do_not_serve():
    # v1 serves itself; a well-formed path to v2, or a link that does not
    # start at the source, is no route of a serving node: its traffic would
    # be charged while its shape and delay go unchecked.
    s, ls, tb = _ctx(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0), make_vehicle("v3", 15, 20)],
        traffic=400.0,
    )
    hop = {(l.tx_node, l.rx_node): l.id for l in ls.links if l.medium == Medium.DSRC}
    for extra in (
        {"v2": (hop["v1", "v2"],)},
        {"v2": (hop["v1", "v2"],), "v3": (hop["v2", "v1"],)},
    ):
        alloc = Allocation(
            {"d1": DemandAllocation(("v1",), {"v1": 1.0}, {"v1": (), **extra})}
        )
        with pytest.raises(AllocationError) as e:
            evaluate(s, ls, tb, alloc, POWER)
        assert e.value.family == "C4"


def test_evaluate_rejects_unstable_queue():
    # rho_max * mu of DSRC is ~2137 pkt/s = ~25.65 Mbit/s; a single DSRC hop
    # cannot carry 26 Mbit/s even though raw capacity is 27 Mbit/s.
    s, ls, tb = _ctx(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 5, 0), make_edge("e1", 20, 0)],
        traffic=26000.0,
        setting=ProcessingSetting.VEHICLES_AND_EDGE,
        mips_per_kbps=0.01,
    )
    link = next(l for l in ls.links if l.tx_node == "v1" and l.medium == Medium.DSRC)
    up = next(l for l in ls.links if l.tx_node == "v1" and l.rx_node == "e1")
    alloc = Allocation(
        {"d1": DemandAllocation(("v2", "e1"), {"v2": 0.03, "e1": 0.97},
                                {"v2": (link.id,), "e1": (up.id,)})}
    )
    with pytest.raises(AllocationError) as e:
        evaluate(s, ls, tb, alloc, POWER)
    assert e.value.family == "C7"

