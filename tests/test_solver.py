import ctypes
import dataclasses
import os
import random
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vecop import delaymodel, harness, linkmodel, solver
from vecop.formulation import (
    Allocation,
    AllocationError,
    DemandAllocation,
    evaluate,
    route_links,
    stream_links,
)
from vecop.scenario import (
    POWER_WEIGHTS,
    DemandSpec,
    NodeKind,
    ObjectiveWeights,
    ProcessingSetting,
    ProcessorSpec,
    Scenario,
    Settings,
    generate_default,
    validate,
)
from vecop.solver import (
    Bounds,
    InstanceTooLarge,
    Limits,
    SolverError,
    SolverStopped,
    brute_force,
    greedy_split,
    joint_weights,
    solve,
)

from conftest import (
    edge_relay_scenario,
    make_edge,
    make_vehicle,
    small_scenario,
    two_demand_scenario,
)

POWER = POWER_WEIGHTS
DELAY = ObjectiveWeights(0.0, 1.0)
JOINT = ObjectiveWeights(0.02, 2000.0)


def _ctx(s):
    ls = linkmodel.build_links(s)
    tb = delaymodel.build_tables(s, ls)
    return ls, tb


# ---------------------------------------------------------------------------
# greedy_split
# ---------------------------------------------------------------------------

def test_greedy_split_fills_cheapest_first():
    # v1..v2 both 800 MIPS; marginal costs equal, ties break by id.
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 10, 0)], traffic=1000.0)
    fr = greedy_split(["v1", "v2"], s.demands[0], s)
    assert fr["v1"] == pytest.approx(0.8)
    assert fr["v2"] == pytest.approx(0.2)
    assert sum(fr.values()) == pytest.approx(1.0, abs=0.0)


def test_greedy_split_prefers_lower_marginal_cost():
    # edge: (12.5-2)/1200 = 0.00875 W/MIPS > vehicle: (10-5)/800 = 0.00625
    s = small_scenario(
        [make_vehicle("v1", 0, 0), make_edge("e1", 10, 0)],
        traffic=1000.0,
        setting=ProcessingSetting.VEHICLES_AND_EDGE,
    )
    fr = greedy_split(["v1", "e1"], s.demands[0], s)
    assert fr["v1"] == pytest.approx(0.8)  # 800 of 1000
    assert fr["e1"] == pytest.approx(0.2)


def test_greedy_split_single_node():
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 10, 0)], traffic=400.0)
    assert greedy_split(["v1"], s.demands[0], s) == {"v1": 1.0}


def test_greedy_split_insufficient_capacity():
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 10, 0)], traffic=1000.0)
    with pytest.raises(SolverError, match="insufficient capacity"):
        greedy_split(["v1"], s.demands[0], s)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_prefers_local_processing():
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=400.0)
    ls, tb = _ctx(s)
    r = solve(s, ls, tb, POWER)
    assert r.status == "optimal"
    assert r.total_power == pytest.approx(7.5, abs=1e-9)
    assert r.max_delay == 0.0
    da = r.allocation.demands["d1"]
    assert da.serving == ("v1",)
    assert da.routes == {"v1": ()}


def test_solve_splits_when_overloaded():
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=1000.0)
    ls, tb = _ctx(s)
    r = solve(s, ls, tb, POWER)
    assert r.status == "optimal"
    da = r.allocation.demands["d1"]
    assert da.serving == ("v1", "v2")
    assert da.fractions["v1"] == pytest.approx(0.8)
    assert da.fractions["v2"] == pytest.approx(0.2)
    assert len(da.routes["v2"]) == 1


def test_solve_weight_scale_invariance():
    # Multiplying both weights by a constant preserves the argmin.
    s = small_scenario(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0), make_edge("e1", 15, 10)],
        traffic=1200.0,
        setting=ProcessingSetting.VEHICLES_AND_EDGE,
    )
    ls, tb = _ctx(s)
    r1 = solve(s, ls, tb, JOINT)
    r7 = solve(
        s, ls, tb, ObjectiveWeights(JOINT.w_power * 7.0, JOINT.w_delay * 7.0)
    )
    assert r1.status == r7.status == "optimal"
    assert r7.objective_value == pytest.approx(7.0 * r1.objective_value, rel=1e-9)
    assert r7.total_power == pytest.approx(r1.total_power, rel=1e-9)
    assert r7.max_delay == pytest.approx(r1.max_delay, rel=1e-9)


def test_solve_infeasible_capacity():
    s = small_scenario(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=2000.0
    )
    ls, tb = _ctx(s)
    r = solve(s, ls, tb, POWER)
    assert r.status == "infeasible"
    assert r.infeasible_reason.startswith("C3:")
    assert r.allocation is None


def test_solve_infeasible_routing():
    # Aggregate capacity suffices (2400 >= 2000 MIPS) but the third vehicle
    # is unreachable, so no serving set both fits and routes.
    v1, v2 = make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)
    base = small_scenario([v1, v2, make_vehicle("v3", 40, 0)], traffic=2000.0)
    far = validate(
        dataclasses.replace(
            base,
            lot_width=100000.0,
            nodes=(v1, v2, dataclasses.replace(
                base.nodes[2],
                position=dataclasses.replace(base.nodes[2].position, x=90000.0),
            )),
        )
    )
    ls, tb = _ctx(far)
    r = solve(far, ls, tb, POWER)
    assert r.status == "infeasible"
    assert r.infeasible_reason.startswith("C4/C5")


def test_solve_size_guard():
    nodes = [make_vehicle(f"v{i}", float(i), 0.0) for i in range(1, 14)]
    s = small_scenario(nodes, traffic=400.0)
    ls, tb = _ctx(s)
    with pytest.raises(InstanceTooLarge):
        solve(s, ls, tb, POWER)
    r = solve(s, ls, tb, POWER, Limits(force=True))
    assert r.status == "optimal"


def test_solve_matches_evaluator_exactly(default_scenario, default_linkset, default_tables):
    r = solve(default_scenario, default_linkset, default_tables, POWER)
    assert r.status == "optimal"
    check = evaluate(default_scenario, default_linkset, default_tables, r.allocation, POWER)
    assert check.total_power == r.total_power
    assert check.max_delay == r.max_delay
    assert check.objective_value == r.objective_value


@pytest.mark.parametrize(
    "weights,objective",
    # Optima pinned from the model that gave every link a routing variable.
    [(POWER, 35.71034280251943), (JOINT, 1.055908561094569)],
)
def test_solve_two_demands(weights, objective):
    # Demands at two sources share e1's processor: each overflows its own
    # vehicle, so the split is the shared-capacity LP of _split_for.
    s = two_demand_scenario()
    ls, tb = _ctx(s)
    r = solve(s, ls, tb, weights)
    assert r.status == "optimal"
    assert {d: da.serving for d, da in r.allocation.demands.items()} == {
        "d1": ("e1", "v1"), "d2": ("e1", "v3"),
    }
    check = evaluate(s, ls, tb, r.allocation, weights)
    assert check.objective_value == r.objective_value
    assert check.total_power == r.total_power and check.max_delay == r.max_delay
    assert r.objective_value == pytest.approx(objective, rel=1e-12)


# ---------------------------------------------------------------------------
# joint_weights
# ---------------------------------------------------------------------------

def test_joint_weights_none_when_power_infeasible(monkeypatch):
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=2000.0)
    ls, tb = _ctx(s)
    power = solve(s, ls, tb, POWER)
    assert power.status == "infeasible"

    def no_solve(*args, **kwargs):
        raise AssertionError("no delay pre-solve for an infeasible instance")

    monkeypatch.setattr(solver, "solve", no_solve)
    assert joint_weights(s, ls, tb, power) == (None, None)


def test_joint_weights_power_only_when_delay_optimum_is_zero():
    # 400 kbps fits on the source vehicle: T* = 0.
    s = small_scenario(
        [make_vehicle("v1", 5, 20), make_vehicle("v2", 25, 20)], traffic=400.0, bins=8
    )
    ls, tb = _ctx(s)
    assert joint_weights(s, ls, tb, solve(s, ls, tb, POWER)) == (POWER, None)


def test_joint_weights_power_only_when_the_delay_pre_solve_finds_zero():
    # v1's own processor draws 40-45 W, so the power optimum sends the stream
    # to v2 (T_p > 0); processing at the source still gives T* = 0.
    v1 = dataclasses.replace(make_vehicle("v1", 5, 20), processor=ProcessorSpec(800.0, 40.0, 45.0))
    s = small_scenario([v1, make_vehicle("v2", 25, 20)], traffic=400.0, bins=8)
    ls, tb = _ctx(s)
    power = solve(s, ls, tb, POWER)
    assert power.allocation.demands["d1"].serving == ("v2",)
    assert power.max_delay > 0.0
    assert joint_weights(s, ls, tb, power) == (POWER, None)

def test_joint_weights_normalize_by_both_optima(monkeypatch):
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=1000.0)
    ls, tb = _ctx(s)
    power = solve(s, ls, tb, POWER)
    delay = solve(s, ls, tb, DELAY)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args[3], kwargs["bounds"].delay_cap))
        return solve(*args, **kwargs)

    # The delay pre-solve goes through the module attribute, so wrappers
    # installed on solver.solve observe it.
    monkeypatch.setattr(solver, "solve", counted)
    w, bounds = joint_weights(s, ls, tb, power)
    cap, floor = bounds.delay_cap, bounds.delay_floor
    assert power.max_delay > 0.0
    assert [(c.w_delay, pre_cap) for c, pre_cap in calls] == [
        (1.0, power.max_delay * (1.0 + solver.CAP_MARGIN))
    ]
    assert w == ObjectiveWeights(0.5 / power.total_power, 0.5 / delay.max_delay)
    via_delay = delay.max_delay * delay.total_power / power.total_power
    assert cap == pytest.approx(
        min(power.max_delay, via_delay) * (1.0 + solver.CAP_MARGIN), rel=1e-12
    )
    assert floor == delay.max_delay


def _pre_solve_caps(monkeypatch, s, ls, tb, power):
    """The delay caps of the delay-only solves joint_weights runs, and the
    results of those solves."""
    calls = []

    def recorded(*args, **kwargs):
        result = solve(*args, **kwargs)
        if args[3].w_power == 0.0:
            calls.append((kwargs["bounds"].delay_cap, result))
        return result

    monkeypatch.setattr(solver, "solve", recorded)
    joint_weights(s, ls, tb, power)
    monkeypatch.undo()
    return calls


# At 2000 kbps the nearest allocation serves two remote vehicles, each
# reached over its own first hop.
@pytest.mark.parametrize("kbps", [1000.0, 2000.0])
def test_joint_weights_cap_the_pre_solve_by_the_nearest_allocation(
    default_scenario, kbps, monkeypatch
):
    # Lot 42, vehicles only: the nearest allocation's delay T_h is below T_p,
    # so it caps the one delay-only pre-solve.
    s = harness._with_demand(default_scenario, kbps, ProcessingSetting.VEHICLES_ONLY)
    ls, tb = _ctx(s)
    power = solve(s, ls, tb, POWER)
    nearest = solver._nearest_allocation(s, ls, tb)
    [(cap, _delay)] = _pre_solve_caps(monkeypatch, s, ls, tb, power)
    assert cap == nearest.max_delay * (1.0 + solver.CAP_MARGIN)
    assert cap < power.max_delay * (1.0 + solver.CAP_MARGIN)


def test_joint_weights_cap_several_demands_by_the_power_only_delay(monkeypatch):
    s = two_demand_scenario()
    ls, tb = _ctx(s)
    power = solve(s, ls, tb, POWER)
    assert solver._nearest_allocation(s, ls, tb) is None
    [(cap, delay)] = _pre_solve_caps(monkeypatch, s, ls, tb, power)
    assert cap == power.max_delay * (1.0 + solver.CAP_MARGIN)
    # T is the max over both demands, so T* floors it here too, and the
    # floored joint solve finds the optimum of the plain model.
    w, bounds = joint_weights(s, ls, tb, power)
    assert bounds.delay_floor == delay.max_delay
    floored = solve(s, ls, tb, w, bounds=bounds)
    plain = solve(s, ls, tb, w)
    assert floored.objective_value == pytest.approx(plain.objective_value, rel=1e-9)


def test_capped_pre_solves_report_a_zero_gap(default_scenario, monkeypatch):
    # HiGHS's certificate of each capped delay-only pre-solve on lot 42: no
    # gap, and its dual bound, unscaled, is T*.
    for kbps in (1000.0, 2000.0, 3000.0):
        for setting in ProcessingSetting:
            s = harness._with_demand(default_scenario, kbps, setting)
            ls, tb = _ctx(s)
            [(_cap, delay)] = _pre_solve_caps(monkeypatch, s, ls, tb, solve(s, ls, tb, POWER))
            assert delay.stats.mip_gap == 0.0, (kbps, setting)
            assert delay.stats.mip_dual_bound == pytest.approx(delay.max_delay, rel=1e-6)


@pytest.fixture(scope="module")
def capped_corpus(oracle_corpus):
    """Every oracle seed with T* > 0: the instance, its power-only result,
    its JOINT_EQUAL weights and bounds, and its oracle candidates."""
    corpus = []
    for seed, oracle in enumerate(oracle_corpus):
        s, ls, tb = oracle.scenario, oracle.linkset, oracle.tables
        power = solve(s, ls, tb, POWER)
        w, bounds = joint_weights(s, ls, tb, power)
        if w is not None and w.w_delay != 0.0:
            corpus.append((seed, s, ls, tb, power, w, bounds, oracle))
    assert corpus
    return corpus


def test_joint_weights_capped_path_matches_oracle(capped_corpus):
    # Every oracle seed with T* > 0: the nearest allocation is feasible and
    # no faster than T*, the capped delay pre-solve finds T*, which is the
    # floor, and the capped and floored joint solve the joint optimum that
    # the oracle finds.
    for seed, s, ls, tb, _power, w, bounds, oracle in capped_corpus:
        cap, floor = bounds.delay_cap, bounds.delay_floor
        t_star = oracle.best(DELAY).max_delay
        nearest = solver._nearest_allocation(s, ls, tb)
        assert nearest is not None, f"seed {seed}"
        assert evaluate(s, ls, tb, nearest.allocation, DELAY).max_delay == nearest.max_delay
        assert nearest.max_delay >= t_star, f"seed {seed}"
        assert 0.5 / w.w_delay == pytest.approx(t_star, rel=1e-9), f"seed {seed}"
        assert floor == pytest.approx(t_star, rel=1e-12), f"seed {seed}"
        joint = solve(s, ls, tb, w, bounds=bounds)
        assert joint.status == "optimal"
        assert floor <= joint.max_delay <= cap
        assert joint.objective_value == pytest.approx(
            oracle.best(w).objective_value, rel=1e-9
        ), f"seed {seed}"
        # HiGHS's certificate holds under the floor: no gap.
        assert joint.stats.mip_dual_bound == pytest.approx(
            joint.objective_value, rel=1e-9
        ), f"seed {seed}"


def test_first_hop_floor_proves_only_the_oracle_optimum(oracle_corpus):
    # Whenever the first-hop bound proves that no allocation beats the
    # nearest allocation's delay T_h, T_h is the oracle's T*. And it never
    # claims that no allocation beats a delay just above T*. It proves T_h
    # on all 56 seeds with T* > 0.
    proven = 0
    for seed, oracle in enumerate(oracle_corpus):
        s, ls, tb = oracle.scenario, oracle.linkset, oracle.tables
        t_star = oracle.best(DELAY).max_delay
        if t_star == 0.0:
            continue
        assert not solver._first_hop_floor(s, ls, tb, t_star * (1.0 + 1e-6)), f"seed {seed}"
        nearest = solver._nearest_allocation(s, ls, tb)
        if nearest is not None and solver._first_hop_floor(s, ls, tb, nearest.max_delay):
            assert nearest.max_delay == t_star, f"seed {seed}"
            proven += 1
    assert proven == 56


def test_power_floor_proves_only_the_oracle_optimum(oracle_corpus):
    # The shared-idle power bound never claims that no allocation draws
    # less than just above the oracle's power optimum, and every power-only
    # result that solve certifies with it is the oracle's optimum, to the
    # last bit. It certifies 70 of the 100 seeds.
    certified = 0
    for seed, oracle in enumerate(oracle_corpus):
        s, ls, tb = oracle.scenario, oracle.linkset, oracle.tables
        best = oracle.best(POWER)
        if best.status == "optimal":
            assert not solver._power_floor(s, ls, tb, best.total_power * (1.0 + 1e-6)), seed
        got = solve(s, ls, tb, POWER)
        if got.stats.certified_by is not None:
            assert (got.status, repr(got.total_power)) == (
                best.status, repr(best.total_power)
            ), f"seed {seed}"
            certified += 1
    assert certified == 70


def test_power_floor_counts_a_shared_radio_once():
    # 2000 kbps needs all three vehicles, and both remote streams leave on
    # v1's DSRC radio, whose idle power the optimum draws once. A bound
    # that charges that radio to each stream in full passes the oracle
    # corpus tests, but here it would prove a power just above the optimum.
    s = small_scenario(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0), make_vehicle("v3", 0, 30)],
        traffic=2000.0,
        bins=8,
    )
    ls, tb = _ctx(s)
    best = brute_force(s, ls, tb, POWER)
    assert len(best.allocation.demands["d1"].serving) == 3
    assert not solver._power_floor(s, ls, tb, best.total_power * (1.0 + 1e-6))
    got = solve(s, ls, tb, POWER)
    assert got.stats.certified_by == "floors"
    assert repr(got.total_power) == repr(best.total_power)


def test_first_hop_floor_proves_nothing_past_its_work_limit(default_scenario, monkeypatch):
    # Lot 42 at 3000 kbps vehicles-only: T_h is proven within the limit,
    # and not when the search may take only 10 steps.
    s = harness._with_demand(default_scenario, 3000.0, ProcessingSetting.VEHICLES_ONLY)
    ls, tb = _ctx(s)
    t_h = solver._nearest_allocation(s, ls, tb).max_delay
    assert solver._first_hop_floor(s, ls, tb, t_h)
    monkeypatch.setattr(solver, "FLOOR_WORK_LIMIT", 10)
    assert not solver._first_hop_floor(s, ls, tb, t_h)


def test_joint_delay_floor_never_exceeds_the_cap(capped_corpus):
    # The floor T* is the delay-only optimum; the cap is at least T* because
    # T_p >= T* and P_d >= P*. So the floor removes no allocation.
    for seed, _s, _ls, _tb, power, w, bounds, _oracle in capped_corpus:
        cap, floor = bounds.delay_cap, bounds.delay_floor
        assert 0.0 < floor <= cap, f"seed {seed}"
        assert floor <= power.max_delay, f"seed {seed}"
        assert floor == pytest.approx(0.5 / w.w_delay, rel=1e-12), f"seed {seed}"
        # The witness is an allocation under the cap.
        assert floor <= bounds.witness.max_delay <= cap, f"seed {seed}"


def test_stream_links_keep_every_path_under_both_caps(capped_corpus):
    # Under T_p, which caps the delay-only pre-solve without a nearer
    # allocation, and under the joint cap: every link of every simple path
    # whose floor delay (queues at the stream's own rate) fits a cap stays
    # in that stream's arc set.
    fitting = dropped = 0
    for seed, s, ls, tb, power, _w, bounds, _oracle in capped_corpus:
        (d,) = s.demands
        pps = delaymodel.packets_per_second(d.traffic * 1000.0, s.settings.packet_size)
        for cap in (power.max_delay * (1.0 + solver.CAP_MARGIN), bounds.delay_cap):
            streams = stream_links(s, ls, tb, cap)
            for (_d, n), links in streams.items():
                kept = {l.id for l in links}
                dropped += len(route_links(ls, d.source, n)) - len(kept)
                for path in solver._all_simple_paths(ls, d.source, n):
                    floor = sum(
                        ls.link(l).prop_delay + ls.link(l).tx_delay_per_packet
                        + delaymodel.lookup(tb[l], pps)
                        for l in path
                    )
                    if floor <= cap:
                        fitting += 1
                        assert set(path) <= kept, f"seed {seed}, target {n}, cap {cap!r}"
    assert fitting > 0 and dropped > 0


def test_solve_raises_when_the_cap_cuts_off_every_allocation():
    # 1000 kbps overloads v1, so every allocation ships a stream to v2.
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=1000.0)
    ls, tb = _ctx(s)
    with pytest.raises(SolverError, match="delay_cap=0.0"):
        solve(s, ls, tb, JOINT, bounds=Bounds(delay_cap=0.0))


def _highs_reports_infeasible(monkeypatch):
    """Every later milp call solves, then reports the model infeasible."""
    real = solver.milp

    def infeasible(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status, res.success, res.message = 2, False, "Infeasible"
        return res

    monkeypatch.setattr(solver, "milp", infeasible)


def test_solve_raises_when_highs_finds_nothing_under_the_power_cap(monkeypatch):
    # The power cap is the power of an allocation that evaluate accepted,
    # so an "infeasible" under it is HiGHS's error, not the instance's. No
    # power floor certifies that allocation, so HiGHS runs.
    s = edge_relay_scenario()
    ls, tb = _ctx(s)
    bounds = solver.power_bounds(s, ls, tb, POWER)
    reference = bounds.witness
    assert reference is not None and bounds.power_floor is None
    _highs_reports_infeasible(monkeypatch)
    with pytest.raises(SolverError, match=f"power_cap={reference.total_power!r}"):
        solve(s, ls, tb, POWER)


def test_solve_raises_when_highs_misses_a_feasible_nearest_allocation(monkeypatch):
    # Without a cap (a delay weight) nothing bounds the model, yet the
    # nearest allocation passes the evaluator: an "infeasible" from HiGHS is
    # then HiGHS's error, not the instance's.
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=1000.0)
    ls, tb = _ctx(s)
    assert solver.power_bounds(s, ls, tb, DELAY) == Bounds()
    nearest = solver._nearest_allocation(s, ls, tb)
    assert nearest is not None
    _highs_reports_infeasible(monkeypatch)
    with pytest.raises(SolverError, match=f"max delay {nearest.max_delay!r} s"):
        solve(s, ls, tb, DELAY)
    with pytest.raises(SolverError, match=f"max delay {nearest.max_delay!r} s"):
        solve(s, ls, tb, JOINT)


def test_solve_raises_under_the_witness_of_several_demands(monkeypatch):
    # Two demands have no nearest allocation, so only the witness that
    # joint_weights hands over, the power-only optimum or the delay-only
    # one, turns an "infeasible" from HiGHS into an error, on the pre-solve
    # and on the joint solve alike. At 800 kbps d1 fits on v1, and the
    # power-only optimum is slower than T*: no floor certifies the joint
    # solve, so HiGHS runs it.
    base = two_demand_scenario()
    s = validate(
        dataclasses.replace(base, demands=(DemandSpec("d1", "v1", 800.0), base.demands[1]))
    )
    ls, tb = _ctx(s)
    assert solver._nearest_allocation(s, ls, tb) is None
    power = solve(s, ls, tb, POWER)
    w, bounds = joint_weights(s, ls, tb, power)
    witness = bounds.witness
    assert witness is not None
    _highs_reports_infeasible(monkeypatch)
    with pytest.raises(SolverError, match=f"max delay {witness.max_delay!r} s"):
        solve(s, ls, tb, w, bounds=bounds)
    with pytest.raises(SolverError, match=f"max delay {power.max_delay!r} s"):
        joint_weights(s, ls, tb, power)


@pytest.mark.parametrize(
    "kbps, setting, arcs",
    [
        (1000.0, ProcessingSetting.VEHICLES_ONLY, (511, 1)),
        (1000.0, ProcessingSetting.VEHICLES_AND_EDGE, (657, 9)),
        (1000.0, ProcessingSetting.CLOUD_ONLY, (83, 4)),
        (3000.0, ProcessingSetting.VEHICLES_AND_EDGE, (657, 611)),
        (6000.0, ProcessingSetting.VEHICLES_ONLY, (511, None)),
    ],
)
def test_power_cap_prunes_the_default_lot(kbps, setting, arcs):
    # r variables of lot 42's power-only model without and with the cap
    # solve() formulates under. At 3000 kbps vehicles-and-edge the bound
    # drops only the detours through the other access point. At 6000 kbps
    # vehicles-only the reference allocation, all eight vehicles, breaks a
    # shared budget, so there is no cap.
    s = harness._with_demand(generate_default(42), kbps, setting)
    ls, tb = _ctx(s)
    cap = solver.power_bounds(s, ls, tb, POWER).power_cap
    counts = [
        len(solver.formulate(s, ls, tb, POWER, Bounds(power_cap=c)).metadata["r"])
        for c in (None, cap)
    ]
    assert (counts[0], None if cap is None else counts[1]) == arcs


def test_solve_raises_on_a_non_optimal_highs_exit(monkeypatch):
    s = edge_relay_scenario()
    ls, tb = _ctx(s)
    real = solver.milp

    def time_limit(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status, res.success, res.message = 1, False, "Time limit reached."
        return res

    monkeypatch.setattr(solver, "milp", time_limit)
    with pytest.raises(SolverStopped, match="status 1: Time limit reached"):
        solve(s, ls, tb, POWER)


def test_only_the_feasibility_jump_warning_is_silenced():
    # solver's filter silences scipy's warning about the one option solve
    # adds; an unrecognized option set that differs still warns. In a fresh
    # interpreter, as pytest resets warning filters after collection.
    child = (
        "import numpy as np\n"
        "from scipy.optimize import Bounds\n"
        "from vecop import solver\n"
        "def call(options):\n"
        "    solver.milp(np.ones(1), bounds=Bounds(0, 1), options=options)\n"
        "call({'mip_heuristic_run_feasibility_jump': False})\n"
        "try:\n"
        "    call({'mip_heuristic_run_feasibility_jump': False, 'mip_heuristic_effort': 0.05})\n"
        "except RuntimeWarning as w:\n"
        "    print(w)\n"
    )
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", child],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("Unrecognized options detected: ")
    assert "mip_heuristic_effort" in run.stdout


def test_solve_scales_a_power_only_objective_to_the_peak(monkeypatch):
    # A power-only objective of tens of watts reaches HiGHS scaled up like
    # any other, so its 1e-6 pruning gap is 1e-6 of OBJECTIVE_PEAK.
    s = edge_relay_scenario()
    ls, tb = _ctx(s)
    real = solver.milp
    peaks = []

    def seen(c, *args, **kwargs):
        peaks.append(np.abs(c).max())
        return real(c, *args, **kwargs)

    monkeypatch.setattr(solver, "milp", seen)
    assert solve(s, ls, tb, POWER).status == "optimal"
    assert peaks == [pytest.approx(solver.OBJECTIVE_PEAK, rel=1e-12)]


def test_solve_keeps_highs_prints_off_stdout(monkeypatch, capfd):
    # HiGHS can print from C to file descriptor 1 during a solve; a Python
    # caller's stdout must not receive it.
    real = solver.milp

    def noisy(*args, **kwargs):
        ctypes.CDLL(None).printf(b"C-LEVEL DIAGNOSTIC\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "milp", noisy)
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=1000.0)
    ls, tb = _ctx(s)
    assert solve(s, ls, tb, JOINT).status == "optimal"
    captured = capfd.readouterr()
    assert captured.out == ""
    assert "C-LEVEL DIAGNOSTIC" in captured.err


def test_stdout_redirect_is_shared_by_threads(capfd):
    # More threads than cores enter and leave the redirect at once: inside
    # it fd 1 is always stderr, and the last one out restores it.
    stderr = os.fstat(2)
    wrong = []

    def enter_and_leave():
        for _ in range(200):
            with solver._stdout_to_stderr():
                inside = os.fstat(1)
                if (inside.st_dev, inside.st_ino) != (stderr.st_dev, stderr.st_ino):
                    wrong.append(inside)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [] and solver._redirect_users == 0
    os.write(1, b"after\n")
    assert capfd.readouterr().out == "after\n"


# ---------------------------------------------------------------------------
# brute_force
# ---------------------------------------------------------------------------

def test_brute_force_guards():
    nodes = [make_vehicle(f"v{i}", float(i), 0.0) for i in range(1, 8)]
    s = small_scenario(nodes, traffic=400.0)
    ls, tb = _ctx(s)
    with pytest.raises(InstanceTooLarge):
        brute_force(s, ls, tb, POWER)
    s = two_demand_scenario()
    assert len(s.nodes) <= solver.BRUTE_FORCE_MAX_NODES
    with pytest.raises(SolverError, match="single demand"):
        solver.oracle_candidates(s, *_ctx(s))


def test_brute_force_local():
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=400.0)
    ls, tb = _ctx(s)
    r = brute_force(s, ls, tb, POWER)
    assert r.status == "optimal"
    assert r.total_power == pytest.approx(7.5, abs=1e-9)
    assert r.allocation.demands["d1"].serving == ("v1",)


def test_brute_force_infeasible_reason():
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=2000.0)
    ls, tb = _ctx(s)
    r = brute_force(s, ls, tb, POWER)
    assert r.status == "infeasible"
    assert r.infeasible_reason.startswith("C3")


def test_routing_infeasible_reason():
    # 1700 MIPS is more than v1 and v2 hold (1600) but within all three
    # (2400), and v3 is out of DSRC range: no link reaches it. The capacity
    # pre-check passes, so HiGHS proves the model infeasible.
    s = validate(
        Scenario(
            lot_width=1000.0,
            lot_height=1000.0,
            nodes=(make_vehicle("v1", 0, 0), make_vehicle("v2", 20, 0),
                   make_vehicle("v3", 900, 900)),
            demands=(DemandSpec(id="d1", source="v1", traffic=1700.0),),
            settings=Settings(processing_setting=ProcessingSetting.VEHICLES_ONLY),
        )
    )
    ls, tb = _ctx(s)
    b = brute_force(s, ls, tb, POWER)
    assert b.status == "infeasible"
    assert b.infeasible_reason.startswith("C4/C5: no feasible routing")
    a = solve(s, ls, tb, POWER)
    assert a.status == "infeasible"
    assert a.infeasible_reason.startswith("C4/C5/C7: ")
    # No nearest allocation either, so HiGHS's proof stands, with a delay
    # weight too.
    assert solver._nearest_allocation(s, ls, tb) is None
    assert solve(s, ls, tb, DELAY).status == "infeasible"


def test_power_only_is_exact_across_the_access_point_tie():
    # Cloud-only at 1000 kbps: the stream reaches the cloud over either AP,
    # and the two allocations' powers are about 1e-11 of the power apart,
    # within HiGHS's absolute tolerances unless the objective is scaled far
    # enough up. The reported optimum may not be the worse of them. Pairs
    # under 1e-12 apart are still a tie to HiGHS at OBJECTIVE_PEAK, and it
    # took the worse AP on lots 17, 34, 81, 120 and 122 (1.5e-13 to 7.5e-13
    # of the power apart). The power floor certifies the reference
    # allocation, the better AP, before HiGHS runs.
    for lot in (*range(10), 17, 34, 81, 120, 122):
        s = harness._with_demand(generate_default(lot), 1000.0, ProcessingSetting.CLOUD_ONLY)
        ls, tb = _ctx(s)
        got = solve(s, ls, tb, POWER)
        assert got.status == "optimal"
        (d,) = s.demands
        powers = []
        for first in ls.out_links(d.source):
            if s.node(first.rx_node).kind != NodeKind.EDGE:
                continue
            for second in ls.out_links(first.rx_node):
                if second.rx_node != "cloud":
                    continue
                alloc = Allocation(
                    {d.id: DemandAllocation(("cloud",), {"cloud": 1.0},
                                            {"cloud": (first.id, second.id)})}
                )
                powers.append(evaluate(s, ls, tb, alloc, POWER).total_power)
        assert len(powers) >= 2, f"lot {lot}"
        assert got.total_power <= min(powers), f"lot {lot}: {got.total_power!r} > {powers!r}"


# w_power = 0, w_delay = 0, and w_delay / w_power from 1e-4 to 1e6 (at
# JOINT_EQUAL's scale, tens of watts and hundreds of microseconds, the
# delay term goes from negligible to dominant).
CUSTOM_WEIGHTS = st.one_of(
    st.floats(1e-3, 1e3).map(lambda w: ObjectiveWeights(0.0, w)),
    st.floats(1e-3, 1e3).map(lambda w: ObjectiveWeights(w, 0.0)),
    st.floats(-4.0, 6.0).map(lambda r: ObjectiveWeights(1.0, 10.0**r)),
)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=st.integers(0, 99), weights=CUSTOM_WEIGHTS)
def test_solve_matches_the_oracle_at_any_weights(oracle_corpus, seed, weights):
    oracle = oracle_corpus[seed]
    a = solve(oracle.scenario, oracle.linkset, oracle.tables, weights)
    b = oracle.best(weights)
    assert a.status == b.status
    if a.status == "optimal":
        assert a.objective_value == pytest.approx(b.objective_value, rel=1e-6)


def _capacity_bound_instance(seed):
    """3-4 vehicles, an edge node half the time, and 9-14 Mbit/s on 27
    Mbit/s DSRC radios: routes that share a link or an interface overload it."""
    rng = random.Random(seed)
    nodes = [
        make_vehicle(f"v{i + 1}", round(rng.uniform(0, 40), 3), round(rng.uniform(0, 40), 3))
        for i in range(rng.randint(3, 4))
    ]
    setting = ProcessingSetting.VEHICLES_ONLY
    if rng.random() < 0.5:
        nodes.append(make_edge("e1", round(rng.uniform(0, 40), 3), round(rng.uniform(0, 40), 3)))
        setting = ProcessingSetting.VEHICLES_AND_EDGE
    traffic = rng.choice([9000.0, 12000.0, 14000.0])
    return small_scenario(nodes, traffic=traffic, setting=setting, mips_per_kbps=0.15, bins=8)


@pytest.mark.parametrize("seed", range(8))
def test_solve_matches_oracle_where_capacities_bind(seed, monkeypatch):
    rejected = 0

    def counting_evaluate(*args):
        nonlocal rejected
        try:
            return evaluate(*args)
        except AllocationError:
            rejected += 1
            raise

    monkeypatch.setattr(solver, "evaluate", counting_evaluate)
    s = _capacity_bound_instance(seed)
    ls, tb = _ctx(s)
    oracle = solver.oracle_candidates(s, ls, tb)
    assert rejected > 0, "no candidate hit a capacity: the instance binds nothing"
    # The power cap's floors ignore the C5 and C7 budgets that bind here.
    for w in (POWER, JOINT, DELAY):
        b = oracle.best(w)
        a = solve(s, ls, tb, w)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.objective_value == pytest.approx(b.objective_value, rel=1e-6)

@pytest.mark.parametrize("seed", [6, 11, 23, 81])
def test_delay_only_matches_oracle(seed, oracle_corpus):
    # A delay-only objective is a few hundred microseconds in seconds, below
    # HiGHS's pruning tolerance unless solve() rescales it; on these seeds an
    # unscaled solve stops at a route up to 0.04 us slower than the optimum.
    oracle = oracle_corpus[seed]
    a = solve(oracle.scenario, oracle.linkset, oracle.tables, DELAY)
    b = oracle.best(DELAY)
    assert a.status == b.status == "optimal"
    assert a.max_delay == pytest.approx(b.max_delay, rel=1e-9)
