import dataclasses
import random

import pytest

from vecop import delaymodel, linkmodel, solver
from vecop.scenario import (
    CLOUD_PROCESSOR,
    EDGE_AP_WIFI,
    EDGE_ONU,
    EDGE_PROCESSOR,
    VEHICLE_DSRC,
    VEHICLE_PROCESSOR,
    VEHICLE_WIFI,
    DemandSpec,
    NodeKind,
    NodeSpec,
    Position,
    ProcessingSetting,
    Scenario,
    Settings,
    generate_default,
    validate,
)


@pytest.fixture(scope="session")
def default_scenario():
    return generate_default(42)


@pytest.fixture(scope="session")
def default_linkset(default_scenario):
    return linkmodel.build_links(default_scenario)


@pytest.fixture(scope="session")
def default_tables(default_scenario, default_linkset):
    return delaymodel.build_tables(default_scenario, default_linkset)


def make_vehicle(node_id: str, x: float, y: float) -> NodeSpec:
    return NodeSpec(
        id=node_id,
        kind=NodeKind.VEHICLE,
        processor=VEHICLE_PROCESSOR,
        position=Position(x, y),
        radios=(VEHICLE_DSRC, VEHICLE_WIFI),
    )


def make_edge(node_id: str, x: float, y: float) -> NodeSpec:
    return NodeSpec(
        id=node_id,
        kind=NodeKind.EDGE,
        processor=EDGE_PROCESSOR,
        position=Position(x, y),
        radios=(EDGE_AP_WIFI,),
        onu=EDGE_ONU,
    )


def make_cloud(fiber_length: float = 250e3) -> NodeSpec:
    return NodeSpec(
        id="cloud", kind=NodeKind.CLOUD, processor=CLOUD_PROCESSOR, fiber_length=fiber_length
    )


def small_scenario(
    nodes, traffic: float = 400.0, setting=ProcessingSetting.VEHICLES_ONLY, **settings_kw
) -> Scenario:
    return validate(
        Scenario(
            lot_width=40.0,
            lot_height=40.0,
            nodes=tuple(nodes),
            demands=(DemandSpec(id="d1", source="v1", traffic=traffic),),
            settings=Settings(processing_setting=setting, **settings_kw),
        )
    )


def two_demand_scenario() -> Scenario:
    """Demands at v1 and v3 that each overflow their own vehicle and share
    e1's processor."""
    base = small_scenario(
        [make_vehicle("v1", 5, 5), make_vehicle("v2", 20, 8), make_vehicle("v3", 35, 30),
         make_vehicle("v4", 12, 33), make_edge("e1", 20, 20)],
        setting=ProcessingSetting.VEHICLES_AND_EDGE,
        bins=8,
    )
    return validate(
        dataclasses.replace(
            base, demands=(DemandSpec("d1", "v1", 1000.0), DemandSpec("d2", "v3", 1500.0))
        )
    )


def edge_relay_scenario() -> Scenario:
    """1200 kbps from v1, vehicles and edge, whose power-only solve still
    reaches HiGHS: the optimum serves e1 over one hop, but the power floor
    leaves out the idle power of e1's radio on the path v1 -> e1 -> v2 (e1
    may serve, so the radio may be a member's own), which prices v1 and v2
    together below the optimum."""
    return small_scenario(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0), make_edge("e1", 20, 20)],
        traffic=1200.0,
        setting=ProcessingSetting.VEHICLES_AND_EDGE,
        bins=8,
    )


def random_oracle_instance(seed: int) -> Scenario:
    """Small random instance for solver cross-checks: 2-4 vehicles,
    0-1 edge, 0-1 cloud (cloud only alongside an edge), one demand."""
    rng = random.Random(seed)
    n_veh = rng.randint(2, 4)
    has_edge = rng.random() < 0.5
    has_cloud = has_edge and rng.random() < 0.5
    nodes = [
        make_vehicle(f"v{i + 1}", round(rng.uniform(0, 40), 3), round(rng.uniform(0, 40), 3))
        for i in range(n_veh)
    ]
    if has_edge:
        nodes.append(make_edge("e1", round(rng.uniform(0, 40), 3), round(rng.uniform(0, 40), 3)))
    if has_cloud:
        nodes.append(make_cloud())
    setting = (
        ProcessingSetting.VEHICLES_AND_EDGE if has_edge else ProcessingSetting.VEHICLES_ONLY
    )
    traffic = rng.choice([400.0, 800.0, 1200.0, 1600.0])
    cap = sum(
        n.processor.capacity
        for n in nodes
        if n.kind == NodeKind.VEHICLE or (has_edge and n.kind == NodeKind.EDGE)
    )
    traffic = min(traffic, cap * 0.9)
    return small_scenario(nodes, traffic=traffic, setting=setting, bins=8)


@pytest.fixture(scope="session")
def oracle_corpus():
    """solver.oracle_candidates of random_oracle_instance(seed) for seeds
    0-99, indexed by seed: the one enumeration that every oracle comparison
    on these seeds picks from."""
    corpus = []
    for seed in range(100):
        s = random_oracle_instance(seed)
        ls = linkmodel.build_links(s)
        corpus.append(solver.oracle_candidates(s, ls, delaymodel.build_tables(s, ls)))
    return corpus
