import pytest

from vecop.formulation import Allocation, DemandAllocation
from vecop.powermodel import device_power, device_specs, system_power
from vecop.scenario import Medium, ProcessingSetting, ProcessorSpec

from conftest import make_cloud, make_edge, make_vehicle, small_scenario

TOL = 1e-12


def _local_alloc(demand_id="d1", node="v1"):
    return Allocation(
        {demand_id: DemandAllocation(serving=(node,), fractions={node: 1.0}, routes={node: ()})}
    )


def _price(s, ls, alloc):
    return system_power(s, ls, alloc.link_traffic(s), alloc.processing_mips(s))


def test_device_power_formula():
    spec = ProcessorSpec(capacity=800.0, power_idle=5.0, power_max=10.0)
    assert device_power(spec, 0.0) == 5.0
    assert device_power(spec, 1.0) == 10.0
    assert device_power(spec, 0.5) == 7.5
    # radiated component scales with utilization on top of the span
    assert device_power(spec, 0.5, radiated_component=0.2) == pytest.approx(7.6, abs=TOL)


def test_device_specs_ids(default_scenario):
    specs = device_specs(default_scenario)
    assert "v1.cpu" in specs and "v1.dsrc" in specs and "v1.wifi" in specs
    assert "e1.cpu" in specs and "e1.wifi" in specs and "e1.onu" in specs
    assert "cloud.cpu" in specs
    assert "cloud.port" not in specs  # covered by the core per-bit adder
    assert specs["e1.onu"].capacity == 3.75e9


def test_local_processing_only_cpu_draws():
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 10, 0)], traffic=400.0)
    from vecop.linkmodel import build_links

    ls = build_links(s)
    pb = _price(s, ls, _local_alloc())
    # 400 MIPS on an 800-MIPS vehicle: 5 + 5*0.5 = 7.5 W, nothing else active
    assert pb.per_device == {"v1.cpu": pytest.approx(7.5, abs=TOL)}
    assert pb.total == pytest.approx(7.5, abs=TOL)


def test_remote_dsrc_30m_power():
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)], traffic=400.0)
    from vecop.linkmodel import build_links

    ls = build_links(s)
    link = next(l for l in ls.links if l.tx_node == "v1" and l.medium == Medium.DSRC)
    alloc = Allocation(
        {"d1": DemandAllocation(serving=("v2",), fractions={"v2": 1.0}, routes={"v2": (link.id,)})}
    )
    pb = _price(s, ls, alloc)
    # frozen: u = 400e3/27e6; tx = 1 + 0.8u + u*rad(30 m); rx = 1 + 0.8u
    assert pb.per_device["v1.dsrc"] == pytest.approx(1.011868131415495, abs=1e-12)
    assert pb.per_device["v2.dsrc"] == pytest.approx(1.0118518518518518, abs=1e-12)
    assert pb.per_device["v2.cpu"] == pytest.approx(7.5, abs=TOL)
    assert "v1.cpu" not in pb.per_device
    assert pb.total == pytest.approx(9.523719983267346, abs=1e-12)


def test_core_energy_on_fiber():
    s = small_scenario(
        [make_vehicle("v1", 0, 0), make_edge("e1", 10, 0), make_cloud()],
        traffic=1000.0,
        setting=ProcessingSetting.CLOUD_ONLY,
    )
    from vecop.linkmodel import build_links

    ls = build_links(s)
    up = next(l for l in ls.links if l.tx_node == "v1" and l.rx_node == "e1")
    fiber = next(l for l in ls.links if l.medium == Medium.FIBER)
    alloc = Allocation(
        {
            "d1": DemandAllocation(
                serving=("cloud",),
                fractions={"cloud": 1.0},
                routes={"cloud": (up.id, fiber.id)},
            )
        }
    )
    pb = _price(s, ls, alloc)
    # 1 Mbit/s crossing the core at 2e-8 J/bit = 0.02 W
    assert pb.per_device["core"] == pytest.approx(0.02, abs=TOL)
    assert pb.per_device["cloud.cpu"] == pytest.approx(150.0 + 150.0 * 1000.0 / 50000.0, abs=TOL)
    assert "e1.onu" in pb.per_device and "e1.wifi" in pb.per_device and "v1.wifi" in pb.per_device


def test_interface_aggregation_shares_idle():
    # Two streams through the same AP radio must charge its idle power once.
    s = small_scenario(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 5, 0), make_edge("e1", 10, 0)],
        traffic=400.0,
        setting=ProcessingSetting.VEHICLES_AND_EDGE,
    )
    from vecop.linkmodel import build_links

    ls = build_links(s)
    l_v1e1 = next(l for l in ls.links if l.tx_node == "v1" and l.rx_node == "e1")
    alloc_one = Allocation(
        {"d1": DemandAllocation(("e1",), {"e1": 1.0}, {"e1": (l_v1e1.id,)})}
    )
    pb = _price(s, ls, alloc_one)
    spec = device_specs(s)["e1.wifi"]
    u = 400e3 / spec.capacity
    assert pb.per_device["e1.wifi"] == pytest.approx(5.5 + (25.0 - 5.5) * u, abs=1e-9)

