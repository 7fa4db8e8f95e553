import pytest

from vecop.linkmodel import (
    build_links,
    dbm_to_watts,
    fspl_db,
    required_tx_dbm,
)
from vecop.scenario import Medium, ProcessingSetting, ScenarioError

from conftest import make_cloud, make_edge, make_vehicle, small_scenario

TOL = 1e-12


def test_fspl_frozen_values():
    # Frozen against an independent evaluation of 20log10(d)+20log10(f)-147.55.
    assert fspl_db(56.57, 5.9e9) == pytest.approx(82.91876380765109, abs=TOL)
    assert fspl_db(40.0, 2.4e9) == pytest.approx(72.09542466079137, abs=TOL)
    assert fspl_db(1.0, 5.9e9) == pytest.approx(47.867040232842896, abs=TOL)
    assert fspl_db(30.0, 5.9e9) == pytest.approx(77.40946532723615, abs=TOL)


def test_fspl_rejects_nonpositive():
    with pytest.raises(ValueError):
        fspl_db(0.0, 5.9e9)
    with pytest.raises(ValueError):
        fspl_db(10.0, 0.0)


def test_required_tx_frozen_values():
    assert required_tx_dbm(56.57, 5.9e9, -77.0) == pytest.approx(
        5.918763807651089, abs=TOL
    )
    assert required_tx_dbm(40.0, 2.4e9, -104.0) == pytest.approx(
        -31.904575339208634, abs=TOL
    )
    assert required_tx_dbm(30.0, 5.9e9, -77.0) == pytest.approx(
        0.40946532723614837, abs=TOL
    )
    # margin shifts the requirement one-for-one
    assert required_tx_dbm(30.0, 5.9e9, -77.0, margin=3.0) == pytest.approx(
        3.40946532723614837, abs=1e-9
    )


def test_dbm_to_watts_frozen_values():
    assert dbm_to_watts(22.0) == pytest.approx(0.15848931924611143, abs=TOL)
    assert dbm_to_watts(14.0) == pytest.approx(0.025118864315095794, abs=TOL)
    assert dbm_to_watts(0.0) == 0.001
    assert dbm_to_watts(30.0) == pytest.approx(1.0, abs=TOL)


def test_default_graph_census(default_scenario, default_linkset):
    links = default_linkset.links
    # 8 vehicles x 7 peers DSRC + 8x2x2 vehicle<->AP WiFi + 2 AP<->AP + 2 fiber
    assert len(links) == 92
    assert sum(1 for l in links if l.medium == Medium.DSRC) == 56
    assert sum(1 for l in links if l.medium == Medium.WIFI) == 34
    assert sum(1 for l in links if l.medium == Medium.FIBER) == 2
    assert [l.id for l in links] == [f"l{i:03d}" for i in range(92)]


def test_all_budgets_close_in_40m_lot(default_scenario, default_linkset):
    # Worst case in a 40x40 lot is the 56.57 m diagonal; both radios close it.
    for l in default_linkset.links:
        if l.medium == Medium.FIBER:
            continue
        tx = default_scenario.node(l.tx_node).radio(l.medium)
        assert l.radiated_power <= dbm_to_watts(tx.tx_power_max) * (1 + 1e-12)


def test_power_control_uses_minimum_radiated(default_linkset, default_scenario):
    for l in default_linkset.links:
        if l.medium == Medium.FIBER:
            assert l.radiated_power == 0.0
            continue
        rx = default_scenario.node(l.rx_node).radio(l.medium)
        need = required_tx_dbm(max(l.distance, 1.0),
                               default_scenario.node(l.tx_node).radio(l.medium).freq,
                               rx.rx_sensitivity, rx.link_margin)
        assert l.radiated_power == pytest.approx(dbm_to_watts(need), rel=1e-12)


def test_vehicle_pair_30m_radiated():
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 30, 0)])
    ls = build_links(s)
    dsrc = [l for l in ls.links if l.medium == Medium.DSRC]
    assert len(dsrc) == 2
    assert dsrc[0].distance == pytest.approx(30.0)
    assert dsrc[0].radiated_power == pytest.approx(0.0010988705459060043, abs=1e-15)


def test_min_budget_distance_floor():
    # Co-located nodes evaluate the budget at 1 m instead of diverging.
    s = small_scenario([make_vehicle("v1", 5, 5), make_vehicle("v2", 5, 5)])
    ls = build_links(s)
    dsrc = [l for l in ls.links if l.medium == Medium.DSRC]
    assert dsrc[0].distance == 0.0
    expected = dbm_to_watts(required_tx_dbm(1.0, 5.9e9, -77.0))
    assert dsrc[0].radiated_power == pytest.approx(expected, rel=1e-12)


def test_out_of_range_link_omitted():
    v1 = make_vehicle("v1", 0, 0)
    v2 = make_vehicle("v2", 30, 0)
    wide = small_scenario([v1, v2], traffic=400.0)
    import dataclasses
    far = dataclasses.replace(
        wide,
        lot_width=100000.0,
        lot_height=100000.0,
        nodes=(v1, dataclasses.replace(v2, id="v2", position=dataclasses.replace(v2.position, x=90000.0))),
    )
    from vecop.scenario import validate
    far = validate(far)
    ls = build_links(far)
    # 90 km exceeds both DSRC and WiFi budgets: no links at all
    assert ls.links == ()


def test_isolated_source_rejected():
    v1 = make_vehicle("v1", 0, 0)
    v2 = make_vehicle("v2", 30, 0)
    import dataclasses
    base = small_scenario([v1, v2], traffic=1000.0)
    far = dataclasses.replace(
        base,
        lot_width=100000.0,
        lot_height=100000.0,
        nodes=(v1, dataclasses.replace(v2, position=dataclasses.replace(v2.position, x=90000.0))),
    )
    from vecop.scenario import validate
    far = validate(far)
    # traffic 1000 > own 800 MIPS and no out-links: unservable by construction
    with pytest.raises(ScenarioError, match="isolated demand source"):
        build_links(far)


def test_fiber_link_parameters():
    s = small_scenario(
        [make_vehicle("v1", 0, 0), make_edge("e1", 10, 0), make_cloud()],
        setting=ProcessingSetting.CLOUD_ONLY,
    )
    ls = build_links(s)
    fiber = [l for l in ls.links if l.medium == Medium.FIBER]
    assert len(fiber) == 1
    f = fiber[0]
    assert f.tx_node == "e1" and f.rx_node == "cloud"
    assert f.capacity == 3.75e9
    assert f.prop_delay == pytest.approx(0.00125, abs=TOL)  # 250 km at 2e8 m/s
    assert f.tx_delay_per_packet == pytest.approx(3.2e-6, abs=TOL)
    assert f.radiated_power == 0.0


def test_tx_delay_per_packet(default_linkset):
    for l in default_linkset.links:
        expected = 8.0 * 1500.0 / l.capacity
        assert l.tx_delay_per_packet == pytest.approx(expected, rel=1e-12)
        if l.medium == Medium.DSRC:
            assert l.tx_delay_per_packet == pytest.approx(0.00044444444444444447, abs=TOL)
        elif l.medium == Medium.WIFI:
            assert l.tx_delay_per_packet == pytest.approx(8e-05, abs=TOL)


def test_graph_is_setting_independent(default_scenario):
    import dataclasses
    ids = None
    for setting in ProcessingSetting:
        s = dataclasses.replace(
            default_scenario,
            settings=dataclasses.replace(default_scenario.settings, processing_setting=setting),
        )
        got = [l.id for l in build_links(s).links]
        if ids is None:
            ids = got
        assert got == ids


def test_linkset_indices(default_linkset):
    l0 = default_linkset.links[0]
    assert default_linkset.link(l0.id) is l0
    assert l0 in default_linkset.out_links(l0.tx_node)
