"""Directed feasible link graph with free-space link budgets.

Wireless links exist where the transmitter can close the budget against the
receiver's sensitivity at the pair's distance; the radiated power is the
minimum that closes the link (power control). Edge ONUs reach the cloud over
a single fiber hop. Internal server/AP/ONU wiring inside an edge node is a
zero-cost, zero-delay implicit edge, so routes are expressed over node ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scenario import (
    Medium,
    NodeSpec,
    RadioSpec,
    Scenario,
    ScenarioError,
    eligible_processors,
)

__all__ = [
    "Link",
    "LinkSet",
    "fspl_db",
    "required_tx_dbm",
    "dbm_to_watts",
    "build_links",
    "check_sources",
]

WIRELESS_PROP_SPEED = 3e8  # m/s
FIBER_PROP_SPEED = 2e8  # m/s

# Budget distances below this floor are evaluated at the floor; the far-field
# formula is meaningless at millimeter range and co-located nodes must not
# crash link construction.
MIN_BUDGET_DISTANCE = 1.0  # meters


def fspl_db(distance: float, freq: float) -> float:
    """Free-space path loss: 20 log10(d) + 20 log10(f) - 147.55 dB."""
    if distance <= 0:
        raise ValueError(f"fspl_db: distance must be > 0, got {distance}")
    if freq <= 0:
        raise ValueError(f"fspl_db: freq must be > 0, got {freq}")
    return 20.0 * math.log10(distance) + 20.0 * math.log10(freq) - 147.55


def required_tx_dbm(distance: float, freq: float, rx_sensitivity: float, margin: float = 0.0) -> float:
    """Minimum transmit power (dBm) that closes the link budget."""
    return rx_sensitivity + margin + fspl_db(distance, freq)


def dbm_to_watts(p: float) -> float:
    return 10.0 ** (p / 10.0) / 1000.0


@dataclass(frozen=True)
class Link:
    id: str
    tx_node: str
    rx_node: str
    tx_device: str
    rx_device: str
    medium: Medium
    distance: float  # meters
    capacity: float  # bit/s
    radiated_power: float  # watts; 0 for FIBER
    prop_delay: float  # seconds
    tx_delay_per_packet: float  # seconds


@dataclass(frozen=True)
class LinkSet:
    links: tuple[Link, ...]

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {l.id: l for l in self.links})
        out: dict[str, list[Link]] = {}
        for l in self.links:
            out.setdefault(l.tx_node, []).append(l)
        object.__setattr__(self, "_out", out)
        # Node ids with at least one outgoing link.
        object.__setattr__(self, "senders", frozenset(out))

    def link(self, link_id: str) -> Link:
        return self._by_id[link_id]

    def out_links(self, node_id: str) -> list[Link]:
        return list(self._out.get(node_id, []))


def _distance(a: NodeSpec, b: NodeSpec) -> float:
    assert a.position is not None and b.position is not None
    return math.hypot(a.position.x - b.position.x, a.position.y - b.position.y)


def _wireless_link(
    idx: int, tx: NodeSpec, rx: NodeSpec, tx_radio: RadioSpec, rx_radio: RadioSpec, packet_size: float
) -> Link | None:
    """Directed link if the transmitter's budget closes; else None."""
    dist = _distance(tx, rx)
    need = required_tx_dbm(
        max(dist, MIN_BUDGET_DISTANCE), tx_radio.freq, rx_radio.rx_sensitivity, rx_radio.link_margin
    )
    if need > tx_radio.tx_power_max:
        return None
    capacity = min(tx_radio.bandwidth, rx_radio.bandwidth)
    return Link(
        id=f"l{idx:03d}",
        tx_node=tx.id,
        rx_node=rx.id,
        tx_device=f"{tx.id}.{tx_radio.medium.value.lower()}",
        rx_device=f"{rx.id}.{rx_radio.medium.value.lower()}",
        medium=tx_radio.medium,
        distance=dist,
        capacity=capacity,
        radiated_power=dbm_to_watts(min(need, tx_radio.tx_power_max)),
        prop_delay=dist / WIRELESS_PROP_SPEED,
        tx_delay_per_packet=8.0 * packet_size / capacity,
    )


def build_links(scenario: Scenario) -> LinkSet:
    """Build the directed feasible link graph of a validated scenario.

    Vehicles pair over DSRC, vehicles and access points over WiFi, access
    points over WiFi with each other, and each edge ONU reaches the cloud
    over fiber. The graph covers the full infrastructure in every processing
    setting: ineligible processors are excluded by the formulation, while
    their radios stay available as relays.
    """
    packet = scenario.settings.packet_size
    vehicles = scenario.vehicles()
    edges = scenario.edges()
    cloud = scenario.cloud()

    candidates: list[Link] = []
    idx = 0

    def add(link: Link | None):
        nonlocal idx
        if link is not None:
            candidates.append(link)
            idx += 1

    for u in vehicles:
        for v in vehicles:
            if u.id == v.id:
                continue
            add(_wireless_link(idx, u, v, u.radio(Medium.DSRC), v.radio(Medium.DSRC), packet))
    for u in vehicles:
        for e in edges:
            add(_wireless_link(idx, u, e, u.radio(Medium.WIFI), e.radio(Medium.WIFI), packet))
            add(_wireless_link(idx, e, u, e.radio(Medium.WIFI), u.radio(Medium.WIFI), packet))
    for e1 in edges:
        for e2 in edges:
            if e1.id == e2.id:
                continue
            add(_wireless_link(idx, e1, e2, e1.radio(Medium.WIFI), e2.radio(Medium.WIFI), packet))
    if cloud is not None:
        for e in edges:
            assert e.onu is not None and cloud.fiber_length is not None
            capacity = e.onu.fiber_capacity
            candidates.append(
                Link(
                    id=f"l{idx:03d}",
                    tx_node=e.id,
                    rx_node=cloud.id,
                    tx_device=f"{e.id}.onu",
                    rx_device=f"{cloud.id}.port",
                    medium=Medium.FIBER,
                    distance=cloud.fiber_length,
                    capacity=capacity,
                    radiated_power=0.0,
                    prop_delay=cloud.fiber_length / FIBER_PROP_SPEED,
                    tx_delay_per_packet=8.0 * packet / capacity,
                )
            )
            idx += 1

    linkset = LinkSet(tuple(candidates))
    check_sources(scenario, linkset)
    return linkset


def check_sources(scenario: Scenario, linkset: LinkSet) -> None:
    """Raise ScenarioError for a demand whose source has no outgoing link
    and cannot process the demand itself.

    The graph does not depend on the demands or the processing setting, but
    this check does: run it for every demand and setting a graph serves.
    """
    eligible = eligible_processors(scenario)
    for d in scenario.demands:
        src = scenario.node(d.source)
        can_self = src.id in eligible and src.processor.capacity >= (d.load or 0.0)
        if src.id not in linkset.senders and not can_self:
            raise ScenarioError(f"demand {d.id}: isolated demand source '{src.id}'")
