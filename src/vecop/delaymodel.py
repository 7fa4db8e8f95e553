"""Propagation, transmission and queueing delay.

Each directed link owns one M/M/1 queue at its transmitting interface. The
nonlinear mean sojourn time 1/(mu - lambda) is discretized into a lookup
table whose round-up rule makes every table answer a conservative (safe-side)
over-estimate of the true M/M/1 value.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .linkmodel import Link, LinkSet
from .scenario import Scenario

__all__ = [
    "QueueSpec",
    "DelayTable",
    "UnstableQueueError",
    "mm1_delay",
    "build_table",
    "build_tables",
    "lookup",
    "path_delay",
    "packets_per_second",
]


class UnstableQueueError(ValueError):
    pass


@dataclass(frozen=True)
class QueueSpec:
    link_id: str
    mu: float  # packets/s
    rho_max: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"queue {self.link_id}: mu must be > 0")
        if not 0.0 < self.rho_max < 1.0:
            raise ValueError(f"queue {self.link_id}: rho_max must be in (0,1)")


@dataclass(frozen=True)
class DelayTable:
    link_id: str
    mu: float
    arrival_bounds: tuple[float, ...]  # packets/s, strictly increasing
    delays: tuple[float, ...]  # seconds, strictly increasing


def mm1_delay(lam: float, mu: float) -> float:
    """Mean M/M/1 sojourn time 1/(mu - lambda)."""
    if lam < 0:
        raise ValueError(f"mm1_delay: lambda must be >= 0, got {lam}")
    if lam >= mu:
        raise UnstableQueueError(f"unstable queue: lambda {lam} >= mu {mu}")
    return 1.0 / (mu - lam)


def packets_per_second(traffic_bps: float, packet_size_bytes: float) -> float:
    return traffic_bps / (8.0 * packet_size_bytes)


def build_table(queue: QueueSpec, bins: int) -> DelayTable:
    """Discretize [0, rho_max*mu] into `bins` equal arrival-rate bins.

    The k-th entry stores the delay at the bin's upper bound, so a round-up
    lookup never under-estimates the true delay inside the bin.
    """
    if bins < 2:
        raise ValueError(f"build_table: bins must be >= 2, got {bins}")
    top = queue.rho_max * queue.mu
    bounds = tuple(k * top / bins for k in range(1, bins + 1))
    delays = tuple(1.0 / (queue.mu - b) for b in bounds)
    return DelayTable(queue.link_id, queue.mu, bounds, delays)


def build_tables(scenario: Scenario, linkset: LinkSet) -> dict[str, DelayTable]:
    """One delay table per directed link of the scenario."""
    s = scenario.settings
    tables = {}
    for link in linkset.links:
        mu = link.capacity / (8.0 * s.packet_size)
        tables[link.id] = build_table(QueueSpec(link.id, mu, s.rho_max), s.bins)
    return tables


def lookup(table: DelayTable, lam: float) -> float:
    """Round-up table lookup: delay of the smallest bin covering `lam`."""
    if lam < 0:
        raise ValueError(f"lookup: lambda must be >= 0, got {lam}")
    top = table.arrival_bounds[-1]
    if lam > top:
        # Tolerate float dust at the cap; anything beyond is unstable.
        if lam > top * (1.0 + 1e-9):
            raise UnstableQueueError(
                f"link {table.link_id}: arrival rate {lam} pkt/s exceeds rho_max cap "
                f"{top} pkt/s"
            )
        lam = top
    k = bisect.bisect_left(table.arrival_bounds, lam)
    return table.delays[k]


def path_delay(
    links: list[Link], tables: dict[str, DelayTable], arrival_rates: dict[str, float]
) -> float:
    """Total delay along a simple directed path (empty path = local = 0 s).

    Per link: propagation + per-packet transmission + conservative table
    queueing delay at that link's aggregate arrival rate.
    """
    total = 0.0
    for link in links:
        lam = arrival_rates.get(link.id, 0.0)
        total += link.prop_delay + link.tx_delay_per_packet + lookup(tables[link.id], lam)
    return total
