"""Device and system power. This module only prices: formulation.evaluate
checks every capacity before it prices an allocation.

Every device draws its idle power once activated plus a load-proportional
term up to its maximum; transmitting interfaces additionally pay their
airtime-weighted radiated power. Devices an allocation never touches draw
nothing, so total power is a pure function of the allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linkmodel import LinkSet, Medium
from .scenario import Scenario

__all__ = [
    "PowerBreakdown",
    "device_power",
    "system_power",
    "device_specs",
]

CORE_DEVICE = "core"  # pseudo-device collecting the per-bit fiber/core energy


@dataclass(frozen=True)
class PowerBreakdown:
    total: float  # watts
    per_device: dict[str, float] = field(default_factory=dict)


def device_power(spec, utilization: float, radiated_component: float = 0.0) -> float:
    """Power draw of one active device:
    idle + (max - idle) * u + u * radiated_component.

    `spec` is anything with power_idle/power_max (processor, radio, ONU);
    `utilization` is the fraction of its capacity in use.
    """
    span = spec.power_max - spec.power_idle
    return spec.power_idle + span * utilization + utilization * radiated_component


@dataclass(frozen=True)
class _DeviceSpec:
    power_idle: float
    power_max: float
    capacity: float  # MIPS for processors, bit/s for interfaces


def device_specs(scenario: Scenario) -> dict[str, _DeviceSpec]:
    """Map device id -> power/capacity figures for every modeled device.

    Device ids: `<node>.cpu`, `<node>.dsrc`, `<node>.wifi` (vehicle and AP
    radios both use `.wifi`), `<node>.onu`. The cloud's network termination
    is covered by the core per-bit adder and carries no device of its own.
    """
    specs: dict[str, _DeviceSpec] = {}
    for n in scenario.nodes:
        specs[f"{n.id}.cpu"] = _DeviceSpec(
            n.processor.power_idle, n.processor.power_max, n.processor.capacity
        )
        for r in n.radios:
            specs[f"{n.id}.{r.medium.value.lower()}"] = _DeviceSpec(
                r.power_idle, r.power_max, r.bandwidth
            )
        if n.onu is not None:
            specs[f"{n.id}.onu"] = _DeviceSpec(n.onu.power_idle, n.onu.power_max, n.onu.fiber_capacity)
    return specs


def system_power(
    scenario: Scenario,
    linkset: LinkSet,
    link_traffic: dict[str, float],
    processing_mips: dict[str, float],
    specs: dict[str, _DeviceSpec],
) -> PowerBreakdown:
    """Total and per-device power of a checked allocation, given as its
    `Allocation.link_traffic` (bit/s per link) and `processing_mips`, with
    the scenario's `device_specs`.

    A device is active iff it processes or carries nonzero traffic.
    Interface utilization aggregates traffic over every link the interface
    terminates; the radiated component is the traffic-share-weighted
    radiated power of its transmitting links. The total sums processors
    (in `processing_mips` order), then interfaces (in link order), then core.
    """
    # Traffic and radiated power aggregated per interface device.
    dev_traffic: dict[str, float] = {}
    dev_radiated: dict[str, float] = {}  # sum of radiated_l * traffic_l over tx links
    for link in linkset.links:
        t = link_traffic.get(link.id, 0.0)
        if t <= 0.0:
            continue
        dev_traffic[link.tx_device] = dev_traffic.get(link.tx_device, 0.0) + t
        dev_traffic[link.rx_device] = dev_traffic.get(link.rx_device, 0.0) + t
        dev_radiated[link.tx_device] = dev_radiated.get(link.tx_device, 0.0) + link.radiated_power * t

    per_device: dict[str, float] = {}
    for node_id, mips in processing_mips.items():
        spec = specs[f"{node_id}.cpu"]
        per_device[f"{node_id}.cpu"] = device_power(spec, mips / spec.capacity)
    for dev, t in dev_traffic.items():
        spec = specs.get(dev)
        if spec is None:  # cloud fiber termination: covered by the core adder
            continue
        per_device[dev] = device_power(spec, t / spec.capacity, dev_radiated.get(dev, 0.0) / t)

    # Core energy for traffic crossing the fiber hop.
    core_bps = sum(
        link_traffic.get(l.id, 0.0) for l in linkset.links if l.medium == Medium.FIBER
    )
    if core_bps > 0.0:
        per_device[CORE_DEVICE] = scenario.settings.core_energy_per_bit * core_bps

    return PowerBreakdown(total=sum(per_device.values()), per_device=per_device)
