"""Scenario data model: nodes, radios, demands, settings.

A Scenario is one fully-parameterised experiment instance: a flat 2-D lot
with parked vehicles, edge nodes (server + access point + ONU) and an
optional remote cloud reached over a single fiber hop. Scenarios are
immutable after validation and round-trip losslessly through a canonical
JSON document (see docs/formats.md).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

__all__ = [
    "Medium",
    "NodeKind",
    "ProcessingSetting",
    "ObjectivePreset",
    "Position",
    "ProcessorSpec",
    "RadioSpec",
    "OnuSpec",
    "NodeSpec",
    "DemandSpec",
    "ObjectiveWeights",
    "POWER_WEIGHTS",
    "Settings",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "emit_scenario",
    "generate_default",
    "eligible_processors",
]


class ScenarioError(ValueError):
    """Raised for syntactically or semantically invalid scenario documents."""


class Medium(str, Enum):
    DSRC = "DSRC"
    WIFI = "WIFI"
    FIBER = "FIBER"


class NodeKind(str, Enum):
    VEHICLE = "VEHICLE"
    EDGE = "EDGE"
    CLOUD = "CLOUD"


class ProcessingSetting(str, Enum):
    VEHICLES_ONLY = "VEHICLES_ONLY"
    VEHICLES_AND_EDGE = "VEHICLES_AND_EDGE"
    CLOUD_ONLY = "CLOUD_ONLY"


class ObjectivePreset(str, Enum):
    """The objective a run asks for; the run, not the scenario, chooses it."""

    POWER_ONLY = "POWER_ONLY"
    JOINT_EQUAL = "JOINT_EQUAL"
    CUSTOM = "CUSTOM"


@dataclass(frozen=True)
class Position:
    x: float  # meters
    y: float  # meters


@dataclass(frozen=True)
class ProcessorSpec:
    capacity: float  # MIPS
    power_idle: float  # watts
    power_max: float  # watts


@dataclass(frozen=True)
class RadioSpec:
    medium: Medium
    bandwidth: float  # bit/s
    freq: float  # Hz
    tx_power_max: float  # dBm
    rx_sensitivity: float  # dBm
    power_idle: float  # watts
    power_max: float  # watts
    link_margin: float = 0.0  # dB


@dataclass(frozen=True)
class OnuSpec:
    power_idle: float  # watts
    power_max: float  # watts
    fiber_capacity: float  # bit/s


@dataclass(frozen=True)
class NodeSpec:
    id: str
    kind: NodeKind
    processor: ProcessorSpec
    position: Optional[Position] = None  # absent for CLOUD
    radios: tuple[RadioSpec, ...] = ()
    onu: Optional[OnuSpec] = None  # EDGE only
    fiber_length: Optional[float] = None  # meters, CLOUD only

    def radio(self, medium: Medium) -> Optional[RadioSpec]:
        for r in self.radios:
            if r.medium == medium:
                return r
        return None


@dataclass(frozen=True)
class DemandSpec:
    id: str
    source: str  # vehicle node id
    traffic: float  # kbit/s
    load: Optional[float] = None  # MIPS; defaulted from traffic at validation


@dataclass(frozen=True)
class ObjectiveWeights:
    w_power: float  # 1/watt
    w_delay: float  # 1/second


POWER_WEIGHTS = ObjectiveWeights(1.0, 0.0)


@dataclass(frozen=True)
class Settings:
    processing_setting: ProcessingSetting = ProcessingSetting.VEHICLES_AND_EDGE
    packet_size: float = 1500.0  # bytes
    rho_max: float = 0.95  # queue utilization cap
    bins: int = 64  # lookup-table entries per queue
    mips_per_kbps: float = 1.0  # default traffic -> load ratio
    core_energy_per_bit: float = 2e-8  # joule/bit on the fiber/core hop


@dataclass(frozen=True)
class Scenario:
    lot_width: float  # meters
    lot_height: float  # meters
    nodes: tuple[NodeSpec, ...]
    demands: tuple[DemandSpec, ...]
    settings: Settings

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def vehicles(self) -> list[NodeSpec]:
        return [n for n in self.nodes if n.kind == NodeKind.VEHICLE]

    def edges(self) -> list[NodeSpec]:
        return [n for n in self.nodes if n.kind == NodeKind.EDGE]

    def cloud(self) -> Optional[NodeSpec]:
        for n in self.nodes:
            if n.kind == NodeKind.CLOUD:
                return n
        return None


# ---------------------------------------------------------------------------
# Table 1 parameter set (defaults of the parking-lot instance)
#
# The DSRC transceiver idle/max draw and the AP transmit power are not given
# by the evaluation parameters table; both are documented assumptions and
# plain scenario fields, not hard-wired constants.
# ---------------------------------------------------------------------------

VEHICLE_PROCESSOR = ProcessorSpec(capacity=800.0, power_idle=5.0, power_max=10.0)
EDGE_PROCESSOR = ProcessorSpec(capacity=1200.0, power_idle=2.0, power_max=12.5)
CLOUD_PROCESSOR = ProcessorSpec(capacity=50000.0, power_idle=150.0, power_max=300.0)

VEHICLE_DSRC = RadioSpec(
    medium=Medium.DSRC,
    bandwidth=27e6,
    freq=5.9e9,
    tx_power_max=22.0,
    rx_sensitivity=-77.0,
    power_idle=1.0,
    power_max=1.8,
)
VEHICLE_WIFI = RadioSpec(
    medium=Medium.WIFI,
    bandwidth=150e6,
    freq=2.4e9,
    tx_power_max=14.0,
    rx_sensitivity=-72.0,
    power_idle=0.000072,
    power_max=0.612,
)
EDGE_AP_WIFI = RadioSpec(
    medium=Medium.WIFI,
    bandwidth=150e6,
    freq=2.4e9,
    tx_power_max=22.0,
    rx_sensitivity=-104.0,
    power_idle=5.5,
    power_max=25.0,
)
EDGE_ONU = OnuSpec(power_idle=6.8, power_max=8.0, fiber_capacity=3.75e9)


def generate_default(seed: int) -> Scenario:
    """Build the default parking-lot instance: 8 vehicles uniform in a
    40x40 m lot, 2 edge nodes at (10,20) and (30,20), one cloud 250 km out.

    Pure function of the seed; identical seeds emit byte-identical documents.
    """
    rng = random.Random(seed)
    nodes: list[NodeSpec] = []
    for i in range(8):
        pos = Position(round(rng.uniform(0.0, 40.0), 3), round(rng.uniform(0.0, 40.0), 3))
        nodes.append(
            NodeSpec(
                id=f"v{i + 1}",
                kind=NodeKind.VEHICLE,
                position=pos,
                processor=VEHICLE_PROCESSOR,
                radios=(VEHICLE_DSRC, VEHICLE_WIFI),
            )
        )
    for i, (x, y) in enumerate([(10.0, 20.0), (30.0, 20.0)]):
        nodes.append(
            NodeSpec(
                id=f"e{i + 1}",
                kind=NodeKind.EDGE,
                position=Position(x, y),
                processor=EDGE_PROCESSOR,
                radios=(EDGE_AP_WIFI,),
                onu=EDGE_ONU,
            )
        )
    nodes.append(
        NodeSpec(
            id="cloud",
            kind=NodeKind.CLOUD,
            processor=CLOUD_PROCESSOR,
            fiber_length=250e3,
        )
    )
    demands = (DemandSpec(id="d1", source="v1", traffic=1000.0),)
    scenario = Scenario(
        lot_width=40.0,
        lot_height=40.0,
        nodes=tuple(nodes),
        demands=demands,
        settings=Settings(),
    )
    return validate(scenario)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _require_finite(spec, path: str) -> None:
    """Every float field of a spec, at any depth, is finite: json.loads
    admits NaN and Infinity. Tuple items are named by their id, if any."""
    for name, value in vars(spec).items():
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ScenarioError(f"{path}{name}: must be finite, got {value}")
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                _require_finite(item, f"{path}{name}[{getattr(item, 'id', i)}].")
        elif hasattr(value, "__dataclass_fields__"):  # dataclasses.is_dataclass, but cheaper
            _require_finite(value, f"{path}{name}.")


def validate(scenario: Scenario) -> Scenario:
    """Check all invariants and fill demand loads from traffic where unset.

    Returns a (possibly new) Scenario; validation is idempotent.
    """
    _require_finite(scenario, "")
    s = scenario.settings
    _require(0.0 < s.rho_max < 1.0, f"settings.rho_max: must be in (0,1), got {s.rho_max}")
    _require(
        isinstance(s.bins, int) and s.bins >= 2,
        f"settings.bins: must be an integer >= 2, got {s.bins!r}",
    )
    _require(s.packet_size > 0, f"settings.packet_size: must be > 0, got {s.packet_size}")
    _require(s.mips_per_kbps > 0, f"settings.mips_per_kbps: must be > 0, got {s.mips_per_kbps}")
    _require(s.core_energy_per_bit >= 0, "settings.core_energy_per_bit: must be >= 0")

    _require(scenario.lot_width > 0 and scenario.lot_height > 0, "lot: dimensions must be positive")

    ids = [n.id for n in scenario.nodes]
    _require(len(ids) == len(set(ids)), "nodes: duplicate node id")

    clouds = [n for n in scenario.nodes if n.kind == NodeKind.CLOUD]
    _require(len(clouds) <= 1, "nodes: at most one CLOUD node")

    for n in scenario.nodes:
        p = n.processor
        _require(p.capacity > 0, f"node {n.id}: processor.capacity must be > 0")
        _require(
            0 < p.power_idle <= p.power_max,
            f"node {n.id}: processor power must satisfy 0 < idle <= max",
        )
        for r in n.radios:
            _require(r.bandwidth > 0, f"node {n.id}: radio {r.medium.value} bandwidth must be > 0")
            _require(r.freq > 0, f"node {n.id}: radio {r.medium.value} freq must be > 0")
            _require(
                r.power_idle <= r.power_max,
                f"node {n.id}: radio {r.medium.value} power_idle must be <= power_max",
            )
        if n.kind == NodeKind.VEHICLE:
            _require(n.position is not None, f"node {n.id}: vehicle requires a position")
            assert n.position is not None
            _require(
                0.0 <= n.position.x <= scenario.lot_width
                and 0.0 <= n.position.y <= scenario.lot_height,
                f"node {n.id}: position outside the lot bounds",
            )
            _require(n.radio(Medium.DSRC) is not None, f"node {n.id}: vehicle requires a DSRC radio")
            _require(n.radio(Medium.WIFI) is not None, f"node {n.id}: vehicle requires a WiFi radio")
        elif n.kind == NodeKind.EDGE:
            _require(n.position is not None, f"node {n.id}: edge node requires a position")
            _require(n.radio(Medium.WIFI) is not None, f"node {n.id}: edge node requires a WiFi AP")
            _require(n.onu is not None, f"node {n.id}: edge node requires an ONU (missing device)")
            assert n.onu is not None
            _require(n.onu.fiber_capacity > 0, f"node {n.id}: onu.fiber_capacity must be > 0")
            _require(
                n.onu.power_idle <= n.onu.power_max,
                f"node {n.id}: onu power_idle must be <= power_max",
            )
        else:  # CLOUD
            _require(n.fiber_length is not None, f"node {n.id}: cloud requires fiber_length")
            assert n.fiber_length is not None
            _require(n.fiber_length > 0, f"node {n.id}: fiber_length must be > 0")

    node_by_id = {n.id: n for n in scenario.nodes}
    demand_ids = [d.id for d in scenario.demands]
    _require(len(demand_ids) == len(set(demand_ids)), "demands: duplicate demand id")
    new_demands = []
    for d in scenario.demands:
        _require(d.traffic > 0, f"demand {d.id}: traffic must be > 0")
        src = node_by_id.get(d.source)
        _require(src is not None, f"demand {d.id}: unknown node reference '{d.source}'")
        assert src is not None
        _require(src.kind == NodeKind.VEHICLE, f"demand {d.id}: source must be a vehicle")
        load = d.load if d.load is not None else s.mips_per_kbps * d.traffic
        _require(load > 0, f"demand {d.id}: load must be > 0")
        new_demands.append(replace(d, load=load))

    result = replace(scenario, demands=tuple(new_demands))
    _require(
        len(eligible_processors(result)) > 0,
        f"settings.processing_setting: no eligible processor for {s.processing_setting.value}",
    )
    return result


def eligible_processors(scenario: Scenario) -> set[str]:
    """Node ids allowed to host processing under the active setting."""
    setting = scenario.settings.processing_setting
    if setting == ProcessingSetting.VEHICLES_ONLY:
        return {n.id for n in scenario.vehicles()}
    if setting == ProcessingSetting.VEHICLES_AND_EDGE:
        return {n.id for n in scenario.vehicles()} | {n.id for n in scenario.edges()}
    cloud = scenario.cloud()
    return {cloud.id} if cloud is not None else set()


# ---------------------------------------------------------------------------
# JSON document I/O
# ---------------------------------------------------------------------------

def _expect(raw, kind: type, ctx: str):
    if not isinstance(raw, kind):
        what = "an object" if kind is dict else "a list"
        raise ScenarioError(f"{ctx}: must be {what}, got {raw!r}")
    return raw


def _get(obj: dict, key: str, ctx: str):
    if key not in _expect(obj, dict, ctx):
        raise ScenarioError(f"{ctx}: missing field '{key}'")
    return obj[key]


def _number(obj: dict, key: str, ctx: str, default: Optional[float] = None) -> float:
    """A JSON number field as a float; a field with a default may be absent."""
    raw = _get(obj, key, ctx) if default is None else obj.get(key, default)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"{ctx}.{key}: must be a number, got {raw!r}")
    return float(raw)


def _enum(cls, raw, ctx: str):
    try:
        return cls(raw)
    except (ValueError, TypeError):
        allowed = ", ".join(m.value for m in cls)
        raise ScenarioError(f"{ctx}: expected one of {{{allowed}}}, got {raw!r}") from None


def parse_scenario(document: str) -> Scenario:
    """Parse and validate a scenario JSON document."""
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("document: top level must be an object")

    lot = _get(raw, "lot", "document")
    nodes = []
    for i, nd in enumerate(_expect(_get(raw, "nodes", "document"), list, "nodes")):
        ctx = f"node {_expect(nd, dict, f'nodes[{i}]').get('id', '?')}"
        kind = _enum(NodeKind, _get(nd, "kind", ctx), f"{ctx}.kind")
        proc = _get(nd, "processor", ctx)
        processor = ProcessorSpec(
            capacity=_number(proc, "capacity_mips", f"{ctx}.processor"),
            power_idle=_number(proc, "power_idle_w", f"{ctx}.processor"),
            power_max=_number(proc, "power_max_w", f"{ctx}.processor"),
        )
        position = None
        if "position" in nd and nd["position"] is not None:
            pos, pctx = nd["position"], f"{ctx}.position"
            position = Position(_number(pos, "x", pctx), _number(pos, "y", pctx))
        radios = []
        for rr in _expect(nd.get("radios", []), list, f"{ctx}.radios"):
            rctx = f"{ctx}.radio"
            radios.append(
                RadioSpec(
                    medium=_enum(Medium, _get(rr, "medium", rctx), f"{rctx}.medium"),
                    bandwidth=_number(rr, "bandwidth_bps", rctx),
                    freq=_number(rr, "freq_hz", rctx),
                    tx_power_max=_number(rr, "tx_power_max_dbm", rctx),
                    rx_sensitivity=_number(rr, "rx_sensitivity_dbm", rctx),
                    power_idle=_number(rr, "power_idle_w", rctx),
                    power_max=_number(rr, "power_max_w", rctx),
                    link_margin=_number(rr, "link_margin_db", rctx, 0.0),
                )
            )
        onu = None
        if "onu" in nd and nd["onu"] is not None:
            onu = OnuSpec(
                power_idle=_number(nd["onu"], "power_idle_w", f"{ctx}.onu"),
                power_max=_number(nd["onu"], "power_max_w", f"{ctx}.onu"),
                fiber_capacity=_number(nd["onu"], "fiber_capacity_bps", f"{ctx}.onu"),
            )
        fiber_length = _number(nd, "fiber_length_m", ctx) if "fiber_length_m" in nd else None
        nodes.append(
            NodeSpec(
                id=str(_get(nd, "id", ctx)),
                kind=kind,
                processor=processor,
                position=position,
                radios=tuple(radios),
                onu=onu,
                fiber_length=fiber_length,
            )
        )

    demands = []
    for i, dd in enumerate(_expect(_get(raw, "demands", "document"), list, "demands")):
        ctx = f"demand {_expect(dd, dict, f'demands[{i}]').get('id', '?')}"
        demands.append(
            DemandSpec(
                id=str(_get(dd, "id", ctx)),
                source=str(_get(dd, "source", ctx)),
                traffic=_number(dd, "traffic_kbps", ctx),
                load=_number(dd, "load_mips", ctx) if dd.get("load_mips") is not None else None,
            )
        )

    st = _get(raw, "settings", "document")
    defaults = Settings()
    settings = Settings(
        processing_setting=_enum(
            ProcessingSetting,
            _get(st, "processing_setting", "settings"),
            "settings.processing_setting",
        ),
        packet_size=_number(st, "packet_size_bytes", "settings", defaults.packet_size),
        rho_max=_number(st, "rho_max", "settings", defaults.rho_max),
        bins=st.get("bins", defaults.bins),  # validate checks it is an integer
        mips_per_kbps=_number(st, "mips_per_kbps", "settings", defaults.mips_per_kbps),
        core_energy_per_bit=_number(
            st, "core_energy_per_bit_j", "settings", defaults.core_energy_per_bit
        ),
    )

    scenario = Scenario(
        lot_width=_number(lot, "width", "lot"),
        lot_height=_number(lot, "height", "lot"),
        nodes=tuple(nodes),
        demands=tuple(demands),
        settings=settings,
    )
    return validate(scenario)


def emit_scenario(scenario: Scenario) -> str:
    """Serialize to the canonical document form (sorted keys, stable floats)."""
    def node_doc(n: NodeSpec) -> dict:
        doc: dict = {
            "id": n.id,
            "kind": n.kind.value,
            "processor": {
                "capacity_mips": n.processor.capacity,
                "power_idle_w": n.processor.power_idle,
                "power_max_w": n.processor.power_max,
            },
        }
        if n.position is not None:
            doc["position"] = {"x": n.position.x, "y": n.position.y}
        if n.radios:
            doc["radios"] = [
                {
                    "medium": r.medium.value,
                    "bandwidth_bps": r.bandwidth,
                    "freq_hz": r.freq,
                    "tx_power_max_dbm": r.tx_power_max,
                    "rx_sensitivity_dbm": r.rx_sensitivity,
                    "power_idle_w": r.power_idle,
                    "power_max_w": r.power_max,
                    "link_margin_db": r.link_margin,
                }
                for r in n.radios
            ]
        if n.onu is not None:
            doc["onu"] = {
                "power_idle_w": n.onu.power_idle,
                "power_max_w": n.onu.power_max,
                "fiber_capacity_bps": n.onu.fiber_capacity,
            }
        if n.fiber_length is not None:
            doc["fiber_length_m"] = n.fiber_length
        return doc

    doc = {
        "lot": {"width": scenario.lot_width, "height": scenario.lot_height},
        "nodes": [node_doc(n) for n in scenario.nodes],
        "demands": [
            {"id": d.id, "source": d.source, "traffic_kbps": d.traffic, "load_mips": d.load}
            for d in scenario.demands
        ],
        "settings": {
            "processing_setting": scenario.settings.processing_setting.value,
            "packet_size_bytes": scenario.settings.packet_size,
            "rho_max": scenario.settings.rho_max,
            "bins": scenario.settings.bins,
            "mips_per_kbps": scenario.settings.mips_per_kbps,
            "core_energy_per_bit_j": scenario.settings.core_energy_per_bit,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
