import dataclasses
import importlib.resources
import json
import math
import re
from pathlib import Path

import pytest

from vecop.scenario import (
    DemandSpec,
    ProcessingSetting,
    Scenario,
    ScenarioError,
    Settings,
    eligible_processors,
    emit_scenario,
    generate_default,
    parse_scenario,
    validate,
)

from conftest import make_edge, make_vehicle, small_scenario

GOLDEN = importlib.resources.files("vecop") / "data" / "parking-lot-8v2e.json"
FORMATS_MD = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def test_generate_default_shape():
    s = generate_default(42)
    assert len(s.vehicles()) == 8
    assert len(s.edges()) == 2
    assert s.cloud() is not None
    assert all(v.processor.capacity == 800.0 for v in s.vehicles())
    assert all(e.processor.capacity == 1200.0 for e in s.edges())
    assert s.cloud().fiber_length == 250e3


def test_generate_default_deterministic():
    assert emit_scenario(generate_default(42)) == emit_scenario(generate_default(42))
    assert emit_scenario(generate_default(42)) != emit_scenario(generate_default(43))


def test_vehicle_positions_inside_lot():
    s = generate_default(7)
    for v in s.vehicles():
        assert 0.0 <= v.position.x <= 40.0
        assert 0.0 <= v.position.y <= 40.0


def test_golden_file_matches_generator():
    assert GOLDEN.read_text() == emit_scenario(generate_default(42))


def test_round_trip_identity(default_scenario):
    doc = emit_scenario(default_scenario)
    assert emit_scenario(parse_scenario(doc)) == doc


def test_parse_golden(default_scenario):
    s = parse_scenario(GOLDEN.read_text())
    assert len(s.nodes) == 11
    assert s.demands[0].traffic == 1000.0
    assert s.demands[0].load == 1000.0  # mips_per_kbps = 1 default


def test_load_defaults_from_traffic():
    s = small_scenario([make_vehicle("v1", 0, 0), make_vehicle("v2", 10, 0)], traffic=700.0)
    assert s.demands[0].load == 700.0
    # idempotent
    assert validate(s).demands[0].load == 700.0


def test_load_respects_mips_per_kbps():
    s = small_scenario(
        [make_vehicle("v1", 0, 0), make_vehicle("v2", 10, 0)],
        traffic=600.0,
        mips_per_kbps=1.1,
    )
    assert s.demands[0].load == pytest.approx(660.0)


def test_demand_source_must_be_vehicle():
    nodes = (make_vehicle("v1", 0, 0), make_edge("e1", 10, 0))
    s = Scenario(
        lot_width=40.0,
        lot_height=40.0,
        nodes=nodes,
        demands=(DemandSpec(id="d1", source="e1", traffic=100.0),),
        settings=Settings(),
    )
    with pytest.raises(ScenarioError, match="source must be a vehicle"):
        validate(s)


def test_cloud_only_without_cloud_rejected():
    with pytest.raises(ScenarioError, match="no eligible processor"):
        small_scenario(
            [make_vehicle("v1", 0, 0), make_vehicle("v2", 10, 0)],
            setting=ProcessingSetting.CLOUD_ONLY,
        )


def test_parse_error_names_field():
    doc = json.dumps(
        {
            "lot": {"width_m": 40.0, "height_m": 40.0},
            "nodes": [],
            "demands": [],
            "settings": {},
        }
    )
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_parse_fills_missing_settings_from_settings_defaults():
    raw = json.loads(GOLDEN.read_text())
    for key in ("packet_size_bytes", "rho_max", "bins", "mips_per_kbps", "core_energy_per_bit_j"):
        del raw["settings"][key]
    # The golden document's processing setting is the Settings() default too.
    assert parse_scenario(json.dumps(raw)).settings == Settings()


def test_parse_ignores_unknown_keys():
    raw = json.loads(GOLDEN.read_text())
    raw["comment"] = "top level"
    raw["nodes"][0]["colour"] = "red"
    raw["settings"]["solver"] = "any"
    # Older documents carry an objective; the run chooses it now.
    raw["settings"]["objective"] = {"preset": "CUSTOM", "w_power": 0.0, "w_delay": 1.0}
    assert parse_scenario(json.dumps(raw)) == parse_scenario(GOLDEN.read_text())


def test_parse_needs_no_objective():
    raw = json.loads(GOLDEN.read_text())
    assert "objective" not in raw["settings"]
    s = parse_scenario(json.dumps(raw))
    assert "objective" not in json.loads(emit_scenario(s))["settings"]


def test_formats_md_scenario_example_has_the_emitted_settings(default_scenario):
    text = FORMATS_MD.read_text()
    section = text[text.index("## Scenario document (JSON)"):]
    example = section.split("```json")[1].split("```")[0]
    documented = json.loads(re.sub(r"//.*", "", example))["settings"]
    assert set(documented) == set(json.loads(emit_scenario(default_scenario))["settings"])


def test_parse_rejects_an_unknown_processing_setting():
    raw = json.loads(GOLDEN.read_text())
    raw["settings"]["processing_setting"] = "EDGE_ONLY"
    allowed = "{VEHICLES_ONLY, VEHICLES_AND_EDGE, CLOUD_ONLY}"
    with pytest.raises(ScenarioError) as e:
        parse_scenario(json.dumps(raw))
    assert str(e.value) == (
        f"settings.processing_setting: expected one of {allowed}, got 'EDGE_ONLY'"
    )


def test_parse_rejects_malformed_json():
    with pytest.raises(ScenarioError):
        parse_scenario("{not json")


_DROP = object()

# Golden node indices: v1..v8 are 0..7, e1 is 8, cloud is 10.
BAD_FIELDS = [
    pytest.param(("lot", "width"), math.inf, "lot_width", id="lot-inf"),
    pytest.param(("lot", "width"), "40", "lot.width", id="lot-string"),
    pytest.param(("nodes", 0, "position", "x"), math.nan, "position.x", id="position-nan"),
    pytest.param(("nodes", 0, "position", "x"), _DROP, "position: missing field 'x'", id="position-x"),
    pytest.param(("nodes", 0, "position"), [1, 2], "node v1.position", id="position-list"),
    pytest.param(("nodes", 0), "v1", "nodes[0]", id="node-string"),
    pytest.param(("nodes",), {}, "nodes: must be a list", id="nodes-object"),
    pytest.param(("nodes", 0, "processor", "capacity_mips"), math.inf, "capacity", id="cpu-inf"),
    pytest.param(("nodes", 0, "processor", "power_max_w"), None, "power_max_w", id="cpu-null"),
    pytest.param(("nodes", 0, "radios", 0, "bandwidth_bps"), math.inf, "bandwidth", id="radio-inf"),
    pytest.param(("nodes", 0, "radios", 0), "DSRC", "node v1.radio", id="radio-string"),
    pytest.param(("nodes", 8, "onu", "fiber_capacity_bps"), -math.inf, "fiber_capacity", id="onu-inf"),
    pytest.param(("nodes", 10, "fiber_length_m"), math.inf, "fiber_length", id="fiber-inf"),
    pytest.param(("nodes", 10, "fiber_length_m"), True, "fiber_length_m", id="fiber-bool"),
    pytest.param(("demands", 0, "traffic_kbps"), math.nan, "traffic", id="traffic-nan"),
    pytest.param(("demands", 0, "load_mips"), math.inf, "load", id="load-inf"),
    pytest.param(("demands", 0), 7, "demands[0]", id="demand-number"),
    pytest.param(("settings", "core_energy_per_bit_j"), math.inf, "core_energy_per_bit", id="core-inf"),
    pytest.param(("settings", "packet_size_bytes"), math.inf, "packet_size", id="packet-inf"),
    pytest.param(("settings", "bins"), 64.7, "settings.bins", id="bins-float"),
    pytest.param(("settings", "bins"), "64", "settings.bins", id="bins-string"),
]


@pytest.mark.parametrize("path,value,field", BAD_FIELDS)
def test_parse_rejects_bad_fields_by_name(path, value, field):
    raw = json.loads(GOLDEN.read_text())
    *parents, key = path
    doc = raw
    for p in parents:
        doc = doc[p]
    if value is _DROP:
        del doc[key]
    else:
        doc[key] = value
    # json.dumps writes inf and nan as Infinity and NaN, and json.loads reads them.
    with pytest.raises(ScenarioError, match=re.escape(field)):
        parse_scenario(json.dumps(raw))


def test_eligible_processors_by_setting(default_scenario):
    vo = dataclasses.replace(
        default_scenario,
        settings=dataclasses.replace(
            default_scenario.settings, processing_setting=ProcessingSetting.VEHICLES_ONLY
        ),
    )
    ve = dataclasses.replace(
        default_scenario,
        settings=dataclasses.replace(
            default_scenario.settings, processing_setting=ProcessingSetting.VEHICLES_AND_EDGE
        ),
    )
    co = dataclasses.replace(
        default_scenario,
        settings=dataclasses.replace(
            default_scenario.settings, processing_setting=ProcessingSetting.CLOUD_ONLY
        ),
    )
    assert eligible_processors(vo) == {f"v{i}" for i in range(1, 9)}
    assert eligible_processors(ve) == {f"v{i}" for i in range(1, 9)} | {"e1", "e2"}
    assert eligible_processors(co) == {"cloud"}


def test_validate_rejects_non_finite_fields(default_scenario):
    v1 = default_scenario.nodes[0]
    bad = dataclasses.replace(
        default_scenario,
        nodes=(
            dataclasses.replace(v1, processor=dataclasses.replace(v1.processor, power_idle=math.nan)),
            *default_scenario.nodes[1:],
        ),
    )
    with pytest.raises(ScenarioError, match=re.escape("nodes[v1].processor.power_idle")):
        validate(bad)


def test_rho_max_bounds_validated():
    with pytest.raises(ScenarioError, match="rho_max"):
        small_scenario(
            [make_vehicle("v1", 0, 0), make_vehicle("v2", 10, 0)], rho_max=1.5
        )


def test_table_one_defaults(default_scenario):
    v = default_scenario.node("v1")
    dsrc = next(r for r in v.radios if r.medium.value == "DSRC")
    wifi = next(r for r in v.radios if r.medium.value == "WIFI")
    assert dsrc.bandwidth == 27e6 and dsrc.freq == 5.9e9
    assert dsrc.tx_power_max == 22.0 and dsrc.rx_sensitivity == -77.0
    assert wifi.bandwidth == 150e6 and wifi.tx_power_max == 14.0
    e = default_scenario.node("e1")
    ap = e.radios[0]
    assert ap.power_idle == 5.5 and ap.power_max == 25.0
    assert e.onu.power_idle == 6.8 and e.onu.power_max == 8.0
    assert e.onu.fiber_capacity == 3.75e9
    assert default_scenario.node("cloud").processor.capacity == 50000.0
