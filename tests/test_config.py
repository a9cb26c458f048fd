import re

import pytest
import yaml
from hypothesis import Phase, given, settings, strategies as st

from arsusim.broker import ARSU_CLIENT
from arsusim.config import (
    ConfigError,
    RoadUserKind,
    load_scenario,
    parse_scenario,
)

MINIMAL = """
duration_ms: 1000
users:
  - kind: native_dsrc
"""


class TestDefaults:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.duration_ms == 1000
        assert cfg.scenario_speed_kmh == 0.0
        assert cfg.seed == 0
        assert cfg.arsu.present is True
        assert cfg.arsu.coverage_radius_m == 150.0
        assert cfg.filter.sigma_m == 5.0
        assert cfg.filter.window_ms == 200.0
        assert cfg.filter.grace_ms == 100.0
        assert cfg.ipu.frame_period_ms == 100.0
        assert cfg.ipu.processing_ms == 300.0
        assert cfg.mqtt.drop_probability == 0.0
        assert cfg.freshness_window_ms == 600.0
        assert cfg.latency_csv is None
        user = cfg.users[0]
        assert user.kind is RoadUserKind.NATIVE_DSRC
        assert user.user_id == "dsrc1"
        assert user.bsm_interval_ms == 100.0
        assert user.gnss_error_std_m == pytest.approx(5.0 / 3.0)

    def test_canonical_dict_round_trips_through_parse(self):
        import yaml
        cfg = parse_scenario(MINIMAL)
        echoed = yaml.safe_dump(cfg.canonical_dict())
        cfg2 = parse_scenario(echoed)
        assert cfg2 == cfg


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="spede"):
            parse_scenario(MINIMAL + "spede: 10\n")

    def test_unknown_user_key(self):
        doc = """
duration_ms: 1000
users:
  - kind: native_dsrc
    spede: 5
"""
        with pytest.raises(ConfigError, match="spede"):
            parse_scenario(doc)

    def test_speed_range_violation(self):
        with pytest.raises(ConfigError, match="scenario_speed_kmh"):
            parse_scenario(MINIMAL + "scenario_speed_kmh: 130\n")
        with pytest.raises(ConfigError, match=r"users\[0\]\.speed_kmh"):
            parse_scenario(MINIMAL + "    speed_kmh: 120.5\n")
        cfg = parse_scenario(MINIMAL + "    speed_kmh: 120\n")
        assert cfg.users[0].speed_kmh == 120.0

    def test_missing_duration(self):
        with pytest.raises(ConfigError, match="duration_ms"):
            parse_scenario("users: []\n")

    def test_null_duration(self):
        message = "scenario.duration_ms must be a number, got None"
        with pytest.raises(ConfigError, match=message):
            parse_scenario("duration_ms: null\n")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigError, match=r"line \d+"):
            parse_scenario("duration_ms: [unclosed\nusers:\n")

    def test_bad_kind(self):
        doc = """
duration_ms: 1000
users:
  - kind: hovercraft
"""
        with pytest.raises(ConfigError, match="hovercraft"):
            parse_scenario(doc)

    def test_interval_above_max_itt(self):
        doc = """
duration_ms: 1000
users:
  - kind: native_dsrc
    bsm_interval_ms: 700
"""
        with pytest.raises(ConfigError, match="bsm_interval_ms"):
            parse_scenario(doc)

    def test_phase_must_be_below_interval(self):
        doc = """
duration_ms: 1000
users:
  - kind: native_dsrc
    bsm_phase_ms: 100
"""
        with pytest.raises(ConfigError, match="bsm_phase_ms"):
            parse_scenario(doc)

    def test_duplicate_ids(self):
        doc = """
duration_ms: 1000
users:
  - {kind: native_dsrc, id: X}
  - {kind: native_cv2x, id: X}
"""
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario(doc)

    def test_reserved_id_namespace(self):
        """The synthetic-id namespace, and the gateway's broker client
        name, which a user's Cell publishes would otherwise pass for."""
        for user_id in ("ipu:7", ARSU_CLIENT):
            doc = f"""
duration_ms: 1000
users:
  - {{kind: native_dsrc, id: "{user_id}"}}
"""
            with pytest.raises(ConfigError, match="reserved"):
                parse_scenario(doc)

    def test_count_with_placement_rejected(self):
        doc = """
duration_ms: 1000
users:
  - {kind: native_dsrc, count: 3, x_m: 5}
"""
        with pytest.raises(ConfigError, match="count 1"):
            parse_scenario(doc)

    def test_drop_probability_range(self):
        with pytest.raises(ConfigError, match="drop_probability"):
            parse_scenario(MINIMAL + "mqtt: {drop_probability: 1.5}\n")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative"):
            parse_scenario(MINIMAL + "seed: -3\n")

    def test_empty_document(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_scenario("")

    @pytest.mark.parametrize("origin_lat, user", [
        (89.9999, "{kind: native_dsrc, id: U1, y_m: 20}"),
        (-89.9999, "{kind: native_dsrc, id: U1, y_m: -20}"),
        # 100 km/h for 10 s is 278 m of travel; the user starts 111 m
        # from the north pole.
        (89.999, "{kind: non_connected, id: U1, speed_kmh: 100}"),
        # Printed in full, not rounded to the pole at 90.
        (89.99999, "{kind: native_cv2x, id: U1, y_m: 20}"),
    ], ids=["start-north", "start-south", "travel", "next-to-pole"])
    def test_user_reaching_past_a_pole(self, origin_lat, user):
        doc = (f"duration_ms: 10000\norigin: {{lat: {origin_lat}}}\n"
               f"users:\n  - {user}\n")
        with pytest.raises(ConfigError, match="'U1' can reach latitude"
                           ) as excinfo:
            parse_scenario(doc)
        assert str(excinfo.value).endswith(f"from origin.lat {origin_lat}")

    @pytest.mark.parametrize("origin_lat, user", [
        # 90° of longitude at 89.99999° is 1.75 m.
        (89.99999, "{kind: non_connected, id: U1, x_m: 100}"),
        (-89.99999, "{kind: native_dsrc, id: U1, x_m: -100}"),
        # 90° of longitude at 89.999° is 175 m: a user 100 m east that
        # travels 100 km/h for 10 s (278 m) can reach past it.
        (89.999, "{kind: native_dsrc, id: U1, x_m: 100, y_m: -400, "
                 "speed_kmh: 100}"),
    ], ids=["start-east", "start-west", "travel"])
    def test_user_reaching_past_a_quarter_turn_east(self, origin_lat, user):
        doc = (f"duration_ms: 10000\norigin: {{lat: {origin_lat}}}\n"
               f"users:\n  - {user}\n")
        with pytest.raises(ConfigError,
                           match="'U1' can reach .* past 90° of longitude"):
            parse_scenario(doc)

    @pytest.mark.parametrize("origin_lat", [90, -90.0])
    def test_origin_on_a_pole(self, origin_lat):
        doc = (f"duration_ms: 1000\norigin: {{lat: {origin_lat}}}\n"
               "users:\n  - {kind: native_dsrc, id: U1, y_m: -20}\n")
        with pytest.raises(ConfigError, match="origin.lat .* is a pole"):
            parse_scenario(doc)

    def test_user_short_of_a_pole_accepted(self):
        doc = ("duration_ms: 10000\norigin: {lat: 89.9999}\n"
               "users:\n  - {kind: native_dsrc, y_m: -20, speed_kmh: 1}\n")
        assert parse_scenario(doc).origin.lat == 89.9999


class TestUsers:
    def test_count_expands_with_auto_ids_and_spacing(self):
        doc = """
duration_ms: 1000
users:
  - kind: nonnative_cell
    count: 3
"""
        cfg = parse_scenario(doc)
        ids = [u.user_id for u in cfg.users]
        assert ids == ["cell1", "cell2", "cell3"]
        xs = [u.x_m for u in cfg.users]
        assert xs == [0.0, 15.0, 30.0]

    def test_explicit_placement(self):
        doc = """
duration_ms: 1000
users:
  - {kind: non_connected, id: P1, x_m: 40, y_m: -3, heading_deg: 90}
"""
        user = parse_scenario(doc).users[0]
        assert (user.x_m, user.y_m) == (40.0, -3.0)
        assert user.heading_deg == 90.0
        assert user.kind.is_connected is False

    def test_heading_wraps_into_0_to_360(self):
        doc = """
duration_ms: 1000
users:
  - {kind: native_dsrc, heading_deg: -90}
  - {kind: native_dsrc, heading_deg: 360}
  - {kind: native_dsrc, heading_deg: 725}
  - {kind: native_dsrc, heading_deg: -1.0e-20}
"""
        got = [u.heading_deg for u in parse_scenario(doc).users]
        # -1e-20 % 360.0 is 360.0 in float arithmetic.
        assert got == [270.0, 0.0, 5.0, 0.0]

    def test_mixed_kinds_counter_per_kind(self):
        doc = """
duration_ms: 1000
users:
  - {kind: native_dsrc}
  - {kind: native_cv2x}
  - {kind: native_dsrc}
"""
        ids = [u.user_id for u in parse_scenario(doc).users]
        assert ids == ["dsrc1", "cv2x1", "dsrc2"]

    def test_empty_population_allowed(self):
        cfg = parse_scenario("duration_ms: 500\n")
        assert cfg.users == ()


def test_load_scenario_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario("/nonexistent/path.yaml")


def test_load_scenario_reads_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(MINIMAL)
    cfg = load_scenario(path)
    assert cfg.duration_ms == 1000


@pytest.mark.parametrize("doc, key", [
    ("duration_ms: .nan\nusers: [{kind: native_dsrc}]\n", "duration_ms"),
    ("duration_ms: .inf\nusers: [{kind: native_dsrc}]\n", "duration_ms"),
    (MINIMAL + "freshness_window_ms: .inf\n", "freshness_window_ms"),
    (MINIMAL + "scenario_speed_kmh: .nan\n", "scenario_speed_kmh"),
    ("duration_ms: 1000\nusers: [{kind: native_dsrc, heading_deg: .nan}]\n",
     "heading_deg"),
    ("duration_ms: 1000\nusers: [{kind: native_dsrc, x_m: -.inf}]\n", "x_m"),
    (f"duration_ms: 1{'0' * 400}\n", "duration_ms"),
], ids=["nan-duration", "inf-duration", "inf-freshness", "nan-speed",
        "nan-heading", "-inf-x", "int-beyond-float"])
def test_non_finite_number_rejected(tmp_path, capsys, doc, key):
    """NaN, ±inf and integers beyond the float range are config errors,
    so ``validate-config`` and ``run`` exit 2 instead of crashing or
    writing NaN into a report."""
    from arsusim.cli import main
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_scenario(doc)
    path = tmp_path / "scenario.yaml"
    path.write_text(doc)
    assert main(["validate-config", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "report.json").exists()
    assert capsys.readouterr().err.count(f"{key} must be finite") == 2


# One out-of-range value per ranged key, with the bound written out by
# hand: a bound that moves, or a range check that is lost, fails here.
@pytest.mark.parametrize("section, key, value, bound", [
    ("scenario", "duration_ms", 0.5, "< 1"),
    ("scenario", "scenario_speed_kmh", -1, "< 0"),
    ("scenario", "scenario_speed_kmh", 121, "> 120"),
    ("scenario", "freshness_window_ms", 0, "< 0.001"),
    ("origin", "lat", -90.5, "< -90"),
    ("origin", "lat", 91, "> 90"),
    ("origin", "lon", -181, "< -180"),
    ("origin", "lon", 180.5, "> 180"),
    ("arsu", "coverage_radius_m", 0.5, "< 1"),
    ("filter", "sigma_m", 0, "< 1e-09"),
    ("filter", "window_ms", 0, "< 0.001"),
    ("filter", "grace_ms", -5, "< 0.001"),
    ("ipu", "noise_std_m", -0.1, "< 0"),
    ("ipu", "frame_period_ms", 0, "< 0.001"),
    ("ipu", "processing_ms", 0, "< 0.001"),
    ("mqtt", "drop_probability", -0.1, "< 0"),
    ("mqtt", "drop_probability", 1.5, "> 1"),
    ("users[0]", "speed_kmh", -1, "< 0"),
    ("users[0]", "speed_kmh", 130, "> 120"),
    ("users[0]", "gnss_error_std_m", -1, "< 0"),
    ("users[0]", "bsm_interval_ms", 0, "< 0.001"),
    ("users[0]", "bsm_interval_ms", 601, "> 600"),
    ("users[0]", "bsm_phase_ms", -1, "< 0"),
])
def test_out_of_range_value_rejected(section, key, value, bound):
    doc = {"duration_ms": 1000, "users": [{"kind": "native_dsrc"}]}
    if section == "scenario":
        doc[key] = value
    elif section == "users[0]":
        doc["users"][0][key] = value
    else:
        doc[section] = {key: value}
    message = f"{section}.{key} out of range ({bound}): {value:g}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_scenario(yaml.safe_dump(doc))


def _finite(lo=-1e6, hi=1e6):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_KINDS = st.sampled_from([k.value for k in RoadUserKind])


@st.composite
def _user_entries(draw):
    entries = []
    for i in range(draw(st.integers(0, 6))):
        entry = {"kind": draw(_KINDS)}
        shape = draw(st.sampled_from(["auto", "count", "explicit"]))
        if shape == "count":
            entry["count"] = draw(st.integers(1, 4))
        elif shape == "explicit":
            entry["id"] = f"U{i}"
            entry["x_m"] = draw(_finite())
            entry["y_m"] = draw(_finite())
        if draw(st.booleans()):
            entry["heading_deg"] = draw(_finite(-720.0, 720.0))
        entry["speed_kmh"] = draw(st.one_of(st.none(), _finite(0.0, 120.0)))
        if draw(st.booleans()):
            entry["gnss_error_std_m"] = draw(_finite(0.0, 50.0))
        interval = draw(_finite(1e-3, 600.0))
        entry["bsm_interval_ms"] = interval
        entry["bsm_phase_ms"] = draw(_finite(0.0, interval)
                                     .filter(lambda p: p < interval))
        entries.append(entry)
    return entries


_DOCUMENTS = st.fixed_dictionaries({
    "duration_ms": _finite(1.0, 1e7),
    "scenario_speed_kmh": _finite(0.0, 120.0),
    "seed": st.integers(0, 2**70),
    "link_speed_mode": st.sampled_from(["scenario", "max_endpoint"]),
    # Users start up to 9° and travel up to 3° from the origin, so an
    # origin within 77° of the equator keeps them off the poles, which
    # the parser rejects (TestRejection.test_user_reaching_past_a_pole).
    "origin": st.fixed_dictionaries({
        "lat": _finite(-77.0, 77.0), "lon": _finite(-180.0, 180.0),
    }),
    "arsu": st.fixed_dictionaries({
        "present": st.booleans(), "x_m": _finite(), "y_m": _finite(),
        "coverage_radius_m": _finite(1.0, 1e5),
    }),
    "filter": st.fixed_dictionaries({
        "sigma_m": _finite(1e-9, 100.0), "window_ms": _finite(1e-3, 1e4),
        "grace_ms": _finite(1e-3, 1e4),
    }),
    "ipu": st.fixed_dictionaries({
        "noise_std_m": _finite(0.0, 10.0),
        "frame_period_ms": _finite(1e-3, 1e4),
        "processing_ms": _finite(1e-3, 1e4),
    }),
    "mqtt": st.fixed_dictionaries({"drop_probability": _finite(0.0, 1.0)}),
    "latency_csv": st.one_of(st.none(), st.just("delays.csv")),
    "freshness_window_ms": _finite(1e-3, 1e4),
    "users": _user_entries(),
})


# No explain phase: it traces every line the test runs, which took
# minutes on a failing example.
@settings(max_examples=150, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(doc=_DOCUMENTS)
def test_canonical_dict_round_trips_any_valid_document(doc):
    cfg = parse_scenario(yaml.safe_dump(doc))
    assert parse_scenario(yaml.safe_dump(cfg.canonical_dict())) == cfg
