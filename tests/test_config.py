import pytest

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
        doc = """
duration_ms: 1000
users:
  - {kind: native_dsrc, id: "ipu:7"}
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

    def test_empty_document(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_scenario("")


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
