import pytest
import yaml
from hypothesis import given, settings, strategies as st

from arsusim.config import RoadUserKind, parse_scenario
from arsusim.messages import LinkTech, RoadUserId, ms_to_us
from arsusim.sim import (
    Simulation,
    SimulationInvariantError,
    SimUser,
    run,
    step_mobility,
)


def make_user(speed_kmh=0.0, heading_deg=0.0, x=0.0, y=0.0):
    return SimUser(
        index=0,
        id=RoadUserId("U1"),
        kind=RoadUserKind.NATIVE_DSRC,
        x_m=x,
        y_m=y,
        heading_deg=heading_deg,
        speed_kmh=speed_kmh,
        gnss_error_std_m=0.0,
        bsm_interval_us=100_000,
        bsm_phase_us=0,
    )


def scenario(text: str):
    return parse_scenario(text)


class TestMobility:
    def test_zero_speed_stays_put(self):
        user = make_user(speed_kmh=0.0)
        step_mobility(user, 5_000_000)
        assert (user.x_m, user.y_m) == (0.0, 0.0)

    def test_sixty_kmh_one_second_north(self):
        user = make_user(speed_kmh=60.0, heading_deg=0.0)
        step_mobility(user, 1_000_000)
        # 60 km/h = 16.667 m/s
        assert user.y_m == pytest.approx(16.667, abs=1e-3)
        assert user.x_m == pytest.approx(0.0, abs=1e-12)

    def test_heading_east(self):
        user = make_user(speed_kmh=36.0, heading_deg=90.0)
        step_mobility(user, 500_000)
        assert user.x_m == pytest.approx(5.0, abs=1e-9)
        assert user.y_m == pytest.approx(0.0, abs=1e-9)

    def test_two_steps_equal_one_double_step(self):
        a = make_user(speed_kmh=75.0, heading_deg=33.0)
        b = make_user(speed_kmh=75.0, heading_deg=33.0)
        step_mobility(a, 250_000)
        step_mobility(a, 250_000)
        step_mobility(b, 500_000)
        assert a.x_m == pytest.approx(b.x_m, abs=1e-9)
        assert a.y_m == pytest.approx(b.y_m, abs=1e-9)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            step_mobility(make_user(), -1)


TWO_USER_STATIC = """
duration_ms: 1000
scenario_speed_kmh: 0
seed: 3
users:
  - {kind: native_dsrc, id: U1, x_m: 10, y_m: 0, gnss_error_std_m: 0}
  - {kind: native_cv2x, id: U2, x_m: 20, y_m: 0, gnss_error_std_m: 0}
ipu: {noise_std_m: 0}
"""


class TestTwoUserScenario:
    def test_cross_tech_latency_is_table_row_one(self):
        result = run(scenario(TWO_USER_STATIC))
        cross = [
            d for d in result.metrics.deliveries
            if {d.uplink, d.downlink} == {LinkTech.DSRC, LinkTech.CV2X}
        ]
        assert cross, "no cross-technology deliveries observed"
        for d in cross:
            assert d.latency_ms == pytest.approx(5.470, abs=0.001)

    def test_peers_hear_each_other(self):
        result = run(scenario(TWO_USER_STATIC))
        aware = result.metrics.awareness
        assert ("U1", "U2") in aware
        assert ("U2", "U1") in aware

    def test_conservation_every_bsm_relayed_once(self):
        result = run(scenario(TWO_USER_STATIC))
        # BSMs generated up to 1s - path latency arrive; count matches
        relayed_to_u2 = [
            d for d in result.metrics.deliveries
            if d.receiver == "U2" and d.subject == "U1" and not d.duplicate
        ]
        gen_times = {d.generated_at_us for d in relayed_to_u2}
        assert len(relayed_to_u2) == len(gen_times), "duplicate relay hop"
        # 10 Hz for 1 s: tx at 0..900 ms; all arrive before 1s except none
        assert len(relayed_to_u2) == 10


class TestDeterminism:
    SCENARIO = """
duration_ms: 2000
scenario_speed_kmh: 30
seed: 11
arsu: {coverage_radius_m: 300}
users:
  - {kind: native_dsrc, id: U1, x_m: 5, y_m: 0}
  - {kind: native_cv2x, id: U2, x_m: 25, y_m: 0}
  - {kind: nonnative_cell, id: U3, x_m: 45, y_m: 0}
  - {kind: non_connected, id: P1, x_m: 65, y_m: 0}
ipu: {noise_std_m: 1.0}
"""

    def test_same_seed_identical_traces(self):
        cfg = scenario(self.SCENARIO)
        first = run(cfg)
        second = run(cfg)
        assert first.trace_rows == second.trace_rows
        assert [d for d in first.metrics.deliveries] == [
            d for d in second.metrics.deliveries
        ]

    def test_seed_override_changes_noise(self):
        cfg = scenario(self.SCENARIO)
        a = run(cfg, seed=1)
        b = run(cfg, seed=2)
        assert a.trace_rows != b.trace_rows

    def test_equal_time_events_execute_in_insertion_order(self):
        # two users with identical phase transmit at the same instant
        doc = """
duration_ms: 300
seed: 0
users:
  - {kind: native_dsrc, id: A, x_m: 0, gnss_error_std_m: 0}
  - {kind: native_dsrc, id: B, x_m: 30, gnss_error_std_m: 0}
arsu: {present: false}
"""
        result = run(scenario(doc))
        tx_rows = [r for r in result.trace_rows if r[1] == "BsmTx"]
        actors = [r[2] for r in tx_rows[:2]]
        assert actors == ["A", "B"]

    def test_unknown_event_type_is_an_invariant_error(self):
        sim = Simulation(scenario(self.SCENARIO))
        with pytest.raises(SimulationInvariantError, match="unknown event"):
            sim._dispatch(0, object())

    def test_unknown_broker_client_is_an_invariant_error(self):
        sim = Simulation(scenario(self.SCENARIO))
        assert sim._user_by_id("U3").id == RoadUserId("U3")
        with pytest.raises(SimulationInvariantError, match="broker client"):
            sim._user_by_id("nobody")


class TestIpuSampling:
    def test_zero_noise_detection_confirms_with_truth_link(self):
        doc = """
duration_ms: 500
seed: 0
users:
  - {kind: non_connected, id: P1, x_m: 12, y_m: 9}
ipu: {noise_std_m: 0}
"""
        result = run(scenario(doc))
        assert result.gateway.confirmed_tracks == 1
        truth_by_synthetic = {
            syn.value: truth.value
            for syn, truth in result.gateway.synthetic_truth.items()
        }
        assert truth_by_synthetic == {"ipu:1": "P1"}
        assert result.ghost_pairs == []

    def test_three_users_in_coverage_three_detections_per_frame(self):
        doc = """
duration_ms: 250
seed: 0
users:
  - {kind: native_dsrc, id: U1, x_m: 0}
  - {kind: native_cv2x, id: U2, x_m: 20}
  - {kind: non_connected, id: P1, x_m: 40}
"""
        result = run(scenario(doc))
        frames = [r for r in result.trace_rows if r[1] == "IpuFrame"]
        assert all(r[4] == "detections=3" for r in frames)
        assert result.metrics.detections == 3 * len(frames)

    def test_available_equals_captured_plus_processing(self):
        doc = """
duration_ms: 1500
seed: 0
users:
  - {kind: non_connected, id: P1, x_m: 10}
"""
        result = run(scenario(doc))
        ready = [r for r in result.trace_rows if r[1] == "DetectionReady"]
        # frame at 1000 ms becomes available at 1300 ms
        assert any(r[0] == "1300.000" for r in ready)

    def test_out_of_coverage_not_detected(self):
        doc = """
duration_ms: 250
seed: 0
arsu: {coverage_radius_m: 50}
users:
  - {kind: non_connected, id: P1, x_m: 500}
"""
        result = run(scenario(doc))
        assert result.metrics.detections == 0


class TestCoverageMetric:
    def test_empty_population_has_no_pairs(self):
        result = run(scenario("duration_ms: 300\n"))
        assert result.final_coverage is None
        assert result.metrics.deliveries == []

    def test_full_awareness_reaches_one(self):
        doc = """
duration_ms: 3000
seed: 0
users:
  - {kind: native_dsrc, id: U1, x_m: 10, gnss_error_std_m: 0}
  - {kind: native_cv2x, id: U2, x_m: 20, gnss_error_std_m: 0}
ipu: {noise_std_m: 0}
"""
        result = run(scenario(doc))
        assert result.final_coverage == 1.0

    def test_no_deliveries_zero_coverage(self):
        doc = """
duration_ms: 300
seed: 0
arsu: {present: false}
users:
  - {kind: native_dsrc, id: U1, x_m: 0}
  - {kind: native_cv2x, id: U2, x_m: 30}
"""
        result = run(scenario(doc))
        assert result.final_coverage == 0.0


MIXED_TABLE1 = """
duration_ms: 4000
scenario_speed_kmh: 0
seed: 5
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_dsrc, id: U1, x_m: 0, gnss_error_std_m: 0}
  - {kind: native_cv2x, id: U2, x_m: 15, gnss_error_std_m: 0}
  - {kind: nonnative_cell, id: U3, x_m: 30, gnss_error_std_m: 0}
  - {kind: nonnative_cell, id: U4, x_m: 45, gnss_error_std_m: 0}
  - {kind: non_connected, id: P1, x_m: 60}
ipu: {noise_std_m: 0}
"""


class TestTableOneClosure:
    def test_exactly_the_ten_heterogeneous_paths_plus_none_extra(self):
        result = run(scenario(MIXED_TABLE1))
        observed = {
            (d.uplink, d.downlink) for d in result.metrics.deliveries
        }
        heterogeneous = {p for p in observed if p[0] is not p[1]}
        camera = LinkTech.CAMERA
        dsrc, cv2x, cell = LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT
        expected = {
            (dsrc, cv2x), (dsrc, cell),
            (cv2x, dsrc), (cv2x, cell),
            (cell, cv2x), (cell, dsrc),
            (camera, cv2x), (camera, dsrc), (camera, cell),
        }
        assert heterogeneous == expected
        # scenario 7 (Cell -> Cloud -> Cell) is same-tech via the broker
        assert (cell, cell) in observed
        assert len(observed) == 10

    def test_max_itt_compliance(self):
        result = run(scenario(MIXED_TABLE1))
        worst = max(d.latency_ms for d in result.metrics.deliveries)
        assert worst < 600.0
        # slowest modeled path at 0 km/h is the camera-to-cell bundle
        assert worst <= 341.659 + 0.001


class TestDuplicateSuppression:
    def test_keep_earliest_is_marked(self):
        # U3 and U4 both hear U1 via the DSRC topic once; no duplicates
        result = run(scenario(MIXED_TABLE1))
        dups = [d for d in result.metrics.deliveries if d.duplicate]
        # cross-check: any duplicate shares (receiver, subject, generated_at)
        seen = set()
        for d in result.metrics.deliveries:
            key = (d.receiver, d.subject, d.generated_at_us)
            if key in seen:
                assert d.duplicate
            else:
                assert not d.duplicate
                seen.add(key)


class TestLinkSpeedModes:
    def test_max_endpoint_uses_faster_user(self):
        doc = """
duration_ms: 400
scenario_speed_kmh: 0
link_speed_mode: max_endpoint
seed: 0
arsu: {present: false}
users:
  - {kind: native_dsrc, id: U1, x_m: 0, speed_kmh: 120, heading_deg: 90, gnss_error_std_m: 0}
  - {kind: native_dsrc, id: U2, x_m: 30, speed_kmh: 0, gnss_error_std_m: 0}
"""
        result = run(scenario(doc))
        direct = [d for d in result.metrics.deliveries
                  if d.uplink is LinkTech.DSRC and d.downlink is LinkTech.DSRC]
        assert direct
        # 2 x half(DSRC, 120 km/h) = 2 x 7.122
        for d in direct:
            assert d.latency_ms == pytest.approx(14.244, abs=0.001)

    def test_scenario_mode_uses_scenario_speed(self):
        result = run(scenario(TWO_USER_STATIC))
        for d in result.metrics.deliveries:
            expected = result.model.composed_delay(d.uplink, d.downlink, 0.0)
            assert d.latency_ms == pytest.approx(expected, abs=0.001)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_max_endpoint_latency_matches_model(self, data):
        """Every non-camera delivery of a random ``max_endpoint`` scenario
        takes the delay worked out from the model and the endpoint
        speeds: twice the half at the faster speed on a direct link,
        the sender's half plus the receiver's half otherwise."""
        speeds = st.integers(0, 1200).map(lambda tenths: tenths / 10)
        kinds = st.sampled_from([k.value for k in RoadUserKind])
        users = [
            {
                "kind": data.draw(kinds),
                "id": f"U{i}",
                "x_m": data.draw(st.integers(-160, 160)),
                "heading_deg": data.draw(st.integers(0, 359)),
                "speed_kmh": data.draw(speeds),
                "bsm_phase_ms": data.draw(st.integers(0, 99)),
            }
            for i in range(data.draw(st.integers(2, 8)))
        ]
        cfg = parse_scenario(yaml.safe_dump({
            "duration_ms": 500,
            "scenario_speed_kmh": data.draw(speeds),
            "link_speed_mode": "max_endpoint",
            "seed": data.draw(st.integers(0, 2**16)),
            "users": users,
        }))
        result = run(cfg)
        speed = {u["id"]: u["speed_kmh"] for u in users}

        def half_us(tech, speed_kmh):
            return ms_to_us(result.model.half_delay(tech, speed_kmh))

        for d in result.metrics.deliveries:
            if d.uplink is LinkTech.CAMERA:
                continue  # carries the IPU processing and grace wait
            sender_kmh, receiver_kmh = speed[d.subject], speed[d.receiver]
            if d.uplink is d.downlink and d.uplink is not LinkTech.CELL_MQTT:
                expected = 2 * half_us(d.uplink, max(sender_kmh, receiver_kmh))
            else:
                expected = (
                    half_us(d.uplink, sender_kmh)
                    + half_us(d.downlink, receiver_kmh)
                )
            assert d.delivered_at_us - d.generated_at_us == expected, d


class TestCameraPathTiming:
    def test_camera_to_cv2x_at_30_kmh(self):
        # steady-state camera relays: capture + 300 ms processing +
        # half(CV2X, 30) = 304.169 ms end to end
        doc = """
duration_ms: 3000
scenario_speed_kmh: 30
seed: 0
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_cv2x, id: U2, x_m: 10, gnss_error_std_m: 0}
  - {kind: non_connected, id: P1, x_m: 40}
ipu: {noise_std_m: 0}
"""
        result = run(scenario(doc))
        camera = [d for d in result.metrics.deliveries
                  if d.uplink is LinkTech.CAMERA
                  and d.downlink is LinkTech.CV2X]
        assert camera, "no camera-path deliveries"
        for d in camera:
            assert d.latency_ms == pytest.approx(304.169, abs=0.001)


class TestBrokerContract:
    def test_one_cell_publish_per_bsm_interval(self):
        # 4 s at 10 Hz: each nonnative user publishes exactly 40 times
        result = run(scenario(MIXED_TABLE1))
        for client in ("U3", "U4"):
            publishes = {
                d.published_at_us
                for d in result.broker.delivery_log
                if d.publisher == client
            }
            assert len(publishes) == 40, (
                f"{client} published {len(publishes)} times in 40 intervals"
            )


class TestNoRegeneration:
    def test_gateway_originates_only_synthetic_ids(self):
        result = run(scenario(MIXED_TABLE1))
        connected = {"U1", "U2", "U3", "U4"}
        for d in result.metrics.deliveries:
            if d.uplink is LinkTech.CAMERA:
                assert d.subject.startswith("ipu:"), (
                    f"camera-path payload carried id {d.subject}"
                )
            else:
                # relays keep the original transmitter id, verbatim
                assert d.subject in connected


class TestLatencyCsvConfig:
    def test_scenario_with_custom_table(self, tmp_path):
        from arsusim.latency import LatencyModel, composed_csv_rows
        rows = composed_csv_rows(LatencyModel.default().composed_matrix())
        path = tmp_path / "delays.csv"
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        doc = f"""
duration_ms: 500
seed: 0
latency_csv: {path}
users:
  - {{kind: native_dsrc, id: U1, x_m: 10, gnss_error_std_m: 0}}
  - {{kind: native_cv2x, id: U2, x_m: 20, gnss_error_std_m: 0}}
ipu: {{noise_std_m: 0}}
"""
        result = run(scenario(doc))
        assert result.metrics.deliveries

    def test_missing_table_is_a_config_error(self):
        from arsusim.config import ConfigError
        doc = """
duration_ms: 500
latency_csv: /nonexistent/delays.csv
users:
  - {kind: native_dsrc}
"""
        with pytest.raises(ConfigError, match="latency_csv"):
            run(scenario(doc))

    def test_malformed_table_is_a_config_error(self, tmp_path):
        from arsusim.config import ConfigError
        path = tmp_path / "junk.csv"
        path.write_text("nope\n")
        doc = f"""
duration_ms: 500
latency_csv: {path}
users:
  - {{kind: native_dsrc}}
"""
        with pytest.raises(ConfigError, match="latency_csv"):
            run(scenario(doc))


class TestGhostTail:
    def test_gnss_error_beyond_sigma_produces_ghosts(self):
        # reported positions are pushed ~12 m off truth: never match sigma=5
        doc = """
duration_ms: 1500
seed: 2
users:
  - {kind: native_dsrc, id: U1, x_m: 10, gnss_error_std_m: 12.0}
ipu: {noise_std_m: 0}
"""
        result = run(scenario(doc))
        assert len(result.ghost_pairs) >= 1
        assert all(truth == "U1" for _, truth in result.ghost_pairs)
