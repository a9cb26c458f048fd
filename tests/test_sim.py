import dataclasses
import gc
import heapq
import tracemalloc
import weakref

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from arsusim.broker import ARSU_CLIENT
from arsusim.config import RoadUserKind, parse_scenario
from arsusim.gateway import GENERATION_TARGETS
from arsusim.report import build_report_dict
from arsusim.messages import (
    SYNTHETIC_ID_PREFIX,
    LinkTech,
    PositionAccuracy,
    Topic,
    make_bsm,
    ms_to_us,
    us_to_ms,
)
from arsusim.sim import (
    _Cut,
    _Group,
    _group_by_time,
    Simulation,
    SimulationInvariantError,
    run,
)
from arsusim.trace import TraceRows

from conftest import (
    awareness,
    collect_deliveries,
    collect_records,
    record_on_rx,
    record_publishes,
    run_collecting,
)


def scenario(text: str):
    return parse_scenario(text)


def moving_user(speed_kmh=0.0, heading_deg=0.0):
    """A simulation of one road user at the A-RSU, and that user."""
    simulation = Simulation(scenario(
        "duration_ms: 1000\nusers:\n"
        f"  - {{kind: native_dsrc, id: U1, speed_kmh: {speed_kmh},"
        f" heading_deg: {heading_deg}}}\n"))
    return simulation, simulation.users[0]


class TestMobility:
    """``Simulation._move``, the one home of a user's position."""

    def test_zero_speed_stays_put(self):
        simulation, user = moving_user(speed_kmh=0.0)
        assert simulation._move((user,), 5_000_000) == [user]
        assert (user.x_m, user.y_m) == (0.0, 0.0)
        assert user.updated_at_us == 5_000_000

    def test_sixty_kmh_one_second_north(self):
        simulation, user = moving_user(speed_kmh=60.0, heading_deg=0.0)
        simulation._move((user,), 1_000_000)
        # 60 km/h = 16.667 m/s
        assert user.y_m == pytest.approx(16.667, abs=1e-3)
        assert user.x_m == pytest.approx(0.0, abs=1e-12)

    def test_heading_east(self):
        simulation, user = moving_user(speed_kmh=36.0, heading_deg=90.0)
        simulation._move((user,), 500_000)
        assert user.x_m == pytest.approx(5.0, abs=1e-9)
        assert user.y_m == pytest.approx(0.0, abs=1e-9)

    def test_two_steps_equal_one_double_step(self):
        first, a = moving_user(speed_kmh=75.0, heading_deg=33.0)
        second, b = moving_user(speed_kmh=75.0, heading_deg=33.0)
        first._move((a,), 250_000)
        first._move((a,), 500_000)
        second._move((b,), 500_000)
        assert a.x_m == pytest.approx(b.x_m, abs=1e-9)
        assert a.y_m == pytest.approx(b.y_m, abs=1e-9)

    def test_negative_dt_rejected(self):
        simulation, user = moving_user(speed_kmh=30.0)
        simulation._move((user,), 200_000)
        with pytest.raises(SimulationInvariantError):
            simulation._move((user,), 199_999)


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
        _, deliveries = run_collecting(scenario(TWO_USER_STATIC))
        cross = [
            d for d in deliveries
            if {d.uplink, d.downlink} == {LinkTech.DSRC, LinkTech.CV2X}
        ]
        assert cross, "no cross-technology deliveries observed"
        for d in cross:
            assert d.latency_ms == pytest.approx(5.470, abs=0.001)

    def test_peers_hear_each_other(self):
        result = run(scenario(TWO_USER_STATIC))
        aware = awareness(result.metrics)
        assert ("U1", "U2") in aware
        assert ("U2", "U1") in aware

    def test_users_across_the_antimeridian_hear_each_other(self):
        """U1 is 10 m east of an origin on lon 180, so its longitude
        wraps to just above -180; U2 is 10 m west. The gateway relays
        between their technologies."""
        doc = TWO_USER_STATIC.replace("x_m: 20", "x_m: -10") + (
            "origin: {lat: 10, lon: 180}\n"
        )
        result = run(scenario(doc))
        aware = awareness(result.metrics)
        assert ("U1", "U2") in aware and ("U2", "U1") in aware
        tx = {(r[2], r[4]) for r in result.trace_rows if r[1] == "BsmTx"}
        assert tx == {("U1", "x_m=10.000 y_m=0.000"),
                      ("U2", "x_m=-10.000 y_m=0.000")}

    def test_conservation_every_bsm_relayed_once(self):
        _, deliveries = run_collecting(scenario(TWO_USER_STATIC))
        # BSMs generated up to 1s - path latency arrive; count matches
        relayed_to_u2 = [
            d for d in deliveries
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
        first, first_deliveries = run_collecting(cfg)
        second, second_deliveries = run_collecting(cfg)
        assert list(first.trace_rows) == list(second.trace_rows)
        assert first_deliveries == second_deliveries

    def test_seed_override_changes_noise(self):
        cfg = scenario(self.SCENARIO)
        a = run(cfg, seed=1)
        b = run(cfg, seed=2)
        assert list(a.trace_rows) != list(b.trace_rows)

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
        assert result.gateway.synthetic_truth == {"ipu:1": "P1"}
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

    def test_pedestrian_near_a_pole_is_confirmed(self):
        """100 m east of an origin 111 m from the north pole, well short of
        90° of longitude (175 m there), the pedestrian keeps its own
        meridian: it is confirmed, and every pair is heard, as at the
        equator. At 89.99999° the same scenario is a config error."""
        doc = """
duration_ms: 2000
seed: 3
origin: {lat: 89.999, lon: 0}
users:
  - {kind: native_dsrc, id: U1, gnss_error_std_m: 0}
  - {kind: native_cv2x, id: U2, y_m: -20, gnss_error_std_m: 0}
  - {kind: non_connected, id: P1, x_m: 100}
ipu: {noise_std_m: 0}
"""
        result = run(scenario(doc))
        assert result.gateway.confirmed_tracks == 1
        assert result.final_coverage == 1.0

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


class TestCoverageDisc:
    """The gateway hears radio BSMs, and the camera sees road users, in
    one disc: centred on the A-RSU, its edge included."""

    DOC = """
duration_ms: 1000
seed: 0
arsu: {x_m: 120, y_m: -80, coverage_radius_m: 50}
ipu: {noise_std_m: 0}
users:
  - {kind: native_dsrc, id: car-in, x_m: 170, y_m: -80, speed_kmh: 0,
     gnss_error_std_m: 0}
  - {kind: non_connected, id: ped-in, x_m: 170, y_m: -80, speed_kmh: 0}
  - {kind: native_dsrc, id: car-out, x_m: 170.01, y_m: -80, speed_kmh: 0,
     gnss_error_std_m: 0}
  - {kind: non_connected, id: ped-out, x_m: 170.01, y_m: -80,
     speed_kmh: 0}
"""

    def test_users_on_the_edge_are_heard_and_seen_and_beyond_are_not(self):
        simulation = Simulation(scenario(self.DOC))
        heard = record_on_rx(simulation)
        frames = []
        on_frame = simulation.gateway.on_frame

        def seeing(detections, now_us):
            frames.append([d.truth_id for d in detections])
            return on_frame(detections, now_us)

        simulation.gateway.on_frame = seeing
        simulation.run()
        # Every BSM car-in sends is heard; car-out's never are.
        assert [(bsm.id, bsm.generated_at_us) for bsm, *_ in heard] == [
            ("car-in", at_us) for at_us in range(0, 1_000_000, 100_000)]
        # Frames captured at 0..600 ms are ready before the end.
        assert frames == [["car-in", "ped-in"]] * 7


class TestCoverageMetric:
    def test_empty_population_has_no_pairs(self):
        result, deliveries = run_collecting(scenario("duration_ms: 300\n"))
        assert result.final_coverage is None
        assert deliveries == []

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

    def test_never_heard_is_not_fresh_before_a_window_has_passed(self):
        """At the 100 ms tick, before the 600 ms freshness window has
        passed, U1 and U2 have heard each other and U3, alone on its
        technology without a gateway, has heard nobody: 2 of 6 pairs."""
        doc = """
duration_ms: 150
seed: 0
arsu: {present: false}
users:
  - {kind: native_dsrc, id: U1, x_m: 0}
  - {kind: native_dsrc, id: U2, x_m: 30}
  - {kind: native_cv2x, id: U3, x_m: 60}
"""
        result = run(scenario(doc))
        assert result.metrics.coverage_samples[0] == (100_000, 2 / 6)
        assert set(awareness(result.metrics)) == {
            ("U1", "U2"), ("U2", "U1"),
        }

    def test_coverage_counts_last_heard_in_place(self):
        """One coverage sample of 400 users of the four kinds allocates
        under 2·n² bytes at its peak: the n×n boolean of fresh entries,
        and no copy of the connected users' int64 rows (about 6·n²)."""
        doc = """
duration_ms: 200
scenario_speed_kmh: 30
seed: 7
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_dsrc, count: 100}
  - {kind: native_cv2x, count: 100}
  - {kind: nonnative_cell, count: 100}
  - {kind: non_connected, count: 100}
"""
        simulation = Simulation(scenario(doc))
        result = simulation.run()
        n = len(result.users)
        tracemalloc.start()
        try:
            coverage = simulation._coverage(result.config.duration_us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coverage == result.final_coverage > 0
        assert peak < 2 * n * n, peak

    def test_last_heard_holds_a_row_per_receiver(self):
        """``last_heard`` has one row per connected user, in user index
        order, and none for a pedestrian; with pedestrians between the
        cars, a car's row is not its user index, and each pair heard is
        read back from the right row."""
        doc = """
duration_ms: 1000
scenario_speed_kmh: 30
seed: 7
users:
  - {kind: non_connected, id: P1, x_m: 5}
  - {kind: native_dsrc, id: D1, x_m: 10}
  - {kind: non_connected, id: P2, x_m: 15}
  - {kind: native_cv2x, id: C1, x_m: 20}
"""
        metrics = run(scenario(doc)).metrics
        assert metrics.receivers == [1, 3]
        assert metrics.last_heard.shape == (2, 4)
        assert {receiver for receiver, _ in awareness(metrics)} == {
            "D1", "C1"}
        assert {("D1", "C1"), ("C1", "D1")} <= set(awareness(metrics))


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
        _, deliveries = run_collecting(scenario(MIXED_TABLE1))
        observed = {(d.uplink, d.downlink) for d in deliveries}
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
        _, deliveries = run_collecting(scenario(MIXED_TABLE1))
        worst = max(d.latency_ms for d in deliveries)
        assert worst < 600.0
        # slowest modeled path at 0 km/h is the camera-to-cell bundle
        assert worst <= 341.659 + 0.001


class TestDuplicateSuppression:
    def test_keep_earliest_is_marked(self):
        # U3 and U4 both hear U1 via the DSRC topic once; no duplicates
        _, deliveries = run_collecting(scenario(MIXED_TABLE1))
        dups = [d for d in deliveries if d.duplicate]
        # cross-check: any duplicate shares (receiver, subject, generated_at)
        seen = set()
        for d in deliveries:
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
        _, deliveries = run_collecting(scenario(doc))
        direct = [d for d in deliveries
                  if d.uplink is LinkTech.DSRC and d.downlink is LinkTech.DSRC]
        assert direct
        # 2 x half(DSRC, 120 km/h) = 2 x 7.122
        for d in direct:
            assert d.latency_ms == pytest.approx(14.244, abs=0.001)

    def test_scenario_mode_uses_scenario_speed(self):
        result, deliveries = run_collecting(scenario(TWO_USER_STATIC))
        for d in deliveries:
            expected = result.model.composed_delay(d.uplink, d.downlink, 0.0)
            assert d.latency_ms == pytest.approx(expected, abs=0.001)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_max_endpoint_latency_matches_model(self, data):
        """Every non-camera delivery of a random ``max_endpoint`` scenario
        takes the delay worked out from the model and the endpoint
        speeds: twice the half at the faster speed on a direct link,
        the sender's half plus the receiver's half otherwise. With broker
        drops, a publish's plan is cut to the receivers kept."""
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
            "mqtt": {"drop_probability": data.draw(
                st.sampled_from([0.0, 0.3, 1.0]))},
            "users": users,
        }))
        result, deliveries = run_collecting(cfg)
        speed = {u["id"]: u["speed_kmh"] for u in users}

        def half_us(tech, speed_kmh):
            return ms_to_us(result.model.half_delay(tech, speed_kmh))

        for d in deliveries:
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
        _, deliveries = run_collecting(scenario(doc))
        camera = [d for d in deliveries
                  if d.uplink is LinkTech.CAMERA
                  and d.downlink is LinkTech.CV2X]
        assert camera, "no camera-path deliveries"
        for d in camera:
            assert d.latency_ms == pytest.approx(304.169, abs=0.001)


class TestBrokerContract:
    def test_one_cell_publish_per_bsm_interval(self):
        # 4 s at 10 Hz: each nonnative user publishes exactly 40 times
        simulation = Simulation(scenario(MIXED_TABLE1))
        published = record_publishes(simulation)
        simulation.run()
        for client in ("U3", "U4"):
            publishes = {
                envelope.published_at_us
                for publisher, envelope, recipients in published
                if publisher == client and recipients
            }
            assert len(publishes) == 40, (
                f"{client} published {len(publishes)} times in 40 intervals"
            )

    def test_all_dropped_gateway_hears_no_cell_publish(self):
        simulation = Simulation(scenario(
            MIXED_TABLE1 + "mqtt: {drop_probability: 1.0}\n"))
        published = record_publishes(simulation)
        deliveries = collect_deliveries(simulation)
        result = simulation.run()
        paths = {(d.uplink, d.downlink) for d in deliveries}
        assert (LinkTech.DSRC, LinkTech.CV2X) in paths
        assert (LinkTech.CELL_MQTT, LinkTech.DSRC) not in paths
        assert (LinkTech.CELL_MQTT, LinkTech.CV2X) not in paths
        # No MqttDelivery row at all: neither the A-RSU nor a road user
        # gets a publish.
        assert not any(r[1] == "MqttDelivery" for r in result.trace_rows)
        assert result.broker.drop_count > 0
        assert published
        assert all(recipients == () for _, _, recipients in published)


class TestNoRegeneration:
    def test_gateway_originates_only_synthetic_ids(self):
        _, deliveries = run_collecting(scenario(MIXED_TABLE1))
        connected = {"U1", "U2", "U3", "U4"}
        for d in deliveries:
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
        _, deliveries = run_collecting(scenario(doc))
        assert deliveries

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


    def test_table_row_with_one_cell_is_a_config_error(self, tmp_path):
        from arsusim.config import ConfigError
        from arsusim.latency import LatencyModel, composed_csv_rows
        rows = [",".join(r) for r in composed_csv_rows(
            LatencyModel.default().composed_matrix())]
        rows[2] = "DSRC"
        path = tmp_path / "short.csv"
        path.write_text("\n".join(rows) + "\n")
        doc = f"""
duration_ms: 500
latency_csv: {path}
users:
  - {{kind: native_dsrc}}
"""
        with pytest.raises(ConfigError, match="latency_csv: .*row 2"):
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


class TestTraceRows:
    def test_first_and_last_rows(self):
        result = run(scenario(TWO_USER_STATIC))
        assert isinstance(result.trace_rows, TraceRows)
        rows = list(result.trace_rows)
        assert rows[0] == ("0.000", "BsmTx", "U1", "",
                           "x_m=10.000 y_m=0.000")
        assert rows[-1] == ("1000.000", "MetricsTick", "sim", "",
                            f"coverage={result.final_coverage:.4f}")
        assert rows[len(result.trace_rows) - 1] == rows[-1]

    def test_delivery_row_formatted_from_its_record(self):
        result, deliveries = run_collecting(scenario(MIXED_TABLE1))
        rows = list(result.trace_rows)
        topic_rows = [r for r in rows
                      if r[1] == "MqttDelivery" and r[2] != ARSU_CLIENT]
        assert topic_rows
        first = next(d for d in deliveries if d.topic is not None)
        assert topic_rows[0] == (
            f"{first.delivered_at_us / 1000:.3f}", "MqttDelivery",
            first.receiver, first.subject,
            f"up={first.uplink.value} down={first.downlink.value}"
            f" latency_ms={first.latency_ms:.3f} topic={first.topic.value}",
        )

    def test_len_counts_the_expanded_rows(self):
        result, deliveries = run_collecting(scenario(MIXED_TABLE1))
        rows = result.trace_rows
        assert len(rows) == len(list(rows)) > 100
        assert result.metrics.delivered == len(deliveries) > 100


TWO_PEDESTRIANS = """
duration_ms: 1000
scenario_speed_kmh: 3
seed: 2
users:
  - {kind: non_connected, id: P1, x_m: 10}
  - {kind: non_connected, id: P2, x_m: 40}
"""


class TestRunOnce:
    @pytest.mark.parametrize("doc, detections", [
        (TWO_PEDESTRIANS, 10 * 2),
        # Connected users: a second run stepped them back in time.
        (MIXED_TABLE1, 40 * 5),
    ], ids=["pedestrians", "connected"])
    def test_second_run_raises_and_changes_nothing(self, doc, detections):
        """A second ``run()`` raises before it schedules anything: the
        first result's metrics, trace and report stay as they were."""
        simulation = Simulation(scenario(doc))
        result = simulation.run()
        assert result.metrics.detections == detections
        rows = list(result.trace_rows)
        report = build_report_dict(result)
        with pytest.raises(SimulationInvariantError, match="runs once"):
            simulation.run()
        assert simulation._heap == []
        assert result.metrics.detections == detections
        assert list(result.trace_rows) == rows
        assert build_report_dict(result) == report


#: Two pedestrians, confirmed and then refreshed in every frame, next to
#: a connected user of each technology.
SHARED = """
duration_ms: 1500
scenario_speed_kmh: 0
seed: 5
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_dsrc, id: U1, x_m: 0, gnss_error_std_m: 0}
  - {kind: native_cv2x, id: U2, x_m: 15, gnss_error_std_m: 0}
  - {kind: nonnative_cell, id: U3, x_m: 30, gnss_error_std_m: 0}
  - {kind: non_connected, id: P1, x_m: 60}
  - {kind: non_connected, id: P2, x_m: 80}
ipu: {noise_std_m: 0}
"""


def _assert_one_object_per_value(strings):
    """Each distinct value among ``strings`` is one object; returns how
    many values there are."""
    first = {}
    for text in strings:
        assert first.setdefault(text, text) is text, text
    return len(first)


class TestSharedStrings:
    """What a run holds is built of shared objects, and so are the rows
    its trace yields: the rows of one instant share one time string, and
    each repeating detail, label or batch of subjects is one object."""

    def test_rows_of_one_instant_share_one_time_string(self):
        result = run(scenario(SHARED))
        trace = list(result.trace_rows)
        assert all(type(row) is tuple for row in trace)
        instants = _assert_one_object_per_value(row[0] for row in trace)
        assert instants < len(trace)  # some instants hold several rows
        deliveries = [row for row in trace
                      if row[1].endswith("Delivery") and row[2] != ARSU_CLIENT]
        assert _assert_one_object_per_value(
            row[4] for row in deliveries) < len(deliveries)

    def test_refreshes_of_a_track_share_their_labels(self):
        result = run(scenario(SHARED))
        ready = [row[4] for row in result.trace_rows
                 if row[1] == "DetectionReady"]
        _assert_one_object_per_value(ready)
        assert {"NonConnected track=1", "NonConnected track=2",
                "Connected matched=U1"} <= set(ready)
        assert len(ready) > 2 * len(set(ready))

    def test_batches_of_one_frame_share_their_subjects(self):
        """A frame's batches share one tuple of subjects and one of truth
        indices; so do the one-BSM records of each subject."""
        simulation = Simulation(scenario(SHARED))
        records = collect_records(simulation)
        simulation.run()
        frames = {}
        singles = {}
        for record in records:
            if len(record.subjects) > 1:
                frames.setdefault(record.generated_at_us, []).append(record)
            else:
                singles.setdefault(record.subjects[0], []).append(record)
        assert {"U1", "U2", "U3", "ipu:1", "ipu:2"} <= set(singles)
        for group in singles.values():
            first = group[0]
            assert len(group) > 1
            assert all(r.subjects is first.subjects
                       and r.truth_indices is first.truth_indices
                       for r in group)
        assert len(frames) > 5
        for batches in frames.values():
            assert [b.downlink for b in batches] == [
                LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT]
            first = batches[0]
            assert all(b.subjects is first.subjects
                       and b.truth_indices is first.truth_indices
                       for b in batches)


def _final_coverage_oracle(result):
    """Final coverage by brute force: the share of (connected receiver,
    other user) pairs whose awareness entry is within the freshness
    window at the end of the run."""
    ids = [u.id for u in result.users]
    connected = [u.id for u in result.users if u.spec.kind.is_connected]
    end_us = result.config.duration_us
    freshness_us = ms_to_us(result.config.freshness_window_ms)
    heard = awareness(result.metrics)
    pairs = fresh = 0
    for receiver in connected:
        for subject in ids:
            if subject == receiver:
                continue
            pairs += 1
            last = heard.get((receiver, subject))
            if last is not None and end_us - last < freshness_us:
                fresh += 1
    return fresh / pairs if pairs else None


def _random_scenario(data):
    """A small random scenario: 1-9 users of any kind, either link speed
    mode, with or without the gateway, broker drops, ghosts and
    duplicate deliveries."""
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
            # A 12 m GNSS error lets the camera confirm a connected
            # user as non-connected: a ghost.
            "gnss_error_std_m": data.draw(st.sampled_from([0, 12])),
        }
        for i in range(data.draw(st.integers(1, 8)))
    ]
    duration = st.integers(1, 600)
    arsu_present = st.booleans()
    if data.draw(st.sampled_from([True, False])):
        # A pedestrian walking beside U0, closer than sigma (5 m), with
        # U0 made a pedestrian too and both 40 m off the others' line:
        # from the first refresh on, at about 500 ms, the camera
        # refreshes their one track twice a frame, so one arrival
        # carries its key twice.
        users[0].update(kind="non_connected", y_m=40)
        users.append(dict(users[0], id=f"U{len(users)}",
                          x_m=users[0]["x_m"] + data.draw(st.integers(0, 3))))
        duration, arsu_present = st.integers(600, 800), st.just(True)
    return parse_scenario(yaml.safe_dump({
        "duration_ms": data.draw(duration),
        "scenario_speed_kmh": data.draw(speeds),
        "link_speed_mode": data.draw(
            st.sampled_from(["scenario", "max_endpoint"])),
        "seed": data.draw(st.integers(0, 2**16)),
        "arsu": {"present": data.draw(arsu_present)},
        "mqtt": {"drop_probability": data.draw(
            st.sampled_from([0.0, 0.3]))},
        "users": users,
    }))


class TestTraceProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_trace_matches_events_and_deliveries(self, data):
        """On random small scenarios, in both link speed modes, with or
        without broker drops and with or without ghosts: one trace row per
        executed event plus the final tick, time never runs backwards, the
        user delivery rows are the recorded deliveries in order, no user
        is handed its own BSM, reading twice gives the same rows, the
        final coverage is the share of (connected receiver, other user)
        pairs heard within the freshness window, and ``last_heard`` holds
        a row for each connected user only."""
        result, deliveries = run_collecting(_random_scenario(data))
        rows = result.trace_rows
        assert len(rows) == result.metrics.events_executed + 1
        times = [float(r[0]) for r in rows]
        assert times == sorted(times)
        delivery_rows = [
            (r[2], r[3], r[0]) for r in rows
            if r[1] in ("RadioDelivery", "MqttDelivery")
            and r[2] != ARSU_CLIENT
        ]
        assert delivery_rows == [
            (d.receiver, d.subject, f"{d.delivered_at_us / 1000:.3f}")
            for d in deliveries
        ]
        assert all(d.receiver != d.subject for d in deliveries)
        assert list(rows) == list(rows)
        assert len(list(rows)) == len(rows)
        assert result.final_coverage == _final_coverage_oracle(result)
        # Only connected users receive, and only they have a row of
        # ``last_heard``: ``_coverage`` counts the whole matrix.
        receivers = [u.index for u in result.users
                     if u.spec.kind.is_connected]
        assert result.metrics.receivers == receivers
        assert result.metrics.last_heard.shape == (
            len(receivers), len(result.users))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_tape_reads_as_rows_formatted_when_written(self, data):
        """On random small scenarios, the tape's reader gives, for every
        entry kind, the rows formatted from what each write was passed,
        in write order; its length is the rows read, a second read gives
        the same rows, and the delivery rows are the collected
        deliveries."""
        simulation = Simulation(_random_scenario(data))
        written = _eager_rows(simulation)
        deliveries = collect_deliveries(simulation)
        result = simulation.run()
        rows = list(result.trace_rows)
        assert len(result.trace_rows) == len(rows)
        assert list(result.trace_rows) == rows
        assert rows == written
        _assert_collected_match_trace(result, deliveries)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_collected_deliveries_match_trace_rows(self, data):
        """On random small scenarios, in both link speed modes and with
        or without broker drops, ``collect_deliveries`` gives the user
        delivery rows of the trace."""
        _assert_collected_match_trace(*run_collecting(_random_scenario(data)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_gateway_never_hears_a_key_twice(self, data):
        """On random small scenarios, in both link speed modes, with or
        without broker drops and with or without ghosts, the gateway
        hears each (id, generated_at) key once and every BSM over its
        origin medium, so ``on_rx``'s loop guard never drops one: it
        hears only road users' own sends, and sends only to road users."""
        simulation = Simulation(_random_scenario(data))
        if simulation.gateway is None:
            return
        heard = record_on_rx(simulation)
        simulation.run()
        keys = [(bsm.id, bsm.generated_at_us) for bsm, *_ in heard]
        assert len(set(keys)) == len(keys)
        assert all(bsm.origin_tech is via for bsm, via, *_ in heard)
        assert all(targets != () for *_, targets in heard)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_gateway_sends_only_what_it_heard_or_generated(self, data):
        """On random small scenarios a road user publishes only on Cell;
        the gateway publishes on IPU only camera BSMs under ``ipu:`` ids,
        and on DSRC or CV2X only a BSM object it heard, of that origin."""
        simulation = Simulation(_random_scenario(data))
        heard = [] if simulation.gateway is None else record_on_rx(simulation)
        published = record_publishes(simulation)
        simulation.run()
        heard_ids = {id(bsm) for bsm, *_ in heard}
        topic_tech = {Topic.DSRC: LinkTech.DSRC, Topic.CV2X: LinkTech.CV2X}
        for publisher, envelope, _ in published:
            topic, bsm = envelope.topic, envelope.payload
            if publisher != ARSU_CLIENT:
                assert topic is Topic.CELL
            elif topic is Topic.IPU:
                assert bsm.id.startswith(SYNTHETIC_ID_PREFIX)
                assert bsm.origin_tech is LinkTech.CAMERA
            else:
                assert id(bsm) in heard_ids
                assert bsm.origin_tech is topic_tech[topic]

    def test_coverage_ignores_a_receiver_hearing_its_own_ghost(self):
        """U2's 12 m GNSS error makes the camera confirm it as
        non-connected, so U2 hears its own ghost: (U2, U2) is in the
        awareness but is no pair of the coverage."""
        cfg = parse_scenario(yaml.safe_dump({
            "duration_ms": 402,
            "scenario_speed_kmh": 0,
            "seed": 1,
            "users": [
                {"kind": "non_connected", "id": "U0", "x_m": 0},
                {"kind": "native_dsrc", "id": "U1", "x_m": -5,
                 "gnss_error_std_m": 0},
                {"kind": "native_dsrc", "id": "U2", "x_m": 0,
                 "gnss_error_std_m": 12},
            ],
        }))
        result = run(cfg)
        assert ("U2", "U2") in awareness(result.metrics)
        assert result.final_coverage == _final_coverage_oracle(result)


def _assert_collected_match_trace(result, deliveries):
    """The collected deliveries are the user delivery rows of the trace,
    field for field and in order, and as many as the run counts."""
    rows = [
        r for r in result.trace_rows
        if r[1] in ("RadioDelivery", "MqttDelivery") and r[2] != ARSU_CLIENT
    ]
    expected = []
    for d in deliveries:
        kind = "RadioDelivery" if d.topic is None else "MqttDelivery"
        detail = (f"up={d.uplink.value} down={d.downlink.value}"
                  f" latency_ms={d.latency_ms:.3f}")
        if d.topic is not None:
            detail += f" topic={d.topic.value}"
        if d.duplicate:
            detail += " duplicate"
        expected.append((f"{d.delivered_at_us / 1000:.3f}", kind,
                         d.receiver, d.subject, detail))
    assert rows == expected
    assert len(deliveries) == result.metrics.delivered


def _eager_rows(simulation):
    """Wrap the writers of ``simulation``'s tape; returns the list to
    which each write appends its rows, formatted from its arguments as
    it is written, as a run that formatted every row as it went would
    hold them."""
    tape = simulation.metrics.tape
    ids = simulation.metrics.ids
    xy_of = simulation.frame.xy_of
    rows = []

    def at(at_us):
        return f"{at_us / 1000:.3f}"

    def bsm_tx(at_us, user_index, reported):
        x_m, y_m = xy_of(reported)
        return [(at(at_us), "BsmTx", ids[user_index], "",
                 f"x_m={x_m:.3f} y_m={y_m:.3f}")]

    def ipu_frame(at_us, detections):
        return [(at(at_us), "IpuFrame", ARSU_CLIENT, "",
                 f"detections={detections}")]

    def detections(at_us, detections, outcomes):
        written = []
        for detection, outcome in zip(detections, outcomes):
            detail = outcome.status.value
            if outcome.matched_id is not None:
                detail += f" matched={outcome.matched_id}"
            if outcome.track_id is not None:
                detail += f" track={outcome.track_id}"
            written.append((at(at_us), "DetectionReady", ARSU_CLIENT,
                            detection.truth_id or "?", detail))
        return written

    def gateway_rx(at_us, medium, actions, subject):
        if medium is LinkTech.CELL_MQTT:
            kind, detail = "MqttDelivery", f"topic={Topic.CELL.value}"
        else:
            kind, detail = "RadioDelivery", f"via={medium.value}"
        return [(at(at_us), kind, ARSU_CLIENT, subject,
                 f"{detail} actions={actions}")]

    def grace_deadline(at_us, track_id, confirmed):
        detail = (f"confirmed NonConnected actions={len(GENERATION_TARGETS)}"
                  if confirmed else "resolved earlier")
        return [(at(at_us), "GraceDeadline", ARSU_CLIENT,
                 f"track={track_id}", detail)]

    def metrics_tick(at_us, coverage):
        label = "no-pairs" if coverage is None else f"{coverage:.4f}"
        return [(at(at_us), "MetricsTick", "sim", "", f"coverage={label}")]

    def delivery(record, count):
        kind = "RadioDelivery" if record.topic is None else "MqttDelivery"
        latency_ms = us_to_ms(record.delivered_at_us - record.generated_at_us)
        detail = (f"up={record.uplink.value} down={record.downlink.value}"
                  f" latency_ms={latency_ms:.3f}")
        if record.topic is not None:
            detail += f" topic={record.topic.value}"
        flags_at = dict(record.duplicates or ())
        written = [
            (at(record.delivered_at_us), kind, ids[receiver], subject,
             detail + " duplicate" if flags_at.get(i, 0) >> receiver & 1
             else detail)
            for i, subject in enumerate(record.subjects)
            for receiver in record.receivers
        ]
        assert len(written) == count
        return written

    for rows_of in (bsm_tx, ipu_frame, detections, gateway_rx,
                    grace_deadline, metrics_tick, delivery):
        def writing(*args, write=getattr(tape, rows_of.__name__),
                    rows_of=rows_of):
            write(*args)
            rows.extend(rows_of(*args))

        setattr(tape, rows_of.__name__, writing)
    return rows


def _per_delivery_reference(deliveries):
    """Path statistics (count, sum in µs, min and max in ms), awareness
    and duplicate flags, worked out one delivery at a time, in delivery
    order, from the expanded deliveries."""
    stats = {}
    heard = {}
    seen = set()
    flags = []
    for d in deliveries:
        entry = stats.setdefault(
            (d.uplink, d.downlink), [0, 0, float("inf"), float("-inf")]
        )
        entry[0] += 1
        entry[1] += d.delivered_at_us - d.generated_at_us
        entry[2] = min(entry[2], d.latency_ms)
        entry[3] = max(entry[3], d.latency_ms)
        pair = (d.receiver, d.truth_subject)
        heard[pair] = max(heard.get(pair, -1), d.delivered_at_us)
        key = (d.receiver, d.subject, d.generated_at_us)
        flags.append(key in seen)
        seen.add(key)
    return stats, heard, flags


def _assert_matches_per_delivery_reference(result, deliveries):
    stats, heard, flags = _per_delivery_reference(deliveries)
    # The simulation sets duplicate flags only when a camera frame's BSMs
    # are cast, which is exact only while nothing else sends a key twice.
    twice = [(d.receiver, d.subject, d.generated_at_us)
             for d, flag in zip(deliveries, flags)
             if flag and not (d.uplink is LinkTech.CAMERA
                              and d.subject.startswith(SYNTHETIC_ID_PREFIX))]
    assert not twice, (
        "premise broken: only a camera frame that refreshes one track twice"
        f" sends a key twice, but these keys came twice: {twice}")
    recorded = {
        path: [s.count, s.sum_us, s.min_ms, s.max_ms]
        for path, s in result.metrics.path_stats.items()
    }
    assert list(recorded) == list(stats)  # first-seen order
    assert recorded == stats
    assert awareness(result.metrics) == heard
    assert len(awareness(result.metrics)) == len(heard)
    assert [d.duplicate for d in deliveries] == flags
    assert result.metrics.duplicates_suppressed == sum(flags)


#: Found by a random search: the detections of U3 and U4 in the 200 ms
#: frame both match the confirmed track ``ipu:4``, so the gateway relays
#: that track twice with one (id, generated_at) key; the second relay's
#: five deliveries are duplicates.
DUPLICATES = """
duration_ms: 594
scenario_speed_kmh: 7.6
seed: 1941
mqtt: {drop_probability: 0.3}
users:
  - {kind: nonnative_cell, id: U0, x_m: 1, heading_deg: 47, speed_kmh: 49.6, bsm_phase_ms: 41, gnss_error_std_m: 12}
  - {kind: native_dsrc, id: U1, x_m: -49, heading_deg: 7, speed_kmh: 79.8, bsm_phase_ms: 64, gnss_error_std_m: 12}
  - {kind: non_connected, id: U2, x_m: -99, heading_deg: 265, speed_kmh: 71.7}
  - {kind: native_dsrc, id: U3, x_m: -67, heading_deg: 235, speed_kmh: 64.4, bsm_phase_ms: 22, gnss_error_std_m: 12}
  - {kind: native_cv2x, id: U4, x_m: -71, heading_deg: 165, speed_kmh: 0.4, bsm_phase_ms: 98, gnss_error_std_m: 12}
  - {kind: native_dsrc, id: U5, x_m: 75, heading_deg: 279, speed_kmh: 117.6, bsm_phase_ms: 14, gnss_error_std_m: 12}
"""


#: Found by a random search: U1 and U2 refresh one track in each frame,
#: so the track's BSM goes out twice under one key, the second copy in
#: the same arrival as the first; drops at 0.3 cut the group of the IPU
#: publish at 765.872 ms to U2 alone, whose delivery is a duplicate.
DROPPED_DUPLICATES = """
duration_ms: 800
scenario_speed_kmh: 50
seed: 43
mqtt: {drop_probability: 0.3}
users:
  - {kind: nonnative_cell, id: U0, x_m: -11, heading_deg: 236, speed_kmh: 23, bsm_phase_ms: 85, gnss_error_std_m: 0}
  - {kind: non_connected, id: U1, x_m: 18, heading_deg: 255, speed_kmh: 38}
  - {kind: nonnative_cell, id: U2, x_m: 19, heading_deg: 280, speed_kmh: 56, bsm_phase_ms: 96, gnss_error_std_m: 12}
"""


class TestGroupRecords:
    """Deliveries are recorded one group-cast at a time; a reference
    worked out one delivery at a time must agree."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batched_metrics_match_per_delivery_reference(self, data):
        """As on ``_random_scenario``, with the camera's frame period and
        processing time and the filter's grace wait drawn too. A grace of
        a whole number of frame periods puts each grace deadline at a
        frame's ready time."""
        cfg = _random_scenario(data)
        period_ms = data.draw(st.sampled_from([33.0, 50.0, 100.0, 200.0]))
        cfg = dataclasses.replace(
            cfg,
            filter=dataclasses.replace(cfg.filter, grace_ms=data.draw(
                st.sampled_from([17.0, 50.0, 300.0,
                                 period_ms, 2 * period_ms]))),
            ipu=dataclasses.replace(
                cfg.ipu, frame_period_ms=period_ms,
                processing_ms=data.draw(
                    st.sampled_from([33.0, 100.0, 200.0, 300.0]))),
        )
        _assert_matches_per_delivery_reference(*run_collecting(cfg))

    def test_duplicate_flags_match_reference(self):
        result, deliveries = run_collecting(scenario(DUPLICATES))
        assert result.metrics.duplicates_suppressed == 5
        _assert_matches_per_delivery_reference(result, deliveries)
        _assert_collected_match_trace(result, deliveries)
        rows = [r for r in result.trace_rows if r[4].endswith(" duplicate")]
        assert len(rows) == 5

    def test_duplicate_flags_only_for_the_bsms_a_receiver_had(self):
        """A record holds one ``(position, flags)`` pair for each of its
        BSMs that some receiver already had, and None when no receiver
        had any; ``flags`` has bit ``r`` set for each receiver ``r`` that
        had the BSM."""
        simulation = Simulation(scenario(DUPLICATES))
        records = collect_records(simulation)
        simulation.run()
        had = set()  # (receiver, subject, generation time)
        pairs = 0
        for record in records:
            expected = []
            for i, subject in enumerate(record.subjects):
                keys = [(r, subject, record.generated_at_us)
                        for r in record.receivers]
                flags = sum(1 << r for r, key in zip(record.receivers, keys)
                            if key in had)
                if flags:
                    expected.append((i, flags))
                had.update(keys)
            assert record.duplicates == (tuple(expected) or None)
            pairs += len(expected)
        assert pairs > 0

    def test_duplicate_flags_of_a_group_cut_by_drops(self):
        """A cut group's mask is built when it is cut: its duplicate
        flags match the reference too, and the trace, which holds the
        cut as that mask, reads the same rows."""
        simulation = Simulation(scenario(DROPPED_DUPLICATES))
        records = collect_records(simulation)
        deliveries = collect_deliveries(simulation)
        result = simulation.run()
        assert result.metrics.duplicates_suppressed == 3
        _assert_matches_per_delivery_reference(result, deliveries)
        _assert_collected_match_trace(result, deliveries)
        assert any(type(record.receivers) is _Cut and record.duplicates
                   for record in records)


class TestGroupCast:
    """A send schedules one ``DeliveryGroup`` per distinct arrival time,
    with the receivers that share it in send order, each its own
    ``_deliver`` event. The heap runs the events of one instant in schedule order."""

    DOC = """
duration_ms: 1000
scenario_speed_kmh: 30
link_speed_mode: {mode}
seed: 0
arsu: {{present: false}}
users:
  - {{kind: native_dsrc, id: U0, speed_kmh: 30, gnss_error_std_m: 0}}
  - {{kind: native_dsrc, id: U1, x_m: 10, speed_kmh: 10}}
  - {{kind: native_dsrc, id: U2, x_m: 20, speed_kmh: 50}}
  - {{kind: native_dsrc, id: U3, x_m: 30, speed_kmh: 30}}
  - {{kind: native_dsrc, id: U4, x_m: 40, speed_kmh: 50}}
"""

    @staticmethod
    def _entries(simulation):
        """The heap entries, in schedule order."""
        return sorted(simulation._heap, key=lambda entry: entry[1])

    @classmethod
    def _deliveries(cls, simulation):
        """(time, arrival) of each scheduled user arrival, in schedule
        order."""
        return [
            (at_us, arrival)
            for at_us, _, handler, arrival in cls._entries(simulation)
            if handler == simulation._deliver
        ]

    @classmethod
    def _arrivals(cls, simulation):
        """(time, receivers) of each scheduled user arrival, in schedule
        order."""
        return [
            (at_us, arrival.receivers)
            for at_us, arrival in cls._deliveries(simulation)
        ]

    def _broadcast_from_u0(self, mode):
        simulation = Simulation(scenario(self.DOC.format(mode=mode)))
        simulation._on_bsm_tx(0, simulation.users[0])
        return simulation, self._arrivals(simulation)

    def test_scenario_mode_is_one_event(self):
        simulation, arrivals = self._broadcast_from_u0("scenario")
        half_us = simulation.users[0].half_us
        assert arrivals == [(2 * half_us, (1, 2, 3, 4))]
        # The next broadcast hands on the same receivers, not a copy.
        simulation._on_bsm_tx(100_000, simulation.users[0])
        first, second = self._arrivals(simulation)
        assert second[1] is first[1]

    def test_max_endpoint_mode_is_one_event_per_time(self):
        simulation, arrivals = self._broadcast_from_u0("max_endpoint")
        at_30, at_50 = (2 * simulation.users[i].half_us for i in (0, 2))
        assert at_30 != at_50
        # U1 (10 km/h) and U3 (30) take U0's 30 km/h half; U2 and U4 (50)
        # take their own.
        assert arrivals == [(at_30, (1, 3)), (at_50, (2, 4))]

    def test_max_endpoint_relay_is_one_event_per_receiver_half(self):
        """The gateway's relay reaches each user on the medium after that
        user's own half: U0 and U3 (30 km/h) share one arrival, U2 and U4
        (50) another, U1 (10) has its own."""
        simulation = Simulation(scenario(self.DOC.format(mode="max_endpoint")))
        halves = [u.half_us for u in simulation.users]
        assert len(set(halves)) == 3
        # As a confirmation does.
        simulation._truth_of["ipu:1"] = simulation._truth_of["U1"]
        bsm = _relay_bsm(simulation, 1_000, "ipu:1")
        simulation._send([bsm], ((LinkTech.DSRC, None),), LinkTech.CAMERA,
                         1_000)
        assert self._arrivals(simulation) == [
            (1_000 + halves[0], (0, 3)),
            (1_000 + halves[1], (1,)),
            (1_000 + halves[2], (2, 4)),
        ]

    MQTT_DOC = """
duration_ms: 1000
scenario_speed_kmh: 30
link_speed_mode: {mode}
seed: 0
arsu: {{coverage_radius_m: 400}}
users:
  - {{kind: nonnative_cell, id: C0, speed_kmh: 30}}
  - {{kind: native_dsrc, id: D0, x_m: 10}}
  - {{kind: nonnative_cell, id: C1, x_m: 20, speed_kmh: 10}}
  - {{kind: nonnative_cell, id: C2, x_m: 30, speed_kmh: 50}}
"""

    def _mqtt(self, mode="scenario"):
        """C0, C1 and C2 on Cell (user indices 0, 2 and 3), each at its
        own speed, with a DSRC user between."""
        return Simulation(scenario(self.MQTT_DOC.format(mode=mode)))

    def test_cell_publish_reaches_arsu_in_one_leg(self):
        """The gateway hears a Cell publish after the publisher's half
        alone: its own side of the broker is free."""
        simulation = self._mqtt("max_endpoint")
        c0 = simulation.users[0]
        simulation._on_bsm_tx(10_000, c0)
        heard = [
            (at_us, arg[1:])
            for at_us, _, handler, arg in self._entries(simulation)
            if handler == simulation._on_gateway_rx
        ]
        assert heard == [(10_000 + c0.half_us, (LinkTech.CELL_MQTT,))]

    class _Draws:
        """A broker's drop draws, fixed in advance."""

        def __init__(self, values):
            self.values = values

        def random(self, k):
            return np.array(self.values[:k])

    @pytest.mark.parametrize("mode", ["scenario", "max_endpoint"])
    def test_drop_cuts_only_the_groups_that_lost_a_receiver(self, mode):
        """A gateway IPU publish that drops C1 casts C0's and C2's groups
        as the plan's own in ``max_endpoint`` mode, where each has its
        own; in ``scenario`` mode the one group is cut to C0 and C2. A
        delivery of either writes ``last_heard`` for exactly the kept."""
        simulation = self._mqtt(mode)
        broker = simulation.broker
        broker.drop_probability = 0.5
        broker._rng = self._Draws([0.9, 0.1, 0.9])  # IPU: C0, C1, C2
        bsm = _relay_bsm(simulation, 1_000, "D0")
        simulation._send([bsm], ((LinkTech.CELL_MQTT, Topic.IPU),),
                         LinkTech.CAMERA, 1_000)
        plan = [group for _, group in simulation._relays[LinkTech.CELL_MQTT]]
        cast = [receivers for _, receivers in self._arrivals(simulation)]
        if mode == "max_endpoint":
            assert cast == [(0,), (3,)]
            assert cast[0] is plan[0] and cast[1] is plan[2]
        else:
            assert cast == [(0, 3)]
            assert type(cast[0]) is _Cut
        for at_us, arrival in self._deliveries(simulation):
            simulation._deliver(at_us, arrival)
        heard = simulation.metrics.last_heard[:, 1]
        assert list(heard != -1) == [True, False, False, True]

    def test_user_to_user_pays_two_legs(self):
        simulation = self._mqtt()
        half_us = simulation.users[0].half_us
        assert simulation._plans[0] == ((2 * half_us, (2, 3)),)

    def test_arsu_publish_pays_one_leg_per_user(self):
        simulation = self._mqtt()
        half_us = simulation.users[0].half_us
        assert simulation._relays[LinkTech.CELL_MQTT] == (
            (half_us, (0, 2, 3)),)

    def test_per_client_leg_delays(self):
        """Each Cell user's half is its own: a road user's publish reaches
        another after the publisher's half plus the receiver's, a gateway
        publish after the receiver's alone."""
        simulation = self._mqtt("max_endpoint")
        h0, h1, h2 = (simulation.users[i].half_us for i in (0, 2, 3))
        assert len({h0, h1, h2}) == 3
        assert simulation._plans[0] == ((h0 + h1, (2,)), (h0 + h2, (3,)))
        assert simulation._plans[2] == ((h1 + h0, (0,)), (h1 + h2, (3,)))
        assert simulation._relays[LinkTech.CELL_MQTT] == (
            (h0, (0,)), (h1, (2,)), (h2, (3,)))

    @pytest.mark.parametrize("doc", [
        MQTT_DOC.format(mode="scenario"),
        MQTT_DOC.format(mode="max_endpoint"),
        MIXED_TABLE1,
        DUPLICATES,
    ], ids=["mqtt-scenario", "mqtt-max_endpoint", "mixed", "duplicates"])
    def test_mqtt_plans_match_subscriptions(self, doc):
        """A Cell user's plan reaches the Cell subscribers but itself and
        the gateway, and the gateway's publish plan the IPU subscribers,
        each once, every group in subscription order."""
        simulation = Simulation(scenario(doc))
        ids = simulation.metrics.ids
        subscribers = simulation.broker._subscribers

        def reached(plan, order):
            for _, group in plan:
                assert list(group) == sorted(
                    group, key=lambda r: order.index(ids[r]))
            return sorted((ids[r] for _, group in plan for r in group),
                          key=order.index)

        cell = list(subscribers[Topic.CELL])
        cell_users = [
            u for u in simulation.users
            if u.spec.kind.tech is LinkTech.CELL_MQTT
        ]
        assert cell_users
        for user in cell_users:
            assert reached(simulation._plans[user.index], cell) == [
                c for c in cell if c not in (user.id, ARSU_CLIENT)]
        ipu = list(subscribers[Topic.IPU])
        assert reached(simulation._relays[LinkTech.CELL_MQTT], ipu) == ipu

    @pytest.mark.parametrize("generated", [[2_000], [2_000, 2_000]],
                             ids=["one", "run"])
    def test_send_before_generation_raises_and_schedules_nothing(
            self, generated):
        """A cast sent before its BSMs were generated raises, and leaves
        the heap as it was; one sent at their generation instant is
        scheduled."""
        simulation = Simulation(scenario(MIXED_TABLE1))
        plan = ((1_000, _group((0, 1))),)
        bsms = [_relay_bsm(simulation, at_us, f"U{i + 3}")
                for i, at_us in enumerate(generated)]
        with pytest.raises(SimulationInvariantError,
                           match="send precedes its BSM's generation"):
            simulation._cast(plan, 1_999, bsms, LinkTech.DSRC,
                             LinkTech.CV2X)
        assert (simulation._heap, simulation._seq) == ([], 0)
        simulation._cast(plan, 2_000, bsms, LinkTech.DSRC, LinkTech.CV2X)
        [(at_us, _, handler, record)] = simulation._heap
        assert (at_us, handler) == (3_000, simulation._deliver)
        assert (record.generated_at_us, record.delivered_at_us) == (
            2_000, 3_000)

    def test_mixed_times_group_in_first_seen_order(self):
        assert _group_by_time(
            zip([700, 300, 700, 300, 900], [4, 1, 2, 3, 0]), np.arange(5)
        ) == ((700, (4, 2)), (300, (1, 3)), (900, (0,)))

    def test_event_between_casts_at_one_instant_runs_between_them(self):
        """Arrivals A1 and A2 at T, then a grace deadline at T, then
        arrival B at T: four events at T, which run in schedule order."""
        simulation = Simulation(scenario(MIXED_TABLE1))
        at_us = 50_000
        plan = ((at_us - 1_000, _group((0,))),)
        a1, a2, b = (_relay_bsm(simulation, 1_000, f"U{i}") for i in (2, 3, 4))
        simulation._cast(plan, 1_000, [a1], LinkTech.CELL_MQTT,
                         LinkTech.DSRC)
        simulation._cast(plan, 1_000, [a2], LinkTech.CELL_MQTT,
                         LinkTech.DSRC)
        simulation._schedule(at_us, simulation._on_grace_deadline, 7)
        simulation._cast(plan, 1_000, [b], LinkTech.CELL_MQTT,
                         LinkTech.DSRC)
        entries = self._entries(simulation)
        assert [(at, handler) for at, _, handler, _ in entries] == [
            (at_us, simulation._deliver),
            (at_us, simulation._deliver),
            (at_us, simulation._on_grace_deadline),
            (at_us, simulation._deliver),
        ]
        assert [entries[i][3].subjects for i in (0, 1, 3)] == [
            (a1.id,), (a2.id,), (b.id,)]
        # The heap runs them in that order.
        heap = simulation._heap
        while heap:
            at, _, handler, arg = heapq.heappop(heap)
            handler(at, arg)
        rows = [(r[1], r[3]) for r in simulation.metrics.tape]
        assert rows == [
            ("RadioDelivery", "U2"), ("RadioDelivery", "U3"),
            ("GraceDeadline", "track=7"), ("RadioDelivery", "U4"),
        ]

    @classmethod
    def _cast_and_deliver(cls, casts):
        """Run ``_cast`` for each (plan, subject) at 1 ms on MIXED_TABLE1,
        of a BSM generated at 0.5 ms, then run the heap: (the arrivals'
        subjects in schedule order, the records made, the deliveries as
        (receiver, subject))."""
        simulation = Simulation(scenario(MIXED_TABLE1))
        for plan, subject in casts:
            bsm = _relay_bsm(simulation, 500, subject)
            simulation._cast(plan, 1_000, [bsm], LinkTech.DSRC, LinkTech.CV2X)
        subjects = [a.subjects for _, a in cls._deliveries(simulation)]
        records = collect_records(simulation)
        deliveries = collect_deliveries(simulation)
        heap = simulation._heap
        while heap:
            at_us, _, handler, arg = heapq.heappop(heap)
            handler(at_us, arg)
        return subjects, len(records), [
            (d.receiver, d.subject) for d in deliveries]

    def test_casts_of_the_same_group_arrive_in_cast_order(self):
        """Two BSMs generated at one instant, cast one after the other
        through one plan group, arrive one after the other: one event,
        and one record, per cast."""
        plan = ((8_000, _group((0, 1))),)
        subjects, records, deliveries = self._cast_and_deliver(
            [(plan, "U3"), (plan, "U4")])
        assert subjects == [("U3",), ("U4",)]
        assert records == 2
        assert deliveries == [
            ("U1", "U3"), ("U2", "U3"), ("U1", "U4"), ("U2", "U4")]

    def test_interleaved_plans_arrive_in_cast_order(self):
        """Casts through two groups of one instant alternate, and so do
        their arrivals."""
        dsrc, cv2x = ((8_000, _group((0,))),), ((8_000, _group((1,))),)
        subjects, records, deliveries = self._cast_and_deliver([
            (dsrc, "U3"), (cv2x, "U3"), (dsrc, "U4"), (cv2x, "U4"),
        ])
        assert subjects == [("U3",), ("U3",), ("U4",), ("U4",)]
        assert records == 4
        assert deliveries == [
            ("U1", "U3"), ("U2", "U3"), ("U1", "U4"), ("U2", "U4")]

    FRAME_DOC = """
duration_ms: 3000
scenario_speed_kmh: 30
seed: 8
arsu: {coverage_radius_m: 300}
filter: {sigma_m: 4}
users:
  - {kind: native_dsrc, count: 3}
  - {kind: native_cv2x, count: 3}
  - {kind: nonnative_cell, count: 2}
  - {kind: non_connected, count: 6}
  - {kind: non_connected, id: P-twin, x_m: 110, y_m: 1}
"""

    def test_frame_is_one_event(self):
        """k detections in a frame give one heap entry. A run gives the
        same trace, report counts and ``events_executed`` as one where
        every detection is its own event."""
        simulation = Simulation(scenario(self.FRAME_DOC))
        simulation._on_ipu_frame(0, None)
        ready = [
            (at_us, arg)
            for at_us, _, handler, arg in self._entries(simulation)
            if handler == simulation._on_detections_ready
        ]
        assert len(ready) == 1
        at_us, detections = ready[0]
        assert at_us == simulation.ipu_processing_us
        assert [d.truth_id for d in detections] == [
            u.id for u in simulation.users]

        batched = self._batched_and_apart(self.FRAME_DOC)
        rows = list(batched.trace_rows)
        ready_rows = [r for r in rows if r[1] == "DetectionReady"]
        assert len(ready_rows) > 13
        assert {r[4].split()[0] for r in ready_rows} == {
            "Connected", "Pending", "NonConnected"}
        assert len(rows) == batched.metrics.events_executed + 1

    def test_entry_points_are_called_per_item(self):
        """A frame's detections are classified, and its generated BSMs
        published, one by one: the gateway's ``on_detection`` runs once
        per detection that became available in the run (the camera's
        count less the last frames', available after the end), and the
        broker's ``publish`` once per generated BSM, a refresh's or a
        confirmation's, on IPU. These are the calls perfbench counts as
        ``gateway.on_detection.calls`` and ``broker.publish.calls``."""
        simulation = Simulation(scenario(self.FRAME_DOC))
        classified = []
        on_detection = simulation.gateway.on_detection

        def classifying(detection, now_us):
            classified.append(detection)
            return on_detection(detection, now_us)

        simulation.gateway.on_detection = classifying
        published = record_publishes(simulation)
        result = simulation.run()
        rows = list(result.trace_rows)
        end_us = result.config.duration_us
        late = sum(
            int(r[4].removeprefix("detections=")) for r in rows
            if r[1] == "IpuFrame"
            and ms_to_us(float(r[0])) + simulation.ipu_processing_us >= end_us
        )
        assert late > 0
        assert len(classified) == result.metrics.detections - late > 300
        assert len(classified) == sum(r[1] == "DetectionReady" for r in rows)
        generated = [
            r for r in rows
            if r[1] == "DetectionReady" and r[4].startswith("NonConnected")
            or r[1] == "GraceDeadline" and r[4].startswith("confirmed")
        ]
        ipu = [envelope.payload for _, envelope, _ in published
               if envelope.topic is Topic.IPU]
        assert len(ipu) == len(generated) > 100
        assert len(set(map(id, ipu))) == len(ipu)

    def test_pieces_of_a_frame_share_their_tuples_across_media(self):
        """A frame whose run a grace deadline splits sends each piece to
        DSRC, C-V2X and IPU as its own arrivals: every piece's three
        records share one subjects tuple and one truth-index tuple."""
        simulation = Simulation(scenario(self.FRAME_DOC))
        records = collect_records(simulation)
        simulation.run()
        frames = {}
        for record in records:
            if len(record.subjects) > 1:
                pieces = frames.setdefault(record.generated_at_us, {})
                pieces.setdefault(record.subjects, []).append(record)
        assert frames
        for pieces in frames.values():
            for records in pieces.values():
                assert [r.downlink for r in records] == [
                    LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT]
                first = records[0]
                assert all(r.subjects is first.subjects
                           and r.truth_indices is first.truth_indices
                           for r in records)
        assert any(len(pieces) == 2 for pieces in frames.values())

    @staticmethod
    def _batched_and_apart(doc, runs=True):
        """Runs of ``doc`` as it is and with every detection its own
        event, checked equal; a frame's generated BSMs then never share
        an arrival, so every arrival of several BSMs is checked against
        separate ones. Some records of ``doc`` carry several BSMs, or,
        unless ``runs``, none does. ``doc`` must send no key twice: an
        event per detection starts its own ``seen``, so it would flag no
        duplicate. Returns the run of ``doc`` as it is."""

        class EventPerDetection(Simulation):
            def _schedule(self, at_us, handler, arg=None):
                if handler == self._on_detections_ready:
                    for detection in arg:
                        super()._schedule(at_us, handler, [detection])
                    return
                super()._schedule(at_us, handler, arg)

        cfg = scenario(doc)
        batched, apart = Simulation(cfg), EventPerDetection(cfg)
        records = collect_records(batched), collect_records(apart)
        batched, apart = batched.run(), apart.run()
        one, other = batched.metrics, apart.metrics
        assert one.events_executed == other.events_executed
        assert list(batched.trace_rows) == list(apart.trace_rows)
        assert build_report_dict(batched) == build_report_dict(apart)
        assert np.array_equal(one.last_heard, other.last_heard)
        assert list(one.path_stats.items()) == list(other.path_stats.items())
        assert one.duplicates_suppressed == other.duplicates_suppressed
        if runs:  # Some records carry several BSMs.
            assert len(records[0]) < len(records[1])
        else:
            assert len(records[0]) == len(records[1])
        return batched

    @pytest.mark.parametrize("edit, runs", [
        # DSRC and C-V2X halves are both 4,611 us: their groups share an
        # instant and interleave, so a frame's run goes BSM by BSM.
        ({"scenario_speed_kmh": 60.95}, False),
        # The grace deadline falls at the instant of the frame's DSRC and
        # C-V2X arrivals and runs between the pieces of its run.
        ({"scenario_speed_kmh": 60.95, "filter": {"sigma_m": 4,
                                                  "grace_ms": 4.611}},
         False),
        # A publish that drops subscribers casts new, cut groups.
        ({"mqtt": {"drop_probability": 0.3}}, True),
        # Each receiver's own half: a relay plan has a group per half.
        ({"link_speed_mode": "max_endpoint", "users": [
            {"kind": "native_dsrc", "count": 2},
            {"kind": "native_dsrc", "count": 1, "speed_kmh": 50},
            {"kind": "native_cv2x", "count": 2, "speed_kmh": 50},
            {"kind": "native_cv2x", "count": 1},
            {"kind": "nonnative_cell", "count": 1},
            {"kind": "nonnative_cell", "count": 1, "speed_kmh": 50},
            {"kind": "non_connected", "count": 6},
            {"kind": "non_connected", "id": "P-twin", "x_m": 110, "y_m": 1},
        ]}, True),
    ], ids=["equal-halves", "grace-at-arrival", "drops", "max_endpoint"])
    def test_merged_frame_matches_event_per_detection(self, edit, runs):
        doc = yaml.safe_load(self.FRAME_DOC)
        doc.update(edit)
        self._batched_and_apart(yaml.safe_dump(doc), runs)


class TestTape:
    def test_every_entry_kind_reads_as_written(self):
        """Two runs that write every entry kind, cut groups, records of
        several BSMs and duplicate flags on a cut group read as the rows
        formatted when written."""
        frame_doc = yaml.safe_load(TestGroupCast.FRAME_DOC)
        frame_doc["mqtt"] = {"drop_probability": 0.3}
        kinds = set()
        records = []
        for doc in (yaml.safe_dump(frame_doc), DROPPED_DUPLICATES):
            simulation = Simulation(scenario(doc))
            written = _eager_rows(simulation)
            recorded = collect_records(simulation)
            result = simulation.run()
            assert list(result.trace_rows) == written
            kinds |= {row[1] for row in written}
            records += recorded
        assert kinds == {
            "BsmTx", "IpuFrame", "DetectionReady", "RadioDelivery",
            "MqttDelivery", "GraceDeadline", "MetricsTick"}
        assert any(len(r.subjects) > 1 for r in records)
        assert any(type(r.receivers) is _Cut and r.duplicates
                   for r in records)


    #: Twenty users of the four kinds in coverage, with broker drops.
    MEMORY_DOC = """
duration_ms: {duration_ms}
scenario_speed_kmh: 30
seed: 3
arsu: {{coverage_radius_m: 400}}
mqtt: {{drop_probability: 0.05}}
users:
  - {{kind: native_dsrc, count: 5}}
  - {{kind: native_cv2x, count: 5}}
  - {{kind: nonnative_cell, count: 5}}
  - {{kind: non_connected, count: 5}}
"""
    #: Bytes the tape holds per log entry: 50.5 at 1 s and 41.6 at 3 s
    #: when measured, plus 25%.
    BYTES_PER_ENTRY = 63
    #: Live bytes after ``run()`` gained per simulated second when every
    #: row was held formatted (Python 3.11): 168,328.
    FORMATTED_GROWTH_PER_S = 168_328

    @classmethod
    def _live_and_held(cls, duration_ms):
        """Live bytes after ``run()``, the tape's share of them, and the
        log entries: rows held apart from deliveries, plus delivery
        records."""
        cfg = scenario(cls.MEMORY_DOC.format(duration_ms=duration_ms))
        gc.collect()
        tracemalloc.start()
        try:
            simulation = Simulation(cfg)
            records = 0
            record_delivery = simulation.metrics.record_delivery

            def counting(record):
                nonlocal records
                records += 1
                record_delivery(record)

            simulation.metrics.record_delivery = counting
            result = simulation.run()
            del simulation, record_delivery, counting
            gc.collect()
            live = tracemalloc.get_traced_memory()[0]
            metrics = result.metrics
            entries = len(result.trace_rows) - metrics.delivered + records
            result.trace_rows = metrics.tape = None
            gc.collect()
            held = live - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return live, held, entries

    def test_log_is_compact_and_grows_slowly(self):
        """The tape holds at most ``BYTES_PER_ENTRY`` bytes per log
        entry, and live memory after ``run()`` grows at most a third as
        fast per simulated second as it did with formatted rows."""
        self._live_and_held(1_000)  # lazy imports and caches fill
        short, long = self._live_and_held(1_000), self._live_and_held(3_000)
        for _, held, entries in (short, long):
            assert held <= self.BYTES_PER_ENTRY * entries, (held, entries)
        growth_per_s = (long[0] - short[0]) / 2
        assert 0 < growth_per_s <= self.FORMATTED_GROWTH_PER_S / 3


def _group(receivers):
    """A plan group of ``receivers``, for a scenario whose users up to
    the last of them are all connected: each one's row of ``last_heard``
    is its user index."""
    return _Group(receivers, np.arange(max(receivers) + 1))


def _relay_bsm(simulation, generated_at_us, user_id="U1"):
    return make_bsm(
        user_id, simulation.frame.position_at(10.0, 0.0), 0.0,
        0.0, PositionAccuracy(horizontal_sigma_m=0.0), LinkTech.DSRC,
        generated_at_us,
    )


class TestFrameDuplicates:
    def test_flags_only_the_receivers_that_already_had_the_bsm(self):
        """One BSM cast twice through one frame's ``seen``, to groups
        (2,) then (3, 2): the second arrival flags U3 alone, as the cast
        sets it, and its delivery counts that one flag."""
        simulation = Simulation(scenario(MIXED_TABLE1))
        records = collect_records(simulation)
        deliveries = collect_deliveries(simulation)
        bsm = _relay_bsm(simulation, 0)
        seen = {}
        for at_us, receivers in ((40_000, (2,)), (50_000, (3, 2))):
            simulation._cast(((at_us, _group(receivers)),), 0, [bsm],
                             LinkTech.DSRC, LinkTech.CELL_MQTT, seen=seen)
        heap = simulation._heap
        while heap:
            at_us, _, handler, arg = heapq.heappop(heap)
            handler(at_us, arg)
        metrics = simulation.metrics
        assert [r.duplicates for r in records] == [None, ((0, 1 << 2),)]
        assert [(d.receiver, d.duplicate) for d in deliveries] == [
            ("U3", False), ("U4", False), ("U3", True),
        ]
        assert metrics.duplicates_suppressed == 1
        assert [r[4].endswith(" duplicate")
                for r in metrics.tape] == [False, False, True]


class TestRunIsFreed:
    def test_dropped_run_is_freed_without_the_cyclic_collector(self):
        """Nothing a finished run made refers back to it in a cycle, so
        dropping the simulation and its result frees the run by
        reference counting alone."""
        gc.collect()
        gc.disable()
        try:
            simulation = Simulation(scenario(MIXED_TABLE1))
            result = simulation.run()
            assert result.gateway is not None
            held = [weakref.ref(obj) for obj in (
                simulation, result.metrics, result.gateway, result.broker)]
            del simulation, result
            assert [ref() for ref in held] == [None] * len(held)
        finally:
            gc.enable()
