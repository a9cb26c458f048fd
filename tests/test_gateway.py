import pytest

from arsusim.gateway import (
    ActionKind,
    FilterConfig,
    FilterStatus,
    Gateway,
    RelayAction,
)
from arsusim.messages import (
    Detection,
    LinkTech,
    RoadUserId,
    Topic,
    canonical_bsm_json,
)

from conftest import bsm_at, position_at


def detection_at(
    x_m, y_m, captured_us=0, processing_us=300_000, truth=None,
    speed=0.0, heading=0.0,
):
    return Detection(
        estimate=position_at(x_m, y_m),
        speed_kmh=speed,
        heading_deg=heading,
        captured_at_us=captured_us,
        available_at_us=captured_us + processing_us,
        truth_id=RoadUserId(truth) if truth else None,
    )


def action_labels(actions):
    return [a.label() for a in actions]


class TestRelayRules:
    def test_dsrc_rx(self):
        gw = Gateway()
        actions = gw.on_rx(bsm_at("U1", tech=LinkTech.DSRC), LinkTech.DSRC, 0)
        assert action_labels(actions) == ["TxCv2x", "PublishMqtt(DSRC)"]

    def test_cv2x_rx(self):
        gw = Gateway()
        actions = gw.on_rx(bsm_at("U2", tech=LinkTech.CV2X), LinkTech.CV2X, 0)
        assert action_labels(actions) == ["TxDsrc", "PublishMqtt(CV2X)"]

    def test_cell_topic_rx(self):
        gw = Gateway()
        actions = gw.on_rx(
            bsm_at("U3", tech=LinkTech.CELL_MQTT), LinkTech.CELL_MQTT, 0
        )
        assert action_labels(actions) == ["TxDsrc", "TxCv2x"]

    def test_camera_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival path"):
            Gateway().on_rx(bsm_at("U4"), LinkTech.CAMERA, 0)

    def test_payloads_byte_identical_to_input(self):
        gw = Gateway()
        for tech in (LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT):
            bsm = bsm_at(f"U-{tech.value}", x_m=3.0, tech=tech, now_us=100)
            for action in gw.on_rx(bsm, tech, 200):
                assert action.payload is bsm
                assert canonical_bsm_json(action.payload) == canonical_bsm_json(bsm)

    def test_no_same_medium_echo(self):
        gw = Gateway()
        dsrc_actions = gw.on_rx(
            bsm_at("A", tech=LinkTech.DSRC), LinkTech.DSRC, 0
        )
        assert ActionKind.TX_DSRC not in {a.kind for a in dsrc_actions}
        cv2x_actions = gw.on_rx(
            bsm_at("B", tech=LinkTech.CV2X), LinkTech.CV2X, 0
        )
        assert ActionKind.TX_CV2X not in {a.kind for a in cv2x_actions}
        cell_actions = gw.on_rx(
            bsm_at("C", tech=LinkTech.CELL_MQTT), LinkTech.CELL_MQTT, 0
        )
        assert all(a.kind is not ActionKind.PUBLISH_MQTT for a in cell_actions)

    def test_duplicate_rx_suppressed(self):
        gw = Gateway()
        bsm = bsm_at("U1", tech=LinkTech.DSRC)
        assert gw.on_rx(bsm, LinkTech.DSRC, 0) != []
        assert gw.on_rx(bsm, LinkTech.DSRC, 5_000) == []

    def test_echo_loop_freedom(self):
        # feed every Tx output back on the opposite medium until quiet
        gw = Gateway()
        origin = bsm_at("U1", tech=LinkTech.DSRC, now_us=0)
        total_actions = 0
        queue = [(origin, LinkTech.DSRC)]
        rounds = 0
        now = 0
        while queue and rounds < 50:
            bsm, via = queue.pop(0)
            now += 1_000
            actions = gw.on_rx(bsm, via, now)
            total_actions += len(actions)
            for action in actions:
                if action.kind is ActionKind.TX_DSRC:
                    queue.append((action.payload, LinkTech.DSRC))
                elif action.kind is ActionKind.TX_CV2X:
                    queue.append((action.payload, LinkTech.CV2X))
            rounds += 1
        assert not queue, "echo loop did not quiesce"
        assert total_actions <= 3  # one logical BSM, bounded relay work

    def test_new_bsm_from_same_user_still_relayed(self):
        gw = Gateway()
        first = bsm_at("U1", tech=LinkTech.DSRC, now_us=0)
        second = bsm_at("U1", tech=LinkTech.DSRC, now_us=100_000)
        assert gw.on_rx(first, LinkTech.DSRC, 2_000) != []
        assert gw.on_rx(second, LinkTech.DSRC, 102_000) != []

    def test_publish_topic_never_cell(self):
        with pytest.raises(ValueError):
            RelayAction(ActionKind.PUBLISH_MQTT, bsm_at("U1"), Topic.CELL)


class TestHistory:
    def test_entry_inside_window_retained(self):
        gw = Gateway()
        gw.on_rx(bsm_at("U1", tech=LinkTech.DSRC), LinkTech.DSRC, 0)
        gw.history.prune(199_000)
        assert len(gw.history) == 1

    def test_entry_outside_window_removed(self):
        gw = Gateway()
        gw.on_rx(bsm_at("U1", tech=LinkTech.DSRC), LinkTech.DSRC, 0)
        gw.history.prune(201_000)
        assert len(gw.history) == 0

    def test_empty_store_prunes_to_empty(self):
        gw = Gateway()
        gw.history.prune(1_000_000)
        assert len(gw.history) == 0

    def test_survivor_order_preserved(self):
        gw = Gateway()
        gw.on_rx(bsm_at("U1", tech=LinkTech.DSRC, now_us=0), LinkTech.DSRC, 0)
        gw.on_rx(bsm_at("U2", x_m=50, tech=LinkTech.DSRC, now_us=50_000),
                 LinkTech.DSRC, 50_000)
        gw.on_rx(bsm_at("U3", x_m=90, tech=LinkTech.DSRC, now_us=150_000),
                 LinkTech.DSRC, 150_000)
        gw.history.prune(240_000)  # cutoff 40 ms: drops the first only
        ids = [bsm.id.value for bsm, _ in gw.history]
        assert ids == ["U2", "U3"]


class TestDetectionFilter:
    def test_exact_position_match_is_connected(self):
        gw = Gateway()
        gw.on_rx(bsm_at("U1", x_m=10.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        outcome = gw.on_detection(detection_at(10.0, 0.0), 300_000)
        assert outcome.status is FilterStatus.CONNECTED
        assert outcome.matched_id == RoadUserId("U1")
        assert outcome.actions == []

    def test_ten_meters_off_goes_pending_then_non_connected(self):
        gw = Gateway()
        gw.on_rx(bsm_at("U1", x_m=0.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        det = detection_at(10.0, 0.0)
        outcome = gw.on_detection(det, 300_000)
        assert outcome.status is FilterStatus.PENDING
        assert outcome.deadline_us == 400_000
        actions = gw.on_grace_deadline(outcome.track_id, 400_000)
        assert action_labels(actions) == [
            "TxDsrc", "TxCv2x", "PublishMqtt(IPU)"
        ]
        payload = actions[0].payload
        assert payload.id.is_synthetic
        assert payload.origin_tech is LinkTech.CAMERA
        assert payload.generated_at_us == det.captured_at_us

    def test_late_bsm_resolves_pending_track(self):
        gw = Gateway()
        det = detection_at(10.0, 0.0)
        outcome = gw.on_detection(det, 300_000)
        assert outcome.status is FilterStatus.PENDING
        # matching BSM (2 m away) arrives 50 ms into the grace period
        gw.on_rx(bsm_at("U9", x_m=12.0, tech=LinkTech.DSRC, now_us=348_000),
                 LinkTech.DSRC, 350_000)
        assert gw.on_grace_deadline(outcome.track_id, 400_000) is None
        assert gw.confirmed_tracks == 0
        assert gw.ghost_count == 0

    def test_stale_history_never_matches(self):
        gw = Gateway()
        # entry at t=0 exactly where the detection will be
        gw.on_rx(bsm_at("U1", x_m=10.0, tech=LinkTech.DSRC), LinkTech.DSRC, 0)
        outcome = gw.on_detection(detection_at(10.0, 0.0), 300_000)
        assert outcome.status is FilterStatus.PENDING

    def test_nearest_entry_wins(self):
        gw = Gateway()
        gw.on_rx(bsm_at("NEAR", x_m=11.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        gw.on_rx(bsm_at("FAR", x_m=13.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 251_000)
        outcome = gw.on_detection(detection_at(10.0, 0.0), 300_000)
        assert outcome.matched_id == RoadUserId("NEAR")

    def test_distance_tie_broken_by_most_recent(self):
        gw = Gateway()
        gw.on_rx(bsm_at("OLD", x_m=12.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        gw.on_rx(bsm_at("NEW", x_m=12.0, tech=LinkTech.DSRC, now_us=251_000),
                 LinkTech.DSRC, 251_000)
        outcome = gw.on_detection(detection_at(12.0, 0.0), 300_000)
        assert outcome.matched_id == RoadUserId("NEW")

    def test_boundary_distance_is_not_a_match(self):
        gw = Gateway(FilterConfig(sigma_m=5.0))
        gw.on_rx(bsm_at("U1", x_m=5.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        # exactly sigma away: strict less-than, so pending
        outcome = gw.on_detection(detection_at(0.0, 0.0), 300_000)
        assert outcome.status is FilterStatus.PENDING

    def test_confirmed_track_refresh_keeps_synthetic_id(self):
        gw = Gateway()
        first = gw.on_detection(detection_at(10.0, 0.0, captured_us=0), 300_000)
        actions = gw.on_grace_deadline(first.track_id, 400_000)
        synthetic = actions[0].payload.id
        refresh = gw.on_detection(
            detection_at(10.5, 0.0, captured_us=100_000), 400_000
        )
        assert refresh.status is FilterStatus.NON_CONNECTED
        assert refresh.synthetic_id == synthetic
        assert refresh.actions[0].payload.id == synthetic
        assert refresh.actions[0].payload.generated_at_us == 100_000
        assert gw.confirmed_tracks == 1

    def test_second_detection_absorbed_by_pending_track(self):
        gw = Gateway()
        first = gw.on_detection(detection_at(10.0, 0.0, captured_us=0), 300_000)
        second = gw.on_detection(
            detection_at(10.2, 0.0, captured_us=100_000), 400_000
        )
        assert second.status is FilterStatus.PENDING
        assert second.track_id == first.track_id
        assert second.deadline_us is None  # no new deadline

    def test_confirmation_uses_freshest_absorbed_detection(self):
        gw = Gateway()
        first = gw.on_detection(detection_at(10.0, 0.0, captured_us=0), 300_000)
        gw.on_detection(detection_at(10.2, 0.0, captured_us=100_000), 400_000)
        actions = gw.on_grace_deadline(first.track_id, 400_000)
        assert actions[0].payload.generated_at_us == 100_000

    def test_detection_before_available_rejected(self):
        gw = Gateway()
        with pytest.raises(ValueError):
            gw.on_detection(detection_at(0.0, 0.0), 200_000)

    def test_synthetic_ids_sequence_per_track(self):
        gw = Gateway()
        a = gw.on_detection(detection_at(10.0, 0.0), 300_000)
        b = gw.on_detection(detection_at(80.0, 0.0), 300_000)
        acts_a = gw.on_grace_deadline(a.track_id, 400_000)
        acts_b = gw.on_grace_deadline(b.track_id, 400_000)
        ids = {acts_a[0].payload.id.value, acts_b[0].payload.id.value}
        assert ids == {"ipu:1", "ipu:2"}


class TestGhosts:
    def test_no_camera_means_no_ghosts(self):
        gw = Gateway(connected_ids=frozenset({RoadUserId("U1")}))
        gw.on_rx(bsm_at("U1", tech=LinkTech.DSRC), LinkTech.DSRC, 0)
        assert gw.ghost_events() == []

    def test_connected_user_beyond_sigma_becomes_ghost(self):
        gw = Gateway(connected_ids=frozenset({RoadUserId("U1")}))
        # reported position 8 m from the camera estimate, sigma 5 m
        gw.on_rx(bsm_at("U1", x_m=8.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        outcome = gw.on_detection(
            detection_at(0.0, 0.0, truth="U1"), 300_000
        )
        assert outcome.status is FilterStatus.PENDING
        actions = gw.on_grace_deadline(outcome.track_id, 400_000)
        assert actions is not None
        ghosts = gw.ghost_events()
        assert len(ghosts) == 1
        synthetic, truth = ghosts[0]
        assert truth == RoadUserId("U1")
        assert synthetic.is_synthetic

    def test_matched_user_is_not_a_ghost(self):
        gw = Gateway(connected_ids=frozenset({RoadUserId("U1")}))
        gw.on_rx(bsm_at("U1", x_m=1.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        outcome = gw.on_detection(
            detection_at(0.0, 0.0, truth="U1"), 300_000
        )
        assert outcome.status is FilterStatus.CONNECTED
        assert gw.ghost_count == 0

    def test_truly_non_connected_confirmation_is_not_a_ghost(self):
        gw = Gateway(connected_ids=frozenset({RoadUserId("U1")}))
        outcome = gw.on_detection(
            detection_at(50.0, 0.0, truth="P1"), 300_000
        )
        gw.on_grace_deadline(outcome.track_id, 400_000)
        assert gw.ghost_count == 0
        assert gw.confirmed_tracks == 1
