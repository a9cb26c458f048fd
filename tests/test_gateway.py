import math

import pytest
from hypothesis import given, settings, strategies as st

from arsusim import gateway as gateway_module
from arsusim.broker import ARSU_CLIENT
from arsusim.config import parse_scenario
from arsusim.gateway import (
    GENERATION_TARGETS,
    FilterConfig,
    FilterStatus,
    Gateway,
    SeenSet,
    _SEEN_RETENTION_US,
)
from arsusim.geo import METERS_PER_DEG, horizontal_distance_m
from arsusim.messages import (
    Detection,
    LinkTech,
    Position,
    PositionAccuracy,
    RoadUserId,
    SYNTHETIC_ID_PREFIX,
    Topic,
    make_bsm,
    make_ipu_bsm,
)

from arsusim.sim import Simulation

from conftest import bsm_at, position_at, record_on_rx, record_publishes


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


#: Send targets, ``(medium, topic)``.
TX_DSRC = (LinkTech.DSRC, None)
TX_CV2X = (LinkTech.CV2X, None)


def publish(topic):
    return (LinkTech.CELL_MQTT, topic)


class TestRelayRules:
    def test_dsrc_rx(self):
        gw = Gateway()
        targets = gw.on_rx(bsm_at("U1", tech=LinkTech.DSRC), LinkTech.DSRC, 0)
        assert targets == (TX_CV2X, publish(Topic.DSRC))

    def test_cv2x_rx(self):
        gw = Gateway()
        targets = gw.on_rx(bsm_at("U2", tech=LinkTech.CV2X), LinkTech.CV2X, 0)
        assert targets == (TX_DSRC, publish(Topic.CV2X))

    def test_cell_topic_rx(self):
        gw = Gateway()
        targets = gw.on_rx(
            bsm_at("U3", tech=LinkTech.CELL_MQTT), LinkTech.CELL_MQTT, 0
        )
        assert targets == (TX_DSRC, TX_CV2X)

    def test_camera_arrival_rejected(self):
        gw = Gateway()
        gw.on_detection(detection_at(0.0, 0.0), 300_000)
        bsm = bsm_at("U4", tech=LinkTech.DSRC, now_us=300_000)
        with pytest.raises(ValueError, match="arrival path"):
            gw.on_rx(bsm, LinkTech.CAMERA, 300_000)
        # the rejected call changed nothing ...
        assert len(gw.history) == 0
        assert gw.pending_tracks == 1
        # ... so the same BSM over DSRC is relayed and resolves the track
        assert len(gw.on_rx(bsm, LinkTech.DSRC, 300_000)) == 2
        assert gw.pending_tracks == 0

    def test_payloads_byte_identical_to_input(self):
        """In a run, every relay the gateway casts or publishes carries the
        very BSM object it heard, on each of the three arrival media."""
        simulation = Simulation(parse_scenario("""
duration_ms: 500
seed: 3
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_dsrc, id: D1}
  - {kind: native_cv2x, id: V1, x_m: 20}
  - {kind: nonnative_cell, id: C1, x_m: 40}
"""))
        heard = record_on_rx(simulation)
        publishes = record_publishes(simulation)
        relayed = []
        cast = simulation._cast
        radio_relays = [simulation._relays[LinkTech.DSRC],
                        simulation._relays[LinkTech.CV2X]]

        def casting(plan, sent_us, bsm, uplink, *rest):
            if any(plan is relay for relay in radio_relays):
                relayed.append(bsm)
            cast(plan, sent_us, bsm, uplink, *rest)

        simulation._cast = casting
        simulation.run()
        published = [
            envelope.payload for publisher, envelope, _ in publishes
            if publisher == ARSU_CLIENT and envelope.topic is not Topic.IPU
        ]
        media = {LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT}
        assert {bsm.origin_tech for bsm in relayed} == media
        assert {bsm.origin_tech for bsm in published} == media - {
            LinkTech.CELL_MQTT}
        heard_ids = {id(bsm) for bsm, *_ in heard}
        assert all(id(bsm) in heard_ids for bsm in published + relayed)

    def test_no_same_medium_echo(self):
        gw = Gateway()
        dsrc_targets = gw.on_rx(
            bsm_at("A", tech=LinkTech.DSRC), LinkTech.DSRC, 0
        )
        assert TX_DSRC not in dsrc_targets
        cv2x_targets = gw.on_rx(
            bsm_at("B", tech=LinkTech.CV2X), LinkTech.CV2X, 0
        )
        assert TX_CV2X not in cv2x_targets
        cell_targets = gw.on_rx(
            bsm_at("C", tech=LinkTech.CELL_MQTT), LinkTech.CELL_MQTT, 0
        )
        assert all(topic is None for _, topic in cell_targets)

    def test_duplicate_rx_suppressed(self):
        gw = Gateway()
        bsm = bsm_at("U1", tech=LinkTech.DSRC)
        assert gw.on_rx(bsm, LinkTech.DSRC, 0) != ()
        assert gw.on_rx(bsm, LinkTech.DSRC, 5_000) == ()

    def test_echo_loop_freedom(self):
        # feed every Tx output back on the opposite medium until quiet
        gw = Gateway()
        origin = bsm_at("U1", tech=LinkTech.DSRC, now_us=0)
        total_targets = 0
        queue = [(origin, LinkTech.DSRC)]
        rounds = 0
        now = 0
        while queue and rounds < 50:
            bsm, via = queue.pop(0)
            now += 1_000
            targets = gw.on_rx(bsm, via, now)
            total_targets += len(targets)
            for medium, topic in targets:
                if topic is None:
                    queue.append((bsm, medium))
            rounds += 1
        assert not queue, "echo loop did not quiesce"
        assert total_targets <= 3  # one logical BSM, bounded relay work

    def test_new_bsm_from_same_user_still_relayed(self):
        gw = Gateway()
        first = bsm_at("U1", tech=LinkTech.DSRC, now_us=0)
        second = bsm_at("U1", tech=LinkTech.DSRC, now_us=100_000)
        assert gw.on_rx(first, LinkTech.DSRC, 2_000) != ()
        assert gw.on_rx(second, LinkTech.DSRC, 102_000) != ()


class TestSeenSet:
    """Retention of relayed keys. The reference filter below uses the
    same SeenSet, so the differential test cannot catch a change here."""

    RETENTION = _SEEN_RETENTION_US

    def test_duplicate_within_retention(self):
        seen, bsm = SeenSet(), bsm_at("U1")
        assert not seen.check_and_add(bsm, 0)
        assert seen.check_and_add(bsm, self.RETENTION)

    def test_refresh_extends_retention(self):
        seen, bsm = SeenSet(), bsm_at("U1")
        assert not seen.check_and_add(bsm, 0)
        assert seen.check_and_add(bsm, 600_000)
        assert seen.check_and_add(bsm, 600_000 + self.RETENTION)

    def test_forgotten_after_retention(self):
        seen, bsm = SeenSet(), bsm_at("U1")
        assert not seen.check_and_add(bsm, 0)
        assert not seen.check_and_add(bsm, self.RETENTION + 1)
        assert len(seen) == 1

    def test_expires_behind_a_refreshed_key(self):
        """U1, refreshed at 500 ms, heads the first-seen order and stops
        the prune; U2, last seen at 10 us, is past its retention at
        1,000,020 us all the same."""
        seen, u1, u2 = SeenSet(), bsm_at("U1"), bsm_at("U2")
        assert not seen.check_and_add(u1, 0)
        assert not seen.check_and_add(u2, 10)
        assert seen.check_and_add(u1, 500_000)
        assert not seen.check_and_add(u2, 20 + self.RETENTION)
        assert seen.check_and_add(u2, 30 + self.RETENTION)

    def test_len_falls_once_pruned(self):
        seen = SeenSet()
        for i, user in enumerate(["U1", "U2", "U3"]):
            seen.check_and_add(bsm_at(user), i * 1_000)
        assert len(seen) == 3
        # Past U1's and U2's retention, not U3's.
        seen.check_and_add(bsm_at("U4"), 1_500 + self.RETENTION)
        assert len(seen) == 2
        seen.check_and_add(bsm_at("U4"), 10 * self.RETENTION)
        assert len(seen) == 1


class TestHistory:
    def test_entry_inside_window_retained(self):
        gw = Gateway()
        gw.on_rx(bsm_at("U1", tech=LinkTech.DSRC), LinkTech.DSRC, 0)
        gw.history.prune(199_000)
        assert len(gw.history) == 1

    def test_entry_at_window_edge_retained(self):
        gw = Gateway()
        gw.on_rx(bsm_at("U1", tech=LinkTech.DSRC), LinkTech.DSRC, 0)
        gw.history.prune(200_000)
        assert len(gw.history) == 1
        gw.history.prune(200_001)
        assert len(gw.history) == 0

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
        assert outcome.generated is None

    def test_ten_meters_off_goes_pending_then_non_connected(self):
        gw = Gateway()
        gw.on_rx(bsm_at("U1", x_m=0.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        det = detection_at(10.0, 0.0)
        outcome = gw.on_detection(det, 300_000)
        assert outcome.status is FilterStatus.PENDING
        assert outcome.deadline_us == 400_000
        payload = gw.on_grace_deadline(outcome.track_id)
        assert GENERATION_TARGETS == (TX_DSRC, TX_CV2X, publish(Topic.IPU))
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
        assert gw.on_grace_deadline(outcome.track_id) is None
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
        synthetic = gw.on_grace_deadline(first.track_id).id
        refresh = gw.on_detection(
            detection_at(10.5, 0.0, captured_us=100_000), 400_000
        )
        assert refresh.status is FilterStatus.NON_CONNECTED
        assert refresh.synthetic_id == synthetic
        assert refresh.generated.id == synthetic
        assert refresh.generated.generated_at_us == 100_000
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
        bsm = gw.on_grace_deadline(first.track_id)
        assert bsm.generated_at_us == 100_000

    def test_detection_before_available_rejected(self):
        gw = Gateway()
        with pytest.raises(ValueError):
            gw.on_detection(detection_at(0.0, 0.0), 200_000)

    def test_synthetic_ids_sequence_per_track(self):
        gw = Gateway()
        a = gw.on_detection(detection_at(10.0, 0.0), 300_000)
        b = gw.on_detection(detection_at(80.0, 0.0), 300_000)
        bsm_a = gw.on_grace_deadline(a.track_id)
        bsm_b = gw.on_grace_deadline(b.track_id)
        ids = {bsm_a.id.value, bsm_b.id.value}
        assert ids == {"ipu:1", "ipu:2"}


def _gateway_at(sigma_m, bsms=(), detections=()):
    """A gateway that heard ``bsms`` (user id, position) and then
    classified ``detections`` (positions), all at 300 ms; returns it and
    the detections' outcomes."""
    gw = Gateway(FilterConfig(sigma_m=sigma_m))
    for user, position in bsms:
        bsm = make_bsm(RoadUserId(user), position, 0.0, 0.0,
                       PositionAccuracy(1.0), LinkTech.DSRC, 300_000)
        gw.on_rx(bsm, LinkTech.DSRC, 300_000)
    outcomes = [
        gw.on_detection(Detection(position, 0.0, 0.0, 0, 300_000), 300_000)
        for position in detections
    ]
    return gw, outcomes


def _east_of(position, meters):
    """The point ``meters`` due east of ``position``, wrapped."""
    lon = position.lon_deg + meters / (
        METERS_PER_DEG * math.cos(math.radians(position.lat_deg)))
    return Position(position.lat_deg, (lon + 180.0) % 360.0 - 180.0)


class TestFilterGrid:
    """Matches across the edges of the filter's grid: rows a little over
    sigma tall that start at the equator, and longitude columns at least
    as wide whose edges include the antimeridian."""

    SIGMA = 5.0
    EDGE_Y = SIGMA * (1 + 1e-6)  # first row edge north of the frame origin

    def _column_edge(self, lat_deg):
        """A column edge near longitude 10 degrees east, at ``lat_deg``."""
        shape = Gateway(FilterConfig(sigma_m=self.SIGMA))._shape
        columns = shape._columns
        edge = round((10.0 + 180.0) * columns / 360.0)
        lon = edge * 360.0 / columns - 180.0
        return Position(lat_deg, lon), shape

    def test_match_due_north_across_band_edge(self):
        shape = Gateway(FilterConfig(sigma_m=self.SIGMA))._shape
        edge_y = METERS_PER_DEG / shape._rows_per_deg
        assert edge_y == pytest.approx(self.EDGE_Y)
        below_edge = edge_y - 0.0005
        for offset, status in (
            (self.SIGMA - 0.001, FilterStatus.CONNECTED),
            (self.SIGMA, FilterStatus.PENDING),  # strict less-than
        ):
            gw = Gateway(FilterConfig(sigma_m=self.SIGMA))
            gw.on_rx(bsm_at("U1", y_m=below_edge + offset, now_us=250_000),
                     LinkTech.DSRC, 250_000)
            outcome = gw.on_detection(detection_at(0.0, below_edge), 300_000)
            assert outcome.status is status

    def test_match_due_east_across_column_edge(self):
        for lat in (0.0, 60.0, -89.0):
            edge, shape = self._column_edge(lat)
            west = _east_of(edge, -0.001)
            assert shape.cell(west)[1] + 1 == shape.cell(edge)[1]
            for offset, status in (
                (self.SIGMA - 0.001, FilterStatus.CONNECTED),
                (self.SIGMA + 0.001, FilterStatus.PENDING),
            ):
                east = _east_of(west, offset)
                assert (horizontal_distance_m(west, east) < self.SIGMA) is (
                    status is FilterStatus.CONNECTED)
                _, (outcome,) = _gateway_at(
                    self.SIGMA, bsms=[("U1", east)], detections=[west])
                assert outcome.status is status

    def test_confirmed_track_found_after_moving_two_bands(self):
        gw = Gateway(FilterConfig(sigma_m=self.SIGMA))
        first = gw.on_detection(detection_at(0.0, 0.0), 300_000)
        synthetic = gw.on_grace_deadline(first.track_id).id
        # each step stays within sigma; the last lands two rows north and
        # two columns east
        for step in range(1, 5):
            offset = 0.6 * self.SIGMA * step
            now = 400_000 + 100_000 * step
            outcome = gw.on_detection(
                detection_at(offset, offset, captured_us=now - 300_000), now
            )
            assert outcome.status is FilterStatus.NON_CONNECTED
            assert outcome.synthetic_id == synthetic
        assert gw.pending_tracks == 0
        assert gw.confirmed_tracks == 1

    def test_match_across_the_antimeridian(self):
        shape = Gateway(FilterConfig(sigma_m=self.SIGMA))._shape
        west = Position(45.0, 180.0 - 1e-6)
        east = _east_of(west, self.SIGMA - 0.01)
        assert east.lon_deg < -179.0
        assert shape.cell(Position(45.0, 180.0)) == shape.cell(
            Position(45.0, -180.0))
        # Users further east fill more of the row than a lookup's reach
        # has columns, so the lookup reads the row column by column.
        fillers = [(f"F{i}", _east_of(east, 4.0 * self.SIGMA * i))
                   for i in range(1, 11)]
        for bsm_at_, det_at in ((east, west), (west, east)):
            _, (outcome,) = _gateway_at(
                self.SIGMA, bsms=[("U1", bsm_at_)] + fillers,
                detections=[det_at])
            assert outcome.matched_id == RoadUserId("U1")
        # A confirmed track follows its user across the antimeridian.
        gw, outcomes = _gateway_at(
            self.SIGMA, detections=[west] + [p for _, p in fillers])
        for outcome in outcomes:
            gw.on_grace_deadline(outcome.track_id)
        outcome = gw.on_detection(
            Detection(east, 0.0, 0.0, 200_000, 500_000), 500_000)
        assert outcome.status is FilterStatus.NON_CONNECTED
        assert outcome.track_id == outcomes[0].track_id

    def test_pole_row_reads_every_column(self):
        # 2 m short of the north pole on opposite meridians: 4 m apart
        lat = 90.0 - 2.0 / METERS_PER_DEG
        here, there = Position(lat, 30.0), Position(lat, -150.0)
        assert horizontal_distance_m(here, there) == pytest.approx(4.0)
        shape = Gateway(FilterConfig(sigma_m=self.SIGMA))._shape
        assert shape.reach(here).width == shape._columns
        assert shape.reach(Position(60.0, 30.0)).width < 10
        _, (outcome,) = _gateway_at(
            self.SIGMA, bsms=[("U1", there)], detections=[here])
        assert outcome.matched_id == RoadUserId("U1")

    def test_full_tie_goes_to_first_added(self):
        # mirror images about the equator are exactly equidistant from it;
        # the first added lies in the row a lookup reads last
        gw = Gateway(FilterConfig(sigma_m=self.SIGMA))
        gw.on_rx(bsm_at("NORTH", y_m=3.0, now_us=300_000),
                 LinkTech.DSRC, 300_000)
        gw.on_rx(bsm_at("SOUTH", y_m=-3.0, now_us=300_000),
                 LinkTech.DSRC, 300_000)
        outcome = gw.on_detection(detection_at(0.0, 0.0), 300_000)
        assert outcome.matched_id == RoadUserId("NORTH")

        gw = Gateway(FilterConfig(sigma_m=self.SIGMA))
        north = gw.on_detection(detection_at(0.0, 3.0), 300_000)
        gw.on_detection(detection_at(0.0, -3.0), 300_000)
        outcome = gw.on_detection(detection_at(0.0, 0.0), 300_000)
        assert outcome.track_id == north.track_id

    def test_full_tie_across_a_column_edge_goes_to_first_added(self):
        # at this sigma the prime meridian is a column edge, and mirror
        # images about it are exactly equidistant from it
        shape = Gateway(FilterConfig(sigma_m=self.SIGMA))._shape
        east, west = position_at(3.0, 0.0), position_at(-3.0, 0.0)
        assert shape.cell(east)[1] == shape.cell(west)[1] + 1
        _, (outcome,) = _gateway_at(
            self.SIGMA, bsms=[("EAST", east), ("WEST", west)],
            detections=[position_at(0.0, 0.0)])
        assert outcome.matched_id == RoadUserId("EAST")

    def test_one_bsm_resolves_pending_tracks_in_two_rows(self):
        gw = Gateway(FilterConfig(sigma_m=self.SIGMA))
        # track 1 lies in the row north of the equator, track 2 south
        north = gw.on_detection(detection_at(0.0, 3.0), 300_000)
        south = gw.on_detection(detection_at(0.0, -3.0), 300_000)
        assert (north.track_id, south.track_id) == (1, 2)
        gw.on_rx(bsm_at("U1", now_us=300_000), LinkTech.DSRC, 300_000)
        assert gw.pending_tracks == 0
        assert gw.on_grace_deadline(north.track_id) is None
        assert gw.on_grace_deadline(south.track_id) is None

    def test_line_of_users_costs_at_most_two_distance_calls(
        self, monkeypatch
    ):
        """1,000 confirmed tracks 10 m apart on one latitude and BSMs
        halfway between them, outside a 4 m gate: a detection at a track
        measures at most two entries, not the whole line."""
        gw = Gateway(FilterConfig(sigma_m=4.0))
        for i in range(1000):
            outcome = gw.on_detection(detection_at(10.0 * i, 0.0), 300_000)
            gw.on_grace_deadline(outcome.track_id)
            gw.on_rx(bsm_at(f"U{i}", x_m=10.0 * i + 5.0, now_us=400_000),
                     LinkTech.DSRC, 400_000)
        calls = []

        def counted(a, b):
            calls.append(1)
            return horizontal_distance_m(a, b)

        monkeypatch.setattr(gateway_module, "horizontal_distance_m", counted)
        for i in (0, 500, 999):
            outcome = gw.on_detection(
                detection_at(10.0 * i, 0.0, captured_us=100_000), 400_000)
            assert outcome.status is FilterStatus.NON_CONNECTED
            assert outcome.track_id == i + 1
        assert len(calls) <= 2 * 3


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
        assert gw.on_grace_deadline(outcome.track_id) is not None
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
        gw.on_grace_deadline(outcome.track_id)
        assert gw.ghost_count == 0
        assert gw.confirmed_tracks == 1


class LinearScanGateway:
    """Reference detection filter: every lookup scans the whole history
    and every track in insertion order. Returns plain tuples that
    :func:`outcome_tuple` also builds from the gateway's outcomes, relay
    targets, and generated BSMs."""

    def __init__(self, config: FilterConfig):
        self.config = config
        self.history = []  # (bsm, received_at_us), oldest first
        self.seen = SeenSet()
        self.pending = {}  # track id -> latest detection
        self.confirmed = {}  # track id -> [latest detection, synthetic id]
        self.next_track = 1
        self.next_synthetic = 1

    def _prune(self, now_us):
        cutoff = now_us - self.config.window_us
        self.history = [e for e in self.history if e[1] >= cutoff]

    def _nearest(self, det, candidates):
        """First of the nearest (position, recency, value) within sigma."""
        best = None
        for position, recency, value in candidates:
            d = horizontal_distance_m(det.estimate, position)
            if d < self.config.sigma_m:
                key = (d, -recency)
                if best is None or key < best[0]:
                    best = (key, value)
        return None if best is None else best[1]

    def _generate(self, synthetic, det):
        bsm = make_ipu_bsm(synthetic, det, self.config.sigma_m)
        self.seen.check_and_add(bsm, det.available_at_us)
        return bsm

    def on_rx(self, bsm, via, now_us):
        self._prune(now_us)
        if self.seen.check_and_add(bsm, now_us):
            return ()
        self.history.append((bsm, now_us))
        for tid in [t for t, det in self.pending.items()
                    if horizontal_distance_m(det.estimate, bsm.position)
                    < self.config.sigma_m]:
            del self.pending[tid]
        return {
            LinkTech.DSRC: (TX_CV2X, publish(Topic.DSRC)),
            LinkTech.CV2X: (TX_DSRC, publish(Topic.CV2X)),
        }[via]

    def on_detection(self, det, now_us):
        self._prune(now_us)
        matched = self._nearest(
            det, [(b.position, at, b.id) for b, at in self.history])
        if matched is not None:
            return ("Connected", matched, None, None, None, None)
        tid = self._nearest(det, [
            (d.estimate, d.available_at_us, t)
            for t, (d, _) in self.confirmed.items()
        ])
        if tid is not None:
            self.confirmed[tid][0] = det
            synthetic = self.confirmed[tid][1]
            return ("NonConnected", None, tid, None, synthetic,
                    self._generate(synthetic, det))
        tid = self._nearest(det, [
            (d.estimate, d.available_at_us, t) for t, d in self.pending.items()
        ])
        if tid is not None:
            self.pending[tid] = det
            return ("Pending", None, tid, None, None, None)
        tid = self.next_track
        self.next_track += 1
        self.pending[tid] = det
        return ("Pending", None, tid, now_us + self.config.grace_us, None,
                None)

    def on_grace_deadline(self, track_id):
        det = self.pending.pop(track_id, None)
        if det is None:
            return None
        synthetic = RoadUserId(f"{SYNTHETIC_ID_PREFIX}{self.next_synthetic}")
        self.next_synthetic += 1
        self.confirmed[track_id] = [det, synthetic]
        return self._generate(synthetic, det)


def outcome_tuple(outcome):
    return (outcome.status.value, outcome.matched_id, outcome.track_id,
            outcome.deadline_us, outcome.synthetic_id, outcome.generated)


# Offsets in units of sigma from a walker that some detections follow,
# so its track crosses rows and columns. Half-sigma steps give equal
# distances and exact-sigma gaps; offsets within 1e-6 m of sigma (sigma
# is at most 20 m) land on either side of the gate; floats give
# everything in between.
near_gate = st.builds(
    lambda sign, d: sign * (1.0 + d),
    st.sampled_from([-1.0, 1.0]), st.floats(-5e-8, 5e-8),
)
sigma_units = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), near_gate,
    st.floats(-2.0, 2.0),
)
time_steps = st.one_of(st.just(0), st.integers(1, 120_000))
kinds = st.sampled_from(["rx", "detection"])
rx_ops = st.tuples(
    st.just("rx"), time_steps, sigma_units, sigma_units,
    st.sampled_from(["U1", "U2", "U3"]), st.sampled_from([0, 100_000]),
    st.sampled_from([LinkTech.DSRC, LinkTech.CV2X]),
)
detection_ops = st.tuples(
    st.just("detection"), time_steps, sigma_units, sigma_units,
    st.integers(0, 50_000), st.booleans(),
)
grace_ops = st.tuples(st.just("grace"), time_steps,
                      st.integers(1, 12))
# BSMs or detections along one latitude, east from a start.
line_ops = st.tuples(
    st.just("line"), time_steps, sigma_units, sigma_units,
    st.integers(3, 12),
    st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.3, 3.0)),
    kinds,
)
# Five or more BSMs or detections, each within sigma of the others.
cluster_ops = st.tuples(
    st.just("cluster"), time_steps, sigma_units, sigma_units,
    st.lists(st.tuples(st.floats(-0.35, 0.35), st.floats(-0.35, 0.35)),
             min_size=5, max_size=10),
    kinds,
)


@settings(deadline=None)
@given(
    origin_lat=st.one_of(st.floats(-89.9, 89.9),
                         st.sampled_from([-89.99999, 89.99999])),
    origin_lon=st.one_of(st.floats(179.9999, 180.0),
                         st.floats(-180.0, -179.9999)),
    sigma=st.floats(0.5, 20.0),
    walk=st.one_of(st.sampled_from([-0.9, 0.9]), st.floats(-0.95, 0.95)),
    ops=st.lists(
        st.one_of(rx_ops, detection_ops, detection_ops, grace_ops,
                  line_ops, cluster_ops),
        min_size=5, max_size=60,
    ),
)
def test_indexed_filter_matches_linear_scan(
    origin_lat, origin_lon, sigma, walk, ops
):
    walker = Position(origin_lat, origin_lon)

    def position(east, north):
        lat = walker.lat_deg + north * sigma / METERS_PER_DEG
        lon = walker.lon_deg + east * sigma / (
            METERS_PER_DEG * math.cos(math.radians(lat)))
        if not -180.0 <= lon <= 180.0:
            lon = (lon + 180.0) % 360.0 - 180.0
        return Position(max(-90.0, min(90.0, lat)), lon)

    config = FilterConfig(sigma_m=sigma)
    gw, ref = Gateway(config), LinearScanGateway(config)

    def rx(user, where, generated_at, via):
        bsm = make_bsm(RoadUserId(user), where, 0.0, 0.0,
                       PositionAccuracy(1.0), via, generated_at)
        assert gw.on_rx(bsm, via, now) == ref.on_rx(bsm, via, now)

    def detect(where, lag):
        det = Detection(where, 0.0, 0.0,
                        captured_at_us=now - lag - 300_000,
                        available_at_us=now - lag)
        got = outcome_tuple(gw.on_detection(det, now))
        assert got == ref.on_detection(det, now)

    def place(kind, points):
        for i, (east, north) in enumerate(points):
            if kind == "rx":
                rx(f"L{i}", position(east, north), now, LinkTech.DSRC)
            else:
                detect(position(east, north), 0)

    now = 1_000_000
    for op in ops:
        now += op[1]
        if op[0] == "rx":
            _, _, east, north, user, generated_at, via = op
            rx(user, position(east, north), generated_at, via)
        elif op[0] == "detection":
            _, _, east, north, lag, follow = op
            if follow:
                walker = position(0.0, walk)
            detect(walker if follow else position(east, north), lag)
        elif op[0] == "line":
            _, _, east, north, count, spacing, kind = op
            place(kind, [(east + i * spacing, north) for i in range(count)])
        elif op[0] == "cluster":
            _, _, east, north, offsets, kind = op
            place(kind, [(east + e, north + n) for e, n in offsets])
        else:
            track_id = op[2]
            got = gw.on_grace_deadline(track_id)
            assert got == ref.on_grace_deadline(track_id)
        assert list(gw._pending) == list(ref.pending)
        assert list(gw._confirmed) == list(ref.confirmed)
        assert [(bsm.id, at) for bsm, at in gw.history] == [
            (bsm.id, at) for bsm, at in ref.history]
