import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arsusim import gateway as gateway_module
from arsusim import sim as sim_module
from arsusim.broker import ARSU_CLIENT
from arsusim.config import FilterSettings, parse_scenario
from arsusim.gateway import (
    GENERATION_TARGETS,
    FilterStatus,
    Gateway,
)
from arsusim.geo import METERS_PER_DEG, earth_centred_m, horizontal_distance_m
from arsusim.messages import (
    Detection,
    LinkTech,
    Position,
    PositionAccuracy,
    SYNTHETIC_ID_PREFIX,
    Topic,
    make_bsm,
    make_ipu_bsm,
    ms_to_us,
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
        truth_id=truth,
    )


#: Send targets, ``(medium, topic)``.
TX_DSRC = (LinkTech.DSRC, None)
TX_CV2X = (LinkTech.CV2X, None)


def publish(topic):
    return (LinkTech.CELL_MQTT, topic)


class TestFilterSettings:
    @pytest.mark.parametrize("filter_settings, message", [
        (FilterSettings(sigma_m=0.0),
         "calibration error sigma must be positive"),
        (FilterSettings(window_ms=0.0004),
         "window and grace must be positive"),
        (FilterSettings(grace_ms=0.0004),
         "window and grace must be positive"),
    ])
    def test_gate_and_times_in_us_must_be_positive(
            self, filter_settings, message):
        """A window or grace wait that rounds to 0 µs is refused, as a
        gate of 0 m is."""
        with pytest.raises(ValueError, match=message):
            Gateway(filter_settings)

    def test_default_is_the_scenario_default(self):
        """``Gateway()`` filters as the gateway of a scenario with no
        ``filter`` section does."""
        parsed = Gateway(parse_scenario("duration_ms: 100\n").filter)
        default = Gateway()
        assert (default.sigma_m, default.history.window_us,
                default.grace_us) == (parsed.sigma_m,
                                      parsed.history.window_us,
                                      parsed.grace_us)
        assert default.history.window_us == 200_000
        assert default.grace_us == 100_000


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

        def casting(plan, sent_us, bsms, uplink, *rest):
            if any(plan is relay for relay in radio_relays):
                relayed.extend(bsms)
            cast(plan, sent_us, bsms, uplink, *rest)

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

    @pytest.mark.parametrize("origin", [
        LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT, LinkTech.CAMERA,
    ], ids=lambda tech: tech.value)
    def test_echo_on_another_medium_dropped(self, origin):
        """A copy fed back on a medium other than its origin returns
        ``()``, enters no history and resolves no pending track within
        the gate. A camera BSM, which the gateway generates, has no
        medium of its own, so a copy on any medium is dropped."""
        if origin is LinkTech.CAMERA:
            source = Gateway()
            track_id = source.on_detection(
                detection_at(0.0, 0.0, truth="P1"), 300_000).track_id
            bsm = source.on_grace_deadline(track_id)
        else:
            bsm = bsm_at("U1", tech=origin, now_us=300_000)
        gw = Gateway()
        outcome = gw.on_detection(detection_at(1.0, 0.0), 300_000)
        assert outcome.status is FilterStatus.PENDING
        for via in (LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT):
            if via is not origin:
                assert gw.on_rx(bsm, via, 301_000) == ()
        assert (len(gw.history), gw.pending_tracks,
                gw.confirmed_tracks) == (0, 1, 0)
        if origin is not LinkTech.CAMERA:
            # The same BSM over its own medium resolves the track. The
            # guard keeps no state, so a BSM heard twice over its own
            # medium is relayed both times.
            assert gw.on_rx(bsm, origin, 302_000) != ()
            assert (len(gw.history), gw.pending_tracks) == (1, 0)
            assert gw.on_rx(bsm, origin, 303_000) != ()
            assert len(gw.history) == 2

    @pytest.mark.parametrize("origin", [
        LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT,
    ], ids=lambda tech: tech.value)
    def test_echo_loop_freedom(self, origin):
        # feed every Tx output back on the opposite medium until quiet
        gw = Gateway()
        origin_bsm = bsm_at("U1", tech=origin, now_us=0)
        total_targets = 0
        queue = [(origin_bsm, origin)]
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
        ids = [bsm.id for bsm, _ in gw.history]
        assert ids == ["U2", "U3"]


class TestDetectionFilter:
    def test_exact_position_match_is_connected(self):
        gw = Gateway()
        gw.on_rx(bsm_at("U1", x_m=10.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        outcome = gw.on_detection(detection_at(10.0, 0.0), 300_000)
        assert outcome.status is FilterStatus.CONNECTED
        assert outcome.matched_id == "U1"
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
        assert payload.id.startswith(SYNTHETIC_ID_PREFIX)
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
        assert outcome.matched_id == "NEAR"

    def test_distance_tie_broken_by_most_recent(self):
        gw = Gateway()
        gw.on_rx(bsm_at("OLD", x_m=12.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        gw.on_rx(bsm_at("NEW", x_m=12.0, tech=LinkTech.DSRC, now_us=251_000),
                 LinkTech.DSRC, 251_000)
        outcome = gw.on_detection(detection_at(12.0, 0.0), 300_000)
        assert outcome.matched_id == "NEW"

    def test_boundary_distance_is_not_a_match(self):
        gw = Gateway(FilterSettings(sigma_m=5.0))
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
        ids = {bsm_a.id, bsm_b.id}
        assert ids == {"ipu:1", "ipu:2"}


def frame_at(*points, captured_us=100_000):
    """One camera frame's detections at ``(x_m, y_m)`` points, in capture
    order, available 300 ms after capture."""
    return Detection.of_frame(
        ((position_at(x_m, y_m), 0.0, 0.0, None) for x_m, y_m in points),
        captured_us, captured_us + 300_000,
    )


def _confirmed_at(x_m, y_m):
    """A gateway holding one confirmed track, ``ipu:1``, at the point."""
    gw = Gateway()
    first = gw.on_detection(detection_at(x_m, y_m), 300_000)
    assert gw.on_grace_deadline(first.track_id).id == "ipu:1"
    return gw


class TestFrame:
    """``on_frame`` classifies one camera frame: the simulation's only
    entry into the detection filter."""

    @staticmethod
    def _mixed():
        """A gateway with a confirmed track at (50, 0) m and U1's BSM at
        (0, 0) m, and a frame that meets each stage of the filter."""
        gw = _confirmed_at(50.0, 0.0)
        gw.on_rx(bsm_at("U1", tech=LinkTech.DSRC, now_us=350_000),
                 LinkTech.DSRC, 350_000)
        return gw, frame_at((0.0, 0.0), (50.5, 0.0), (100.0, 0.0),
                            (100.5, 0.0))

    def test_empty_frame_returns_no_outcomes(self):
        gw = Gateway()
        assert gw.on_frame([], 400_000) == []
        assert gw.pending_tracks == gw.confirmed_tracks == 0

    def test_one_outcome_per_detection_in_capture_order(self):
        gw, frame = self._mixed()
        outcomes = gw.on_frame(frame, 400_000)
        assert [(o.status, o.matched_id, o.track_id, o.deadline_us)
                for o in outcomes] == [
            (FilterStatus.CONNECTED, "U1", None, None),
            (FilterStatus.NON_CONNECTED, None, 1, None),
            (FilterStatus.PENDING, None, 2, 500_000),
            (FilterStatus.PENDING, None, 2, None),
        ]
        assert outcomes[1].generated.id == "ipu:1"
        # As classifying the detections one by one gives.
        one_by_one, frame = self._mixed()
        assert outcomes == [one_by_one.on_detection(det, 400_000)
                            for det in frame]

    def test_wrapper_on_the_instance_sees_each_detection_once(self):
        """perfbench counts ``gateway.on_detection`` calls through a
        wrapper set on the instance."""
        gw, frame = self._mixed()
        seen = []
        on_detection = gw.on_detection

        def wrapped(det, now_us):
            seen.append((det, now_us))
            return on_detection(det, now_us)

        gw.on_detection = wrapped
        outcomes = gw.on_frame(frame, 400_000)
        assert len(seen) == len(outcomes) == len(frame)
        assert all(det is expected and now_us == 400_000
                   for (det, now_us), expected in zip(seen, frame))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_a_track_takes_at_most_one_detection_per_frame(self):
        """Two users 1 m either side of a confirmed track: today both
        refresh it, and two BSMs go out keyed (``ipu:1``, capture time)."""
        gw = _confirmed_at(0.0, 0.0)
        outcomes = gw.on_frame(frame_at((0.0, 1.0), (0.0, -1.0)), 400_000)
        tracks = [o.track_id for o in outcomes if o.track_id is not None]
        assert len(tracks) == len(set(tracks))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_a_subject_explains_at_most_one_detection_per_frame(self):
        """A phone user's BSM at (0, 0) m and detections 0.5 m and 2.5 m
        from it: today both match the phone, masking the second user."""
        gw = Gateway()
        gw.on_rx(bsm_at("cell1", tech=LinkTech.CELL_MQTT, now_us=350_000),
                 LinkTech.CELL_MQTT, 350_000)
        outcomes = gw.on_frame(frame_at((0.0, 0.5), (0.0, 2.5)), 400_000)
        matched = [o.matched_id for o in outcomes if o.matched_id is not None]
        assert len(matched) == len(set(matched))

    def test_sim_enters_the_filter_only_through_on_frame(self):
        """``sim.py`` reads no ``on_detection`` attribute, so how the
        filter goes through a frame is ``on_frame``'s alone."""
        tree = ast.parse(Path(sim_module.__file__).read_text())
        read = [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)]
        assert "on_frame" in read
        assert "on_detection" not in read


def _gateway_at(sigma_m, bsms=(), detections=()):
    """A gateway that heard ``bsms`` (user id, position) and then
    classified ``detections`` (positions), all at 300 ms; returns it and
    the detections' outcomes."""
    gw = Gateway(FilterSettings(sigma_m=sigma_m))
    for user, position in bsms:
        bsm = make_bsm(user, position, 0.0, 0.0,
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


def _walk(lat_deg, lon_deg, north):
    """Steps in meters from a start, due north or due east, wrapped."""
    if north:
        return lambda t: Position(lat_deg + t / METERS_PER_DEG, lon_deg)
    return lambda t: _east_of(Position(lat_deg, lon_deg), t)


class TestFilterGrid:
    """Matches across the faces of the filter's cubes: Earth-centred
    cells a little over two sigma wide, with faces at multiples of their
    side on each of x, y and z."""

    SIGMA = 5.0

    #: By axis, walks along which the ground crosses that axis's faces:
    #: (start latitude, start longitude, due north). Each crosses a face
    #: within 10 m of the plane where the coordinate is 0, so a gate a
    #: few 1e-9 m wider moves the face by far less than a millimetre.
    #: The second y walk crosses the antimeridian.
    WALKS = {
        0: [(0.0, 90.0, False), (60.0, -90.0, False)],
        1: [(0.0, 0.0, False), (-60.0, 179.9999, False)],
        2: [(0.0, 0.0, True), (-0.00001, 135.0, True)],
    }

    @staticmethod
    def _face(shape, walk, axis):
        """The first step along ``walk`` past which ``shape``'s cell on
        ``axis`` differs from the cell at step 0, to within 1e-7 m."""
        def cell(t):
            return shape.cell(earth_centred_m(walk(t)))[axis]

        start, lo, hi = cell(0.0), 0.0, 0.0
        while cell(hi) == start:
            lo, hi = hi, hi + 1.0
        while hi - lo > 1e-7:
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if cell(mid) == start else (lo, mid)
        return hi

    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
    def test_match_across_a_cube_face(self, axis):
        """A detection 0.5 mm short of a face and a BSM beyond it: a
        match at sigma - 1 mm, and none where the distance is sigma."""
        for lat, lon, north in self.WALKS[axis]:
            walk = _walk(lat, lon, north)
            shape = Gateway(FilterSettings(sigma_m=self.SIGMA))._shape
            face = self._face(shape, walk, axis)
            for sign in (1.0, -1.0):  # towards the face from either side
                start = face - sign * 0.0005
                here = walk(start)
                near = walk(start + sign * (self.SIGMA - 0.001))
                edge = walk(start + sign * self.SIGMA)
                # A sigma equal to the edge BSM's distance, whatever
                # rounding made of it, puts that BSM exactly on the gate.
                at_edge = horizontal_distance_m(here, edge)
                for sigma, there, status in (
                    (self.SIGMA, near, FilterStatus.CONNECTED),
                    (at_edge, edge, FilterStatus.PENDING),  # strict <
                ):
                    gw, (outcome,) = _gateway_at(
                        sigma, bsms=[("U1", there)], detections=[here])
                    cells = [gw._shape.cell(earth_centred_m(p))[axis]
                             for p in (here, there)]
                    assert abs(cells[1] - cells[0]) == 1
                    assert outcome.status is status

    def test_confirmed_track_found_after_moving_two_bands(self):
        gw = Gateway(FilterSettings(sigma_m=self.SIGMA))
        first = gw.on_detection(detection_at(0.0, 0.0), 300_000)
        synthetic = gw.on_grace_deadline(first.track_id).id
        # each step stays within sigma; the last lands in the next band of
        # cubes north (z) and the next east (y)
        for step in range(1, 5):
            offset = 0.6 * self.SIGMA * step
            now = 400_000 + 100_000 * step
            outcome = gw.on_detection(
                detection_at(offset, offset, captured_us=now - 300_000), now
            )
            assert outcome.status is FilterStatus.NON_CONNECTED
            assert outcome.generated.id == synthetic
        cells = [gw._shape.cell(earth_centred_m(position_at(xy, xy)))
                 for xy in (0.0, offset)]
        assert cells[1][1:] == (cells[0][1] + 1, cells[0][2] + 1)
        assert gw.pending_tracks == 0
        assert gw.confirmed_tracks == 1

    def test_match_across_the_antimeridian(self):
        west = Position(45.0, 180.0 - 1e-6)
        east = _east_of(west, self.SIGMA - 0.01)
        assert east.lon_deg < -179.0
        # Users further east share the cubes around the antimeridian.
        fillers = [(f"F{i}", _east_of(east, 4.0 * self.SIGMA * i))
                   for i in range(1, 11)]
        for bsm_at_, det_at in ((east, west), (west, east)):
            _, (outcome,) = _gateway_at(
                self.SIGMA, bsms=[("U1", bsm_at_)] + fillers,
                detections=[det_at])
            assert outcome.matched_id == "U1"
        # A confirmed track follows its user across the antimeridian.
        gw, outcomes = _gateway_at(
            self.SIGMA, detections=[west] + [p for _, p in fillers])
        for outcome in outcomes:
            gw.on_grace_deadline(outcome.track_id)
        outcome = gw.on_detection(
            Detection(east, 0.0, 0.0, 200_000, 500_000), 500_000)
        assert outcome.status is FilterStatus.NON_CONNECTED
        assert outcome.track_id == outcomes[0].track_id

    def test_match_across_the_pole(self):
        # 2 m short of the north pole on opposite meridians: 4 m apart,
        # on either side of the face x = 0
        lat = 90.0 - 2.0 / METERS_PER_DEG
        here, there = Position(lat, 30.0), Position(lat, -150.0)
        assert horizontal_distance_m(here, there) == pytest.approx(4.0)
        shape = Gateway(FilterSettings(sigma_m=self.SIGMA))._shape
        assert shape.cell(earth_centred_m(here))[0] == shape.cell(
            earth_centred_m(there))[0] + 1
        _, (outcome,) = _gateway_at(
            self.SIGMA, bsms=[("U1", there)], detections=[here])
        assert outcome.matched_id == "U1"

    def test_full_tie_goes_to_first_added(self):
        # mirror images about the equator are exactly equidistant from it;
        # the first added lies in the cube a lookup reads last
        gw = Gateway(FilterSettings(sigma_m=self.SIGMA))
        gw.on_rx(bsm_at("NORTH", y_m=3.0, now_us=300_000),
                 LinkTech.DSRC, 300_000)
        gw.on_rx(bsm_at("SOUTH", y_m=-3.0, now_us=300_000),
                 LinkTech.DSRC, 300_000)
        outcome = gw.on_detection(detection_at(0.0, 0.0), 300_000)
        assert outcome.matched_id == "NORTH"

        gw = Gateway(FilterSettings(sigma_m=self.SIGMA))
        north = gw.on_detection(detection_at(0.0, 3.0), 300_000)
        gw.on_detection(detection_at(0.0, -3.0), 300_000)
        outcome = gw.on_detection(detection_at(0.0, 0.0), 300_000)
        assert outcome.track_id == north.track_id

    def test_full_tie_across_a_column_edge_goes_to_first_added(self):
        # the prime meridian is the face y = 0 between two columns of
        # cubes, and mirror images about it are exactly equidistant from it
        shape = Gateway(FilterSettings(sigma_m=self.SIGMA))._shape
        east, west = position_at(3.0, 0.0), position_at(-3.0, 0.0)
        assert shape.cell(earth_centred_m(east))[1] == shape.cell(
            earth_centred_m(west))[1] + 1
        _, (outcome,) = _gateway_at(
            self.SIGMA, bsms=[("EAST", east), ("WEST", west)],
            detections=[position_at(0.0, 0.0)])
        assert outcome.matched_id == "EAST"

    def test_one_bsm_resolves_pending_tracks_in_two_rows(self):
        gw = Gateway(FilterSettings(sigma_m=self.SIGMA))
        shape = gw._shape

        def cell(xy):
            return shape.cell(earth_centred_m(position_at(*xy)))

        # track 1 lies in the row of cubes north of the equator (the face
        # z = 0), track 2 in the row south, track 3 in track 1's cube;
        # each is more than sigma from the others, so none absorbs
        # another, and within sigma of the BSM
        north = gw.on_detection(detection_at(0.0, 3.0), 300_000)
        south = gw.on_detection(detection_at(0.0, -3.0), 300_000)
        beside = gw.on_detection(detection_at(4.5, 0.2), 300_000)
        assert cell((0.0, 3.0)) != cell((0.0, -3.0))
        assert cell((4.5, 0.2)) == cell((0.0, 3.0))
        # track 4 is in a cube the lookup reads, but beyond sigma
        far_xy = (-4.9, -1.5)
        far = gw.on_detection(detection_at(*far_xy), 300_000)
        _, *axes = shape.reach(position_at(0.0, 0.0))
        assert all(v in cells for v, cells in zip(cell(far_xy), axes))
        assert len({cell(xy) for xy in ((0.0, 3.0), (0.0, -3.0), far_xy)}) == 3
        assert (north.track_id, south.track_id, beside.track_id,
                far.track_id) == (1, 2, 3, 4)
        gw.on_rx(bsm_at("U1", now_us=300_000), LinkTech.DSRC, 300_000)
        assert gw.pending_tracks == 1
        for resolved in (north, south, beside):
            assert gw.on_grace_deadline(resolved.track_id) is None
        assert gw.on_grace_deadline(far.track_id) is not None
        assert (gw.pending_tracks, gw.confirmed_tracks) == (0, 1)

    def test_line_of_users_costs_at_most_two_distance_calls(
        self, monkeypatch
    ):
        """1,000 confirmed tracks 10 m apart on one latitude and BSMs
        halfway between them, outside a 4 m gate: a detection at a track
        measures at most two entries, not the whole line."""
        gw = Gateway(FilterSettings(sigma_m=4.0))
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
        gw = Gateway(connected_ids=frozenset({"U1"}))
        gw.on_rx(bsm_at("U1", tech=LinkTech.DSRC), LinkTech.DSRC, 0)
        assert gw.ghost_events() == []

    def test_connected_user_beyond_sigma_becomes_ghost(self):
        gw = Gateway(connected_ids=frozenset({"U1"}))
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
        assert truth == "U1"
        assert synthetic.startswith(SYNTHETIC_ID_PREFIX)

    def test_matched_user_is_not_a_ghost(self):
        gw = Gateway(connected_ids=frozenset({"U1"}))
        gw.on_rx(bsm_at("U1", x_m=1.0, tech=LinkTech.DSRC, now_us=250_000),
                 LinkTech.DSRC, 250_000)
        outcome = gw.on_detection(
            detection_at(0.0, 0.0, truth="U1"), 300_000
        )
        assert outcome.status is FilterStatus.CONNECTED
        assert gw.ghost_count == 0

    def test_truly_non_connected_confirmation_is_not_a_ghost(self):
        gw = Gateway(connected_ids=frozenset({"U1"}))
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

    def __init__(self, config: FilterSettings):
        self.sigma_m = config.sigma_m
        self.window_us = ms_to_us(config.window_ms)
        self.grace_us = ms_to_us(config.grace_ms)
        self.history = []  # (bsm, received_at_us), oldest first
        self.pending = {}  # track id -> latest detection
        self.confirmed = {}  # track id -> [latest detection, synthetic id]
        self.next_track = 1
        self.next_synthetic = 1

    def _prune(self, now_us):
        cutoff = now_us - self.window_us
        self.history = [e for e in self.history if e[1] >= cutoff]

    def _nearest(self, det, candidates):
        """First of the nearest (position, recency, value) within sigma."""
        best = None
        for position, recency, value in candidates:
            d = horizontal_distance_m(det.estimate, position)
            if d < self.sigma_m:
                key = (d, -recency)
                if best is None or key < best[0]:
                    best = (key, value)
        return None if best is None else best[1]

    def on_rx(self, bsm, via, now_us):
        self._prune(now_us)
        if bsm.origin_tech is not via:
            return ()
        self.history.append((bsm, now_us))
        for tid in [t for t, det in self.pending.items()
                    if horizontal_distance_m(det.estimate, bsm.position)
                    < self.sigma_m]:
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
            return ("Connected", matched, None, None, None)
        tid = self._nearest(det, [
            (d.estimate, d.available_at_us, t)
            for t, (d, _) in self.confirmed.items()
        ])
        if tid is not None:
            self.confirmed[tid][0] = det
            synthetic = self.confirmed[tid][1]
            return ("NonConnected", None, tid, None,
                    make_ipu_bsm(synthetic, det, self.sigma_m))
        tid = self._nearest(det, [
            (d.estimate, d.available_at_us, t) for t, d in self.pending.items()
        ])
        if tid is not None:
            self.pending[tid] = det
            return ("Pending", None, tid, None, None)
        tid = self.next_track
        self.next_track += 1
        self.pending[tid] = det
        return ("Pending", None, tid, now_us + self.grace_us, None)

    def on_grace_deadline(self, track_id):
        det = self.pending.pop(track_id, None)
        if det is None:
            return None
        synthetic = f"{SYNTHETIC_ID_PREFIX}{self.next_synthetic}"
        self.next_synthetic += 1
        self.confirmed[track_id] = [det, synthetic]
        return make_ipu_bsm(synthetic, det, self.sigma_m)


def outcome_tuple(outcome):
    return (outcome.status.value, outcome.matched_id, outcome.track_id,
            outcome.deadline_us, outcome.generated)


# Offsets in units of sigma from a walker that some detections follow,
# so its track crosses cube faces. Half-sigma steps give equal
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
# A BSM of either radio origin, heard over either radio: over the other
# one it is an echo, which both filters drop.
rx_ops = st.tuples(
    st.just("rx"), time_steps, sigma_units, sigma_units,
    st.sampled_from(["U1", "U2", "U3"]), st.sampled_from([0, 100_000]),
    st.sampled_from([LinkTech.DSRC, LinkTech.CV2X]),
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
    origin_lon=st.one_of(st.floats(-180.0, 180.0),
                         st.floats(179.9999, 180.0),
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

    config = FilterSettings(sigma_m=sigma)
    gw, ref = Gateway(config), LinearScanGateway(config)

    def rx(user, where, generated_at, origin, via):
        bsm = make_bsm(user, where, 0.0, 0.0,
                       PositionAccuracy(1.0), origin, generated_at)
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
                rx(f"L{i}", position(east, north), now, LinkTech.DSRC,
                   LinkTech.DSRC)
            else:
                detect(position(east, north), 0)

    now = 1_000_000
    for op in ops:
        now += op[1]
        if op[0] == "rx":
            _, _, east, north, user, generated_at, origin, via = op
            rx(user, position(east, north), generated_at, origin, via)
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
