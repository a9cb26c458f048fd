import math

import pytest
from hypothesis import given, settings, strategies as st

from arsusim.gateway import (
    ActionKind,
    FilterConfig,
    FilterStatus,
    Gateway,
    RelayAction,
    SeenSet,
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
        gw = Gateway()
        gw.on_detection(detection_at(0.0, 0.0), 300_000)
        trace = list(gw.trace)
        bsm = bsm_at("U4", tech=LinkTech.DSRC, now_us=300_000)
        with pytest.raises(ValueError, match="arrival path"):
            gw.on_rx(bsm, LinkTech.CAMERA, 300_000)
        # the rejected call changed nothing ...
        assert len(gw.history) == 0
        assert gw.trace == trace
        assert gw.pending_tracks == 1
        # ... so the same BSM over DSRC is relayed and resolves the track
        assert len(gw.on_rx(bsm, LinkTech.DSRC, 300_000)) == 2
        assert gw.pending_tracks == 0

    def test_payloads_byte_identical_to_input(self):
        gw = Gateway()
        for tech in (LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT):
            bsm = bsm_at(f"U-{tech.value}", x_m=3.0, tech=tech, now_us=100)
            for action in gw.on_rx(bsm, tech, 200):
                assert action.payload is bsm

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


class TestLatitudeBands:
    """Matches across the edges of the filter's latitude bands, which are
    a little over sigma tall and start at the equator."""

    SIGMA = 5.0
    EDGE_Y = SIGMA * (1 + 1e-6)  # first band edge north of the frame origin

    def test_match_due_north_across_band_edge(self):
        below_edge = self.EDGE_Y - 0.0005
        for offset, status in (
            (self.SIGMA - 0.001, FilterStatus.CONNECTED),
            (self.SIGMA, FilterStatus.PENDING),  # strict less-than
        ):
            gw = Gateway(FilterConfig(sigma_m=self.SIGMA))
            gw.on_rx(bsm_at("U1", y_m=below_edge + offset, now_us=250_000),
                     LinkTech.DSRC, 250_000)
            outcome = gw.on_detection(detection_at(0.0, below_edge), 300_000)
            assert outcome.status is status

    def test_confirmed_track_found_after_moving_two_bands(self):
        gw = Gateway(FilterConfig(sigma_m=self.SIGMA))
        first = gw.on_detection(detection_at(0.0, 0.0), 300_000)
        synthetic = gw.on_grace_deadline(first.track_id, 400_000)[0].payload.id
        # each step stays within sigma; the last lands two bands north
        for step in range(1, 5):
            y_m = 0.9 * self.SIGMA * step
            now = 400_000 + 100_000 * step
            outcome = gw.on_detection(
                detection_at(0.0, y_m, captured_us=now - 300_000), now
            )
            assert outcome.status is FilterStatus.NON_CONNECTED
            assert outcome.synthetic_id == synthetic
        assert gw.pending_tracks == 0
        assert gw.confirmed_tracks == 1

    def test_full_tie_goes_to_first_added(self):
        # mirror images about the equator are exactly equidistant from it;
        # the first added lies in the band a lookup reads last
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

    def test_one_bsm_resolves_pending_tracks_in_track_id_order(self):
        gw = Gateway(FilterConfig(sigma_m=self.SIGMA))
        # track 1 lies in the band north of the equator, track 2 south
        north = gw.on_detection(detection_at(0.0, 3.0), 300_000)
        south = gw.on_detection(detection_at(0.0, -3.0), 300_000)
        assert (north.track_id, south.track_id) == (1, 2)
        gw.on_rx(bsm_at("U1", now_us=300_000), LinkTech.DSRC, 300_000)
        assert gw.pending_tracks == 0
        assert [r.actions for r in gw.trace if r.event == "pending_match"] == [
            "track=1", "track=2"
        ]


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


class LinearScanGateway:
    """Reference detection filter: every lookup scans the whole history
    and every track in insertion order. Returns plain tuples that
    :func:`outcome_tuple` and :func:`actions_tuple` also build from the
    gateway's results."""

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
        return ("TxDsrc", "TxCv2x", "PublishMqtt(IPU)")

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
            LinkTech.DSRC: ("TxCv2x", "PublishMqtt(DSRC)"),
            LinkTech.CV2X: ("TxDsrc", "PublishMqtt(CV2X)"),
        }[via]

    def on_detection(self, det, now_us):
        self._prune(now_us)
        matched = self._nearest(
            det, [(b.position, at, b.id) for b, at in self.history])
        if matched is not None:
            return ("Connected", matched, None, None, None, ())
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
            return ("Pending", None, tid, None, None, ())
        tid = self.next_track
        self.next_track += 1
        self.pending[tid] = det
        return ("Pending", None, tid, now_us + self.config.grace_us, None, ())

    def on_grace_deadline(self, track_id, now_us):
        det = self.pending.pop(track_id, None)
        if det is None:
            return None
        synthetic = RoadUserId(f"{SYNTHETIC_ID_PREFIX}{self.next_synthetic}")
        self.next_synthetic += 1
        self.confirmed[track_id] = [det, synthetic]
        return synthetic, self._generate(synthetic, det)


def outcome_tuple(outcome):
    return (outcome.status.value, outcome.matched_id, outcome.track_id,
            outcome.deadline_us, outcome.synthetic_id,
            tuple(action_labels(outcome.actions)))


def actions_tuple(actions):
    if actions is None:
        return None
    return actions[0].payload.id, tuple(action_labels(actions))


# Offsets in units of sigma from a walker that some detections follow,
# so its track crosses bands. Half-sigma steps give equal distances and
# exact-sigma gaps; floats give everything in between.
sigma_units = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0)
)
time_steps = st.one_of(st.just(0), st.integers(1, 120_000))
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


@settings(deadline=None)
@given(
    origin_lat=st.floats(-89.9, 89.9),
    origin_lon=st.one_of(st.floats(179.9999, 180.0),
                         st.floats(-180.0, -179.9999)),
    sigma=st.floats(0.5, 20.0),
    walk=st.one_of(st.sampled_from([-0.9, 0.9]), st.floats(-0.95, 0.95)),
    ops=st.lists(
        st.one_of(rx_ops, detection_ops, detection_ops, grace_ops),
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
        if lon > 180.0:
            lon -= 360.0
        elif lon < -180.0:
            lon += 360.0
        return Position(max(-90.0, min(90.0, lat)), lon)

    config = FilterConfig(sigma_m=sigma)
    gw, ref = Gateway(config), LinearScanGateway(config)
    now = 1_000_000
    for op in ops:
        now += op[1]
        if op[0] == "rx":
            _, _, east, north, user, generated_at, via = op
            bsm = make_bsm(RoadUserId(user), position(east, north), 0.0, 0.0,
                           PositionAccuracy(1.0), via, generated_at)
            got = tuple(action_labels(gw.on_rx(bsm, via, now)))
            assert got == ref.on_rx(bsm, via, now)
        elif op[0] == "detection":
            _, _, east, north, lag, follow = op
            if follow:
                walker = position(0.0, walk)
            det = Detection(walker if follow else position(east, north),
                            0.0, 0.0,
                            captured_at_us=now - lag - 300_000,
                            available_at_us=now - lag)
            got = outcome_tuple(gw.on_detection(det, now))
            assert got == ref.on_detection(det, now)
        else:
            track_id = op[2]
            got = actions_tuple(gw.on_grace_deadline(track_id, now))
            assert got == ref.on_grace_deadline(track_id, now)
        assert list(gw._pending) == list(ref.pending)
        assert list(gw._confirmed) == list(ref.confirmed)
