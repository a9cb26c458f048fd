"""The roadside gateway's decision engine.

Three responsibilities, all driven by a strictly sequential event feed:

* translate-and-relay: a BSM heard on one medium is re-emitted on the
  other media per the relaying rules, payload untouched; a seen-set,
  the unit's loop guard, suppresses a BSM already relayed;
* connected/non-connected filtering: camera detections are matched
  against a short history of received BSM positions; unmatched
  detections wait one grace period for late BSMs before being confirmed
  non-connected;
* message generation: confirmed non-connected users get gateway-built
  BSMs under synthetic ids, sent to each of ``GENERATION_TARGETS``. The
  gateway never generates messages on behalf of connected users.

The gateway keeps no log of its decisions: each call returns what it
decided (the relay targets, a ``DetectionOutcome``, a generated BSM), and
a caller that wants a record keeps what the calls return.

Every match is "nearest within ``sigma_m`` by :func:`horizontal_distance_m`".
The history and the pending and confirmed tracks are each indexed in a
grid of degrees, and a lookup measures only the few entries the grid
cannot rule out. Rows are latitude bands ``h = sigma_m * (1 + 1e-6) /
METERS_PER_DEG + 1e-12`` degrees tall; columns are longitude cells at
least ``h`` wide, ``n = floor(360 / h)`` of them, so that a whole number
of columns spans the circle and the antimeridian is a column edge. The
grid needs no local frame, and it is exact at any latitude and across
the antimeridian:

* Rows. The great-circle distance is never less than the meridian arc,
  ``R * |dphi|``, so anything within ``sigma_m`` lies at most one row
  away.
* Longitude. By the haversine formula, ``sin²(d/2R) = sin²(dphi/2) +
  cos phi1 * cos phi2 * sin²(dlam/2) >= cos phi1 * cos phi2 *
  sin²(dlam/2)``. A match has ``d < sigma_m`` and so ``|dphi| <=
  sigma_m / R``: ``|phi2| <= |phi1| + sigma_m / R = phi_far``, and
  ``cos phi2 >= cos phi_far`` while ``phi_far < 90°``. Hence
  ``sin²(dlam/2) < sin²(sigma_m/2R) / (cos phi1 * cos phi_far)``, and as
  ``sin²(x/2)`` rises on [0, 180°], the wrapped ``|dlam|`` is below
  ``2 * asin(sqrt(...))``: the reach. A lookup works it out once per
  query, visits the three rows and the columns that cover ``lam1 ±
  reach``, wrapped modulo ``n``, and passes on only entries whose
  wrapped ``|dlam|`` is within the reach. Where ``phi_far`` reaches a
  pole, or the ratio reaches 1, the reach passes 180° and the lookup
  reads whole rows.

The row height, ``phi_far`` and the reach carry a 1e-6 relative and a
1e-12 degree absolute margin, far more than float rounding in the bounds
(a few 1e-16 relative, about 1e-14 degrees absolute).

One index class, :class:`_Index`, holds all three stores: the history
keyed by arrival count, the tracks by track id. It owns each key's cell
and first-put sequence, and its items share one shape, ``(position,
recency_us, sequence, value)``, so one nearest search, keyed ``(distance,
-recency_us, sequence)``, serves all three in the order a full scan in
insertion order would give. The history also keeps its arrivals in a
deque for pruning: a dict used as a FIFO scans past its deleted slots.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from .geo import EARTH_RADIUS_M, METERS_PER_DEG, horizontal_distance_m
from .messages import (
    Bsm,
    Detection,
    LinkTech,
    Position,
    RoadUserId,
    SYNTHETIC_ID_PREFIX,
    Topic,
    make_ipu_bsm,
)


#: A send: a radio broadcast on ``medium`` when ``topic`` is None, else a
#: publish on ``topic`` (``medium`` is then ``LinkTech.CELL_MQTT``).
Target = tuple[LinkTech, Optional[Topic]]

#: The sends of a relay, by the medium a BSM arrived over.
_RELAY_TARGETS: dict[LinkTech, tuple[Target, ...]] = {
    LinkTech.DSRC: ((LinkTech.CV2X, None), (LinkTech.CELL_MQTT, Topic.DSRC)),
    LinkTech.CV2X: ((LinkTech.DSRC, None), (LinkTech.CELL_MQTT, Topic.CV2X)),
    LinkTech.CELL_MQTT: ((LinkTech.DSRC, None), (LinkTech.CV2X, None)),
}

#: The sends of a gateway-generated BSM, in order.
GENERATION_TARGETS: tuple[Target, ...] = (
    (LinkTech.DSRC, None), (LinkTech.CV2X, None),
    (LinkTech.CELL_MQTT, Topic.IPU),
)


class FilterStatus(Enum):
    CONNECTED = "Connected"
    PENDING = "Pending"
    NON_CONNECTED = "NonConnected"


@dataclass
class DetectionOutcome:
    status: FilterStatus
    matched_id: Optional[RoadUserId] = None
    track_id: Optional[int] = None
    #: Set only when this detection opened a new pending track; the
    #: caller is expected to schedule a grace-deadline event.
    deadline_us: Optional[int] = None
    synthetic_id: Optional[RoadUserId] = None
    #: The BSM a refresh generated, for each of ``GENERATION_TARGETS``.
    generated: Optional[Bsm] = None


@dataclass(frozen=True)
class FilterConfig:
    """Matching gate and timing of the detection filter."""

    sigma_m: float = 5.0
    window_us: int = 200_000
    grace_us: int = 100_000

    def __post_init__(self):
        if self.sigma_m <= 0.0:
            raise ValueError("calibration error sigma must be positive")
        if self.window_us <= 0 or self.grace_us <= 0:
            raise ValueError("window and grace must be positive")


#: Relative and absolute (degrees) widening of the grid's cells and of a
#: lookup's longitude reach, against float rounding.
_MARGIN = 1e-6
_MARGIN_DEG = 1e-12


class _Reach(NamedTuple):
    """Where a lookup around one position looks: the position's row and
    longitude, the largest longitude difference (degrees) a match can
    have, and the columns that cover it in each of the three rows, as
    one or two ranges (two across the antimeridian), ``width`` of them
    in all. A reach of 180 degrees covers every column."""

    row: int
    lon_deg: float
    reach_deg: float
    columns: tuple[range, ...]
    width: int


class _GridShape:
    """The filter grid's geometry: rows of latitude a little taller than
    ``sigma_m``, and columns of longitude at least as wide, as many as
    make up 360 degrees exactly (see the module docstring)."""

    def __init__(self, sigma_m: float):
        cell_deg = sigma_m * (1.0 + _MARGIN) / METERS_PER_DEG + _MARGIN_DEG
        self._rows_per_deg = 1.0 / cell_deg
        self._columns = max(1, math.floor(360.0 / cell_deg))
        self._columns_per_deg = self._columns / 360.0
        gate_rad = sigma_m / EARTH_RADIUS_M
        self._gate_deg = math.degrees(gate_rad) * (1.0 + _MARGIN) + _MARGIN_DEG
        self._sin2_half_gate = math.sin(gate_rad / 2.0) ** 2

    def cell(self, position: Position) -> tuple[int, int]:
        return (
            math.floor(position.lat_deg * self._rows_per_deg),
            math.floor((position.lon_deg + 180.0) * self._columns_per_deg)
            % self._columns,
        )

    def reach(self, position: Position) -> _Reach:
        """The lookup around ``position``: its longitude reach from
        sin²(d/2R) ≥ cos φ₁·cos φ₂·sin²(Δλ/2), with φ₂ as far from the
        equator as a match can lie."""
        lat, lon = position.lat_deg, position.lon_deg
        row = math.floor(lat * self._rows_per_deg)
        n = self._columns
        per_deg = self._columns_per_deg
        far_deg = abs(lat) + self._gate_deg
        if far_deg < 90.0:
            cos_product = (math.cos(math.radians(lat))
                           * math.cos(math.radians(far_deg)))
            if cos_product > self._sin2_half_gate:
                reach_deg = math.degrees(2.0 * math.asin(math.sqrt(
                    self._sin2_half_gate / cos_product
                ))) * (1.0 + _MARGIN) + _MARGIN_DEG
                first = math.floor((lon - reach_deg + 180.0) * per_deg)
                last = math.floor((lon + reach_deg + 180.0) * per_deg)
                width = last - first + 1
                if 0 <= first and last < n:
                    return _Reach(row, lon, reach_deg,
                                  (range(first, last + 1),), width)
                if width < n:  # across the antimeridian
                    return _Reach(row, lon, reach_deg, (
                        range(first % n, n), range(0, last % n + 1)
                    ), width)
        # Near a pole the reach passes 180 degrees: every column.
        return _Reach(row, lon, 180.0, (range(n),), n)


class _Index:
    """Keyed items in the grid cell of their position, each item
    ``(position, recency_us, sequence, value)``. The sequence numbers
    keys in the order they were first put; a key keeps it when it moves.
    Iteration gives the held keys in that order."""

    def __init__(self, shape: _GridShape):
        self._shape = shape
        #: row -> column -> key -> (longitude, item)
        self._rows: dict[int, dict[int, dict[int, tuple[float, tuple]]]] = {}
        #: key -> (cell, sequence, the cell's dict of items)
        self._held: dict[int, tuple[tuple[int, int], int, dict]] = {}
        self._puts = 0

    def put(
        self, key: int, position: Position, recency_us: int, value: object
    ) -> None:
        """Add ``key``, or move it if it is held."""
        cell = self._shape.cell(position)
        held = self._held.get(key)
        if held is not None and held[0] == cell:
            _, sequence, items = held
        else:
            if held is None:
                sequence = self._puts
                self._puts += 1
            else:
                sequence = held[1]
                self._leave(key, held)
            row, column = cell
            items = self._rows.setdefault(row, {}).setdefault(column, {})
            self._held[key] = (cell, sequence, items)
        items[key] = (position.lon_deg, (position, recency_us, sequence, value))

    def pop(self, key: int) -> Optional[object]:
        """Remove ``key``; returns its value, or None if it is not held."""
        held = self._held.pop(key, None)
        if held is None:
            return None
        return self._leave(key, held)[3]

    def _leave(self, key: int, held: tuple) -> tuple:
        """Take ``key``'s item out of its cell; returns the item."""
        (row, column), _, items = held
        _, item = items.pop(key)
        if not items:
            columns = self._rows[row]
            del columns[column]
            if not columns:
                del self._rows[row]
        return item

    def near(self, reach: _Reach) -> list[tuple]:
        """Items in the reach's three rows and columns whose longitude
        lies within its reach: every item within ``sigma_m``, and a few
        more. A row with no more occupied cells than the reach has
        columns is read whole."""
        found = []
        row, lon_deg, reach_deg, wanted, width = reach
        for r in (row - 1, row, row + 1):
            columns = self._rows.get(r)
            if columns is None:
                continue
            if width >= len(columns):
                cells = columns.values()
            else:
                cells = [columns[c] for span in wanted for c in span
                         if c in columns]
            for items in cells:
                for item_lon, item in items.values():
                    d_lon = abs(item_lon - lon_deg)
                    if d_lon > 180.0:
                        d_lon = 360.0 - d_lon
                    if d_lon <= reach_deg:
                        found.append(item)
        return found

    def __iter__(self) -> Iterator[int]:
        return iter(self._held)

    def __len__(self) -> int:
        return len(self._held)


class HistoryStore(_Index):
    """BSMs received over the last ``window_us``, keyed by arrival count,
    each item ``(bsm.position, received_at_us, sequence, bsm)``.
    Iteration gives ``(bsm, received_at_us)``, oldest first."""

    def __init__(self, window_us: int, shape: _GridShape):
        super().__init__(shape)
        self.window_us = window_us
        #: (bsm, received_at_us, key), oldest first: the pruning order.
        self._arrivals: deque[tuple[Bsm, int, int]] = deque()

    def append(self, bsm: Bsm, received_at_us: int) -> None:
        key = self._puts  # the arrival count
        self.put(key, bsm.position, received_at_us, bsm)
        self._arrivals.append((bsm, received_at_us, key))

    def prune(self, now_us: int) -> None:
        cutoff = now_us - self.window_us
        arrivals = self._arrivals
        while arrivals and arrivals[0][1] < cutoff:
            self.pop(arrivals.popleft()[2])

    def __iter__(self) -> Iterator[tuple[Bsm, int]]:
        return ((bsm, received_at) for bsm, received_at, _ in self._arrivals)


#: How long a relayed (id, generated_at) key suppresses its echoes.
_SEEN_RETENTION_US = 1_000_000


class SeenSet:
    """(id, generated_at) keys already relayed, each a duplicate until
    ``_SEEN_RETENTION_US`` after it was last seen. A lookup checks that
    time, so the prune, in first-seen order, only bounds memory."""

    def __init__(self):
        self._seen: dict[tuple[str, int], int] = {}
        #: Keys in the order first seen; each is in ``_seen``.
        self._order: deque[tuple[str, int]] = deque()

    def check_and_add(self, bsm: Bsm, now_us: int) -> bool:
        """True if this logical BSM was seen within the retention (and
        refresh it)."""
        cutoff = now_us - _SEEN_RETENTION_US
        seen, order = self._seen, self._order
        while order and seen[order[0]] < cutoff:
            del seen[order.popleft()]
        key = (bsm.id.value, bsm.generated_at_us)
        last_us = seen.get(key)
        seen[key] = now_us
        if last_us is None:
            order.append(key)
        return last_us is not None and last_us >= cutoff

    def __len__(self) -> int:
        return len(self._seen)


@dataclass
class DetectionTrack:
    track_id: int
    latest: Detection
    synthetic_id: Optional[RoadUserId] = None


def _hold(index: _Index, track: DetectionTrack, det: Detection) -> None:
    """Make ``det`` the track's latest detection and put the track in
    ``index`` there; only here, so its place in the index stays current."""
    track.latest = det
    index.put(track.track_id, det.estimate, det.available_at_us, track)


class Gateway:
    """Sequential state machine fed by the simulation's event loop.

    ``connected_ids`` is the simulation's ground-truth oracle used only
    by the ghost metric; the filter itself never consults it.
    """

    #: Always empty: kept only because perfbench's
    #: ``gateway.decisions_held`` reads its len() (ROADMAP item 9).
    trace = ()

    def __init__(
        self,
        config: FilterConfig = FilterConfig(),
        connected_ids: Optional[frozenset[RoadUserId]] = None,
    ):
        self.config = config
        self._shape = _GridShape(config.sigma_m)
        self.history = HistoryStore(config.window_us, self._shape)
        self._seen = SeenSet()
        self._pending = _Index(self._shape)
        self._confirmed = _Index(self._shape)
        self._next_track_id = 1
        self._next_synthetic = 1
        self._connected_ids = connected_ids or frozenset()
        self._ghosts: list[tuple[RoadUserId, RoadUserId]] = []
        self.synthetic_truth: dict[RoadUserId, Optional[RoadUserId]] = {}

    # --- relaying ---

    def on_rx(
        self, bsm: Bsm, via: LinkTech, now_us: int
    ) -> tuple[Target, ...]:
        """Handle one BSM that arrived over ``via``; returns the targets
        to relay it to, or ``()`` when it is suppressed. The return value
        is the only record of the decision: the gateway keeps no log.

        The seen-set is the unit's loop guard: a BSM whose (id,
        generated_at) key was already relayed is suppressed, so a relay
        fed back into the gateway quiesces (acceptance criterion 6 pins
        this). In a simulated run the gateway never hears its own
        relays. Every accepted BSM lands in the position history and
        re-evaluates the pending detection tracks, resolving any track
        it position-matches (late-arrival allowance). An unknown ``via``
        raises ``ValueError`` and changes nothing.
        """
        targets = _RELAY_TARGETS.get(via)
        if targets is None:
            raise ValueError(f"unknown arrival path {via!r}")
        self.history.prune(now_us)
        if self._seen.check_and_add(bsm, now_us):
            return ()
        self.history.append(bsm, now_us)
        self._resolve_pending_with_bsm(bsm)
        return targets

    def _resolve_pending_with_bsm(self, bsm: Bsm) -> None:
        if not self._pending:
            return
        sigma_m = self.config.sigma_m
        for position, _, _, track in self._pending.near(
                self._shape.reach(bsm.position)):
            if horizontal_distance_m(position, bsm.position) < sigma_m:
                self._pending.pop(track.track_id)

    # --- detection filtering ---

    def on_detection(self, det: Detection, now_us: int) -> DetectionOutcome:
        """Classify one camera detection.

        Match order: recent BSM history first (connected), then already
        confirmed non-connected tracks (refresh + relay), then pending
        tracks (absorb), else a new pending track with a grace deadline.
        """
        if det.available_at_us > now_us:
            raise ValueError("detection processed before it is available")
        self.history.prune(now_us)

        reach = self._shape.reach(det.estimate)
        bsm = self._nearest(det, self.history, reach)
        if bsm is not None:
            return DetectionOutcome(FilterStatus.CONNECTED, matched_id=bsm.id)

        track = self._nearest(det, self._confirmed, reach)
        if track is not None:
            _hold(self._confirmed, track, det)
            return DetectionOutcome(
                FilterStatus.NON_CONNECTED,
                track_id=track.track_id,
                synthetic_id=track.synthetic_id,
                generated=self._generate(track),
            )

        track = self._nearest(det, self._pending, reach)
        if track is not None:
            _hold(self._pending, track, det)
            return DetectionOutcome(
                FilterStatus.PENDING, track_id=track.track_id
            )

        track = DetectionTrack(track_id=self._next_track_id, latest=det)
        self._next_track_id += 1
        _hold(self._pending, track, det)
        return DetectionOutcome(
            FilterStatus.PENDING,
            track_id=track.track_id,
            deadline_us=now_us + self.config.grace_us,
        )

    def on_grace_deadline(self, track_id: int) -> Optional[Bsm]:
        """Confirm a still-pending track as non-connected.

        Returns the BSM generated for it, to be sent to each of
        ``GENERATION_TARGETS``, or None if the track was already resolved
        (a late BSM matched it during the grace period).
        """
        track = self._pending.pop(track_id)
        if track is None:
            return None
        track.synthetic_id = RoadUserId(
            f"{SYNTHETIC_ID_PREFIX}{self._next_synthetic}"
        )
        self._next_synthetic += 1
        _hold(self._confirmed, track, track.latest)
        truth = track.latest.truth_id
        self.synthetic_truth[track.synthetic_id] = truth
        if truth is not None and truth in self._connected_ids:
            self._ghosts.append((track.synthetic_id, truth))
        return self._generate(track)

    def _generate(self, track: DetectionTrack) -> Bsm:
        bsm = make_ipu_bsm(track.synthetic_id, track.latest, self.config.sigma_m)
        # Guard against the generated message echoing back through on_rx.
        self._seen.check_and_add(bsm, track.latest.available_at_us)
        return bsm

    def _nearest(self, det: Detection, index: _Index,
                 reach: _Reach) -> Optional[object]:
        """The value of the item nearest ``det`` within ``sigma_m``. Ties
        go to the most recent item, then to the first put."""
        best = None
        estimate = det.estimate
        for position, recency_us, sequence, value in index.near(reach):
            d = horizontal_distance_m(estimate, position)
            if d >= self.config.sigma_m:
                continue
            key = (d, -recency_us, sequence)
            if best is None or key < best[0]:
                best = (key, value)
        return best[1] if best else None

    # --- introspection ---

    def ghost_events(self) -> list[tuple[RoadUserId, RoadUserId]]:
        """(synthetic id, true id) pairs for confirmations of users that
        were in fact connected."""
        return list(self._ghosts)

    @property
    def ghost_count(self) -> int:
        return len(self._ghosts)

    @property
    def pending_tracks(self) -> int:
        return len(self._pending)

    @property
    def confirmed_tracks(self) -> int:
        return len(self._confirmed)
