"""The roadside gateway's decision engine.

Three responsibilities, all driven by a strictly sequential event feed:

* translate-and-relay: a BSM heard on one medium is re-emitted on the
  other media per the relaying rules, payload untouched, with a seen-set
  suppressing copies that echo back;
* connected/non-connected filtering: camera detections are matched
  against a short history of received BSM positions; unmatched
  detections wait one grace period for late BSMs before being confirmed
  non-connected;
* message generation: confirmed non-connected users get gateway-built
  BSMs under synthetic ids, relayed on every medium. The gateway never
  generates messages on behalf of connected users.

Every match is "nearest within ``sigma_m`` by :func:`horizontal_distance_m`".
The history and the pending and confirmed tracks are each indexed in one
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
(a few 1e-16 relative, about 1e-14 degrees absolute). Ties keep the order
a full scan in insertion order would give.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
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


class ActionKind(Enum):
    TX_DSRC = "TxDsrc"
    TX_CV2X = "TxCv2x"
    PUBLISH_MQTT = "PublishMqtt"


class _RelayActionFields(NamedTuple):
    kind: ActionKind
    payload: Bsm
    topic: Optional[Topic] = None


class RelayAction(_RelayActionFields):
    """One gateway output instruction: a radio transmit or a publish."""

    __slots__ = ()

    def __new__(
        cls, kind: ActionKind, payload: Bsm, topic: Optional[Topic] = None
    ):
        if kind is ActionKind.PUBLISH_MQTT:
            if topic not in (Topic.IPU, Topic.DSRC, Topic.CV2X):
                raise ValueError(
                    "gateway publishes only to IPU/DSRC/CV2X, never Cell"
                )
        elif topic is not None:
            raise ValueError("radio transmits carry no topic")
        return tuple.__new__(cls, (kind, payload, topic))

    def label(self) -> str:
        if self.kind is ActionKind.PUBLISH_MQTT:
            return f"PublishMqtt({self.topic.value})"
        return self.kind.value


#: (kind, topic) of each relay, by the medium a BSM arrived over.
_RELAY_TARGETS = {
    LinkTech.DSRC: (
        (ActionKind.TX_CV2X, None), (ActionKind.PUBLISH_MQTT, Topic.DSRC),
    ),
    LinkTech.CV2X: (
        (ActionKind.TX_DSRC, None), (ActionKind.PUBLISH_MQTT, Topic.CV2X),
    ),
    LinkTech.CELL_MQTT: (
        (ActionKind.TX_DSRC, None), (ActionKind.TX_CV2X, None),
    ),
}


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
    actions: list[RelayAction] = field(default_factory=list)


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


class _Grid:
    """Keyed items bucketed by the grid cell of their position, each held
    with its longitude. Within a cell, items keep insertion order."""

    def __init__(self):
        self._rows: dict[int, dict[int, dict[int, tuple[float, object]]]] = {}

    def add(self, key: int, cell: tuple[int, int], lon_deg: float,
            item: object) -> None:
        row, column = cell
        self._rows.setdefault(row, {}).setdefault(column, {})[key] = (
            lon_deg, item
        )

    def remove(self, key: int, cell: tuple[int, int]) -> None:
        row, column = cell
        columns = self._rows[row]
        items = columns[column]
        del items[key]
        if not items:
            del columns[column]
            if not columns:
                del self._rows[row]

    def near(self, reach: _Reach) -> list:
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


class HistoryStore:
    """Timestamped BSMs received over the last ``window_us``."""

    def __init__(self, window_us: int, shape: _GridShape):
        self.window_us = window_us
        #: (bsm, received_at_us, sequence, cell), oldest first.
        self._entries: deque[tuple[Bsm, int, int, tuple[int, int]]] = deque()
        self._shape = shape
        self._index = _Grid()
        self._appended = 0

    def append(self, bsm: Bsm, received_at_us: int) -> None:
        position = bsm.position
        entry = (
            bsm, received_at_us, self._appended, self._shape.cell(position)
        )
        self._appended += 1
        self._entries.append(entry)
        self._index.add(entry[2], entry[3], position.lon_deg, entry)

    def prune(self, now_us: int) -> None:
        cutoff = now_us - self.window_us
        while self._entries and self._entries[0][1] < cutoff:
            _, _, sequence, cell = self._entries.popleft()
            self._index.remove(sequence, cell)

    def near(self, reach: _Reach) -> list[tuple[Bsm, int, int, tuple]]:
        """Entries that may lie within ``sigma_m`` of the reach's
        position."""
        return self._index.near(reach)

    def __iter__(self) -> Iterator[tuple[Bsm, int]]:
        return ((bsm, received_at) for bsm, received_at, _, _ in self._entries)

    def __len__(self) -> int:
        return len(self._entries)


#: How long a relayed (id, generated_at) key suppresses its echoes.
_SEEN_RETENTION_US = 1_000_000


class SeenSet:
    """(id, generated_at) keys already relayed, with bounded retention."""

    def __init__(self):
        self._seen: dict[tuple[str, int], int] = {}
        self._order: deque[tuple[str, int]] = deque()

    def _prune(self, now_us: int) -> None:
        cutoff = now_us - _SEEN_RETENTION_US
        while self._order:
            key = self._order[0]
            seen_at = self._seen.get(key)
            if seen_at is not None and seen_at >= cutoff:
                break
            self._order.popleft()
            if seen_at is not None and seen_at < cutoff:
                del self._seen[key]

    def check_and_add(self, bsm: Bsm, now_us: int) -> bool:
        """True if this logical BSM was already seen (and refresh it)."""
        self._prune(now_us)
        key = (bsm.id.value, bsm.generated_at_us)
        duplicate = key in self._seen
        self._seen[key] = now_us
        if not duplicate:
            self._order.append(key)
        return duplicate

    def __len__(self) -> int:
        return len(self._seen)


@dataclass
class DetectionTrack:
    track_id: int
    deadline_us: int
    latest: Detection
    synthetic_id: Optional[RoadUserId] = None


class _TrackSet:
    """Detection tracks by id, indexed by the grid cell of their latest
    estimate.

    Ties in a nearest-track search go to the track added to this set
    first, as a scan of a dict in insertion order would.
    """

    def __init__(self, shape: _GridShape):
        self._shape = shape
        self._index = _Grid()
        #: track id -> (track, sequence, cell)
        self._entries: dict[int, tuple[DetectionTrack, int, tuple]] = {}
        self._added = 0

    def add(self, track: DetectionTrack) -> None:
        estimate = track.latest.estimate
        entry = (track, self._added, self._shape.cell(estimate))
        self._added += 1
        self._entries[track.track_id] = entry
        self._index.add(track.track_id, entry[2], estimate.lon_deg, entry)

    def pop(self, track_id: int) -> Optional[DetectionTrack]:
        entry = self._entries.pop(track_id, None)
        if entry is None:
            return None
        self._index.remove(track_id, entry[2])
        return entry[0]

    def move(self, track: DetectionTrack, det: Detection) -> None:
        """Make ``det`` the track's latest detection. A held track's
        ``latest`` changes only here, so its cell and longitude stay
        current."""
        track.latest = det
        cell = self._shape.cell(det.estimate)
        entry = self._entries[track.track_id]
        if cell != entry[2]:
            self._index.remove(track.track_id, entry[2])
            entry = (track, entry[1], cell)
            self._entries[track.track_id] = entry
        self._index.add(track.track_id, cell, det.estimate.lon_deg, entry)

    def near(
        self, reach: _Reach
    ) -> list[tuple[DetectionTrack, int, tuple[int, int]]]:
        """Entries that may lie within ``sigma_m`` of the reach's
        position."""
        return self._index.near(reach)

    def __iter__(self) -> Iterator[int]:
        """Track ids in the order they were added."""
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class DecisionRecord(NamedTuple):
    at_us: int
    event: str
    subject: str
    outcome: str
    actions: str


class Gateway:
    """Sequential state machine fed by the simulation's event loop.

    ``connected_ids`` is the simulation's ground-truth oracle used only
    by the ghost metric; the filter itself never consults it.
    """

    def __init__(
        self,
        config: FilterConfig = FilterConfig(),
        connected_ids: Optional[frozenset[RoadUserId]] = None,
    ):
        self.config = config
        self._shape = _GridShape(config.sigma_m)
        self.history = HistoryStore(config.window_us, self._shape)
        self._seen = SeenSet()
        self._pending = _TrackSet(self._shape)
        self._confirmed = _TrackSet(self._shape)
        self._next_track_id = 1
        self._next_synthetic = 1
        self._connected_ids = connected_ids or frozenset()
        self._ghosts: list[tuple[RoadUserId, RoadUserId]] = []
        self.synthetic_truth: dict[RoadUserId, Optional[RoadUserId]] = {}
        self.trace: list[DecisionRecord] = []

    # --- relaying ---

    def on_rx(self, bsm: Bsm, via: LinkTech, now_us: int) -> list[RelayAction]:
        """Handle one BSM that arrived over ``via``; returns the relay
        actions to emit.

        Duplicates of an already-relayed (id, generated_at) key, such
        as the gateway's own relay echoed back on the other medium,
        yield an empty action list. Every accepted BSM lands in the position
        history and re-evaluates the pending detection tracks, resolving
        any track it position-matches (late-arrival allowance).
        An unknown ``via`` raises ``ValueError`` and changes nothing.
        """
        targets = _RELAY_TARGETS.get(via)
        if targets is None:
            raise ValueError(f"unknown arrival path {via!r}")
        self.history.prune(now_us)
        if self._seen.check_and_add(bsm, now_us):
            self._record(now_us, "rx", bsm.id.value, "Suppressed", "")
            return []
        self.history.append(bsm, now_us)
        self._resolve_pending_with_bsm(bsm, now_us)
        actions = [RelayAction(kind, bsm, topic) for kind, topic in targets]
        self._record(
            now_us, "rx", bsm.id.value, "Relayed",
            "+".join(a.label() for a in actions),
        )
        return actions

    def _resolve_pending_with_bsm(self, bsm: Bsm, now_us: int) -> None:
        if not self._pending:
            return
        resolved = sorted(
            track.track_id
            for track, _, _ in self._pending.near(
                self._shape.reach(bsm.position))
            if horizontal_distance_m(track.latest.estimate, bsm.position)
            < self.config.sigma_m
        )
        for tid in resolved:
            self._pending.pop(tid)
            self._record(
                now_us, "pending_match", bsm.id.value, "Connected",
                f"track={tid}",
            )

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
        match = self._nearest_history(det, reach)
        if match is not None:
            self._record(
                now_us, "detection", _truth_label(det), "Connected",
                f"matched={match.value}",
            )
            return DetectionOutcome(FilterStatus.CONNECTED, matched_id=match)

        track = self._nearest_track(det, self._confirmed, reach)
        if track is not None:
            self._confirmed.move(track, det)
            actions = self._generation_actions(track)
            self._record(
                now_us, "detection", _truth_label(det), "NonConnected",
                f"refresh={track.synthetic_id.value}",
            )
            return DetectionOutcome(
                FilterStatus.NON_CONNECTED,
                track_id=track.track_id,
                synthetic_id=track.synthetic_id,
                actions=actions,
            )

        track = self._nearest_track(det, self._pending, reach)
        if track is not None:
            self._pending.move(track, det)
            self._record(
                now_us, "detection", _truth_label(det), "Pending",
                f"track={track.track_id}",
            )
            return DetectionOutcome(
                FilterStatus.PENDING, track_id=track.track_id
            )

        track = DetectionTrack(
            track_id=self._next_track_id,
            deadline_us=now_us + self.config.grace_us,
            latest=det,
        )
        self._next_track_id += 1
        self._pending.add(track)
        self._record(
            now_us, "detection", _truth_label(det), "Pending",
            f"track={track.track_id} new",
        )
        return DetectionOutcome(
            FilterStatus.PENDING,
            track_id=track.track_id,
            deadline_us=track.deadline_us,
        )

    def on_grace_deadline(
        self, track_id: int, now_us: int
    ) -> Optional[list[RelayAction]]:
        """Confirm a still-pending track as non-connected.

        Returns the generation actions, or None if the track was already
        resolved (a late BSM matched it during the grace period).
        """
        track = self._pending.pop(track_id)
        if track is None:
            return None
        track.synthetic_id = RoadUserId(
            f"{SYNTHETIC_ID_PREFIX}{self._next_synthetic}"
        )
        self._next_synthetic += 1
        self._confirmed.add(track)
        truth = track.latest.truth_id
        self.synthetic_truth[track.synthetic_id] = truth
        if truth is not None and truth in self._connected_ids:
            self._ghosts.append((track.synthetic_id, truth))
        actions = self._generation_actions(track)
        self._record(
            now_us, "grace_deadline", track.synthetic_id.value,
            "NonConnected", "+".join(a.label() for a in actions),
        )
        return actions

    def _generation_actions(self, track: DetectionTrack) -> list[RelayAction]:
        bsm = make_ipu_bsm(track.synthetic_id, track.latest, self.config.sigma_m)
        # Guard against the generated message echoing back through on_rx.
        self._seen.check_and_add(bsm, track.latest.available_at_us)
        return [
            RelayAction(ActionKind.TX_DSRC, bsm),
            RelayAction(ActionKind.TX_CV2X, bsm),
            RelayAction(ActionKind.PUBLISH_MQTT, bsm, Topic.IPU),
        ]

    def _nearest_history(
        self, det: Detection, reach: _Reach
    ) -> Optional[RoadUserId]:
        best = None
        for bsm, received_at, sequence, _ in self.history.near(reach):
            d = horizontal_distance_m(det.estimate, bsm.position)
            if d >= self.config.sigma_m:
                continue
            # nearest wins; ties broken by most recent reception, then by
            # earliest arrival
            key = (d, -received_at, sequence)
            if best is None or key < best[0]:
                best = (key, bsm.id)
        return best[1] if best else None

    def _nearest_track(
        self, det: Detection, tracks: _TrackSet, reach: _Reach
    ) -> Optional[DetectionTrack]:
        best = None
        for track, sequence, _ in tracks.near(reach):
            d = horizontal_distance_m(det.estimate, track.latest.estimate)
            if d >= self.config.sigma_m:
                continue
            key = (d, -track.latest.available_at_us, sequence)
            if best is None or key < best[0]:
                best = (key, track)
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

    def _record(
        self, at_us: int, event: str, subject: str, outcome: str, actions: str
    ) -> None:
        self.trace.append(DecisionRecord(at_us, event, subject, outcome, actions))


def _truth_label(det: Detection) -> str:
    return det.truth_id.value if det.truth_id else "?"
