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
The history and the pending and confirmed tracks are each indexed by
latitude band, bands a little taller than ``sigma_m``, and a lookup
measures only the entries of the query's band and its two neighbours.
This is exact: the great-circle distance is never less than the meridian
arc, ``METERS_PER_DEG * |dlat|``, so anything within ``sigma_m`` lies at
most one band away, at any latitude and across the antimeridian. The
band height carries a 1e-6 relative margin over ``sigma_m`` against
float rounding in that bound (about 1e-10 relative). Ties keep the order
a full scan in insertion order would give.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

from .geo import METERS_PER_DEG, horizontal_distance_m
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


@dataclass(frozen=True)
class RelayAction:
    """One gateway output instruction: a radio transmit or a publish."""

    kind: ActionKind
    payload: Bsm
    topic: Optional[Topic] = None

    def __post_init__(self):
        if self.kind is ActionKind.PUBLISH_MQTT:
            if self.topic not in (Topic.IPU, Topic.DSRC, Topic.CV2X):
                raise ValueError(
                    "gateway publishes only to IPU/DSRC/CV2X, never Cell"
                )
        elif self.topic is not None:
            raise ValueError("radio transmits carry no topic")

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


class _LatitudeBands:
    """Keyed items bucketed by the latitude band of their position.

    Bands are ``sigma_m * (1 + 1e-6)`` tall, so every item within
    ``sigma_m`` of a query lies in :meth:`near`'s three bands (see the
    module docstring). Within a band, items keep insertion order.
    """

    def __init__(self, sigma_m: float):
        self._bands_per_deg = METERS_PER_DEG / (sigma_m * (1.0 + 1e-6))
        self._bands: dict[int, dict[int, object]] = {}

    def band(self, position: Position) -> int:
        return math.floor(position.lat_deg * self._bands_per_deg)

    def add(self, key: int, band: int, item: object) -> None:
        self._bands.setdefault(band, {})[key] = item

    def remove(self, key: int, band: int) -> None:
        items = self._bands[band]
        del items[key]
        if not items:
            del self._bands[band]

    def near(self, position: Position) -> Iterator:
        """Items of the query's band and its two neighbours."""
        band = self.band(position)
        for b in (band - 1, band, band + 1):
            items = self._bands.get(b)
            if items:
                yield from items.values()


class HistoryStore:
    """Timestamped BSMs received over the last ``window_us``."""

    def __init__(self, window_us: int, sigma_m: float):
        self.window_us = window_us
        #: (bsm, received_at_us, sequence, band), oldest first.
        self._entries: deque[tuple[Bsm, int, int, int]] = deque()
        self._index = _LatitudeBands(sigma_m)
        self._appended = 0

    def append(self, bsm: Bsm, received_at_us: int) -> None:
        entry = (
            bsm, received_at_us, self._appended, self._index.band(bsm.position)
        )
        self._appended += 1
        self._entries.append(entry)
        self._index.add(entry[2], entry[3], entry)

    def prune(self, now_us: int) -> None:
        cutoff = now_us - self.window_us
        while self._entries and self._entries[0][1] < cutoff:
            _, _, sequence, band = self._entries.popleft()
            self._index.remove(sequence, band)

    def near(self, position: Position) -> Iterator[tuple[Bsm, int, int, int]]:
        """Entries that may lie within ``sigma_m`` of ``position``."""
        return self._index.near(position)

    def __iter__(self) -> Iterator[tuple[Bsm, int]]:
        return ((bsm, received_at) for bsm, received_at, _, _ in self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class SeenSet:
    """(id, generated_at) keys already relayed, with bounded retention."""

    def __init__(self, retention_us: int = 1_000_000):
        self.retention_us = retention_us
        self._seen: dict[tuple[str, int], int] = {}
        self._order: deque[tuple[str, int]] = deque()

    def _prune(self, now_us: int) -> None:
        cutoff = now_us - self.retention_us
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
    first_seen_us: int
    deadline_us: int
    latest: Detection
    confirmed: bool = False
    synthetic_id: Optional[RoadUserId] = None


class _TrackSet:
    """Detection tracks by id, indexed by the latitude band of their
    latest estimate.

    Ties in a nearest-track search go to the track added to this set
    first, as a scan of a dict in insertion order would.
    """

    def __init__(self, sigma_m: float):
        self._index = _LatitudeBands(sigma_m)
        #: track id -> (track, sequence, band)
        self._entries: dict[int, tuple[DetectionTrack, int, int]] = {}
        self._added = 0

    def add(self, track: DetectionTrack) -> None:
        entry = (track, self._added, self._index.band(track.latest.estimate))
        self._added += 1
        self._entries[track.track_id] = entry
        self._index.add(track.track_id, entry[2], entry)

    def pop(self, track_id: int) -> Optional[DetectionTrack]:
        entry = self._entries.pop(track_id, None)
        if entry is None:
            return None
        self._index.remove(track_id, entry[2])
        return entry[0]

    def move(self, track: DetectionTrack, det: Detection) -> None:
        """Make ``det`` the track's latest detection. A held track's
        ``latest`` changes only here, so its band stays current."""
        track.latest = det
        _, sequence, old_band = self._entries[track.track_id]
        band = self._index.band(det.estimate)
        if band != old_band:
            self._index.remove(track.track_id, old_band)
            entry = (track, sequence, band)
            self._entries[track.track_id] = entry
            self._index.add(track.track_id, band, entry)

    def near(
        self, position: Position
    ) -> Iterator[tuple[DetectionTrack, int, int]]:
        """Entries that may lie within ``sigma_m`` of ``position``."""
        return self._index.near(position)

    def __iter__(self) -> Iterator[int]:
        """Track ids in the order they were added."""
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class DecisionRecord:
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
        seen_retention_us: int = 1_000_000,
    ):
        self.config = config
        self.history = HistoryStore(config.window_us, config.sigma_m)
        self._seen = SeenSet(seen_retention_us)
        self._pending = _TrackSet(config.sigma_m)
        self._confirmed = _TrackSet(config.sigma_m)
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
        resolved = sorted(
            track.track_id
            for track, _, _ in self._pending.near(bsm.position)
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

        match = self._nearest_history(det)
        if match is not None:
            self._record(
                now_us, "detection", _truth_label(det), "Connected",
                f"matched={match.value}",
            )
            return DetectionOutcome(FilterStatus.CONNECTED, matched_id=match)

        track = self._nearest_track(det, self._confirmed)
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

        track = self._nearest_track(det, self._pending)
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
            first_seen_us=now_us,
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
        track.confirmed = True
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

    def _nearest_history(self, det: Detection) -> Optional[RoadUserId]:
        best = None
        for bsm, received_at, sequence, _ in self.history.near(det.estimate):
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
        self, det: Detection, tracks: _TrackSet
    ) -> Optional[DetectionTrack]:
        best = None
        for track, sequence, _ in tracks.near(det.estimate):
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
