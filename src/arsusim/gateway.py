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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

from .geo import horizontal_distance_m
from .messages import (
    Bsm,
    Detection,
    LinkTech,
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


class HistoryStore:
    """Timestamped BSMs received over the last ``window_us``."""

    def __init__(self, window_us: int):
        self.window_us = window_us
        self._entries: deque[tuple[Bsm, int]] = deque()

    def append(self, bsm: Bsm, received_at_us: int) -> None:
        self._entries.append((bsm, received_at_us))

    def prune(self, now_us: int) -> None:
        cutoff = now_us - self.window_us
        while self._entries and self._entries[0][1] < cutoff:
            self._entries.popleft()

    def __iter__(self) -> Iterator[tuple[Bsm, int]]:
        return iter(self._entries)

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
        self.history = HistoryStore(config.window_us)
        self._seen = SeenSet(seen_retention_us)
        self._pending: dict[int, DetectionTrack] = {}
        self._confirmed: dict[int, DetectionTrack] = {}
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
        """
        self.history.prune(now_us)
        if self._seen.check_and_add(bsm, now_us):
            self._record(now_us, "rx", bsm.id.value, "Suppressed", "")
            return []
        self.history.append(bsm, now_us)
        self._resolve_pending_with_bsm(bsm, now_us)
        actions = self._relay_actions(bsm, via)
        self._record(
            now_us, "rx", bsm.id.value, "Relayed",
            "+".join(a.label() for a in actions),
        )
        return actions

    @staticmethod
    def _relay_actions(bsm: Bsm, via: LinkTech) -> list[RelayAction]:
        if via is LinkTech.DSRC:
            return [
                RelayAction(ActionKind.TX_CV2X, bsm),
                RelayAction(ActionKind.PUBLISH_MQTT, bsm, Topic.DSRC),
            ]
        if via is LinkTech.CV2X:
            return [
                RelayAction(ActionKind.TX_DSRC, bsm),
                RelayAction(ActionKind.PUBLISH_MQTT, bsm, Topic.CV2X),
            ]
        if via is LinkTech.CELL_MQTT:
            return [
                RelayAction(ActionKind.TX_DSRC, bsm),
                RelayAction(ActionKind.TX_CV2X, bsm),
            ]
        raise ValueError(f"unknown arrival path {via!r}")

    def _resolve_pending_with_bsm(self, bsm: Bsm, now_us: int) -> None:
        resolved = [
            tid
            for tid, track in self._pending.items()
            if horizontal_distance_m(track.latest.estimate, bsm.position)
            < self.config.sigma_m
        ]
        for tid in resolved:
            del self._pending[tid]
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
            track.latest = det
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
            track.latest = det
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
        self._pending[track.track_id] = track
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
        track = self._pending.pop(track_id, None)
        if track is None:
            return None
        track.confirmed = True
        track.synthetic_id = RoadUserId(
            f"{SYNTHETIC_ID_PREFIX}{self._next_synthetic}"
        )
        self._next_synthetic += 1
        self._confirmed[track_id] = track
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
        for bsm, received_at in self.history:
            d = horizontal_distance_m(det.estimate, bsm.position)
            if d >= self.config.sigma_m:
                continue
            # nearest wins; ties broken by most recent reception
            key = (d, -received_at)
            if best is None or key < best[0]:
                best = (key, bsm.id)
        return best[1] if best else None

    def _nearest_track(
        self, det: Detection, tracks: dict[int, DetectionTrack]
    ) -> Optional[DetectionTrack]:
        best = None
        for track in tracks.values():
            d = horizontal_distance_m(det.estimate, track.latest.estimate)
            if d >= self.config.sigma_m:
                continue
            key = (d, -track.latest.available_at_us)
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
