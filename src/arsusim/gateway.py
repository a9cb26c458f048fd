"""The roadside gateway's decision engine.

Three responsibilities, all driven by a strictly sequential event feed:

* translate-and-relay: a BSM heard on one medium is re-emitted on the
  other media per the relaying rules, payload untouched; a BSM heard on
  a medium other than its origin is a relayed copy and is dropped, which
  is the unit's loop guard;
* connected/non-connected filtering: a camera frame's detections come
  in one ``on_frame`` call and are matched against a short history of
  received BSM positions; unmatched detections wait one grace period
  for late BSMs before being confirmed non-connected;
* message generation: confirmed non-connected users get gateway-built
  BSMs under synthetic ids, sent to each of ``GENERATION_TARGETS``. The
  gateway never generates messages on behalf of connected users.

The gateway keeps no log of its decisions: each call returns what it
decided (the relay targets, a ``DetectionOutcome``, a generated BSM), and
a caller that wants a record keeps what the calls return.

Every match is "nearest within ``sigma_m`` by :func:`horizontal_distance_m`".
The history and the pending and confirmed tracks are each indexed in
cubes of Earth-centred Cartesian coordinates (:func:`earth_centred_m`),
and a lookup measures only the few entries the cubes cannot rule out.
It is exact everywhere, poles and antimeridian included, as neither is
an edge of anything in these coordinates:

* A chord is never longer than its arc, so a position within ``sigma_m``
  of another differs from it by less than ``sigma_m`` on each of x, y
  and z, and lies within ``sigma_m`` of it in a straight line.
* The gate is ``sigma_m * (1 + 1e-6) + 1e-6`` m: its margin is far
  above float rounding, a few 1e-9 m in the coordinates and a few 1e-16
  relative in the distance. Cubes are two gates wide, so everything
  within the gate of a coordinate ``v`` lies in the cells from
  ``floor((v - gate) / side)`` to ``floor((v + gate) / side)``: two per
  axis, eight in all.

A lookup walks those cells, screens each entry by its squared chord
against the squared gate, and measures only the entries that pass.

One index class, :class:`_Index`, holds all three stores: the history
keyed by arrival count, the tracks by track id. It owns each key's cell
and first-put sequence, and its items share one shape, ``(x, y, z,
position, recency_us, sequence, value)``, so one lookup,
``_Index.nearest``, keyed ``(distance, -recency_us, sequence)``, serves
all three in the order a full scan in insertion order would give; it
measures each entry as it meets it and builds no list of candidates. A
BSM resolves the pending tracks near it through the same lookup, taking
the nearest until none is left: the key is a total order, so the tracks
taken are the same whatever order they go in. The history also keeps its
arrivals in a deque for pruning: a dict used as a FIFO scans past its
deleted slots.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from .config import FilterSettings
from .geo import earth_centred_m, horizontal_distance_m
from .messages import (
    Bsm,
    Detection,
    LinkTech,
    Position,
    SYNTHETIC_ID_PREFIX,
    Topic,
    make_ipu_bsm,
    ms_to_us,
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


class DetectionOutcome(NamedTuple):
    status: FilterStatus
    matched_id: Optional[str] = None
    track_id: Optional[int] = None
    #: Set only when this detection opened a new pending track; the
    #: caller is expected to schedule a grace-deadline event.
    deadline_us: Optional[int] = None
    #: The BSM a refresh generated, under the track's synthetic id, for
    #: each of ``GENERATION_TARGETS``.
    generated: Optional[Bsm] = None


#: Where a lookup around one position looks: the position's coordinates,
#: and the cells on each of x, y and z that can hold a match. A plain
#: tuple, as a lookup's hot path builds one per detection and per BSM.
_Reach = tuple[tuple[float, float, float], range, range, range]


class _CubeShape:
    """The filter's cubes: Earth-centred cells two gates wide, the gate
    a little over ``sigma_m`` (see the module docstring)."""

    def __init__(self, sigma_m: float):
        self.gate_m = sigma_m * (1.0 + 1e-6) + 1e-6
        self._cells_per_m = 1.0 / (2.0 * self.gate_m)

    def cell(self, xyz: tuple[float, float, float]) -> tuple[int, int, int]:
        per_m = self._cells_per_m
        x, y, z = xyz
        return (math.floor(x * per_m), math.floor(y * per_m),
                math.floor(z * per_m))

    def reach(self, position: Position) -> _Reach:
        """The lookup around ``position``: its coordinates, and the
        cells within the gate of them on each axis."""
        per_m, gate, floor = self._cells_per_m, self.gate_m, math.floor
        xyz = x, y, z = earth_centred_m(position)
        return (
            xyz,
            range(floor((x - gate) * per_m), floor((x + gate) * per_m) + 1),
            range(floor((y - gate) * per_m), floor((y + gate) * per_m) + 1),
            range(floor((z - gate) * per_m), floor((z + gate) * per_m) + 1),
        )


class _Index:
    """Keyed items in the cube of their position, each item ``(x, y, z,
    position, recency_us, sequence, value)``. The sequence numbers keys
    in the order they were first put; a key keeps it when it moves.
    Iteration gives the held keys in that order."""

    def __init__(self, shape: _CubeShape):
        self._shape = shape
        self._gate2 = shape.gate_m ** 2
        #: x -> y -> z -> key -> item
        self._planes: dict[int, dict[int, dict[int, dict[int, tuple]]]] = {}
        #: key -> (cell, sequence, the cell's dict of items)
        self._held: dict[int, tuple[tuple[int, int, int], int, dict]] = {}
        self._puts = 0

    def put(
        self, key: int, position: Position, xyz: tuple[float, float, float],
        recency_us: int, value: object,
    ) -> None:
        """Add ``key`` at ``position``, whose coordinates are ``xyz``, or
        move it if it is held."""
        cell = self._shape.cell(xyz)
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
            x, y, z = cell
            items = self._planes.setdefault(x, {}).setdefault(
                y, {}).setdefault(z, {})
            self._held[key] = (cell, sequence, items)
        items[key] = (*xyz, position, recency_us, sequence, value)

    def pop(self, key: int) -> Optional[object]:
        """Remove ``key``; returns its value, or None if it is not held."""
        held = self._held.pop(key, None)
        if held is None:
            return None
        return self._leave(key, held)[-1]

    def _leave(self, key: int, held: tuple) -> tuple:
        """Take ``key``'s item out of its cell, and drop the dicts this
        empties; returns the item."""
        (x, y, z), _, items = held
        item = items.pop(key)
        if not items:
            planes = self._planes
            rows = planes[x]
            cells = rows[y]
            del cells[z]
            if not cells:
                del rows[y]
                if not rows:
                    del planes[x]
        return item

    def nearest(self, estimate: Position, reach: _Reach,
                sigma_m: float) -> Optional[object]:
        """The value of the item nearest ``estimate`` within ``sigma_m``,
        or None; ties go to the most recent item, then to the first put.
        The index's one lookup and the filter's hot loop: it walks the
        reach's cells, skips the items beyond the gate in a straight
        line, and measures the others as it meets them, building no
        list of candidates."""
        best = best_key = None
        (qx, qy, qz), xs, ys, zs = reach
        gate2 = self._gate2
        planes = self._planes
        distance = horizontal_distance_m
        for x in xs:
            rows = planes.get(x)
            if rows is None:
                continue
            for y in ys:
                cells = rows.get(y)
                if cells is None:
                    continue
                for z in zs:
                    items = cells.get(z)
                    if items is None:
                        continue
                    for ix, iy, iz, position, recency_us, sequence, value in (
                            items.values()):
                        dx, dy, dz = ix - qx, iy - qy, iz - qz
                        if dx * dx + dy * dy + dz * dz <= gate2:
                            d = distance(estimate, position)
                            if d < sigma_m:
                                key = (d, -recency_us, sequence)
                                if best_key is None or key < best_key:
                                    best, best_key = value, key
        return best

    def __iter__(self) -> Iterator[int]:
        return iter(self._held)

    def __len__(self) -> int:
        return len(self._held)


class HistoryStore(_Index):
    """BSMs received over the last ``window_us``, keyed by arrival count,
    each item ``(x, y, z, bsm.position, received_at_us, sequence, bsm)``.
    Iteration gives ``(bsm, received_at_us)``, oldest first."""

    def __init__(self, window_us: int, shape: _CubeShape):
        super().__init__(shape)
        self.window_us = window_us
        #: (bsm, received_at_us, key), oldest first: the pruning order.
        self._arrivals: deque[tuple[Bsm, int, int]] = deque()

    def append(self, bsm: Bsm, received_at_us: int,
               xyz: tuple[float, float, float]) -> None:
        """Add ``bsm``, whose position's coordinates are ``xyz``."""
        key = self._puts  # the arrival count
        self.put(key, bsm.position, xyz, received_at_us, bsm)
        self._arrivals.append((bsm, received_at_us, key))

    def prune(self, now_us: int) -> None:
        cutoff = now_us - self.window_us
        arrivals = self._arrivals
        while arrivals and arrivals[0][1] < cutoff:
            self.pop(arrivals.popleft()[2])

    def __iter__(self) -> Iterator[tuple[Bsm, int]]:
        return ((bsm, received_at) for bsm, received_at, _ in self._arrivals)


@dataclass
class DetectionTrack:
    track_id: int
    latest: Detection
    synthetic_id: Optional[str] = None


def _hold(index: _Index, track: DetectionTrack, det: Detection,
          xyz: tuple[float, float, float]) -> None:
    """Make ``det``, whose estimate's coordinates are ``xyz``, the
    track's latest detection and put the track in ``index`` there; only
    here, so its place in the index stays current."""
    track.latest = det
    index.put(track.track_id, det.estimate, xyz, det.available_at_us, track)


class Gateway:
    """Sequential state machine fed by the simulation's event loop.

    ``settings`` is the scenario's ``filter`` section; its window and
    grace wait are held in µs. ``connected_ids`` is the simulation's
    ground-truth oracle used only by the ghost metric; the filter itself
    never consults it.
    """

    #: Always empty: kept only because perfbench's
    #: ``gateway.decisions_held`` reads its len() (ROADMAP item 9).
    trace = ()

    def __init__(
        self,
        settings: FilterSettings = FilterSettings(),
        connected_ids: Optional[frozenset[str]] = None,
    ):
        self.sigma_m = settings.sigma_m
        window_us = ms_to_us(settings.window_ms)
        self.grace_us = ms_to_us(settings.grace_ms)
        if self.sigma_m <= 0.0:
            raise ValueError("calibration error sigma must be positive")
        if window_us <= 0 or self.grace_us <= 0:
            raise ValueError("window and grace must be positive")
        self._shape = _CubeShape(self.sigma_m)
        self.history = HistoryStore(window_us, self._shape)
        self._pending = _Index(self._shape)
        self._confirmed = _Index(self._shape)
        self._next_track_id = 1
        self._next_synthetic = 1
        self._connected_ids = connected_ids or frozenset()
        self._ghosts: list[tuple[str, str]] = []
        self.synthetic_truth: dict[str, Optional[str]] = {}

    # --- relaying ---

    def on_rx(
        self, bsm: Bsm, via: LinkTech, now_us: int
    ) -> tuple[Target, ...]:
        """Handle one BSM that arrived over ``via``; returns the targets
        to relay it to, or ``()`` when it is dropped. The return value
        is the only record of the decision: the gateway keeps no log.

        The loop guard is split horizon (RFC 1058): a road user sends
        over its own medium and a relay goes out over the others, so a
        BSM that arrives over a medium other than its ``origin_tech`` is
        a relayed or generated copy and is dropped, keeping no state. A
        relay fed back into the gateway thus quiesces (acceptance
        criterion 6 pins this); in a simulated run every BSM arrives over
        its origin medium. Every accepted BSM lands in the position
        history and re-evaluates the pending detection tracks, resolving
        any track it position-matches (late-arrival allowance). An
        unknown ``via`` raises ``ValueError`` and changes nothing.
        """
        targets = _RELAY_TARGETS.get(via)
        if targets is None:
            raise ValueError(f"unknown arrival path {via!r}")
        self.history.prune(now_us)
        if bsm.origin_tech is not via:
            return ()
        reach = self._shape.reach(bsm.position)
        self.history.append(bsm, now_us, reach[0])
        self._resolve_pending_with_bsm(bsm, reach)
        return targets

    def _resolve_pending_with_bsm(self, bsm: Bsm, reach: _Reach) -> None:
        """Resolve every pending track within ``sigma_m`` of the BSM,
        nearest first; ``reach`` is the lookup around the BSM."""
        pending = self._pending
        if not pending:
            return
        while (track := pending.nearest(
                bsm.position, reach, self.sigma_m)) is not None:
            pending.pop(track.track_id)

    # --- detection filtering ---

    def on_frame(self, detections: list[Detection],
                 now_us: int) -> list[DetectionOutcome]:
        """Classify one camera frame; returns the outcomes in capture
        order. For now ``self.on_detection`` classifies each detection in
        turn, so a wrapper set on the instance sees every one, in order."""
        on_detection = self.on_detection
        return [on_detection(det, now_us) for det in detections]

    def on_detection(self, det: Detection, now_us: int) -> DetectionOutcome:
        """Classify one camera detection.

        Match order: recent BSM history first (connected), then already
        confirmed non-connected tracks (refresh + relay), then pending
        tracks (absorb), else a new pending track with a grace deadline.
        """
        if det.available_at_us > now_us:
            raise ValueError("detection processed before it is available")
        self.history.prune(now_us)

        estimate = det.estimate
        reach = self._shape.reach(estimate)
        xyz = reach[0]
        sigma_m = self.sigma_m
        bsm = self.history.nearest(estimate, reach, sigma_m)
        if bsm is not None:
            return DetectionOutcome(FilterStatus.CONNECTED, bsm.id)

        track = self._confirmed.nearest(estimate, reach, sigma_m)
        if track is not None:
            _hold(self._confirmed, track, det, xyz)
            return DetectionOutcome(
                FilterStatus.NON_CONNECTED, None, track.track_id, None,
                make_ipu_bsm(track.synthetic_id, det, sigma_m),
            )

        track = self._pending.nearest(estimate, reach, sigma_m)
        if track is not None:
            _hold(self._pending, track, det, xyz)
            return DetectionOutcome(FilterStatus.PENDING, None, track.track_id)

        track = DetectionTrack(track_id=self._next_track_id, latest=det)
        self._next_track_id += 1
        _hold(self._pending, track, det, xyz)
        return DetectionOutcome(
            FilterStatus.PENDING, None, track.track_id,
            now_us + self.grace_us,
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
        track.synthetic_id = f"{SYNTHETIC_ID_PREFIX}{self._next_synthetic}"
        self._next_synthetic += 1
        _hold(self._confirmed, track, track.latest,
              earth_centred_m(track.latest.estimate))
        truth = track.latest.truth_id
        self.synthetic_truth[track.synthetic_id] = truth
        if truth is not None and truth in self._connected_ids:
            self._ghosts.append((track.synthetic_id, truth))
        return make_ipu_bsm(track.synthetic_id, track.latest, self.sigma_m)

    # --- introspection ---

    def ghost_events(self) -> list[tuple[str, str]]:
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
