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
  ``2 * asin(sqrt(...))``: the reach. It rises with ``|phi1|``, so it is
  worked out once per row, with ``phi1`` the row's edge nearest the
  pole, and kept: no narrower than the reach of any position in the
  row. A lookup takes its row's reach, visits the three rows and the
  columns that cover ``lam1 ± reach``, wrapped modulo ``n``, and
  measures only entries whose wrapped ``|dlam|`` is within the reach.
  Where ``phi_far`` reaches a pole, or the ratio reaches 1, the reach
  passes 180° and the lookup reads whole rows.

The row height, ``phi_far`` and the reach carry a 1e-6 relative and a
1e-12 degree absolute margin, far more than float rounding in the bounds
(a few 1e-16 relative, about 1e-14 degrees absolute).

One index class, :class:`_Index`, holds all three stores: the history
keyed by arrival count, the tracks by track id. It owns each key's cell
and first-put sequence, and its items share one shape, ``(position,
recency_us, sequence, value)``, so one lookup, ``_Index.nearest``, keyed
``(distance, -recency_us, sequence)``, serves all three in the order a
full scan in insertion order would give; it measures each entry as it
meets it and builds no list of candidates. A BSM resolves the pending
tracks near it through the same lookup, taking the nearest until none
is left: the key is a total order, so the tracks taken are the same
whatever order they go in. The history also keeps its arrivals in a
deque for pruning: a dict used as a FIFO scans past its deleted slots.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from .config import FilterSettings
from .geo import EARTH_RADIUS_M, METERS_PER_DEG, horizontal_distance_m
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


#: Relative and absolute (degrees) widening of the grid's cells and of a
#: lookup's longitude reach, against float rounding.
_MARGIN = 1e-6
_MARGIN_DEG = 1e-12


class _Reach(NamedTuple):
    """Where a lookup around one position looks: the position's row and
    longitude, the largest longitude difference (degrees) a match can
    have, and the columns that cover it in each of the three rows:
    ``width`` of them from ``first`` on, modulo the column count (so
    across the antimeridian too). A reach of 180 degrees covers every
    column."""

    row: int
    lon_deg: float
    reach_deg: float
    first: int
    width: int


class _GridShape:
    """The filter grid's geometry: rows of latitude a little taller than
    ``sigma_m``, and columns of longitude at least as wide, as many as
    make up 360 degrees exactly (see the module docstring)."""

    def __init__(self, sigma_m: float):
        self._cell_deg = cell_deg = (
            sigma_m * (1.0 + _MARGIN) / METERS_PER_DEG + _MARGIN_DEG)
        self._rows_per_deg = 1.0 / cell_deg
        self._columns = max(1, math.floor(360.0 / cell_deg))
        self._columns_per_deg = self._columns / 360.0
        gate_rad = sigma_m / EARTH_RADIUS_M
        self._gate_deg = math.degrees(gate_rad) * (1.0 + _MARGIN) + _MARGIN_DEG
        self._sin2_half_gate = math.sin(gate_rad / 2.0) ** 2
        #: The longitude reach of each row looked up so far, by row.
        self._row_reach: dict[int, float] = {}

    def cell(self, position: Position) -> tuple[int, int]:
        return (
            math.floor(position.lat_deg * self._rows_per_deg),
            math.floor((position.lon_deg + 180.0) * self._columns_per_deg)
            % self._columns,
        )

    def reach(self, position: Position) -> _Reach:
        """The lookup around ``position``: its row's longitude reach,
        and the columns that cover it around the position's longitude."""
        lat, lon, _ = position
        row = math.floor(lat * self._rows_per_deg)
        reach_deg = self._row_reach.get(row)
        if reach_deg is None:
            reach_deg = self._row_reach[row] = self._reach_of_row(row)
        n = self._columns
        if reach_deg < 180.0:
            per_deg = self._columns_per_deg
            first = math.floor((lon - reach_deg + 180.0) * per_deg)
            width = math.floor((lon + reach_deg + 180.0) * per_deg) - first + 1
            if width < n:
                return _Reach(row, lon, reach_deg, first, width)
        # Near a pole the reach passes 180 degrees: every column.
        return _Reach(row, lon, 180.0, 0, n)

    def _reach_of_row(self, row: int) -> float:
        """The longitude reach of every position in ``row``, from
        sin²(d/2R) ≥ cos φ₁·cos φ₂·sin²(Δλ/2) with φ₁ the row's edge
        nearest the pole and φ₂ as far from the equator as a match can
        lie: no narrower than any of its positions' own reach."""
        edge_deg = max(abs(row * self._cell_deg),
                       abs((row + 1) * self._cell_deg))
        far_deg = edge_deg + self._gate_deg
        if far_deg < 90.0:
            cos_product = (math.cos(math.radians(edge_deg))
                           * math.cos(math.radians(far_deg)))
            if cos_product > self._sin2_half_gate:
                return math.degrees(2.0 * math.asin(math.sqrt(
                    self._sin2_half_gate / cos_product
                ))) * (1.0 + _MARGIN) + _MARGIN_DEG
        return 180.0


class _Index:
    """Keyed items in the grid cell of their position, each item
    ``(position, recency_us, sequence, value)``. The sequence numbers
    keys in the order they were first put; a key keeps it when it moves.
    Iteration gives the held keys in that order."""

    def __init__(self, shape: _GridShape):
        self._shape = shape
        #: row -> column -> key -> (longitude, item)
        self._rows: dict[int, dict[int, dict[int, tuple[float, tuple]]]] = {}
        self._columns = shape._columns
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

    def nearest(self, estimate: Position, reach: _Reach,
                sigma_m: float) -> Optional[object]:
        """The value of the item nearest ``estimate`` within ``sigma_m``,
        or None; ties go to the most recent item, then to the first put.
        The index's one lookup and the filter's hot loop: it walks the
        reach's cells in its three rows (a row whole where it holds no
        more occupied cells than the reach has columns), skips the items
        beyond the reach's longitude, and measures the others as it
        meets them, building no list of candidates."""
        best = best_key = None
        row, lon_deg, reach_deg, first, width = reach
        rows = self._rows
        wanted = None
        distance = horizontal_distance_m
        for r in (row - 1, row, row + 1):
            columns = rows.get(r)
            if columns is None:
                continue
            if width >= len(columns):
                cells = columns.values()
            else:
                if wanted is None:
                    wanted = range(first, first + width)
                    n = self._columns
                    if first < 0 or first + width > n:  # the antimeridian
                        wanted = [c % n for c in wanted]
                cells = [columns[c] for c in wanted if c in columns]
            for items in cells:
                for item_lon, (position, recency_us, sequence, value) in (
                        items.values()):
                    d_lon = abs(item_lon - lon_deg)
                    if d_lon > 180.0:
                        d_lon = 360.0 - d_lon
                    if d_lon <= reach_deg:
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


@dataclass
class DetectionTrack:
    track_id: int
    latest: Detection
    synthetic_id: Optional[str] = None


def _hold(index: _Index, track: DetectionTrack, det: Detection) -> None:
    """Make ``det`` the track's latest detection and put the track in
    ``index`` there; only here, so its place in the index stays current."""
    track.latest = det
    index.put(track.track_id, det.estimate, det.available_at_us, track)


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
        self._shape = _GridShape(self.sigma_m)
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
        self.history.append(bsm, now_us)
        self._resolve_pending_with_bsm(bsm)
        return targets

    def _resolve_pending_with_bsm(self, bsm: Bsm) -> None:
        """Resolve every pending track within ``sigma_m`` of the BSM,
        nearest first."""
        pending = self._pending
        if not pending:
            return
        reach = self._shape.reach(bsm.position)
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
        sigma_m = self.sigma_m
        bsm = self.history.nearest(estimate, reach, sigma_m)
        if bsm is not None:
            return DetectionOutcome(FilterStatus.CONNECTED, bsm.id)

        track = self._confirmed.nearest(estimate, reach, sigma_m)
        if track is not None:
            _hold(self._confirmed, track, det)
            return DetectionOutcome(
                FilterStatus.NON_CONNECTED, None, track.track_id, None,
                make_ipu_bsm(track.synthetic_id, det, sigma_m),
            )

        track = self._pending.nearest(estimate, reach, sigma_m)
        if track is not None:
            _hold(self._pending, track, det)
            return DetectionOutcome(FilterStatus.PENDING, None, track.track_id)

        track = DetectionTrack(track_id=self._next_track_id, latest=det)
        self._next_track_id += 1
        _hold(self._pending, track, det)
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
        _hold(self._confirmed, track, track.latest)
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
