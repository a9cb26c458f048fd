"""Deterministic discrete-event simulation.

Road users move at constant velocity in a local planar frame, emit BSMs
on their own technology, and hear each other directly (same technology),
through the gateway's relays (cross technology), or through the broker
(cellular). The camera samples everything inside the coverage radius and
feeds the gateway's detection filter.

Every delay is injected from the latency model, never emergent, so a
run's measured path latencies are exactly the model's composed values.
An event is a heap entry ``(at_us, seq, handler, arg)``, run as
``handler(at_us, arg)`` in (time, insertion sequence) order; one seeded
generator drives all noise. Identical (config, seed) runs are
bit-identical.

Road users and their subscriptions are fixed for a run, so
``Simulation.__init__`` plans every send once: a road user's broadcast
or Cell publish, and a gateway relay or publish, as ``(offset_us,
receivers)`` groups, one per distinct arrival time. A plan group also
carries, built once, its receivers' rows of ``last_heard`` as an index
array and their bitmask (bit ``r`` for user index ``r``). Only the
simulation works out arrival times; a publish that dropped some
subscribers cuts each group that lost one to the receivers the broker
kept, and keeps the others as they are. A send schedules one arrival per
group. The arrivals one handler call schedules for one instant share one
heap entry, a block, and a camera frame's detections share one ready
event; ``events_executed`` still counts one event per receiver and one
per detection. A camera frame's generated BSMs join into one arrival
per plan group (see "Merging"). An arrival is recorded once: as a
``DeliveryGroup``, or with several BSMs as a ``DeliveryBatch``. A run
keeps one log, ``Metrics.log``: every trace entry in event order, a
formatted row or a delivery record. What the log holds is built of
objects shared between entries: a row is a tuple of strings, the rows
of one instant share one ``at_ms``, each distinct detection outcome or
gateway arrival has one detail string, built the first time it is seen,
and a frame's batches on the three media share one tuple of subjects.
``RunResult.trace_rows`` is a view of the log that supports only
``len()`` and iteration; it expands each record one row per (subject,
receiver) as it is read. Awareness is the ``last_heard`` matrix. The
tests see each delivery by wrapping ``Metrics.record_delivery``, which
is passed every record as it is made.
Delivery bookkeeping is per arrival, not per (BSM, receiver): the
duplicate window holds one bitmask per BSM key, and ``last_heard`` is
written through the group's index array.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, NamedTuple, Optional

import numpy as np

from .broker import ARSU_CLIENT, Broker
from .config import ConfigError, ScenarioConfig, UserSpec
from .gateway import GENERATION_TARGETS, FilterConfig, Gateway, Target
from .geo import LocalFrame
from .latency import LatencyModel
from .messages import (
    Bsm,
    Detection,
    LinkTech,
    MqttEnvelope,
    PositionAccuracy,
    RoadUserId,
    Topic,
    make_bsm,
    ms_to_us,
    us_to_ms,
)

_METRICS_TICK_US = 100_000


class SimulationInvariantError(RuntimeError):
    """An internal consistency rule was violated during a run."""


@dataclass
class SimUser:
    """Runtime state of one road user: its spec, plus what the run
    resolves from it (speed, µs timing, link half) or moves."""

    index: int
    id: RoadUserId
    spec: UserSpec
    x_m: float
    y_m: float
    speed_kmh: float
    bsm_interval_us: int
    bsm_phase_us: int
    updated_at_us: int = 0
    #: One link half (µs) on the user's technology: at the scenario speed,
    #: or at the user's own speed in ``max_endpoint`` mode. None for
    #: non-connected users.
    half_us: Optional[int] = None
    #: sin and cos of the heading, worked out once.
    sin_heading: float = field(init=False)
    cos_heading: float = field(init=False)

    def __post_init__(self):
        rad = math.radians(self.spec.heading_deg)
        self.sin_heading, self.cos_heading = math.sin(rad), math.cos(rad)


def step_mobility(user: SimUser, dt_us: int) -> None:
    """Advance a user along its heading at constant speed."""
    if dt_us < 0:
        raise ValueError("dt must be non-negative")
    if dt_us == 0:
        return
    meters = user.speed_kmh / 3.6 * (dt_us / 1_000_000.0)
    user.x_m += meters * user.sin_heading
    user.y_m += meters * user.cos_heading
    user.updated_at_us += dt_us


class DeliveryGroup(NamedTuple):
    """One BSM handed to several road users at the same instant: the
    fields its deliveries share, held once.

    ``receivers`` (the send's plan's tuple, unless a broker drop cut
    it) and ``truth_index`` are user indices. ``duplicates`` holds one
    flag per receiver, or is None when no receiver already had the
    BSM."""

    receivers: tuple[int, ...]
    subject: str
    truth_index: int
    uplink: LinkTech
    downlink: LinkTech
    generated_at_us: int
    delivered_at_us: int
    latency_ms: float
    topic: Optional[Topic]
    duplicates: Optional[tuple[bool, ...]]


class DeliveryBatch(NamedTuple):
    """Several BSMs generated at one instant handed to the same road
    users at one instant: a ``DeliveryGroup`` per subject, in order,
    their shared fields held once. ``duplicates`` holds each group's
    flags, or is None when no receiver already had any of the BSMs."""

    receivers: tuple[int, ...]
    subjects: tuple[str, ...]
    truth_indices: tuple[int, ...]
    uplink: LinkTech
    downlink: LinkTech
    generated_at_us: int
    delivered_at_us: int
    latency_ms: float
    topic: Optional[Topic]
    duplicates: Optional[tuple[Optional[tuple[bool, ...]], ...]]


def _by_subject(entry) -> Optional[Iterable[tuple]]:
    """``(subject, truth index, duplicate flags or None)`` of each BSM of
    a delivery record, in order; None for any other log entry."""
    kind = type(entry)
    if kind is DeliveryGroup:
        return ((entry.subject, entry.truth_index, entry.duplicates),)
    if kind is DeliveryBatch:
        return zip(entry.subjects, entry.truth_indices,
                   entry.duplicates or repeat(None))
    return None


@dataclass
class PathStats:
    """Latencies of one path's deliveries; the sum is exact, in µs."""

    count: int = 0
    sum_us: int = 0
    min_ms: float = math.inf
    max_ms: float = -math.inf

    def add(self, latency_us: int, n: int = 1) -> None:
        """Add ``n`` deliveries of ``latency_us``."""
        self.count += n
        self.sum_us += latency_us * n
        latency_ms = us_to_ms(latency_us)
        if latency_ms < self.min_ms:
            self.min_ms = latency_ms
        if latency_ms > self.max_ms:
            self.max_ms = latency_ms

    @property
    def mean_ms(self) -> float:
        return self.sum_us / self.count / 1000 if self.count else math.nan


class TraceRows:
    """The run's trace, one ``(at_ms, kind, actor, subject, detail)``
    tuple per event: a sized, iterable view of the run's log, whose
    length is kept as a running count.

    User deliveries are held as their delivery record and formatted
    only when their rows are read: a record's rows share its strings,
    and records share each ``at_ms`` and detail string, formatted once
    per distinct value as the rows are read. Every other event is held
    formatted, as a row of strings it shares with the run's other rows.
    """

    def __init__(self, metrics: Metrics):
        self._metrics = metrics

    def __len__(self) -> int:
        metrics = self._metrics
        return len(metrics.log) - metrics.records + metrics.delivered

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        ids = self._metrics.ids
        #: (kind, detail, duplicate detail) by (uplink, downlink,
        #: latency_ms, topic): bounded by the run's paths.
        labels: dict[tuple, tuple[str, str, str]] = {}
        at_us, at_ms = None, ""  # the log is in time order
        for entry in self._metrics.log:
            subjects = _by_subject(entry)
            if subjects is None:
                yield entry
                continue
            path = (entry.uplink, entry.downlink, entry.latency_ms,
                    entry.topic)
            label = labels.get(path)
            if label is None:
                label = labels[path] = _delivery_label(*path)
            kind, detail, duplicate = label
            if entry.delivered_at_us != at_us:
                at_us = entry.delivered_at_us
                at_ms = f"{us_to_ms(at_us):.3f}"
            for subject, _, flags in subjects:
                if flags is None:
                    for r in entry.receivers:
                        yield (at_ms, kind, ids[r], subject, detail)
                    continue
                for r, dup in zip(entry.receivers, flags):
                    yield (at_ms, kind, ids[r], subject,
                           duplicate if dup else detail)


def _delivery_label(uplink: LinkTech, downlink: LinkTech, latency_ms: float,
                    topic: Optional[Topic]) -> tuple[str, str, str]:
    """A delivery row's kind, detail, and detail when it is a
    duplicate."""
    detail = (f"up={uplink.value} down={downlink.value}"
              f" latency_ms={latency_ms:.3f}")
    kind = "RadioDelivery"
    if topic is not None:
        kind = "MqttDelivery"
        detail += f" topic={topic.value}"
    return kind, detail, detail + " duplicate"


#: ``last_heard`` of a (receiver, subject) pair never heard.
NEVER_HEARD = -1


class Metrics:
    """What a run measures, and its log: every trace entry in event
    order, a formatted row (a tuple of strings, shared with the other
    rows where equal: one ``at_ms`` per instant, one detail per distinct
    detection outcome or gateway arrival) or a delivery record."""

    def __init__(self, user_ids: list[str]):
        n = len(user_ids)
        self.ids = user_ids  # user id by index
        self.log: list = []
        self.records = 0  # delivery records in the log
        self.delivered = 0  # their (subject, receiver) pairs
        self.path_stats: dict[tuple[LinkTech, LinkTech], PathStats] = {}
        #: last_heard[receiver, truth subject]: µs of the latest delivery,
        #: or NEVER_HEARD.
        self.last_heard = np.full((n, n), NEVER_HEARD, dtype=np.int64)
        self.coverage_samples: list[tuple[int, Optional[float]]] = []
        self.duplicates_suppressed = 0
        self.detections = 0
        self.bsm_tx = 0
        self.events_executed = 0

    @property
    def deliveries(self) -> range:
        """Sized as the run's deliveries. Kept only because perfbench
        reads its ``len()`` (ROADMAP item 9); read ``delivered``."""
        return range(self.delivered)

    def record_delivery(self, records: list, arrays: list[np.ndarray],
                        delivered_at_us: int) -> None:
        """Record the deliveries made at ``delivered_at_us``: a
        ``DeliveryGroup`` or ``DeliveryBatch`` per arrival, and beside
        each, in ``arrays``, its receivers as rows of ``last_heard``."""
        self.log += records
        self.records += len(records)
        path_stats = self.path_stats
        last_heard = self.last_heard
        # Events run in time order, so these deliveries are the latest.
        for record, receivers in zip(records, arrays):
            # Both kinds of record hold these fields here.
            truth, uplink, downlink, generated_at_us = record[2:6]
            if type(record) is DeliveryGroup:
                n = len(receivers)
                last_heard[receivers, truth] = delivered_at_us
            else:
                n = len(receivers) * len(truth)
                last_heard[np.ix_(receivers, truth)] = delivered_at_us
            self.delivered += n
            stats = path_stats.get((uplink, downlink))
            if stats is None:
                stats = path_stats[uplink, downlink] = PathStats()
            stats.add(delivered_at_us - generated_at_us, n)


class _SeenWindow:
    """Which receivers already have each BSM, by (subject id,
    generated_at) key, for as long as a delivery of it can arrive: one
    int per key, bit ``r`` set once user index ``r`` has it.

    No path takes longer than ``horizon_us``, so a key generated more
    than that before now is dropped. A delivery of a key generated
    before the latest drop's cutoff raises: the bound is checked, not
    assumed."""

    def __init__(self, horizon_us: int):
        self.horizon_us = horizon_us
        self.watermark_us = 0  # keys generated before this may be dropped
        self._receivers: dict[tuple[str, int], int] = {}
        self._order: deque[tuple[str, int]] = deque()

    def __len__(self) -> int:
        return len(self._receivers)

    def add(self, key: tuple[str, int], mask: int, now_us: int) -> int:
        """Add the receivers of ``mask`` to ``key``'s; return the mask of
        those that had it before."""
        order = self._order
        receivers = self._receivers
        cutoff = now_us - self.horizon_us
        if order and order[0][1] < cutoff:
            self.watermark_us = cutoff
            while order and order[0][1] < cutoff:
                del receivers[order.popleft()]
        if key[1] < self.watermark_us:
            raise SimulationInvariantError(
                f"delivery of {key} arrived after its duplicate window "
                f"closed at {self.watermark_us} us"
            )
        seen = receivers.get(key)
        if seen is None:
            order.append(key)
            seen = 0
        receivers[key] = seen | mask
        return seen


@dataclass
class RunResult:
    """Everything a run produced; consumed by reporting and tests."""

    config: ScenarioConfig
    seed: int
    model: LatencyModel
    users: list[SimUser]
    metrics: Metrics
    broker: Broker
    gateway: Optional[Gateway]
    trace_rows: TraceRows
    final_coverage: Optional[float]
    mean_coverage: Optional[float]
    ghost_pairs: list[tuple[str, str]]


# --- events ---
#
# A heap entry is (at_us, seq, handler, arg); seq is unique, so handlers
# and args are never compared. One handler call's ``_schedule`` calls
# take consecutive seqs, so no other call's event falls between two of
# them; and the loop runs a handler to the end before it pops the next
# entry.
#
# Groups. A plan group is a ``_Group``: its receivers' tuple, with their
# ``last_heard`` rows as an index array and their bitmask, built once at
# setup. A delivery of it tests and updates the duplicate window with one
# int operation per BSM, and writes ``last_heard`` through the array; it
# works out per-receiver flags only when some receiver already had the
# BSM. A group cut by a drop, or an arrival built by hand, is a plain
# tuple, whose array and mask the delivery builds and does not keep.
#
# Blocks. A send schedules one ``_Arrival`` per group of its plan. All
# the arrivals one handler call schedules for one instant go into one
# list, a block, whose heap entry takes the seq of its first arrival;
# any other event that call schedules for that instant closes the block,
# and a later arrival opens a new one. Run in order, a block's arrivals
# are the entries one event per arrival would have been: those took
# consecutive seqs at that instant, with no event of their own call
# between them (it would have closed the block), and none of another
# call's (it would have a lower or a higher seq than all of them). A
# delivery schedules nothing, so nothing can run between them either.
# The loop closes every block when the handler returns.
#
# Merging. An arrival that would go at the end of its block joins the
# block's last arrival instead when both have the same receivers tuple
# (plan group), uplink, downlink and topic and an equal generation time.
# Only the last arrival is ever extended, so nothing comes between its
# BSMs, and expanding it BSM by BSM gives the order separate arrivals
# give. Its deliveries share one latency; its ``DeliveryBatch`` expands
# to the rows of the ``DeliveryGroup`` each BSM alone would give. So a
# camera frame's refreshes give one arrival per plan group, unless an
# event at that instant (a grace deadline) closes the block or two
# groups share an instant and interleave.
#
# Drops. A publish that dropped some subscribers casts each group of its
# plan cut to the receivers kept, skipping the groups left empty; a group
# that lost none is cast as the plan's own, so it still merges. In
# ``max_endpoint`` mode the groups' order can then differ from that of
# their first kept receivers; but that only swaps seqs between entries at
# distinct instants, which the heap orders by time, and one ``_cast``'s
# seqs are consecutive, so the run order is the same.
#
# Frames. Every detection of a camera frame becomes available at the same
# instant, and the frame scheduled them one after another, so one ready
# event that classifies them in capture order runs them as one event
# each would.

class _Group(tuple):
    """A plan group's receivers (user indices), carrying their rows of
    ``last_heard`` as an index array and their bitmask."""

    rows: np.ndarray
    mask: int

    def __new__(cls, receivers: Iterable[int]) -> _Group:
        group = super().__new__(cls, receivers)
        group.rows, group.mask = _rows_and_mask(group)
        return group


def _rows_and_mask(receivers: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """``receivers`` as an index array of ``last_heard`` rows, and as a
    bitmask."""
    mask = 0
    for r in receivers:
        mask |= 1 << r
    return np.array(receivers, dtype=np.intp), mask


class _Arrival(NamedTuple):
    """BSMs generated at one instant reaching some road users at one."""

    receivers: tuple[int, ...]  # user indices: a _Group, or a cut of one
    bsms: list[Bsm]
    uplink: LinkTech
    downlink: LinkTech
    topic: Optional[Topic] = None  # the broker topic; None over the air


#: A send's ``(µs, receivers)`` groups, one per distinct arrival time.
_Plan = tuple[tuple[int, tuple[int, ...]], ...]


def _group_by_time(arrivals: Iterable[tuple[int, int]]) -> _Plan:
    """``(µs, user index)`` pairs grouped by time, the groups and their
    receivers in first-seen order."""
    groups: dict[int, list[int]] = {}
    for at_us, receiver in arrivals:
        groups.setdefault(at_us, []).append(receiver)
    return tuple((at_us, _Group(group)) for at_us, group in groups.items())


class Simulation:
    def __init__(self, config: ScenarioConfig, seed: Optional[int] = None):
        self.config = config
        self.seed = config.seed if seed is None else seed
        if self.seed < 0:  # numpy takes only a non-negative seed
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed}"
            )
        self.rng = np.random.default_rng(self.seed)
        self.frame = LocalFrame(config.origin.lat, config.origin.lon)
        self.model = load_latency_model(config.latency_csv)
        self.ipu_processing_us = ms_to_us(config.ipu.processing_ms)
        self.frame_period_us = ms_to_us(config.ipu.frame_period_ms)
        self.freshness_us = ms_to_us(config.freshness_window_ms)
        self.users = [self._make_user(i, s) for i, s in enumerate(config.users)]
        by_tech: dict[LinkTech, list[SimUser]] = {}
        for user in self.users:
            tech = user.spec.kind.tech
            if tech is not None:
                by_tech.setdefault(tech, []).append(user)
        cell_users = by_tech.get(LinkTech.CELL_MQTT, [])
        ids = [u.id.value for u in self.users]
        #: The user index of each subject id's road user: its own, or the
        #: detected user of a synthetic id, added when it is confirmed.
        self._truth_of = {user_id: i for i, user_id in enumerate(ids)}
        self._connected_rows = np.array(
            [u.index for u in self.users if u.spec.kind.is_connected],
            dtype=np.intp,
        )
        self.metrics = Metrics(ids)
        # The longest path: one link half at each end, plus the camera's
        # processing and grace wait on a camera path.
        self._seen = _SeenWindow(
            2 * max(
                (u.half_us for u in self.users if u.half_us is not None),
                default=0,
            )
            + self.ipu_processing_us + ms_to_us(config.filter.grace_ms)
        )
        self._heap: list[tuple[int, int, Callable[[int, Any], None], Any]] = []
        self._seq = 0
        #: The arrival blocks the running handler has open, by time.
        self._blocks: dict[int, list[_Arrival]] = {}
        #: The last batch's subjects and truth indices.
        self._batched: tuple[tuple, tuple] = ((), ())
        #: The instant last traced, and its ``at_ms`` string.
        self._traced_at: tuple[int, str] = (-1, "")
        #: Trace details built once each, bounded by users and tracks:
        #: a detection's by (status, matched id, track id), and a gateway
        #: arrival's ``(kind, detail)`` by (medium, topic, target count).
        self._detection_details: dict[tuple, str] = {}
        self._rx_labels: dict[tuple, tuple[str, str]] = {}

        drop = config.mqtt.drop_probability
        self.broker = Broker(
            drop_probability=drop, rng=self.rng if drop > 0.0 else None
        )
        self.gateway: Optional[Gateway] = None
        if config.arsu.present:
            connected = frozenset(
                u.id for u in self.users if u.spec.kind.is_connected
            )
            self.gateway = Gateway(
                FilterConfig(
                    sigma_m=config.filter.sigma_m,
                    window_us=ms_to_us(config.filter.window_ms),
                    grace_us=ms_to_us(config.filter.grace_ms),
                ),
                connected_ids=connected,
            )
            self.broker.subscribe(ARSU_CLIENT, Topic.CELL)
        # Nonnative users subscribe to all four topics (their downlink).
        for user in cell_users:
            for topic in Topic:
                self.broker.subscribe(user.id.value, topic)

        # Plans follow those subscriptions' order. A broadcast's link half
        # is its faster endpoint's (max(speeds) is one endpoint's speed); a
        # Cell publish pays its publisher's half and each receiver's, the
        # gateway's side of the broker being free; a gateway relay or
        # publish pays each receiver's own half.
        self._plans: list[_Plan] = [()] * len(self.users)
        #: The gateway's send plan on each medium: a relay or a publish.
        self._relays: dict[LinkTech, _Plan] = {}
        for tech in (LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT):
            on_tech = by_tech.get(tech, [])
            for u in on_tech:
                self._plans[u.index] = _group_by_time(
                    (u.half_us + p.half_us if tech is LinkTech.CELL_MQTT
                     else 2 * (u.half_us if u.speed_kmh >= p.speed_kmh
                               else p.half_us), p.index)
                    for p in on_tech if p is not u
                )
            self._relays[tech] = _group_by_time(
                (u.half_us, u.index) for u in on_tech
            )

    def _make_user(self, index: int, spec: UserSpec) -> SimUser:
        speed = (
            spec.speed_kmh
            if spec.speed_kmh is not None
            else self.config.scenario_speed_kmh
        )
        tech = spec.kind.tech
        half_us = None
        if tech is not None:
            link_speed = (
                speed if self.config.link_speed_mode == "max_endpoint"
                else self.config.scenario_speed_kmh
            )
            half_us = ms_to_us(self.model.half_delay(tech, link_speed))
        return SimUser(
            index=index,
            id=RoadUserId(spec.user_id),
            spec=spec,
            x_m=spec.x_m,
            y_m=spec.y_m,
            speed_kmh=speed,
            bsm_interval_us=ms_to_us(spec.bsm_interval_ms),
            bsm_phase_us=ms_to_us(spec.bsm_phase_ms),
            half_us=half_us,
        )

    # --- scheduling ---

    def _schedule(
        self, at_us: int, handler: Callable[[int, Any], None], arg: Any = None
    ) -> None:
        if at_us < 0:
            raise SimulationInvariantError("event scheduled before time zero")
        heapq.heappush(self._heap, (at_us, self._seq, handler, arg))
        self._seq += 1
        # Any other event closes the arrival block open at its instant.
        if self._blocks:
            self._blocks.pop(at_us, None)

    def run(self) -> RunResult:
        duration_us = self.config.duration_us
        for user in self.users:
            if user.spec.kind.is_connected:
                self._schedule(user.bsm_phase_us, self._on_bsm_tx, user)
        if self.gateway is not None:
            self._schedule(0, self._on_ipu_frame)
        self._schedule(_METRICS_TICK_US, self._on_metrics_tick)

        heap = self._heap
        blocks = self._blocks
        metrics = self.metrics
        while heap and heap[0][0] < duration_us:
            at_us, _, handler, arg = heapq.heappop(heap)
            metrics.events_executed += 1
            handler(at_us, arg)
            if blocks:
                blocks.clear()
        # The events left hold bound handlers: without them, nothing the
        # run made refers back to this simulation.
        heap.clear()

        final = self._sample_coverage(duration_us)
        defined = [v for _, v in self.metrics.coverage_samples if v is not None]
        mean_cov = sum(defined) / len(defined) if defined else None
        gateway = self.gateway
        return RunResult(
            config=self.config,
            seed=self.seed,
            model=self.model,
            users=self.users,
            metrics=self.metrics,
            broker=self.broker,
            gateway=gateway,
            trace_rows=TraceRows(self.metrics),
            final_coverage=final,
            mean_coverage=mean_cov,
            ghost_pairs=[
                (syn.value, truth.value)
                for syn, truth in (gateway.ghost_events() if gateway else [])
            ],
        )

    # --- event handlers ---

    def _on_bsm_tx(self, now_us: int, user: SimUser) -> None:
        spec = user.spec
        tech = spec.kind.tech
        self._advance(user, now_us)
        noise = self.rng.normal(0.0, spec.gnss_error_std_m, 2)
        reported = self.frame.position_at(
            user.x_m + noise[0], user.y_m + noise[1]
        )
        bsm = make_bsm(
            user.id,
            reported,
            user.speed_kmh,
            spec.heading_deg,
            PositionAccuracy(horizontal_sigma_m=spec.gnss_error_std_m),
            tech,
            now_us,
        )
        self.metrics.bsm_tx += 1
        rep_x, rep_y = self.frame.xy_of(reported)
        self._trace(
            now_us, "BsmTx", user.id.value, "",
            f"x_m={rep_x:.3f} y_m={rep_y:.3f}",
        )

        plan = self._plans[user.index]
        if tech is LinkTech.CELL_MQTT:
            self._publish(user, plan, bsm, Topic.CELL, tech, now_us)
        else:
            self._cast(plan, now_us, bsm, tech, tech)
            if self.gateway is not None and self._in_coverage(user):
                self._schedule(
                    now_us + user.half_us, self._on_gateway_rx,
                    (bsm, tech, None),
                )
        self._schedule(now_us + user.bsm_interval_us, self._on_bsm_tx, user)

    def _publish(self, publisher: Optional[SimUser], plan: _Plan, bsm: Bsm,
                 topic: Topic, uplink: LinkTech, now_us: int) -> None:
        """Publish ``bsm`` on ``topic`` for a road user, or for the gateway
        when ``publisher`` is None, and cast ``plan`` to the road users
        the broker kept."""
        broker = self.broker
        drops = broker.drop_count
        kept = broker.publish(
            ARSU_CLIENT if publisher is None else publisher.id.value,
            MqttEnvelope(topic=topic, payload=bsm, published_at_us=now_us),
        )
        # The gateway subscribes only to Cell, which only road users
        # publish to; it hears a publish after the publisher's half, before
        # any road user does.
        if ARSU_CLIENT in kept:
            self._schedule(now_us + publisher.half_us, self._on_gateway_rx,
                           (bsm, LinkTech.CELL_MQTT, topic))
        if broker.drop_count != drops:
            # A road user's client name is its id, its own truth.
            kept_rows = set(map(self._truth_of.get, kept)).__contains__
            plan = tuple(
                (offset_us,
                 receivers if len(group) == len(receivers) else group)
                for offset_us, receivers in plan
                if (group := tuple(filter(kept_rows, receivers)))
            )
        self._cast(plan, now_us, bsm, uplink, LinkTech.CELL_MQTT, topic)

    def _cast(self, plan: _Plan, sent_us: int, bsm: Bsm, uplink: LinkTech,
              downlink: LinkTech, topic: Optional[Topic] = None) -> None:
        """Schedule ``bsm``'s arrival at each group of ``plan`` into the
        block this handler has open at its instant, or a new one, joining
        the block's last arrival if of the same group, links and time."""
        blocks = self._blocks
        generated_at_us = bsm.generated_at_us
        for offset_us, receivers in plan:
            at_us = sent_us + offset_us
            block = blocks.get(at_us)
            if block is None:
                block = []
                self._schedule(at_us, self._deliver, block)
                blocks[at_us] = block
            elif ((last := block[-1]).receivers is receivers
                  and last[2:] == (uplink, downlink, topic)
                  and last.bsms[0].generated_at_us == generated_at_us):
                last.bsms.append(bsm)
                continue
            block.append(_Arrival(receivers, [bsm], uplink, downlink, topic))

    def _on_gateway_rx(
        self, now_us: int, arg: tuple[Bsm, LinkTech, Optional[Topic]]
    ) -> None:
        """The gateway hears ``bsm`` on ``medium``: a road user's own radio
        broadcast, or the Cell topic only road users publish to. So the
        uplink is the downlink."""
        bsm, medium, topic = arg
        targets = self.gateway.on_rx(bsm, medium, now_us)
        key = (medium, topic, len(targets))
        label = self._rx_labels.get(key)
        if label is None:
            if topic is None:
                kind, detail = "RadioDelivery", f"via={medium.value}"
            else:
                kind, detail = "MqttDelivery", f"topic={topic.value}"
            label = self._rx_labels[key] = (
                kind, f"{detail} actions={len(targets)}")
        self._trace(now_us, label[0], ARSU_CLIENT, bsm.id.value, label[1])
        self._send(bsm, targets, medium, now_us)

    def _send(self, bsm: Bsm, targets: tuple[Target, ...], uplink: LinkTech,
              now_us: int) -> None:
        """Send a gateway relay or generated BSM, which reached the
        gateway over ``uplink``, to each target through its plan."""
        relays = self._relays
        for medium, topic in targets:
            if topic is None:
                # A radio relay to every user on ``medium``. The gateway
                # relays a road user's BSM only onto the other media, and
                # the camera's under a synthetic id, so the subject is
                # never on ``medium``.
                self._cast(relays[medium], now_us, bsm, uplink, medium)
            else:
                self._publish(None, relays[medium], bsm, topic, uplink,
                              now_us)

    def _deliver(self, now_us: int, arrivals: list[_Arrival]) -> None:
        """Hand each arrival's BSMs to its receivers, in schedule order:
        one delivery, and one executed event, per (BSM, receiver); each
        arrival is recorded once (see ``DeliveryBatch``)."""
        metrics = self.metrics
        truth_of = self._truth_of
        add_seen = self._seen.add
        records = []
        arrays = []  # each record's receivers as rows of last_heard
        delivered = 0
        for receivers, bsms, uplink, downlink, topic in arrivals:
            generated_at_us = bsms[0].generated_at_us
            latency_ms = us_to_ms(now_us - generated_at_us)
            if latency_ms < 0:
                raise SimulationInvariantError("delivery precedes generation")
            if type(receivers) is _Group:
                arrays.append(receivers.rows)
                mask = receivers.mask
            else:
                array, mask = _rows_and_mask(receivers)
                arrays.append(array)
            rows = []
            for bsm in bsms:
                subject = bsm.id.value
                truth_index = truth_of.get(subject)
                if truth_index is None:
                    raise SimulationInvariantError(f"{bsm.id} is no road user")
                # Read per BSM: two BSMs of one arrival can share a key.
                seen = add_seen((subject, generated_at_us), mask, now_us)
                duplicates = None
                if seen & mask:
                    duplicates = tuple(bool(seen >> r & 1) for r in receivers)
                    metrics.duplicates_suppressed += sum(duplicates)
                rows.append((subject, truth_index, duplicates))
            if len(rows) == 1:
                records.append(DeliveryGroup(
                    receivers, subject, truth_index, uplink, downlink,
                    generated_at_us, now_us, latency_ms, topic, duplicates))
            else:
                subjects, truth, flags = zip(*rows)
                # A frame's batches on each medium carry the same BSMs.
                if (subjects, truth) == self._batched:
                    subjects, truth = self._batched
                else:
                    self._batched = (subjects, truth)
                records.append(DeliveryBatch(
                    receivers, subjects, truth, uplink, downlink,
                    generated_at_us, now_us, latency_ms, topic,
                    flags if any(flags) else None))
            delivered += len(receivers) * len(rows)
        metrics.events_executed += delivered - 1
        metrics.record_delivery(records, arrays, now_us)

    def _on_ipu_frame(self, now_us: int, _: None) -> None:
        in_view = []
        for user in self.users:
            self._advance(user, now_us)
            if self._in_coverage(user):
                in_view.append(user)
        if in_view:
            # One draw for the frame gives the numbers one per user would.
            noise = self.rng.normal(
                0.0, self.config.ipu.noise_std_m, (len(in_view), 2)
            ).tolist()
            available_at_us = now_us + self.ipu_processing_us
            position_at = self.frame.position_at
            detections = [
                Detection(
                    estimate=position_at(user.x_m + dx, user.y_m + dy),
                    speed_kmh=user.speed_kmh,
                    heading_deg=user.spec.heading_deg,
                    captured_at_us=now_us,
                    available_at_us=available_at_us,
                    truth_id=user.id,
                )
                for user, (dx, dy) in zip(in_view, noise)
            ]
            self._schedule(
                available_at_us, self._on_detections_ready, detections
            )
        self.metrics.detections += len(in_view)
        self._trace(now_us, "IpuFrame", ARSU_CLIENT, "",
                    f"detections={len(in_view)}")
        self._schedule(now_us + self.frame_period_us, self._on_ipu_frame)

    def _on_detections_ready(
        self, now_us: int, detections: list[Detection]
    ) -> None:
        """A frame's detections leave the IPU: the gateway classifies each,
        in capture order, and a refresh's BSM goes to each generation
        target; one executed event per detection."""
        self.metrics.events_executed += len(detections) - 1
        on_detection = self.gateway.on_detection
        details = self._detection_details
        for detection in detections:
            outcome = on_detection(detection, now_us)
            subject = detection.truth_id.value if detection.truth_id else "?"
            key = (outcome.status, outcome.matched_id, outcome.track_id)
            detail = details.get(key)
            if detail is None:
                detail = outcome.status.value
                if outcome.matched_id is not None:
                    detail += f" matched={outcome.matched_id.value}"
                if outcome.track_id is not None:
                    detail += f" track={outcome.track_id}"
                details[key] = detail
            self._trace(now_us, "DetectionReady", ARSU_CLIENT, subject, detail)
            if outcome.deadline_us is not None:
                self._schedule(outcome.deadline_us, self._on_grace_deadline,
                               outcome.track_id)
            if outcome.generated is not None:
                self._send(outcome.generated, GENERATION_TARGETS,
                           LinkTech.CAMERA, now_us)

    def _on_grace_deadline(self, now_us: int, track_id: int) -> None:
        bsm = self.gateway.on_grace_deadline(track_id)
        if bsm is None:
            self._trace(now_us, "GraceDeadline", ARSU_CLIENT,
                        f"track={track_id}", "resolved earlier")
            return
        self._trace(
            now_us, "GraceDeadline", ARSU_CLIENT, f"track={track_id}",
            f"confirmed NonConnected actions={len(GENERATION_TARGETS)}",
        )
        truth = self.gateway.synthetic_truth[bsm.id]
        if truth is not None:
            self._truth_of[bsm.id.value] = self._truth_of[truth.value]
        self._send(bsm, GENERATION_TARGETS, LinkTech.CAMERA, now_us)

    def _on_metrics_tick(self, now_us: int, _: None) -> None:
        self._sample_coverage(now_us)
        self._schedule(now_us + _METRICS_TICK_US, self._on_metrics_tick)

    def _sample_coverage(self, now_us: int) -> Optional[float]:
        """Record and trace one coverage sample, and return it."""
        value = self._coverage(now_us)
        self.metrics.coverage_samples.append((now_us, value))
        self._trace(now_us, "MetricsTick", "sim", "", _coverage_label(value))
        return value

    # --- helpers ---

    def _advance(self, user: SimUser, now_us: int) -> None:
        if now_us > user.updated_at_us:
            step_mobility(user, now_us - user.updated_at_us)

    def _in_coverage(self, user: SimUser) -> bool:
        dx = user.x_m - self.config.arsu.x_m
        dy = user.y_m - self.config.arsu.y_m
        return math.hypot(dx, dy) <= self.config.arsu.coverage_radius_m

    def _coverage(self, now_us: int) -> Optional[float]:
        """Share of (connected receiver, other user) pairs heard within
        the freshness window; None when there are no such pairs.

        Only connected users receive, so the connected rows of
        ``last_heard`` hold every pair, plus the diagonal a ghost fills:
        (U, U) when U hears its own ghost.
        """
        rows = self._connected_rows
        pairs = len(rows) * (len(self.users) - 1)
        if pairs == 0:
            return None
        # Before a whole window has passed, now − freshness is below
        # NEVER_HEARD; the cutoff never drops below it, so a pair never
        # heard is never fresh.
        oldest_us = max(now_us - self.freshness_us, NEVER_HEARD)
        last_heard = self.metrics.last_heard
        fresh = np.count_nonzero(last_heard[rows] > oldest_us)
        fresh -= np.count_nonzero(last_heard[rows, rows] > oldest_us)
        return int(fresh) / pairs

    def _trace(
        self, at_us: int, kind: str, actor: str, subject: str, detail: str
    ) -> None:
        """Log one formatted row. Events run in time order, so the rows
        of one instant share the one ``at_ms`` string."""
        traced_us, at_ms = self._traced_at
        if at_us != traced_us:
            at_ms = f"{us_to_ms(at_us):.3f}"
            self._traced_at = (at_us, at_ms)
        self.metrics.log.append((at_ms, kind, actor, subject, detail))


def _coverage_label(value: Optional[float]) -> str:
    if value is None:
        return "coverage=no-pairs"
    return f"coverage={value:.4f}"


def load_latency_model(latency_csv: Optional[str]) -> LatencyModel:
    """The delay table at ``latency_csv``, else the default. A table
    that cannot be read or fails its checks is a ConfigError."""
    if not latency_csv:
        return LatencyModel.default()
    try:
        return LatencyModel.from_csv(latency_csv)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"latency_csv: {exc}") from None


def run(config: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Run one scenario to completion; (config, seed) fixes the result."""
    return Simulation(config, seed=seed).run()
