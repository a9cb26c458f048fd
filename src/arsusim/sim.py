"""Deterministic discrete-event simulation.

Road users move at constant velocity in a local planar frame, emit BSMs
on their own technology, and hear each other directly (same technology),
through the gateway's relays (cross technology), or through the broker
(cellular). The camera samples everything inside the A-RSU's coverage
disc, where the gateway also hears radio BSMs, and feeds the gateway's
detection filter. Users move lazily, at their BSMs and at camera frames,
through ``Simulation._move``, the one method that also answers who is
in that disc.

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
kept, and keeps the others as they are. A send schedules one arrival, one
event, per group, and a camera frame's detections share one ready event;
``events_executed`` still counts one event per receiver and one per
detection. One ``_send`` serves every gateway send: a relay or a
confirmation is a run of one BSM, and a camera frame's refreshes are
sent as runs, each cast to a plan group at once, as one arrival per
plan group (see "Frames"); the broker still takes one publish per BSM.
An arrival is one record, a ``DeliveryGroup`` of one BSM or several,
from its cast to the trace: the cast builds it, with duplicate flags
only where a receiver already had a BSM, and schedules it; its delivery
records it, and it is written to the run's trace and not kept. Road
users are named by their plain string ids throughout. The handlers
write facts, not text, to the run's trace, ``Metrics.tape``:
``arsusim.trace`` keeps it and words its rows. Awareness is the ``last_heard`` matrix, one row per
receiver: only connected users hear anything. The tests
see each delivery by wrapping ``Metrics.record_delivery``, which is
passed every record as it is delivered.
Delivery bookkeeping is per arrival, not per (BSM, receiver):
``last_heard`` is written through the group's index array, and a
delivery looks up no per-subject state. Duplicate flags, receiver
bitmasks, are set when a camera frame's BSMs are cast, from one bitmask
per subject id that lives for one ``_on_detections_ready`` call; every
other send carries none. That is exact:

- a key (subject id, generation time) reaches a receiver twice only
  when a frame refreshes one track twice. The gateway hears each road
  user's key once, and relays it only onto the other media;
- a refresh's generation time is its frame's capture time, so keys of
  different frames differ. A confirmation carries its track's latest
  capture time, and no refresh repeats that;
- every copy of a frame's key reaches a receiver through the same plan
  group, at the same instant, in cast order. So flags worked out in
  cast order are those worked out in delivery order, drops included: a
  cut group's mask holds the receivers the broker kept;
- ``duplicates_suppressed`` is counted from the flags when an arrival
  is delivered, so arrivals after the run's end count nothing.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, NamedTuple, Optional

import numpy as np

from .broker import ARSU_CLIENT, Broker
from .config import ConfigError, ScenarioConfig, UserSpec, _path
from .gateway import GENERATION_TARGETS, Gateway, Target
from .geo import LocalFrame
from .latency import LatencyModel
from .messages import (
    Bsm,
    Detection,
    LinkTech,
    MqttEnvelope,
    PositionAccuracy,
    Topic,
    make_bsm,
    ms_to_us,
    us_to_ms,
)
from .trace import TraceRows

_METRICS_TICK_US = 100_000


class SimulationInvariantError(RuntimeError):
    """An internal consistency rule was violated during a run."""


@dataclass(slots=True)
class SimUser:
    """Runtime state of one road user: its spec, plus what the run
    resolves from it (speed, µs timing, link half) or moves."""

    index: int
    id: str
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


class DeliveryGroup(NamedTuple):
    """BSMs generated at one instant handed to the same road users at one
    instant: one arrival, the fields its deliveries share held once. It
    is the arrival's one record: ``_cast`` builds it, with its duplicate
    flags, and schedules it, ``_deliver`` records it, and the tape keeps
    its fields.

    ``receivers`` (the send's plan group, unless a broker drop cut it)
    and ``truth_indices`` are user indices; ``subjects`` and
    ``truth_indices`` hold one entry per BSM, in order: a tuple for one
    BSM, an index array for a run. ``topic`` is the broker topic, None
    over the air. ``duplicates`` holds a ``(position in subjects, mask
    of the receivers that had it)`` pair for each BSM that some receiver
    already had, in order; it is None when no receiver had any."""

    receivers: _Group
    subjects: tuple[str, ...]
    truth_indices: tuple[int] | np.ndarray
    uplink: LinkTech
    downlink: LinkTech
    generated_at_us: int
    delivered_at_us: int
    topic: Optional[Topic]
    duplicates: Optional[tuple[tuple[int, int], ...]]


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


#: ``last_heard`` of a (receiver, subject) pair never heard.
NEVER_HEARD = -1


class Metrics:
    """What a run measures, and its trace, held as a compact tape
    (``TraceRows``). ``receivers`` are the users that can hear anything,
    the connected ones, in user index order: ``last_heard`` has a row for
    each of them and a column for every user."""

    def __init__(self, user_ids: list[str], frame: LocalFrame,
                 receivers: list[int]):
        self.ids = user_ids  # user id by index
        self.receivers = receivers  # user index by row of last_heard
        self.tape = TraceRows(user_ids, frame)
        self.path_stats: dict[tuple[LinkTech, LinkTech], PathStats] = {}
        #: last_heard[receivers' row, truth subject]: µs of the latest
        #: delivery, or NEVER_HEARD.
        self.last_heard = np.full((len(receivers), len(user_ids)),
                                  NEVER_HEARD, dtype=np.int64)
        self.coverage_samples: list[tuple[int, Optional[float]]] = []
        self.duplicates_suppressed = 0
        self.detections = 0
        self.bsm_tx = 0
        self.events_executed = 0

    @property
    def delivered(self) -> int:
        """The (subject, receiver) pairs delivered, over every path."""
        return sum(stats.count for stats in self.path_stats.values())

    @property
    def deliveries(self) -> range:
        """Sized as the run's deliveries. Kept only because perfbench
        reads its ``len()`` (ROADMAP item 9); read ``delivered``."""
        return range(self.delivered)

    def record_delivery(self, record: DeliveryGroup) -> None:
        """Record one arrival's ``DeliveryGroup``: one executed event and
        delivery per (BSM, receiver), and a duplicate per flag set at its
        cast. Its fields go to the tape; the record is not kept."""
        truth, uplink, downlink, generated_at_us, delivered_at_us = record[2:7]
        rows = record.receivers.rows
        # Events run in time order, so these deliveries are the latest.
        n = len(rows) * len(truth)
        self.events_executed += n - 1
        if record.duplicates is not None:
            self.duplicates_suppressed += sum(
                flags.bit_count() for _, flags in record.duplicates)
        if len(truth) == 1:
            self.last_heard[:, truth[0]][rows] = delivered_at_us
        else:
            self.last_heard[rows[:, None], truth] = delivered_at_us
        self.tape.delivery(record, n)
        stats = self.path_stats.get((uplink, downlink))
        if stats is None:
            stats = self.path_stats[uplink, downlink] = PathStats()
        stats.add(delivered_at_us - generated_at_us, n)


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
# ``last_heard`` rows as an index array, looked up in the row map, and
# their bitmask, built once at setup, its receivers in increasing user
# index. Only connected users are in a plan, so every receiver has a
# row. A camera frame's cast to it tests and updates the frame's
# bitmasks with one int operation per BSM, and keeps the receivers that
# already had the BSM, as a bitmask, when some did; a delivery writes
# ``last_heard`` through the array. A group cut by a drop is a ``_Cut``,
# whose array and mask are built with it; the tape keeps only its mask,
# from which the reader rebuilds its receivers.
#
# Arrivals. A cast schedules one ``_deliver`` event per group of its
# plan, whose argument is the arrival's ``DeliveryGroup``: the one record
# of it, from the cast to the tape. An arrival carries a run: BSMs
# generated at one instant, in order, as their subject ids and truth
# indices, worked out once per cast. A cast checks once that it is not
# sent before its BSMs were generated. The heap runs one instant's
# entries in seq order, and one handler's ``_schedule`` calls take
# increasing seqs; so one instant's arrivals run in the order they were
# cast, and an event scheduled between two casts runs between them. A
# delivery schedules nothing. An arrival's deliveries share one latency,
# and nothing comes between its BSMs: its record expands, BSM by BSM, to
# the rows of the one-BSM records that casting each BSM alone, one after
# another, would give.
#
# Drops. ``_publish`` calls the broker once per BSM, in order, so the drop
# draws are those of one publish per BSM. The BSMs whose publish kept
# every subscriber are cast through the plan as runs; one whose publish
# dropped some is cast alone, after the run before it, through its plan
# cut to the receivers kept: the groups left empty are skipped, and a
# group that lost none is cast as the plan's own, keeping its array and
# mask. At every instant the BSMs then arrive in their order. In
# ``max_endpoint`` mode the groups' order can differ from that of their
# first kept receivers; but that only swaps seqs between entries at
# distinct instants, which the heap orders by time, and one ``_cast``'s
# seqs are consecutive, so the run order is the same.
#
# Frames. Every detection of a camera frame becomes available at the same
# instant, and the frame scheduled them one after another, so one ready
# event in which ``Gateway.on_frame`` classifies them in capture order
# runs them as one event each would. Sends and deadlines only schedule
# events, so they follow the frame's outcomes: the refreshes' BSMs, all
# generated at the capture time, form a run, sent before the frame
# schedules a grace deadline, and what is left at the end. So each
# ``_schedule`` call comes in the order that sending each BSM as it is
# generated would give, and a deadline runs between the same BSMs. Only
# the duplicate flags need the frame in one call: its runs share one
# ``seen``, which one event per detection would start anew.
#
# Sending BSM by BSM to the generation targets schedules, at each
# instant, "for each BSM b, for each target T: b at T's group there" (a
# plan has at most one group per instant). Where only one target has a
# group g at an instant, that is b1..bk at g, which one arrival of the
# run at g delivers in the same order; so, while no two targets' groups
# share an instant, casting the run target by target gives the same
# order. ``__init__`` works out once whether two do (equal DSRC and
# C-V2X halves, as at 60.95 km/h); then ``_send`` sends a run BSM by
# BSM, to every target in order.

class _Group(tuple):
    """A plan group's receivers (user indices), carrying their rows of
    ``last_heard`` as an index array and their bitmask."""

    rows: np.ndarray
    mask: int
    #: Whether the tape keeps only the mask: a ``_Cut``'s receivers are
    #: rebuilt from it.
    cut = False

    def __new__(cls, receivers: Iterable[int], row_of: np.ndarray) -> _Group:
        group = super().__new__(cls, receivers)
        mask = 0
        for r in group:
            mask |= 1 << r
        group.rows = row_of[np.array(group, dtype=np.intp)]
        group.mask = mask
        return group


class _Cut(_Group):
    """A plan group cut to the receivers a publish kept, in the plan's
    order: increasing user index, so the tape holds only its mask."""

    cut = True


#: A send's ``(µs, receivers)`` groups, one per distinct arrival time.
_Plan = tuple[tuple[int, _Group], ...]


def _group_by_time(arrivals: Iterable[tuple[int, int]],
                   row_of: np.ndarray) -> _Plan:
    """``(µs, user index)`` pairs grouped by time, the groups and their
    receivers in first-seen order; ``row_of`` maps a receiver to its row
    of ``last_heard``. Every caller passes users in index order, so each
    group's receivers increase, as ``_Cut`` needs."""
    groups: dict[int, list[int]] = {}
    for at_us, receiver in arrivals:
        groups.setdefault(at_us, []).append(receiver)
    return tuple((at_us, _Group(group, row_of))
                 for at_us, group in groups.items())


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
        arsu = config.arsu
        #: The A-RSU's coverage disc: centre x and y, and radius (m).
        self._disc = (arsu.x_m, arsu.y_m, arsu.coverage_radius_m)
        self.users = [self._make_user(i, s) for i, s in enumerate(config.users)]
        by_tech: dict[LinkTech, list[SimUser]] = {}
        for user in self.users:
            tech = user.spec.kind.tech
            if tech is not None:
                by_tech.setdefault(tech, []).append(user)
        cell_users = by_tech.get(LinkTech.CELL_MQTT, [])
        ids = [u.id for u in self.users]
        #: The user index of each subject id's road user: its own, or the
        #: detected user of a synthetic id, added when it is confirmed.
        self._truth_of = {user_id: i for i, user_id in enumerate(ids)}
        #: ``((subject id,), (truth index,))`` by subject id, once
        #: delivered: the subjects of every one-BSM arrival.
        self._single: dict[str, tuple[tuple[str], tuple[int]]] = {}
        # Only connected users receive: each has a row of ``last_heard``,
        # and a user that does not receive maps to row -1.
        receivers = [u.index for u in self.users if u.spec.kind.is_connected]
        self._row_of = np.full(len(self.users), -1, dtype=np.intp)
        self._row_of[receivers] = np.arange(len(receivers))
        #: Each receiver's cell of its own column of ``last_heard``.
        self._own = (np.arange(len(receivers)),
                     np.array(receivers, dtype=np.intp))
        self.metrics = Metrics(ids, self.frame, receivers)
        self._heap: list[tuple[int, int, Callable[[int, Any], None], Any]] = []
        self._seq = 0
        self._ran = False
        #: The last run's BSMs, subjects and truth index array.
        self._batched: tuple[list, tuple, np.ndarray] = ([], (), np.empty(0))

        drop = config.mqtt.drop_probability
        self.broker = Broker(
            drop_probability=drop, rng=self.rng if drop > 0.0 else None
        )
        self.gateway: Optional[Gateway] = None
        if config.arsu.present:
            self.gateway = Gateway(
                config.filter,
                connected_ids=frozenset(ids[i] for i in receivers),
            )
            self.broker.subscribe(ARSU_CLIENT, Topic.CELL)
        # Nonnative users subscribe to all four topics (their downlink).
        for user in cell_users:
            for topic in Topic:
                self.broker.subscribe(user.id, topic)

        # Plans follow those subscriptions' order. A broadcast's link half
        # is its faster endpoint's, the larger half, as a half never falls
        # with speed; a Cell publish pays its publisher's half and each
        # receiver's, the gateway's side of the broker being free; a
        # gateway relay or publish pays each receiver's own half.
        self._plans: list[_Plan] = [()] * len(self.users)
        #: The gateway's send plan on each medium: a relay or a publish.
        self._relays: dict[LinkTech, _Plan] = {}
        for tech in (LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT):
            on_tech = by_tech.get(tech, [])
            for u in on_tech:
                self._plans[u.index] = _group_by_time(
                    ((u.half_us + p.half_us if tech is LinkTech.CELL_MQTT
                      else 2 * max(u.half_us, p.half_us), p.index)
                     for p in on_tech if p is not u),
                    self._row_of,
                )
            self._relays[tech] = _group_by_time(
                ((u.half_us, u.index) for u in on_tech), self._row_of
            )
        #: Whether two generation targets' plans share an arrival time: a
        #: frame's run then reaches the targets one BSM at a time.
        offsets = [{offset_us for offset_us, _ in self._relays[medium]}
                   for medium, _ in GENERATION_TARGETS]
        self._interleaved = any(
            one & other for one, other in combinations(offsets, 2))

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
            id=spec.user_id,
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

    def run(self) -> RunResult:
        """Run the scenario to its end, once: a second call raises
        before it changes anything."""
        if self._ran:
            raise SimulationInvariantError(
                "a Simulation runs once; make a new one to run again")
        self._ran = True
        duration_us = self.config.duration_us
        for user in self.users:
            if user.spec.kind.is_connected:
                self._schedule(user.bsm_phase_us, self._on_bsm_tx, user)
        if self.gateway is not None:
            self._schedule(0, self._on_ipu_frame)
        self._schedule(_METRICS_TICK_US, self._on_metrics_tick)

        heap = self._heap
        metrics = self.metrics
        while heap and heap[0][0] < duration_us:
            at_us, _, handler, arg = heapq.heappop(heap)
            metrics.events_executed += 1
            handler(at_us, arg)
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
            trace_rows=self.metrics.tape,
            final_coverage=final,
            mean_coverage=mean_cov,
            ghost_pairs=gateway.ghost_events() if gateway else [],
        )

    # --- event handlers ---

    def _on_bsm_tx(self, now_us: int, user: SimUser) -> None:
        spec = user.spec
        tech = spec.kind.tech
        in_disc = self._move((user,), now_us)
        noise = self.rng.normal(0.0, spec.gnss_error_std_m, 2).tolist()
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
        self.metrics.tape.bsm_tx(now_us, user.index, reported)

        plan = self._plans[user.index]
        if tech is LinkTech.CELL_MQTT:
            self._publish(user, plan, [bsm], Topic.CELL, tech, now_us)
        else:
            self._cast(plan, now_us, [bsm], tech, tech)
            if self.gateway is not None and in_disc:
                self._schedule(
                    now_us + user.half_us, self._on_gateway_rx, (bsm, tech)
                )
        self._schedule(now_us + user.bsm_interval_us, self._on_bsm_tx, user)

    def _publish(self, publisher: Optional[SimUser], plan: _Plan,
                 bsms: list[Bsm], topic: Topic, uplink: LinkTech,
                 now_us: int, seen: Optional[dict[str, int]] = None) -> None:
        """Publish each of ``bsms`` on ``topic``, in order, for a road
        user, or for the gateway when ``publisher`` is None, and cast
        ``plan`` to the road users the broker kept: the BSMs whose
        publish kept every subscriber as runs, each other alone. ``seen``
        goes to each cast."""
        broker = self.broker
        client = ARSU_CLIENT if publisher is None else publisher.id
        run = []
        for bsm in bsms:
            drops = broker.drop_count
            kept = broker.publish(client, MqttEnvelope(topic, bsm, now_us))
            # The gateway subscribes only to Cell, which only road users
            # publish to; it hears a publish after the publisher's half,
            # before any road user does.
            if publisher is not None and ARSU_CLIENT in kept:
                self._schedule(now_us + publisher.half_us,
                               self._on_gateway_rx, (bsm, LinkTech.CELL_MQTT))
            if broker.drop_count == drops:
                run.append(bsm)
                continue
            if run:
                self._cast(plan, now_us, run, uplink, LinkTech.CELL_MQTT,
                           topic, seen)
                run = []
            # A road user's client name is its id, its own truth.
            kept_rows = set(map(self._truth_of.get, kept)).__contains__
            cut = tuple(
                (offset_us,
                 receivers if len(group) == len(receivers)
                 else _Cut(group, self._row_of))
                for offset_us, receivers in plan
                if (group := tuple(filter(kept_rows, receivers)))
            )
            self._cast(cut, now_us, [bsm], uplink, LinkTech.CELL_MQTT, topic,
                       seen)
        if run:
            self._cast(plan, now_us, run, uplink, LinkTech.CELL_MQTT, topic,
                       seen)

    def _cast(self, plan: _Plan, sent_us: int, bsms: list[Bsm],
              uplink: LinkTech, downlink: LinkTech,
              topic: Optional[Topic] = None,
              seen: Optional[dict[str, int]] = None) -> None:
        """Schedule the arrival of ``bsms``, a run generated at one
        instant, at each group of ``plan``: one event per group, whose
        argument is the arrival's ``DeliveryGroup``. A camera frame's
        sends pass ``seen``, the bitmask of the receivers each of its
        subject ids was cast to so far, from which each group's duplicate
        flags are set; every other send passes None."""
        generated_at_us = bsms[0].generated_at_us
        if sent_us < generated_at_us:
            raise SimulationInvariantError(
                "a send precedes its BSM's generation")
        subjects, truth = self._subjects(bsms)
        for offset_us, receivers in plan:
            flags = None
            if seen is not None:
                mask = receivers.mask
                # Read per BSM: two BSMs of one arrival can share a subject.
                for i, subject in enumerate(subjects):
                    had = seen.get(subject)
                    if had is None:
                        seen[subject] = mask
                        continue
                    seen[subject] = had | mask
                    if had & mask:
                        if flags is None:
                            flags = []
                        flags.append((i, had & mask))
            at_us = sent_us + offset_us
            self._schedule(at_us, self._deliver, DeliveryGroup(
                receivers, subjects, truth, uplink, downlink,
                generated_at_us, at_us, topic,
                None if flags is None else tuple(flags)))

    def _on_gateway_rx(self, now_us: int, arg: tuple[Bsm, LinkTech]) -> None:
        """The gateway hears ``bsm`` on ``medium``: a road user's own radio
        broadcast, or a publish on Cell, the one topic it subscribes to.
        So the uplink is the downlink."""
        bsm, medium = arg
        targets = self.gateway.on_rx(bsm, medium, now_us)
        self.metrics.tape.gateway_rx(now_us, medium, len(targets), bsm.id)
        self._send([bsm], targets, medium, now_us)

    def _send(self, bsms: list[Bsm], targets: tuple[Target, ...],
              uplink: LinkTech, now_us: int,
              seen: Optional[dict[str, int]] = None) -> None:
        """Send a run of gateway relays or generated BSMs, which reached
        the gateway over ``uplink`` at one instant, to each target
        through its plan (see "Frames"); ``seen`` goes to each cast."""
        # Where two targets' groups share an instant, the run goes BSM by
        # BSM (see "Frames").
        runs = [[bsm] for bsm in bsms] if self._interleaved else [bsms]
        relays = self._relays
        for run in runs:
            for medium, topic in targets:
                if topic is None:
                    # A radio relay to every user on ``medium``. The gateway
                    # relays a road user's BSM only onto the other media,
                    # and the camera's under a synthetic id, so the subject
                    # is never on ``medium``.
                    self._cast(relays[medium], now_us, run, uplink, medium,
                               None, seen)
                else:
                    self._publish(None, relays[medium], run, topic, uplink,
                                  now_us, seen)

    def _deliver(self, now_us: int, record: DeliveryGroup) -> None:
        """Hand an arrival's BSMs to its receivers, through
        ``Metrics.record_delivery``, looked up per event so that it can
        be wrapped on the instance."""
        self.metrics.record_delivery(record)

    def _subjects(self, bsms: list[Bsm]) -> tuple[tuple, tuple | np.ndarray]:
        """The subject ids of ``bsms`` and their truth indices, for one
        cast. One BSM's are built once per subject id and shared by all
        its arrivals. A run's are worked out once, the truth indices as
        an index array, whenever its subjects change: a frame's run, or
        each piece of it, is cast to each medium one after another, so
        its arrivals on every medium share them."""
        if len(bsms) == 1:
            subject = bsms[0].id
            single = self._single.get(subject)
            if single is None:
                truth_index = self._truth_of.get(subject)
                if truth_index is None:
                    raise SimulationInvariantError(
                        f"{subject} is no road user")
                single = self._single[subject] = ((subject,), (truth_index,))
            return single
        batched_bsms, subjects, truth = self._batched
        if bsms == batched_bsms:
            return subjects, truth
        new_subjects = tuple([bsm.id for bsm in bsms])
        # A subject's truth index never changes once it is set.
        if new_subjects != subjects:
            new_truth = tuple(map(self._truth_of.get, new_subjects))
            if None in new_truth:
                subject = new_subjects[new_truth.index(None)]
                raise SimulationInvariantError(f"{subject} is no road user")
            subjects, truth = new_subjects, np.array(new_truth, dtype=np.intp)
        self._batched = (bsms, subjects, truth)
        return subjects, truth

    def _on_ipu_frame(self, now_us: int, _: None) -> None:
        """Capture a camera frame: move every user to now and detect
        those in the coverage disc, both through ``_move`` (users move
        lazily, at their BSMs and at camera frames)."""
        in_view = self._move(self.users, now_us)
        if in_view:
            # One draw for the frame gives the numbers one per user would.
            noise = self.rng.normal(
                0.0, self.config.ipu.noise_std_m, (len(in_view), 2)
            ).tolist()
            available_at_us = now_us + self.ipu_processing_us
            position_at = self.frame.position_at
            detections = Detection.of_frame(
                ((position_at(user.x_m + dx, user.y_m + dy), user.speed_kmh,
                  user.spec.heading_deg, user.id)
                 for user, (dx, dy) in zip(in_view, noise)),
                now_us, available_at_us,
            )
            self._schedule(
                available_at_us, self._on_detections_ready, detections
            )
        self.metrics.detections += len(in_view)
        self.metrics.tape.ipu_frame(now_us, len(in_view))
        self._schedule(now_us + self.frame_period_us, self._on_ipu_frame)

    def _on_detections_ready(
        self, now_us: int, detections: list[Detection]
    ) -> None:
        """A frame's detections leave the IPU: the gateway classifies the
        frame in one ``on_frame`` call, and the refreshes' BSMs go to each
        generation target as a run; one executed event per detection. A
        run is sent before a grace deadline is scheduled (see "Frames").
        Every run of the frame shares one ``seen``, by which a key that
        the frame sends twice is flagged at each receiver that had it."""
        self.metrics.events_executed += len(detections) - 1
        outcomes = self.gateway.on_frame(detections, now_us)
        seen: dict[str, int] = {}
        run = []
        for _, _, track_id, deadline_us, generated in outcomes:
            if deadline_us is not None:
                if run:
                    self._send(run, GENERATION_TARGETS, LinkTech.CAMERA,
                               now_us, seen)
                    run = []
                self._schedule(deadline_us, self._on_grace_deadline, track_id)
            if generated is not None:
                run.append(generated)
        if run:
            self._send(run, GENERATION_TARGETS, LinkTech.CAMERA, now_us,
                       seen)
        self.metrics.tape.detections(now_us, detections, outcomes)

    def _on_grace_deadline(self, now_us: int, track_id: int) -> None:
        bsm = self.gateway.on_grace_deadline(track_id)
        self.metrics.tape.grace_deadline(now_us, track_id, bsm is not None)
        if bsm is None:
            return
        truth = self.gateway.synthetic_truth[bsm.id]
        if truth is not None:
            self._truth_of[bsm.id] = self._truth_of[truth]
        self._send([bsm], GENERATION_TARGETS, LinkTech.CAMERA, now_us)

    def _on_metrics_tick(self, now_us: int, _: None) -> None:
        self._sample_coverage(now_us)
        self._schedule(now_us + _METRICS_TICK_US, self._on_metrics_tick)

    def _sample_coverage(self, now_us: int) -> Optional[float]:
        """Record and trace one coverage sample, and return it."""
        value = self._coverage(now_us)
        self.metrics.coverage_samples.append((now_us, value))
        self.metrics.tape.metrics_tick(now_us, value)
        return value

    # --- helpers ---

    def _move(self, users: Iterable[SimUser], now_us: int) -> list[SimUser]:
        """Move each of ``users`` along its heading, at constant speed,
        to ``now_us``, and return those inside the A-RSU's coverage disc,
        in order. Moving a user back in time raises."""
        x_m, y_m, radius_m = self._disc
        hypot = math.hypot
        in_disc = []
        for user in users:
            dt_us = now_us - user.updated_at_us
            if dt_us:
                if dt_us < 0:
                    raise SimulationInvariantError(
                        f"{user.id} moved back in time")
                meters = user.speed_kmh / 3.6 * (dt_us / 1_000_000.0)
                user.x_m += meters * user.sin_heading
                user.y_m += meters * user.cos_heading
                user.updated_at_us = now_us
            if hypot(user.x_m - x_m, user.y_m - y_m) <= radius_m:
                in_disc.append(user)
        return in_disc

    def _coverage(self, now_us: int) -> Optional[float]:
        """Share of (connected receiver, other user) pairs heard within
        the freshness window; None when there are no such pairs.

        ``last_heard`` has a row for each connected user: its fresh
        entries are those of the pairs, plus each receiver's own column
        when a ghost fills it, (U, U) when U hears its own ghost. Both
        are counted in place.
        """
        last_heard = self.metrics.last_heard
        pairs = len(last_heard) * (len(self.users) - 1)
        if pairs == 0:
            return None
        # Before a whole window has passed, now − freshness is below
        # NEVER_HEARD; the cutoff never drops below it, so a pair never
        # heard is never fresh.
        oldest_us = max(now_us - self.freshness_us, NEVER_HEARD)
        fresh = np.count_nonzero(last_heard > oldest_us)
        fresh -= np.count_nonzero(last_heard[self._own] > oldest_us)
        return int(fresh) / pairs


def load_latency_model(latency_csv: Optional[str]) -> LatencyModel:
    """The delay table at ``latency_csv``, or the default for None. An
    empty path, or a table that cannot be read or fails its checks, is a
    ConfigError."""
    if latency_csv is None:
        return LatencyModel.default()
    _path(latency_csv, "latency_csv")
    try:
        return LatencyModel.from_csv(latency_csv)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"latency_csv: {exc}") from None


def run(config: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Run one scenario to completion; (config, seed) fixes the result."""
    return Simulation(config, seed=seed).run()
