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
receivers)`` groups, one per distinct arrival time. Only the simulation
works out arrival times; a publish that dropped some subscribers keeps
only the receivers the broker kept. A send schedules one arrival per
group, recorded once, as a ``DeliveryGroup``. The arrivals one handler
call schedules for one instant share one heap entry, a block, and a
camera frame's detections share one ready event; ``events_executed``
still counts one event per receiver and one per detection. A run keeps
one log, ``Metrics.log``: every trace entry in event order, a formatted
row or a ``DeliveryGroup``. ``Metrics.deliveries`` and
``RunResult.trace_rows`` are views of it that support only ``len()``
and iteration; they expand each group one delivery or row per receiver
as they are read. ``Metrics.awareness()`` builds the heard pairs from
the ``last_heard`` matrix when it is called.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

import numpy as np

from .broker import ARSU_CLIENT, Broker
from .config import ConfigError, ScenarioConfig, UserSpec
from .gateway import ActionKind, FilterConfig, Gateway, RelayAction
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


def step_mobility(user: SimUser, dt_us: int) -> None:
    """Advance a user along its heading at constant speed."""
    if dt_us < 0:
        raise ValueError("dt must be non-negative")
    if dt_us == 0:
        return
    meters = user.speed_kmh / 3.6 * (dt_us / 1_000_000.0)
    heading_rad = math.radians(user.spec.heading_deg)
    user.x_m += meters * math.sin(heading_rad)
    user.y_m += meters * math.cos(heading_rad)
    user.updated_at_us += dt_us


class DeliveryRecord(NamedTuple):
    """One BSM handed to a road user, with its measured path latency.

    ``topic`` is the broker topic it came through, None over the air."""

    receiver: str
    subject: str
    truth_subject: str
    uplink: LinkTech
    downlink: LinkTech
    generated_at_us: int
    delivered_at_us: int
    latency_ms: float
    duplicate: bool
    topic: Optional[Topic] = None


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


class _LogView:
    """A sized, iterable view of a run's log, expanded one row per
    receiver of each ``DeliveryGroup``. Its length is kept as a running
    count; it is read only by iteration."""

    def __init__(self, metrics: Metrics):
        self._metrics = metrics


class Deliveries(_LogView):
    """Every delivery to a road user, one ``DeliveryRecord`` each, in
    delivery order."""

    def __len__(self) -> int:
        return self._metrics.delivered

    def __iter__(self) -> Iterator[DeliveryRecord]:
        ids = self._metrics.ids
        for group in self._metrics.log:
            if type(group) is not DeliveryGroup:
                continue
            shared = (
                group.subject, ids[group.truth_index], group.uplink,
                group.downlink, group.generated_at_us, group.delivered_at_us,
                group.latency_ms,
            )
            flags = group.duplicates or (False,) * len(group.receivers)
            for r, duplicate in zip(group.receivers, flags):
                yield DeliveryRecord(ids[r], *shared, duplicate, group.topic)


class TraceRows(_LogView):
    """The run's trace, one ``[at_ms, kind, actor, subject, detail]`` row
    per event.

    A group of user deliveries is held as its ``DeliveryGroup`` and
    formatted only when its rows are read, each string once per group;
    every other event is held formatted.
    """

    def __len__(self) -> int:
        metrics = self._metrics
        return len(metrics.log) - metrics.groups + metrics.delivered

    def __iter__(self) -> Iterator[list[str]]:
        ids = self._metrics.ids
        for entry in self._metrics.log:
            if type(entry) is not DeliveryGroup:
                yield entry
                continue
            detail = (
                f"up={entry.uplink.value} down={entry.downlink.value}"
                f" latency_ms={entry.latency_ms:.3f}"
            )
            kind = "RadioDelivery"
            if entry.topic is not None:
                kind = "MqttDelivery"
                detail += f" topic={entry.topic.value}"
            at_ms = f"{us_to_ms(entry.delivered_at_us):.3f}"
            subject = entry.subject
            if entry.duplicates is None:
                for r in entry.receivers:
                    yield [at_ms, kind, ids[r], subject, detail]
                continue
            duplicate = detail + " duplicate"
            for r, dup in zip(entry.receivers, entry.duplicates):
                yield [at_ms, kind, ids[r], subject,
                       duplicate if dup else detail]


#: ``last_heard`` of a (receiver, subject) pair never heard.
NEVER_HEARD = -1


class Metrics:
    """What a run measures, and its log: every trace entry in event
    order, a formatted row or a ``DeliveryGroup``. ``deliveries`` is a
    view of the log's groups."""

    def __init__(self, user_ids: list[str]):
        n = len(user_ids)
        self.ids = user_ids  # user id by index
        self.log: list = []
        self.groups = 0  # DeliveryGroups in the log
        self.delivered = 0  # their receivers
        self.deliveries = Deliveries(self)
        self.path_stats: dict[tuple[LinkTech, LinkTech], PathStats] = {}
        #: last_heard[receiver, truth subject]: µs of the latest delivery,
        #: or NEVER_HEARD.
        self.last_heard = np.full((n, n), NEVER_HEARD, dtype=np.int64)
        self.coverage_samples: list[tuple[int, Optional[float]]] = []
        self.duplicates_suppressed = 0
        self.detections = 0
        self.bsm_tx = 0
        self.events_executed = 0

    def record_delivery(
        self, groups: list[DeliveryGroup], delivered_at_us: int
    ) -> None:
        """Record the groups of deliveries made at ``delivered_at_us``."""
        self.log += groups
        self.groups += len(groups)
        path_stats = self.path_stats
        receivers = []
        subjects = []
        for group in groups:
            n = len(group.receivers)
            self.delivered += n
            path = (group.uplink, group.downlink)
            stats = path_stats.get(path)
            if stats is None:
                stats = path_stats[path] = PathStats()
            stats.add(delivered_at_us - group.generated_at_us, n)
            receivers += group.receivers
            subjects += [group.truth_index] * n
        # Events run in time order, so these deliveries are the latest.
        total = len(receivers)
        self.last_heard[
            np.fromiter(receivers, np.intp, total),
            np.fromiter(subjects, np.intp, total),
        ] = delivered_at_us

    def awareness(self) -> dict[tuple[str, str], int]:
        """(receiver id, subject id) -> when the receiver last heard the
        subject, in µs, for every pair heard."""
        ids = self.ids
        last_heard = self.last_heard
        return {
            (ids[r], ids[s]): int(last_heard[r, s])
            for r, s in zip(*np.nonzero(last_heard != NEVER_HEARD))
        }


class _SeenWindow:
    """Which receivers already have each BSM, by (subject id,
    generated_at) key, for as long as a delivery of it can arrive.

    No path takes longer than ``horizon_us``, so a key generated more
    than that before now is dropped. A delivery of a key generated
    before the latest drop's cutoff raises: the bound is checked, not
    assumed."""

    def __init__(self, horizon_us: int):
        self.horizon_us = horizon_us
        self.watermark_us = 0  # keys generated before this may be dropped
        self._receivers: dict[tuple[str, int], set[int]] = {}
        self._order: deque[tuple[str, int]] = deque()

    def __len__(self) -> int:
        return len(self._receivers)

    def receivers_of(self, key: tuple[str, int], now_us: int) -> set[int]:
        """The receivers that already have ``key``; the caller adds to it."""
        order = self._order
        cutoff = now_us - self.horizon_us
        if order and order[0][1] < cutoff:
            self.watermark_us = cutoff
            receivers = self._receivers
            while order and order[0][1] < cutoff:
                del receivers[order.popleft()]
        if key[1] < self.watermark_us:
            raise SimulationInvariantError(
                f"delivery of {key} arrived after its duplicate window "
                f"closed at {self.watermark_us} us"
            )
        seen = self._receivers.get(key)
        if seen is None:
            seen = self._receivers[key] = set()
            order.append(key)
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
# Drops. A publish that dropped some subscribers casts each group of its
# plan cut to the receivers kept, skipping the groups left empty. In
# ``max_endpoint`` mode the groups' order can then differ from that of
# their first kept receivers; but that only swaps seqs between entries at
# distinct instants, which the heap orders by time, and one ``_cast``'s
# seqs are consecutive, so the run order is the same.
#
# Frames. Every detection of a camera frame becomes available at the same
# instant, and the frame scheduled them one after another, so one ready
# event that classifies them in capture order runs them as one event
# each would.

class _Arrival(NamedTuple):
    """A BSM reaching some road users at one instant."""

    receivers: tuple[int, ...]  # user indices
    bsm: Bsm
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
    return tuple((at_us, tuple(group)) for at_us, group in groups.items())


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
        if config.latency_csv:
            try:
                self.model = LatencyModel.from_csv(config.latency_csv)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"latency_csv: {exc}") from None
        else:
            self.model = LatencyModel.default()
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
        self._index_of = {user_id: i for i, user_id in enumerate(ids)}
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
        self._relays: dict[ActionKind, tuple[LinkTech, _Plan]] = {}
        for kind, tech in ((ActionKind.TX_DSRC, LinkTech.DSRC),
                           (ActionKind.TX_CV2X, LinkTech.CV2X),
                           (ActionKind.PUBLISH_MQTT, LinkTech.CELL_MQTT)):
            on_tech = by_tech.get(tech, [])
            for u in on_tech:
                self._plans[u.index] = _group_by_time(
                    (u.half_us + p.half_us if tech is LinkTech.CELL_MQTT
                     else 2 * (u.half_us if u.speed_kmh >= p.speed_kmh
                               else p.half_us), p.index)
                    for p in on_tech if p is not u
                )
            self._relays[kind] = tech, _group_by_time(
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
            ids, kept_ids = self.metrics.ids, set(kept)
            plan = tuple(
                (offset_us, group) for offset_us, receivers in plan
                if (group := tuple(r for r in receivers if ids[r] in kept_ids))
            )
        self._cast(plan, now_us, bsm, uplink, LinkTech.CELL_MQTT, topic)

    def _cast(self, plan: _Plan, sent_us: int, bsm: Bsm, uplink: LinkTech,
              downlink: LinkTech, topic: Optional[Topic] = None) -> None:
        """Schedule one ``_Arrival`` of ``bsm`` per group of ``plan``, into
        the block this handler has open at its instant, or a new one."""
        blocks = self._blocks
        for offset_us, receivers in plan:
            at_us = sent_us + offset_us
            arrival = _Arrival(receivers, bsm, uplink, downlink, topic)
            block = blocks.get(at_us)
            if block is None:
                block = [arrival]
                self._schedule(at_us, self._deliver, block)
                blocks[at_us] = block
            else:
                block.append(arrival)

    def _on_gateway_rx(
        self, now_us: int, arg: tuple[Bsm, LinkTech, Optional[Topic]]
    ) -> None:
        """The gateway hears ``bsm`` on ``medium``: a road user's own radio
        broadcast, or the Cell topic only road users publish to. So the
        uplink is the downlink."""
        bsm, medium, topic = arg
        actions = self.gateway.on_rx(bsm, medium, now_us)
        if topic is None:
            kind, detail = "RadioDelivery", f"via={medium.value}"
        else:
            kind, detail = "MqttDelivery", f"topic={topic.value}"
        self._trace(
            now_us, kind, ARSU_CLIENT, bsm.id.value,
            f"{detail} actions={len(actions)}",
        )
        self._emit_actions(actions, medium, now_us)

    def _emit_actions(
        self, actions: list[RelayAction], uplink: LinkTech, now_us: int
    ) -> None:
        for action in actions:
            tech, plan = self._relays[action.kind]
            if action.kind is ActionKind.PUBLISH_MQTT:
                # The gateway publishes a BSM on the topic of the medium
                # it arrived on, so the delivery's uplink is that medium.
                self._publish(
                    None, plan, action.payload, action.topic, uplink, now_us
                )
                continue
            # A radio relay to every user on ``tech``. The gateway relays a
            # road user's BSM only onto the other media, and the camera's
            # under a synthetic id, so the subject is never on ``tech``.
            self._cast(plan, now_us, action.payload, uplink, tech)

    def _deliver(self, now_us: int, arrivals: list[_Arrival]) -> None:
        """Hand each arrival's BSM to its receivers, in schedule order: one
        delivery, and one executed event, per receiver; each arrival is
        recorded as one group."""
        metrics = self.metrics
        synthetic_truth = (
            self.gateway.synthetic_truth if self.gateway is not None else {}
        )
        groups = []
        delivered = 0
        for ev in arrivals:
            receivers = ev.receivers
            bsm = ev.bsm
            truth = bsm.id
            if truth.is_synthetic:
                truth = synthetic_truth.get(truth) or truth
            truth_index = self._index_of.get(truth.value)
            if truth_index is None:
                raise SimulationInvariantError(f"{truth} is no road user")
            generated_at_us = bsm.generated_at_us
            latency_ms = us_to_ms(now_us - generated_at_us)
            if latency_ms < 0:
                raise SimulationInvariantError("delivery precedes generation")
            subject = bsm.id.value
            seen = self._seen.receivers_of((subject, generated_at_us), now_us)
            duplicates = None
            if not seen.isdisjoint(receivers):
                duplicates = tuple(r in seen for r in receivers)
                metrics.duplicates_suppressed += sum(duplicates)
            seen.update(receivers)
            groups.append(DeliveryGroup(
                receivers, subject, truth_index, ev.uplink, ev.downlink,
                generated_at_us, now_us, latency_ms, ev.topic, duplicates,
            ))
            delivered += len(receivers)
        metrics.events_executed += delivered - 1
        metrics.record_delivery(groups, now_us)

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
        in capture order; one executed event per detection."""
        self.metrics.events_executed += len(detections) - 1
        on_detection = self.gateway.on_detection
        for detection in detections:
            outcome = on_detection(detection, now_us)
            subject = detection.truth_id.value if detection.truth_id else "?"
            detail = outcome.status.value
            if outcome.matched_id is not None:
                detail += f" matched={outcome.matched_id.value}"
            if outcome.track_id is not None:
                detail += f" track={outcome.track_id}"
            self._trace(now_us, "DetectionReady", ARSU_CLIENT, subject, detail)
            if outcome.deadline_us is not None:
                self._schedule(outcome.deadline_us, self._on_grace_deadline,
                               outcome.track_id)
            if outcome.actions:
                self._emit_actions(outcome.actions, LinkTech.CAMERA, now_us)

    def _on_grace_deadline(self, now_us: int, track_id: int) -> None:
        actions = self.gateway.on_grace_deadline(track_id, now_us)
        if actions is None:
            self._trace(now_us, "GraceDeadline", ARSU_CLIENT,
                        f"track={track_id}", "resolved earlier")
            return
        self._trace(
            now_us, "GraceDeadline", ARSU_CLIENT, f"track={track_id}",
            f"confirmed NonConnected actions={len(actions)}",
        )
        self._emit_actions(actions, LinkTech.CAMERA, now_us)

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
        self.metrics.log.append(
            [f"{us_to_ms(at_us):.3f}", kind, actor, subject, detail]
        )


def _coverage_label(value: Optional[float]) -> str:
    if value is None:
        return "coverage=no-pairs"
    return f"coverage={value:.4f}"


def run(config: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Run one scenario to completion; (config, seed) fixes the result."""
    return Simulation(config, seed=seed).run()
