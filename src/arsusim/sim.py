"""Deterministic discrete-event simulation.

Road users move at constant velocity in a local planar frame, emit BSMs
on their own technology, and hear each other directly (same technology),
through the gateway's relays (cross technology), or through the broker
(cellular). The camera samples everything inside the coverage radius and
feeds the gateway's detection filter.

Every delay is injected from the latency model, never emergent, so a
run's measured path latencies are exactly the model's composed values.
Event order is strictly (time, insertion sequence); one seeded generator
drives all noise. Identical (config, seed) runs are bit-identical.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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


@dataclass
class PathStats:
    count: int = 0
    sum_ms: float = 0.0
    min_ms: float = math.inf
    max_ms: float = -math.inf

    def add(self, latency_ms: float) -> None:
        self.count += 1
        self.sum_ms += latency_ms
        if latency_ms < self.min_ms:
            self.min_ms = latency_ms
        if latency_ms > self.max_ms:
            self.max_ms = latency_ms

    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.count if self.count else math.nan


@dataclass
class Metrics:
    deliveries: list[DeliveryRecord] = field(default_factory=list)
    path_stats: dict[tuple[LinkTech, LinkTech], PathStats] = field(
        default_factory=dict
    )
    awareness: dict[tuple[str, str], int] = field(default_factory=dict)
    coverage_samples: list[tuple[int, Optional[float]]] = field(
        default_factory=list
    )
    duplicates_suppressed: int = 0
    detections: int = 0
    bsm_tx: int = 0
    events_executed: int = 0

    def record_delivery(self, record: DeliveryRecord) -> None:
        self.deliveries.append(record)
        path = (record.uplink, record.downlink)
        stats = self.path_stats.get(path)
        if stats is None:
            stats = self.path_stats[path] = PathStats()
        stats.add(record.latency_ms)
        pair = (record.receiver, record.truth_subject)
        if record.delivered_at_us > self.awareness.get(pair, -1):
            self.awareness[pair] = record.delivered_at_us


class TraceRows(Sequence):
    """The run's trace, one ``[at_ms, kind, actor, subject, detail]`` row
    per event, read-only.

    A user delivery is held as its ``DeliveryRecord`` and formatted only
    when its row is read; every other event is held formatted.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: list):
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_trace_row(e) for e in self._entries[index]]
        return _trace_row(self._entries[index])

    def __iter__(self):
        return map(_trace_row, self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (TraceRows, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )


def _trace_row(entry) -> list[str]:
    if type(entry) is not DeliveryRecord:
        return entry
    detail = (
        f"up={entry.uplink.value} down={entry.downlink.value}"
        f" latency_ms={entry.latency_ms:.3f}"
    )
    kind = "RadioDelivery"
    if entry.topic is not None:
        kind = "MqttDelivery"
        detail += f" topic={entry.topic.value}"
    if entry.duplicate:
        detail += " duplicate"
    return [f"{us_to_ms(entry.delivered_at_us):.3f}", kind, entry.receiver,
            entry.subject, detail]


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


# --- event payloads (never compared: heap keys are (time, seq)) ---
#
# A send to many road users schedules one delivery event per distinct
# arrival time, carrying its receivers in send order. That runs them in
# the order one event per receiver would: a send schedules all of its
# receivers at once, so no other event's seq falls between two that share
# a time, and whatever a receiver's handler schedules comes after them.

@dataclass(frozen=True)
class _BsmTx:
    user_index: int


@dataclass(frozen=True)
class _Arrival:
    receivers: Optional[list[str]]  # road user ids; None means the gateway
    bsm: Bsm
    uplink: LinkTech
    downlink: LinkTech
    topic: Optional[Topic] = None  # the broker topic; None over the air


@dataclass(frozen=True)
class _IpuFrame:
    pass


@dataclass(frozen=True)
class _DetectionReady:
    detection: Detection


@dataclass(frozen=True)
class _GraceDeadline:
    track_id: int


@dataclass(frozen=True)
class _MetricsTick:
    pass


class Simulation:
    def __init__(self, config: ScenarioConfig, seed: Optional[int] = None):
        self.config = config
        self.seed = config.seed if seed is None else seed
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
        self._by_tech: dict[LinkTech, list[SimUser]] = {}
        for user in self.users:
            tech = user.spec.kind.tech
            if tech is not None:
                self._by_tech.setdefault(tech, []).append(user)
        cell_users = self._by_tech.get(LinkTech.CELL_MQTT, [])
        self._cell_legs_us = {u.id.value: u.half_us for u in cell_users}
        self.metrics = Metrics()
        #: Trace entries: a formatted row, or a user's ``DeliveryRecord``.
        self._trace_log: list = []
        self._receiver_seen: dict[str, set[tuple[str, int]]] = {
            u.id.value: set() for u in self.users
        }
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self._handlers = {
            _BsmTx: self._on_bsm_tx,
            _Arrival: self._on_arrival,
            _IpuFrame: self._on_ipu_frame,
            _DetectionReady: self._on_detection_ready,
            _GraceDeadline: self._on_grace_deadline,
            _MetricsTick: self._on_metrics_tick,
        }

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

    def _schedule(self, at_us: int, payload) -> None:
        if at_us < 0:
            raise SimulationInvariantError("event scheduled before time zero")
        heapq.heappush(self._heap, (at_us, self._seq, payload))
        self._seq += 1

    def run(self) -> RunResult:
        duration_us = self.config.duration_us
        for user in self.users:
            if user.spec.kind.is_connected:
                self._schedule(user.bsm_phase_us, _BsmTx(user.index))
        if self.gateway is not None:
            self._schedule(0, _IpuFrame())
        self._schedule(_METRICS_TICK_US, _MetricsTick())

        while self._heap and self._heap[0][0] < duration_us:
            at_us, _, payload = heapq.heappop(self._heap)
            self.metrics.events_executed += 1
            self._dispatch(at_us, payload)

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
            trace_rows=TraceRows(self._trace_log),
            final_coverage=final,
            mean_coverage=mean_cov,
            ghost_pairs=[
                (syn.value, truth.value)
                for syn, truth in (gateway.ghost_events() if gateway else [])
            ],
        )

    def _dispatch(self, now_us: int, payload) -> None:
        handler = self._handlers.get(type(payload))
        if handler is None:
            raise SimulationInvariantError(f"unknown event {payload!r}")
        handler(now_us, payload)

    # --- event handlers ---

    def _on_bsm_tx(self, now_us: int, ev: _BsmTx) -> None:
        user = self.users[ev.user_index]
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

        if tech is LinkTech.CELL_MQTT:
            self._publish(user.id.value, bsm, Topic.CELL, tech, now_us)
        else:
            arrivals = []
            for peer in self._by_tech[tech]:
                if peer.index == user.index:
                    continue
                # max(speeds) is always one endpoint's speed, so the
                # faster endpoint's half is the link's half.
                faster = user if user.speed_kmh >= peer.speed_kmh else peer
                arrivals.append((now_us + 2 * faster.half_us, peer.id.value))
            self._group_cast(arrivals, bsm, tech, tech)
            if self.gateway is not None and self._in_coverage(user):
                self._schedule(
                    now_us + user.half_us, _Arrival(None, bsm, tech, tech)
                )
        self._schedule(now_us + user.bsm_interval_us, _BsmTx(user.index))

    def _publish(
        self,
        publisher: str,
        bsm: Bsm,
        topic: Topic,
        uplink: LinkTech,
        now_us: int,
    ) -> None:
        envelope = MqttEnvelope(topic=topic, payload=bsm, published_at_us=now_us)
        deliveries = self.broker.publish(
            publisher, envelope, now_us, self._cell_legs_us
        )
        # The gateway subscribes before any road user, so scheduling its
        # delivery first keeps the fan-out order.
        arrivals = []
        for delivery in deliveries:
            if delivery.recipient == ARSU_CLIENT:
                self._schedule(
                    delivery.delivered_at_us,
                    _Arrival(None, bsm, uplink, LinkTech.CELL_MQTT, topic),
                )
            else:
                arrivals.append(
                    (delivery.delivered_at_us, delivery.recipient)
                )
        self._group_cast(arrivals, bsm, uplink, LinkTech.CELL_MQTT, topic)

    def _group_cast(
        self,
        arrivals,
        bsm: Bsm,
        uplink: LinkTech,
        downlink: LinkTech,
        topic: Optional[Topic] = None,
    ) -> None:
        """Schedule one ``_Arrival`` of ``bsm`` per distinct time of the
        (at_us, receiver id) ``arrivals``, receivers in the order given."""
        groups: dict[int, list[str]] = {}
        for at_us, receiver in arrivals:
            groups.setdefault(at_us, []).append(receiver)
        for at_us, receivers in groups.items():
            self._schedule(
                at_us, _Arrival(receivers, bsm, uplink, downlink, topic)
            )

    def _on_arrival(self, now_us: int, ev: _Arrival) -> None:
        if ev.receivers is not None:
            self._deliver(ev, now_us)
            return
        # The gateway hears a road user's own medium: a radio broadcast, or
        # the Cell topic only road users publish to. So uplink == downlink.
        actions = self.gateway.on_rx(ev.bsm, ev.downlink, now_us)
        if ev.topic is None:
            kind, detail = "RadioDelivery", f"via={ev.downlink.value}"
        else:
            kind, detail = "MqttDelivery", f"topic={ev.topic.value}"
        self._trace(
            now_us, kind, ARSU_CLIENT, ev.bsm.id.value,
            f"{detail} actions={len(actions)}",
        )
        self._emit_actions(actions, ev.downlink, now_us)

    def _emit_actions(
        self, actions: list[RelayAction], uplink: LinkTech, now_us: int
    ) -> None:
        for action in actions:
            if action.kind is ActionKind.TX_DSRC:
                self._transmit(LinkTech.DSRC, action.payload, uplink, now_us)
            elif action.kind is ActionKind.TX_CV2X:
                self._transmit(LinkTech.CV2X, action.payload, uplink, now_us)
            else:
                # The gateway publishes a BSM on the topic of the medium
                # it arrived on, so the delivery's uplink is that medium.
                self._publish(
                    ARSU_CLIENT, action.payload, action.topic, uplink, now_us
                )

    def _transmit(
        self, tech: LinkTech, bsm: Bsm, uplink: LinkTech, now_us: int
    ) -> None:
        """The gateway's radio relay of ``bsm`` to every user on ``tech``."""
        subject = bsm.id.value
        self._group_cast(
            (
                (now_us + receiver.half_us, receiver.id.value)
                for receiver in self._by_tech.get(tech, [])
                if receiver.id.value != subject
            ),
            bsm, uplink, tech,
        )

    def _deliver(self, ev: _Arrival, now_us: int) -> None:
        """Hand ``ev.bsm`` to each road user in ``ev.receivers``: one
        delivery, and one executed event, each."""
        receivers = ev.receivers
        bsm = ev.bsm
        metrics = self.metrics
        metrics.events_executed += len(receivers) - 1
        subject = bsm.id.value
        key = (subject, bsm.generated_at_us)
        truth = bsm.id
        if bsm.id.is_synthetic and self.gateway is not None:
            truth = self.gateway.synthetic_truth.get(bsm.id) or bsm.id
        latency_ms = us_to_ms(now_us - bsm.generated_at_us)
        if latency_ms < 0:
            raise SimulationInvariantError("delivery precedes generation")
        for receiver in receivers:
            seen = self._receiver_seen[receiver]
            duplicate = key in seen
            seen.add(key)
            if duplicate:
                metrics.duplicates_suppressed += 1
            record = DeliveryRecord(
                receiver, subject, truth.value, ev.uplink, ev.downlink,
                bsm.generated_at_us, now_us, latency_ms, duplicate, ev.topic,
            )
            metrics.record_delivery(record)
            self._trace_log.append(record)

    def _on_ipu_frame(self, now_us: int, ev: _IpuFrame) -> None:
        detected = 0
        for user in self.users:
            self._advance(user, now_us)
            if not self._in_coverage(user):
                continue
            noise = self.rng.normal(0.0, self.config.ipu.noise_std_m, 2)
            detection = Detection(
                estimate=self.frame.position_at(
                    user.x_m + noise[0], user.y_m + noise[1]
                ),
                speed_kmh=user.speed_kmh,
                heading_deg=user.spec.heading_deg,
                captured_at_us=now_us,
                available_at_us=now_us + self.ipu_processing_us,
                truth_id=user.id,
            )
            self._schedule(
                detection.available_at_us, _DetectionReady(detection)
            )
            detected += 1
        self.metrics.detections += detected
        self._trace(now_us, "IpuFrame", ARSU_CLIENT, "",
                    f"detections={detected}")
        self._schedule(now_us + self.frame_period_us, _IpuFrame())

    def _on_detection_ready(self, now_us: int, ev: _DetectionReady) -> None:
        outcome = self.gateway.on_detection(ev.detection, now_us)
        subject = (
            ev.detection.truth_id.value if ev.detection.truth_id else "?"
        )
        detail = outcome.status.value
        if outcome.matched_id is not None:
            detail += f" matched={outcome.matched_id.value}"
        if outcome.track_id is not None:
            detail += f" track={outcome.track_id}"
        self._trace(now_us, "DetectionReady", ARSU_CLIENT, subject, detail)
        if outcome.deadline_us is not None:
            self._schedule(
                outcome.deadline_us, _GraceDeadline(outcome.track_id)
            )
        if outcome.actions:
            self._emit_actions(outcome.actions, LinkTech.CAMERA, now_us)

    def _on_grace_deadline(self, now_us: int, ev: _GraceDeadline) -> None:
        actions = self.gateway.on_grace_deadline(ev.track_id, now_us)
        if actions is None:
            self._trace(now_us, "GraceDeadline", ARSU_CLIENT,
                        f"track={ev.track_id}", "resolved earlier")
            return
        self._trace(
            now_us, "GraceDeadline", ARSU_CLIENT, f"track={ev.track_id}",
            f"confirmed NonConnected actions={len(actions)}",
        )
        self._emit_actions(actions, LinkTech.CAMERA, now_us)

    def _on_metrics_tick(self, now_us: int, ev: _MetricsTick) -> None:
        self._sample_coverage(now_us)
        self._schedule(now_us + _METRICS_TICK_US, _MetricsTick())

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

        Only connected users receive and every truth subject is a user,
        so the awareness entries are exactly those pairs plus the
        diagonal a ghost adds: (U, U) when U hears its own ghost.
        """
        connected = sum(1 for u in self.users if u.spec.kind.is_connected)
        pairs = connected * (len(self.users) - 1)
        if pairs == 0:
            return None
        oldest_us = now_us - self.freshness_us
        fresh = sum(
            1 for (receiver, subject), last in self.metrics.awareness.items()
            if last > oldest_us and receiver != subject
        )
        return fresh / pairs

    def _trace(
        self, at_us: int, kind: str, actor: str, subject: str, detail: str
    ) -> None:
        self._trace_log.append(
            [f"{us_to_ms(at_us):.3f}", kind, actor, subject, detail]
        )


def _coverage_label(value: Optional[float]) -> str:
    if value is None:
        return "coverage=no-pairs"
    return f"coverage={value:.4f}"


def run(config: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Run one scenario to completion; (config, seed) fixes the result."""
    return Simulation(config, seed=seed).run()
