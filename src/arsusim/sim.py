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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .broker import ARSU_CLIENT, Broker, Delivery
from .config import ConfigError, RoadUserKind, ScenarioConfig, UserSpec
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
    """Runtime state of one road user."""

    index: int
    id: RoadUserId
    kind: RoadUserKind
    x_m: float
    y_m: float
    heading_deg: float
    speed_kmh: float
    gnss_error_std_m: float
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
    heading_rad = math.radians(user.heading_deg)
    user.x_m += meters * math.sin(heading_rad)
    user.y_m += meters * math.cos(heading_rad)
    user.updated_at_us += dt_us


@dataclass(frozen=True)
class DeliveryRecord:
    """One BSM handed to a road user, with its measured path latency."""

    receiver: str
    subject: str
    truth_subject: str
    uplink: LinkTech
    downlink: LinkTech
    generated_at_us: int
    delivered_at_us: int
    latency_ms: float
    duplicate: bool


@dataclass
class PathStats:
    count: int = 0
    sum_ms: float = 0.0
    min_ms: float = math.inf
    max_ms: float = -math.inf

    def add(self, latency_ms: float) -> None:
        self.count += 1
        self.sum_ms += latency_ms
        self.min_ms = min(self.min_ms, latency_ms)
        self.max_ms = max(self.max_ms, latency_ms)

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
        key = (record.uplink, record.downlink)
        self.path_stats.setdefault(key, PathStats()).add(record.latency_ms)
        last = self.awareness.get((record.receiver, record.truth_subject), -1)
        self.awareness[(record.receiver, record.truth_subject)] = max(
            last, record.delivered_at_us
        )


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
    trace_rows: list[list[str]]
    final_coverage: Optional[float]
    mean_coverage: Optional[float]
    ghost_pairs: list[tuple[str, str]]

    @property
    def coverage_defined(self) -> bool:
        return self.final_coverage is not None


# --- event payloads (never compared: heap keys are (time, seq)) ---

@dataclass(frozen=True)
class _BsmTx:
    user_index: int


@dataclass(frozen=True)
class _RadioDelivery:
    recipient_index: Optional[int]  # None means the gateway
    bsm: Bsm
    uplink: LinkTech
    downlink: LinkTech


@dataclass(frozen=True)
class _MqttDelivery:
    delivery: Delivery
    uplink: LinkTech


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
        self._users_by_id = {u.id.value: u for u in self.users}
        self._by_tech: dict[LinkTech, list[SimUser]] = {}
        for user in self.users:
            if user.kind.tech is not None:
                self._by_tech.setdefault(user.kind.tech, []).append(user)
        cell_users = self._by_tech.get(LinkTech.CELL_MQTT, [])
        self._cell_legs_us = {u.id.value: u.half_us for u in cell_users}
        self.metrics = Metrics()
        self.trace_rows: list[list[str]] = []
        self._receiver_seen: dict[str, set[tuple[str, int]]] = {
            u.id.value: set() for u in self.users
        }
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self._handlers = {
            _BsmTx: self._on_bsm_tx,
            _RadioDelivery: self._on_radio_delivery,
            _MqttDelivery: self._on_mqtt_delivery,
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
                u.id for u in self.users if u.kind.is_connected
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
            kind=spec.kind,
            x_m=spec.x_m,
            y_m=spec.y_m,
            heading_deg=spec.heading_deg,
            speed_kmh=speed,
            gnss_error_std_m=spec.gnss_error_std_m,
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
            if user.kind.is_connected:
                self._schedule(user.bsm_phase_us, _BsmTx(user.index))
        if self.gateway is not None:
            self._schedule(0, _IpuFrame())
        self._schedule(_METRICS_TICK_US, _MetricsTick())

        while self._heap and self._heap[0][0] < duration_us:
            at_us, _, payload = heapq.heappop(self._heap)
            self.metrics.events_executed += 1
            self._dispatch(at_us, payload)

        final = self._coverage(duration_us)
        self.metrics.coverage_samples.append((duration_us, final))
        self._trace(duration_us, "MetricsTick", "sim", "",
                    _coverage_label(final))
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
            trace_rows=self.trace_rows,
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
        tech = user.kind.tech
        self._advance(user, now_us)
        noise = self.rng.normal(0.0, user.gnss_error_std_m, 2)
        reported = self.frame.position_at(
            user.x_m + noise[0], user.y_m + noise[1]
        )
        bsm = make_bsm(
            user.id,
            reported,
            user.speed_kmh,
            user.heading_deg,
            PositionAccuracy(horizontal_sigma_m=user.gnss_error_std_m),
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
            for peer in self._by_tech[tech]:
                if peer.index == user.index:
                    continue
                # max(speeds) is always one endpoint's speed, so the
                # faster endpoint's half is the link's half.
                faster = user if user.speed_kmh >= peer.speed_kmh else peer
                self._schedule(
                    now_us + 2 * faster.half_us,
                    _RadioDelivery(peer.index, bsm, tech, tech),
                )
            if self.gateway is not None and self._in_coverage(user):
                self._schedule(
                    now_us + user.half_us,
                    _RadioDelivery(None, bsm, tech, tech),
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
        for delivery in deliveries:
            self._schedule(
                delivery.delivered_at_us, _MqttDelivery(delivery, uplink)
            )

    def _on_radio_delivery(self, now_us: int, ev: _RadioDelivery) -> None:
        if ev.recipient_index is None:
            actions = self.gateway.on_rx(ev.bsm, ev.uplink, now_us)
            self._trace(
                now_us, "RadioDelivery", ARSU_CLIENT, ev.bsm.id.value,
                f"via={ev.uplink.value} actions={len(actions)}",
            )
            self._emit_actions(actions, ev.uplink, now_us)
            return
        receiver = self.users[ev.recipient_index]
        self._record_user_delivery(
            receiver, ev.bsm, ev.uplink, ev.downlink, now_us, "RadioDelivery"
        )

    def _on_mqtt_delivery(self, now_us: int, ev: _MqttDelivery) -> None:
        delivery = ev.delivery
        payload = delivery.envelope.payload
        if delivery.recipient == ARSU_CLIENT:
            actions = self.gateway.on_rx(payload, LinkTech.CELL_MQTT, now_us)
            self._trace(
                now_us, "MqttDelivery", ARSU_CLIENT, payload.id.value,
                f"topic={delivery.envelope.topic.value} actions={len(actions)}",
            )
            self._emit_actions(actions, LinkTech.CELL_MQTT, now_us)
            return
        receiver = self._user_by_id(delivery.recipient)
        self._record_user_delivery(
            receiver, payload, ev.uplink, LinkTech.CELL_MQTT, now_us,
            "MqttDelivery", topic=delivery.envelope.topic,
        )

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
        for receiver in self._by_tech.get(tech, []):
            if receiver.id == bsm.id:
                continue
            self._schedule(
                now_us + receiver.half_us,
                _RadioDelivery(receiver.index, bsm, uplink, tech),
            )

    def _record_user_delivery(
        self,
        receiver: SimUser,
        bsm: Bsm,
        uplink: LinkTech,
        downlink: LinkTech,
        now_us: int,
        kind_name: str,
        topic: Optional[Topic] = None,
    ) -> None:
        key = (bsm.id.value, bsm.generated_at_us)
        seen = self._receiver_seen[receiver.id.value]
        duplicate = key in seen
        seen.add(key)
        if duplicate:
            self.metrics.duplicates_suppressed += 1
        truth = bsm.id
        if bsm.id.is_synthetic and self.gateway is not None:
            truth = self.gateway.synthetic_truth.get(bsm.id) or bsm.id
        latency_ms = us_to_ms(now_us - bsm.generated_at_us)
        if latency_ms < 0:
            raise SimulationInvariantError("delivery precedes generation")
        record = DeliveryRecord(
            receiver=receiver.id.value,
            subject=bsm.id.value,
            truth_subject=truth.value,
            uplink=uplink,
            downlink=downlink,
            generated_at_us=bsm.generated_at_us,
            delivered_at_us=now_us,
            latency_ms=latency_ms,
            duplicate=duplicate,
        )
        self.metrics.record_delivery(record)
        detail = (
            f"up={uplink.value} down={downlink.value}"
            f" latency_ms={latency_ms:.3f}"
        )
        if topic is not None:
            detail += f" topic={topic.value}"
        if duplicate:
            detail += " duplicate"
        self._trace(now_us, kind_name, receiver.id.value, bsm.id.value, detail)

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
                heading_deg=user.heading_deg,
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
        value = self._coverage(now_us)
        self.metrics.coverage_samples.append((now_us, value))
        self._trace(now_us, "MetricsTick", "sim", "", _coverage_label(value))
        self._schedule(now_us + _METRICS_TICK_US, _MetricsTick())

    # --- helpers ---

    def _advance(self, user: SimUser, now_us: int) -> None:
        if now_us > user.updated_at_us:
            step_mobility(user, now_us - user.updated_at_us)

    def _in_coverage(self, user: SimUser) -> bool:
        dx = user.x_m - self.config.arsu.x_m
        dy = user.y_m - self.config.arsu.y_m
        return math.hypot(dx, dy) <= self.config.arsu.coverage_radius_m

    def _user_by_id(self, client: str) -> SimUser:
        user = self._users_by_id.get(client)
        if user is None:
            raise SimulationInvariantError(f"unknown broker client {client!r}")
        return user

    def _coverage(self, now_us: int) -> Optional[float]:
        receivers = [u for u in self.users if u.kind.is_connected]
        pairs = 0
        fresh = 0
        for receiver in receivers:
            for subject in self.users:
                if subject.index == receiver.index:
                    continue
                pairs += 1
                last = self.metrics.awareness.get(
                    (receiver.id.value, subject.id.value)
                )
                if last is not None and now_us - last < self.freshness_us:
                    fresh += 1
        if pairs == 0:
            return None
        return fresh / pairs

    def _trace(
        self, at_us: int, kind: str, actor: str, subject: str, detail: str
    ) -> None:
        self.trace_rows.append(
            [f"{us_to_ms(at_us):.3f}", kind, actor, subject, detail]
        )


def _coverage_label(value: Optional[float]) -> str:
    if value is None:
        return "coverage=no-pairs"
    return f"coverage={value:.4f}"


def run(config: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Run one scenario to completion; (config, seed) fixes the result."""
    return Simulation(config, seed=seed).run()
