from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
import pytest

from arsusim.config import ScenarioConfig
from arsusim.geo import LocalFrame
from arsusim.messages import (
    Bsm,
    LinkTech,
    MqttEnvelope,
    Position,
    PositionAccuracy,
    Topic,
    make_bsm,
    us_to_ms,
)
from arsusim.sim import (
    NEVER_HEARD,
    DeliveryGroup,
    Metrics,
    RunResult,
    Simulation,
)
from arsusim.trace import _receivers_of

FRAME = LocalFrame(0.0, 0.0)


def bsm_at(
    user: str,
    x_m: float = 0.0,
    y_m: float = 0.0,
    tech: LinkTech = LinkTech.DSRC,
    now_us: int = 0,
    speed_kmh: float = 0.0,
    heading_deg: float = 0.0,
    sigma_m: float = 1.0,
) -> Bsm:
    """A valid BSM at a local-frame position, for filter/relay tests."""
    return make_bsm(
        user,
        FRAME.position_at(x_m, y_m),
        speed_kmh,
        heading_deg,
        PositionAccuracy(horizontal_sigma_m=sigma_m),
        tech,
        now_us,
    )


def position_at(x_m: float, y_m: float) -> Position:
    return FRAME.position_at(x_m, y_m)


def record_publishes(
    simulation: Simulation,
) -> list[tuple[str, MqttEnvelope, tuple[str, ...]]]:
    """Wrap ``simulation.broker.publish``; returns the list to which each
    call that returns appends ``(publisher, envelope, recipients)``. A
    call that raises appends nothing."""
    published = []
    publish = simulation.broker.publish

    def recording(publisher, envelope):
        recipients = publish(publisher, envelope)
        published.append((publisher, envelope, recipients))
        return recipients

    simulation.broker.publish = recording
    return published


def record_on_rx(
    simulation: Simulation,
) -> list[tuple[Bsm, LinkTech, int, tuple]]:
    """Wrap ``simulation.gateway.on_rx``; returns the list to which each
    call that returns appends ``(bsm, via, now_us, targets)``."""
    heard = []
    on_rx = simulation.gateway.on_rx

    def hearing(bsm, via, now_us):
        targets = on_rx(bsm, via, now_us)
        heard.append((bsm, via, now_us, targets))
        return targets

    simulation.gateway.on_rx = hearing
    return heard


class Delivery(NamedTuple):
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


def collect_records(simulation: Simulation) -> list[DeliveryGroup]:
    """Wrap ``simulation.metrics.record_delivery``; returns the list to
    which each call that returns appends the ``DeliveryGroup`` passed
    in: one record per arrival, in delivery order."""
    records = []
    metrics = simulation.metrics
    record_delivery = metrics.record_delivery

    def recording(record):
        record_delivery(record)
        records.append(record)

    metrics.record_delivery = recording
    return records


def collect_deliveries(simulation: Simulation) -> list[Delivery]:
    """Wrap ``simulation.metrics.record_delivery``; returns the list to
    which each call that returns appends its deliveries: the
    ``DeliveryGroup`` passed in, one ``Delivery`` per (subject,
    receiver), subject by subject, in order."""
    deliveries = []
    metrics = simulation.metrics
    record_delivery = metrics.record_delivery
    ids = metrics.ids

    def collecting(record):
        record_delivery(record)
        flags_at = dict(record.duplicates or ())
        for i, (subject, truth_index) in enumerate(zip(
                record.subjects, record.truth_indices)):
            flags = flags_at.get(i, 0)
            for receiver in _receivers_of(record.receivers.mask):
                deliveries.append(Delivery(
                    ids[receiver], subject, ids[truth_index],
                    record.uplink, record.downlink,
                    record.generated_at_us, record.delivered_at_us,
                    us_to_ms(record.delivered_at_us - record.generated_at_us),
                    bool(flags >> receiver & 1), record.topic))

    metrics.record_delivery = collecting
    return deliveries


def run_collecting(
    config: ScenarioConfig, seed: Optional[int] = None
) -> tuple[RunResult, list[Delivery]]:
    """Run ``config`` to completion; the result and every delivery, in
    delivery order."""
    simulation = Simulation(config, seed=seed)
    deliveries = collect_deliveries(simulation)
    return simulation.run(), deliveries


def awareness(metrics: Metrics) -> dict[tuple[str, str], int]:
    """(receiver id, subject id) -> when the receiver last heard the
    subject, in µs, for every pair heard."""
    ids = metrics.ids
    last_heard = metrics.last_heard
    return {
        (ids[metrics.receivers[row]], ids[s]): int(last_heard[row, s])
        for row, s in zip(*np.nonzero(last_heard != NEVER_HEARD))
    }


@pytest.fixture
def frame() -> LocalFrame:
    return FRAME
