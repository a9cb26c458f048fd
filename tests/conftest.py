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
    RoadUserId,
    Topic,
    make_bsm,
)
from arsusim.sim import (
    NEVER_HEARD,
    DeliveryGroup,
    Metrics,
    RunResult,
    Simulation,
)

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
        RoadUserId(user),
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


def collect_deliveries(simulation: Simulation) -> list[Delivery]:
    """Wrap ``simulation.metrics.record_delivery``; returns the list to
    which each call that returns appends its deliveries: each
    ``DeliveryGroup`` or ``DeliveryBatch`` passed in, one ``Delivery``
    per (subject, receiver), subject by subject, in order."""
    deliveries = []
    metrics = simulation.metrics
    record_delivery = metrics.record_delivery
    ids = metrics.ids

    def collecting(records, arrays, delivered_at_us):
        record_delivery(records, arrays, delivered_at_us)
        for record in records:
            if type(record) is DeliveryGroup:
                subjects = ((record.subject, record.truth_index,
                             record.duplicates),)
            else:
                subjects = zip(record.subjects, record.truth_indices,
                               record.duplicates
                               or (None,) * len(record.subjects))
            for subject, truth_index, flags in subjects:
                flags = flags or (False,) * len(record.receivers)
                for receiver, duplicate in zip(record.receivers, flags):
                    deliveries.append(Delivery(
                        ids[receiver], subject, ids[truth_index],
                        record.uplink, record.downlink,
                        record.generated_at_us, record.delivered_at_us,
                        record.latency_ms, duplicate, record.topic))

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
        (ids[r], ids[s]): int(last_heard[r, s])
        for r, s in zip(*np.nonzero(last_heard != NEVER_HEARD))
    }


@pytest.fixture
def frame() -> LocalFrame:
    return FRAME
