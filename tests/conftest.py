from __future__ import annotations

import pytest

from arsusim.geo import LocalFrame
from arsusim.messages import (
    Bsm,
    LinkTech,
    MqttEnvelope,
    Position,
    PositionAccuracy,
    RoadUserId,
    make_bsm,
)
from arsusim.sim import Simulation

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


@pytest.fixture
def frame() -> LocalFrame:
    return FRAME
