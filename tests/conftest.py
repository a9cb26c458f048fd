from __future__ import annotations

import pytest

from arsusim.broker import DeliveryLog
from arsusim.geo import LocalFrame
from arsusim.messages import (
    Bsm,
    LinkTech,
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


def collecting(simulation: Simulation) -> Simulation:
    """``simulation`` with collectors attached to both of its logs, which
    hold nothing by default: a ``DeliveryLog`` for the broker's publishes
    and a list for the gateway's decisions."""
    simulation.broker.delivery_log = DeliveryLog()
    if simulation.gateway is not None:
        simulation.gateway.trace = []
    return simulation


@pytest.fixture
def frame() -> LocalFrame:
    return FRAME
