"""Microbenchmark of the gateway's detection filter.

Times one ``Gateway.on_detection`` call with N BSMs in the history and N
confirmed non-connected tracks, for N in 10, 100 and 1000. Tracks sit on
a 10 m grid (twice the 5 m matching gate) and BSMs halfway between them,
so the timed detection matches no BSM and refreshes the track at the
grid's centre: it pays for both lookups. Run from the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only -q

``testpaths`` in ``pyproject.toml`` keeps this file out of the test suite.
"""

import math

import pytest

from arsusim.gateway import FilterStatus, Gateway
from arsusim.geo import LocalFrame
from arsusim.messages import (
    Detection,
    LinkTech,
    PositionAccuracy,
    RoadUserId,
    make_bsm,
)

FRAME = LocalFrame(0.0, 0.0)
SPACING_M = 10.0
PROCESSING_US = 300_000


def grid(n):
    """(x, y) of n points on a square grid, row by row."""
    side = math.ceil(math.sqrt(n))
    return [
        ((i % side) * SPACING_M, (i // side) * SPACING_M) for i in range(n)
    ]


def detection(x_m, y_m, captured_us):
    return Detection(
        FRAME.position_at(x_m, y_m), 0.0, 0.0,
        captured_at_us=captured_us,
        available_at_us=captured_us + PROCESSING_US,
    )


def loaded_gateway(n):
    """A gateway holding n confirmed tracks and n BSMs, at 400 ms."""
    gw = Gateway()
    for x, y in grid(n):
        outcome = gw.on_detection(detection(x, y, 0), PROCESSING_US)
        gw.on_grace_deadline(outcome.track_id, 400_000)
    for i, (x, y) in enumerate(grid(n)):
        half = SPACING_M / 2
        bsm = make_bsm(
            RoadUserId(f"U{i}"), FRAME.position_at(x + half, y + half),
            0.0, 0.0, PositionAccuracy(1.0), LinkTech.DSRC, 400_000,
        )
        gw.on_rx(bsm, LinkTech.DSRC, 400_000)
    assert len(gw.history) == n and gw.confirmed_tracks == n
    return gw


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_on_detection(benchmark, n):
    gw = loaded_gateway(n)
    x, y = grid(n)[n // 2]
    det = detection(x, y, 100_000)
    outcome = benchmark(gw.on_detection, det, 400_000)
    assert outcome.status is FilterStatus.NON_CONNECTED
    assert gw.confirmed_tracks == n and gw.pending_tracks == 0
