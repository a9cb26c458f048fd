"""Microbenchmark of the gateway's detection filter.

Times one ``Gateway.on_detection`` call with N BSMs in the history and N
confirmed non-connected tracks, in two layouts:

* a square, for N in 10, 100 and 1000: tracks sit on a 10 m grid (twice
  the 5 m matching gate) and BSMs halfway between them, so the timed
  detection matches no BSM and refreshes the track at the grid's
  centre: it pays for both lookups;
* an east-west line, for N in 100 and 1000: tracks 10 m apart on
  ``y_m = 0`` and BSMs halfway between them, the layout ``count:``
  gives. The gate is 4 m, so the BSMs 5 m away lie outside it and the
  timed detection refreshes the track in the middle of the line.

``test_on_rx`` times one ``Gateway.on_rx`` of a fresh BSM with N BSMs in
the history and N pending tracks on the square, for N in 100 and 1000.
BSMs arrive one window / N apart, so each timed arrival prunes the
oldest, appends itself and checks the pending tracks near it, each
7.1 m away, outside the gate. Each carries its own id, so none is
suppressed as a duplicate.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-enable --benchmark-only -q

The test suite runs each body once, with timing off.
"""

import itertools
import math

import pytest

from arsusim.gateway import FilterConfig, FilterStatus, Gateway
from arsusim.geo import LocalFrame
from arsusim.messages import (
    Detection,
    LinkTech,
    PositionAccuracy,
    RoadUserId,
    Topic,
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


def line(n):
    """(x, y) of n points 10 m apart on y_m = 0, west to east."""
    return [(i * SPACING_M, 0.0) for i in range(n)]


def loaded_gateway(points, bsm_offset, sigma_m=5.0):
    """A gateway holding a confirmed track at each point and a BSM at
    each point plus ``bsm_offset``, at 400 ms."""
    gw = Gateway(FilterConfig(sigma_m=sigma_m))
    for x, y in points:
        outcome = gw.on_detection(detection(x, y, 0), PROCESSING_US)
        gw.on_grace_deadline(outcome.track_id)
    dx, dy = bsm_offset
    for i, (x, y) in enumerate(points):
        bsm = make_bsm(
            RoadUserId(f"U{i}"), FRAME.position_at(x + dx, y + dy),
            0.0, 0.0, PositionAccuracy(1.0), LinkTech.DSRC, 400_000,
        )
        gw.on_rx(bsm, LinkTech.DSRC, 400_000)
    n = len(points)
    assert len(gw.history) == n and gw.confirmed_tracks == n
    return gw


def time_refresh(benchmark, gw, points):
    n = len(points)
    x, y = points[n // 2]
    det = detection(x, y, 100_000)
    outcome = benchmark(gw.on_detection, det, 400_000)
    assert outcome.status is FilterStatus.NON_CONNECTED
    assert outcome.track_id == n // 2 + 1
    assert gw.confirmed_tracks == n and gw.pending_tracks == 0


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_on_detection(benchmark, n):
    half = SPACING_M / 2
    time_refresh(benchmark, loaded_gateway(grid(n), (half, half)), grid(n))


@pytest.mark.parametrize("n", [100, 1000])
def test_on_detection_line(benchmark, n):
    gw = loaded_gateway(line(n), (SPACING_M / 2, 0.0), sigma_m=4.0)
    time_refresh(benchmark, gw, line(n))


@pytest.mark.parametrize("n", [100, 1000])
def test_on_rx(benchmark, n):
    config = FilterConfig()
    gw = Gateway(config)
    step_us = config.window_us // n
    half = SPACING_M / 2
    points = grid(n)
    for x, y in points:
        gw.on_detection(detection(x, y, 0), PROCESSING_US)

    def arrival(i, x_m, y_m):
        """The i-th BSM to arrive, at (x_m, y_m), as on_rx arguments."""
        at = PROCESSING_US + i * step_us
        bsm = make_bsm(
            RoadUserId(f"U{i}"), FRAME.position_at(x_m, y_m),
            0.0, 0.0, PositionAccuracy(1.0), LinkTech.DSRC, at,
        )
        return (bsm, LinkTech.DSRC, at), {}

    for i, (x, y) in enumerate(points):
        args, _ = arrival(i, x + half, y + half)
        gw.on_rx(*args)
    assert len(gw.history) == n and gw.pending_tracks == n
    x, y = points[n // 2]
    arrivals = itertools.count(n)
    targets = benchmark.pedantic(
        gw.on_rx, rounds=1000,
        setup=lambda: arrival(next(arrivals), x + half, y + half),
    )
    assert targets == ((LinkTech.CV2X, None), (LinkTech.CELL_MQTT, Topic.DSRC))
    assert len(gw.history) == n + 1 and gw.pending_tracks == n
