"""Microbenchmark of one camera frame's detections in a run.

Times one ``Simulation._on_detections_ready`` in steady state, for N in
10, 100 and 1000: N pedestrians stand still on a 10 m grid (twice the
5 m matching gate) in the camera's view, each with a confirmed track,
and one DSRC, one C-V2X and one Cell user stand outside it to receive.
Every detection refreshes its track, so the frame classifies N
detections, publishes N BSMs on IPU one by one, and casts them to each
generation target as one run: one arrival, one ``_deliver`` heap entry
carrying its ``DeliveryGroup``, per plan group. The heap is never run,
so each round's three entries stay in it. Run from the root of a
checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-enable --benchmark-only -q

The test suite runs each body once, with timing off.
"""

import math

import pytest
import yaml

from arsusim.config import parse_scenario
from arsusim.sim import Simulation

SPACING_M = 10.0


def steady_frame(n):
    """A simulation whose N pedestrians all have confirmed tracks, and
    the (time, detections) of a frame that refreshes every one."""
    side = math.ceil(math.sqrt(n))
    offset_m = (side - 1) * SPACING_M / 2
    pedestrians = [
        {"kind": "non_connected", "id": f"P{i}", "speed_kmh": 0,
         "x_m": (i % side) * SPACING_M - offset_m,
         "y_m": (i // side) * SPACING_M - offset_m}
        for i in range(n)
    ]
    receivers = [
        {"kind": kind, "id": kind, "x_m": 100.0 * i, "y_m": 1_000.0}
        for i, kind in enumerate(
            ("native_dsrc", "native_cv2x", "nonnative_cell"))
    ]
    simulation = Simulation(parse_scenario(yaml.safe_dump({
        "duration_ms": 10_000, "scenario_speed_kmh": 30, "seed": 5,
        "arsu": {"coverage_radius_m": 250}, "ipu": {"noise_std_m": 0.5},
        "users": pedestrians + receivers,
    })))
    simulation._on_ipu_frame(0, None)
    ((at_us, detections),) = [
        (at_us, arg) for at_us, _, handler, arg in simulation._heap
        if handler == simulation._on_detections_ready
    ]
    assert len(detections) == n
    simulation._on_detections_ready(at_us, detections)
    deadline_us = at_us + simulation.gateway.grace_us
    for track_id in range(1, n + 1):
        simulation._on_grace_deadline(deadline_us, track_id)
    assert simulation.gateway.confirmed_tracks == n
    return simulation, deadline_us + 1, detections


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_on_detections_ready(benchmark, n):
    simulation, now_us, detections = steady_frame(n)
    publishes = simulation.broker.publish_count

    benchmark.pedantic(simulation._on_detections_ready,
                       (now_us, detections), rounds=20)
    assert simulation.gateway.confirmed_tracks == n
    assert simulation.gateway.pending_tracks == 0
    rounds = (simulation.broker.publish_count - publishes) // n
    assert rounds >= 1
    assert simulation.broker.publish_count == publishes + rounds * n
    # The last round's refreshes: one arrival per generation target.
    arrivals = sorted((entry for entry in simulation._heap
                       if entry[2] == simulation._deliver),
                      key=lambda entry: entry[1])
    assert [len(arrival.subjects) for *_, arrival in arrivals[-3:]] == [
        n, n, n]
