"""Microbenchmarks of broker fan-out and the coverage metric.

Times one ``Broker.publish`` of a Cell message from one of 60 road users
that each subscribe to all four topics, with the gateway subscribed to
Cell (59 road-user deliveries and the gateway's), loss-free and with 5%
drops; a publish returns the recipients it kept, and the broker keeps no
clock, so these time the fan-out and drop draws only. It also times one
``Simulation._coverage`` call after a 1 s run of 40 DSRC and 40 C-V2X
cars, whose awareness then holds every pair of each technology. Run
from the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-enable --benchmark-only -q

The test suite runs each body once, with timing off.
"""

import numpy as np

from arsusim.broker import ARSU_CLIENT, Broker
from arsusim.config import parse_scenario
from arsusim.geo import LocalFrame
from arsusim.messages import (
    LinkTech,
    MqttEnvelope,
    PositionAccuracy,
    Topic,
    make_bsm,
)
from arsusim.sim import Simulation

USERS = [f"U{i}" for i in range(60)]

SCENARIO = """
duration_ms: 1000
scenario_speed_kmh: 50
seed: 7
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_dsrc, count: 40}
  - {kind: native_cv2x, count: 40}
"""


def subscribed_broker(drop_probability=0.0):
    rng = np.random.default_rng(7) if drop_probability > 0.0 else None
    broker = Broker(drop_probability, rng)
    broker.subscribe(ARSU_CLIENT, Topic.CELL)
    for user in USERS:
        for topic in Topic:
            broker.subscribe(user, topic)
    return broker


def _cell_envelope():
    bsm = make_bsm(
        USERS[0], LocalFrame(0.0, 0.0).position_at(0.0, 0.0),
        0.0, 0.0, PositionAccuracy(horizontal_sigma_m=1.0),
        LinkTech.CELL_MQTT, 0,
    )
    return MqttEnvelope(Topic.CELL, bsm, 0)


def _time_publish(benchmark, drop_probability):
    envelope = _cell_envelope()
    # A fresh broker each round, with a freshly seeded rng when it drops,
    # makes every round the same publish from the same state.
    return benchmark.pedantic(
        lambda broker: broker.publish(USERS[0], envelope),
        setup=lambda: ((subscribed_broker(drop_probability),), {}),
        rounds=2000,
        warmup_rounds=20,
    )


def test_publish_cell_fan_out(benchmark):
    deliveries = _time_publish(benchmark, 0.0)
    assert len(deliveries) == len(USERS)


def test_publish_cell_fan_out_with_drops(benchmark):
    deliveries = _time_publish(benchmark, 0.05)
    # Seed 7 drops 5 of the 60 deliveries.
    assert len(deliveries) == len(USERS) - 5


def test_coverage(benchmark):
    simulation = Simulation(parse_scenario(SCENARIO))
    result = simulation.run()
    value = benchmark(simulation._coverage, simulation.config.duration_us)
    assert value == result.final_coverage
