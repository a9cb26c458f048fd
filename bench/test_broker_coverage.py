"""Microbenchmarks of broker fan-out and the coverage metric.

Times one ``Broker.publish`` of a Cell message from one of 60 road users
that each subscribe to all four topics, with the gateway subscribed to
Cell (59 road-user deliveries and the gateway's), and one
``Simulation._coverage`` call after a 1 s run of 40 DSRC and 40 C-V2X
cars, whose awareness then holds every pair of each technology. Run
from the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only -q

``testpaths`` in ``pyproject.toml`` keeps this file out of the test suite.
"""

from arsusim.broker import ARSU_CLIENT, Broker
from arsusim.config import parse_scenario
from arsusim.geo import LocalFrame
from arsusim.messages import (
    LinkTech,
    MqttEnvelope,
    PositionAccuracy,
    RoadUserId,
    Topic,
    make_bsm,
)
from arsusim.sim import Simulation

USERS = [f"U{i}" for i in range(60)]
LEGS_US = {user: 41_659 for user in USERS}

SCENARIO = """
duration_ms: 1000
scenario_speed_kmh: 50
seed: 7
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_dsrc, count: 40}
  - {kind: native_cv2x, count: 40}
"""


def subscribed_broker():
    broker = Broker()
    broker.subscribe(ARSU_CLIENT, Topic.CELL)
    for user in USERS:
        for topic in Topic:
            broker.subscribe(user, topic)
    return broker


def test_publish_cell_fan_out(benchmark):
    bsm = make_bsm(
        RoadUserId(USERS[0]), LocalFrame(0.0, 0.0).position_at(0.0, 0.0),
        0.0, 0.0, PositionAccuracy(horizontal_sigma_m=1.0),
        LinkTech.CELL_MQTT, 0,
    )
    envelope = MqttEnvelope(Topic.CELL, bsm, 0)
    # A fresh broker each round keeps the delivery log from growing.
    deliveries = benchmark.pedantic(
        lambda broker: broker.publish(USERS[0], envelope, 0, LEGS_US),
        setup=lambda: ((subscribed_broker(),), {}),
        rounds=2000,
        warmup_rounds=20,
    )
    assert len(deliveries) == len(USERS)


def test_coverage(benchmark):
    simulation = Simulation(parse_scenario(SCENARIO))
    result = simulation.run()
    value = benchmark(simulation._coverage, simulation.config.duration_us)
    assert value == result.final_coverage
