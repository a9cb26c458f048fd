"""Microbenchmark of delivery: a radio-only run, a read of its trace, a
run of the four-kind mix, and a camera-crowd run.

Times one 0.5 s run of 20 DSRC and 20 C-V2X cars in gateway coverage
(direct broadcasts and the gateway's cross-technology relays: delivery
dominates), one full iteration of that run's ``trace_rows``, which
formats every delivery row, and one 1 s run of 100 users, 25 of each
kind, placed by ``count:`` at 30 km/h in 400 m of gateway coverage (the
scenario of the users x seconds ladder), in each link-speed mode. In
``max_endpoint`` mode about half of each connected kind runs at 50 km/h,
so a radio send or relay reaches its receivers at two times, one per
link half; in ``scenario`` mode they all run at 30 km/h, and every send
reaches its receivers at one time. The camera-crowd run is 1 s of 150 pedestrians on a 10 m grid around the gateway, with 3 DSRC,
3 C-V2X and 2 Cell users out of their way: from 200 ms on, every camera
frame refreshes most pedestrians' tracks, and the frame's generated BSMs
reach each plan group as one arrival, recorded once. Run from the root
of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-enable --benchmark-only -q

The test suite runs each body once, with timing off.
"""

import pytest
import yaml

from arsusim.config import parse_scenario
from arsusim.sim import run

SCENARIO = """
duration_ms: 500
scenario_speed_kmh: 50
seed: 7
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_dsrc, count: 20}
  - {kind: native_cv2x, count: 20}
ipu: {noise_std_m: 1.0}
"""


MIX_100 = """
duration_ms: 1000
scenario_speed_kmh: 30
link_speed_mode: {mode}
seed: 7
arsu: {{coverage_radius_m: 400}}
users:
  - {{kind: native_dsrc, count: 13}}
  - {{kind: native_dsrc, count: 12, speed_kmh: {fast_kmh}}}
  - {{kind: native_cv2x, count: 13}}
  - {{kind: native_cv2x, count: 12, speed_kmh: {fast_kmh}}}
  - {{kind: nonnative_cell, count: 13}}
  - {{kind: nonnative_cell, count: 12, speed_kmh: {fast_kmh}}}
  - {{kind: non_connected, count: 25}}
"""


@pytest.fixture(scope="module")
def config():
    return parse_scenario(SCENARIO)


def test_run(benchmark, config):
    result = benchmark(run, config)
    assert result.metrics.delivered > 5_000


def test_iterate_trace(benchmark, config):
    rows = run(config).trace_rows
    count = benchmark(lambda: sum(1 for _ in rows))
    assert count == len(rows)


@pytest.mark.parametrize(
    "mode, fast_kmh", [("scenario", 30), ("max_endpoint", 50)],
    ids=["scenario", "max_endpoint"],
)
def test_run_mix_100_users(benchmark, mode, fast_kmh):
    cfg = parse_scenario(MIX_100.format(mode=mode, fast_kmh=fast_kmh))
    result = benchmark.pedantic(run, (cfg,), rounds=5, warmup_rounds=1)
    assert result.metrics.delivered > 10_000


def _camera_crowd():
    pedestrians = [
        {"kind": "non_connected", "id": f"P{i}",
         "x_m": 10.0 * (i % 15) - 70.0, "y_m": 10.0 * (i // 15) - 45.0,
         "heading_deg": 24 * i % 360, "speed_kmh": 3 + i % 4}
        for i in range(150)
    ]
    connected = [
        {"kind": kind, "id": f"{kind}-{i}", "x_m": 30.0 * i - 100.0,
         "y_m": 120.0, "heading_deg": 90, "speed_kmh": 40}
        for kind, n in (("native_dsrc", 3), ("native_cv2x", 3),
                        ("nonnative_cell", 2))
        for i in range(n)
    ]
    return parse_scenario(yaml.safe_dump({
        "duration_ms": 1000, "scenario_speed_kmh": 40, "seed": 101,
        "arsu": {"coverage_radius_m": 300},
        "users": pedestrians + connected,
    }))


def test_run_camera_crowd(benchmark):
    result = benchmark.pedantic(run, (_camera_crowd(),), rounds=5,
                                warmup_rounds=1)
    metrics = result.metrics
    assert metrics.delivered == 7_758
    assert len(metrics.log) < metrics.delivered
    # One arrival of one BSM reaches at most 3 users here (one plan
    # group); merged arrivals hold 11 deliveries a record on average.
    assert metrics.delivered > 3 * metrics.records
