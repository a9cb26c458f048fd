"""Microbenchmark of delivery: a radio-only run and a read of its trace.

Times one 0.5 s run of 20 DSRC and 20 C-V2X cars in gateway coverage
(direct broadcasts and the gateway's cross-technology relays: delivery
dominates), and one full iteration of that run's ``trace_rows``, which
formats every delivery row. Run from the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only -q

``testpaths`` in ``pyproject.toml`` keeps this file out of the test suite.
"""

import pytest

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


@pytest.fixture(scope="module")
def config():
    return parse_scenario(SCENARIO)


def test_run(benchmark, config):
    result = benchmark(run, config)
    assert len(result.metrics.deliveries) > 5_000


def test_iterate_trace(benchmark, config):
    rows = run(config).trace_rows
    count = benchmark(lambda: sum(1 for _ in rows))
    assert count == len(rows)
