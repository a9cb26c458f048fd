"""Microbenchmark of reading a run's trace.

A run keeps its trace as a compact tape and formats each row only as
it is read, so writing ``trace.csv`` pays the formatting. This times
one ``list(result.trace_rows)`` of a 2 s run the size of the
``cell-fanout`` benchmark workload: 60 Cell users, 4 DSRC and 4 C-V2X
cars and 4 pedestrians, placed by ``count:``, with 5% broker drops, so
most Cell fan-outs reach a group cut to the receivers the broker kept,
which the reader rebuilds from its bitmask. Run from the root of a
checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-enable --benchmark-only -q

The test suite runs each body once, with timing off.
"""

import pytest

from arsusim.config import parse_scenario
from arsusim.sim import run

CELL_FANOUT = """
duration_ms: 2000
scenario_speed_kmh: 30
seed: 101
arsu: {coverage_radius_m: 400}
mqtt: {drop_probability: 0.05}
users:
  - {kind: nonnative_cell, count: 60}
  - {kind: native_dsrc, count: 4}
  - {kind: native_cv2x, count: 4}
  - {kind: non_connected, count: 4}
"""


@pytest.fixture(scope="module")
def result():
    return run(parse_scenario(CELL_FANOUT))


def test_list_trace_rows(benchmark, result):
    rows = benchmark(list, result.trace_rows)
    assert len(rows) == len(result.trace_rows) > 50_000
    assert sum(row[1] == "MqttDelivery" for row in rows) > 40_000
