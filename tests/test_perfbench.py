"""The record ``perfbench/worker.py`` prints for a traced run.

``perfbench/tracing.py`` wraps the simulation's layers and reads some of
their state; a change that breaks what it reads would otherwise show only
as failed benchmark operations. This runs the worker the way the
benchmark does, with per-layer spans and trace writing on.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Radio relays, Cell publishes with drops, and a pedestrian the camera
#: confirms, in one simulated second.
SCENARIO = """
duration_ms: 1000
scenario_speed_kmh: 30
seed: 4
arsu: {coverage_radius_m: 400}
mqtt: {drop_probability: 0.05}
users:
  - {kind: native_dsrc, id: U1, x_m: 10}
  - {kind: native_cv2x, id: U2, x_m: 20}
  - {kind: nonnative_cell, id: U3, x_m: 30}
  - {kind: nonnative_cell, id: U4, x_m: 35}
  - {kind: non_connected, id: P1, x_m: 60}
"""

#: Per-layer metrics ``perfbench/run.py`` adds from the record's own
#: fields, outside ``layer_counts`` and ``layer_times``.
RECORD_FIELDS = {"import_s", "config.load_s", "sim.init_s"}
RUN_FIELDS = {"trace.overhead"}


def test_traced_worker_reports_every_per_layer_metric(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO)
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         str(scenario), str(out), "1", "1", repr(time.perf_counter())],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["problems"] == []
    assert record["trace_sha256"] is not None
    assert (out / "trace.csv").exists() and (out / "spans.npz").exists()
    assert RECORD_FIELDS <= record.keys()

    counts, times = record["layer_counts"], record["layer_times"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {*counts, *times, *RECORD_FIELDS, *RUN_FIELDS} == {
        metric["name"] for metric in spec["per_layer"]}
    assert counts["broker.publish.calls"] > 0
    assert counts["gateway.on_detection.calls"] > 0
    # The broker and the gateway keep no log; both names read empty.
    assert counts["broker.log_held"] == 0
    assert counts["gateway.decisions_held"] == 0
