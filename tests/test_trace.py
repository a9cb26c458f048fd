"""``arsusim.trace`` is the one home of the trace: ``trace.csv`` reads back
as the run's rows, and no other module holds the words of a row."""

import ast
import csv
from pathlib import Path

import yaml

from arsusim.cli import main
from arsusim.config import load_scenario
from arsusim.sim import run
from arsusim.trace import TRACE_HEADER

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arsusim"

#: Ids that a CSV writer must quote, one user of each kind, broker drops
#: on, and a pedestrian in coverage long enough to be confirmed.
QUOTED_IDS = {
    "duration_ms": 1500,
    "scenario_speed_kmh": 30,
    "seed": 11,
    "arsu": {"coverage_radius_m": 400},
    "mqtt": {"drop_probability": 0.3},
    "users": [
        {"kind": "native_dsrc", "id": "car, red", "x_m": 10},
        {"kind": "native_cv2x", "id": 'truck "T1"', "x_m": 20},
        {"kind": "nonnative_cell", "id": "phone\nline", "x_m": 30},
        {"kind": "nonnative_cell", "id": "tablet\r\nx", "x_m": 35},
        {"kind": "non_connected", "id": 'walker,\r"P"\n', "x_m": 60},
    ],
}

#: The kind of every trace row, and the words only a trace detail holds.
TRACE_WORDS = (
    "BsmTx", "IpuFrame", "DetectionReady", "RadioDelivery", "MqttDelivery",
    "GraceDeadline", "MetricsTick", "resolved earlier", "matched=", "via=",
)


def test_trace_csv_reads_back_as_the_runs_rows(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(QUOTED_IDS), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--trace"]) == 0
    with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
        read = list(csv.reader(fh))
    result = run(load_scenario(str(path)))
    rows = [list(TRACE_HEADER), *map(list, result.trace_rows)]
    assert read == rows
    # The run exercises what the ids must survive.
    subjects = {row[3] for row in rows}
    assert {'walker,\r"P"\n', "phone\nline", "tablet\r\nx"} <= subjects
    assert any(row[4].startswith("confirmed") for row in rows)
    assert result.broker.drop_count > 0


def trace_words_outside(module: Path) -> list[str]:
    """The string constants of ``module`` that hold a word of a trace
    row, as ``line text``."""
    found = []
    for node in ast.walk(ast.parse(module.read_text())):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(word in node.value for word in TRACE_WORDS)):
            found.append(f"{node.lineno} {node.value!r}")
    return found


def test_only_trace_module_holds_row_words():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"trace.py", "sim.py", "cli.py"} <= {m.name for m in modules}
    assert trace_words_outside(PACKAGE / "trace.py")
    for module in modules:
        if module.name != "trace.py":
            assert trace_words_outside(module) == [], module.name
