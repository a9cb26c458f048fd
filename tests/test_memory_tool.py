"""``tools/memory.py`` measures a scenario in fresh interpreters."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "memory_tool", ROOT / "tools" / "memory.py")
memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(memory)


def test_prints_one_line_per_scenario(capsys):
    demo = str(ROOT / "scenarios" / "demo.yaml")
    assert memory.main([demo]) == 0
    [line] = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert list(record) == [
        "scenario", "users", "init_s", "run_s", "maxrss_mib",
        "traced_peak_bytes", "held_bytes"]
    assert record["scenario"] == demo
    assert record["users"] == 5
    assert record["init_s"] > 0 and record["run_s"] > 0
    assert record["maxrss_mib"] > 0
    assert 0 < record["held_bytes"] <= record["traced_peak_bytes"]


def test_no_scenario_prints_usage(capsys):
    assert memory.main([]) == 2
    assert "Usage" in capsys.readouterr().err
