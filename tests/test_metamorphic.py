"""Metamorphic relations: a change to a scenario whose effect on the
results is known without working the results out (Chen, Cheung & Yiu,
"Metamorphic testing: a new approach for generating next test cases",
HKUST-CS98-01, 1998).

Moving every road user and the A-RSU by one offset keeps every distance
between them, so it leaves a report's counts, coverage, ghosts and
paths as they were. The cases are the golden scenarios and the
benchmark workloads at seed 101, each moved by three fixed offsets.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from arsusim.config import load_scenario, parse_scenario
from arsusim.report import build_report_dict
from arsusim.sim import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

#: Offsets (m) by which every user and the A-RSU move.
OFFSETS = ((40.0, -25.0), (500.0, 300.0), (-3000.0, 1200.0))
#: The report's sections that no distance-keeping move may change.
SECTIONS = ("counts", "coverage", "ghosts", "paths")

CASES = [f"golden/{p.name}" for p in sorted(GOLDEN.iterdir()) if p.is_dir()]
CASES += [f"{w}@101" for w in workloads.WORKLOADS]


def _config(case: str):
    if case.startswith("golden/"):
        return load_scenario(GOLDEN / case[len("golden/"):] / "scenario.yaml")
    workload, seed = case.split("@")
    return parse_scenario(workloads.scenario_yaml(workload, int(seed)))


def moved(config, dx_m: float, dy_m: float):
    """``config`` with every user and the A-RSU moved by (dx, dy) m. The
    parsed config is moved, so users placed with ``count:`` move too."""
    def shift(place):
        return dataclasses.replace(
            place, x_m=place.x_m + dx_m, y_m=place.y_m + dy_m)
    return dataclasses.replace(
        config, arsu=shift(config.arsu),
        users=tuple(shift(user) for user in config.users))


def _sections(config) -> dict:
    report = build_report_dict(run(config))
    return {section: report[section] for section in SECTIONS}


@pytest.mark.parametrize("case", CASES)
def test_moving_everyone_and_the_arsu_changes_no_result(case):
    config = _config(case)
    assert config.users
    expected = _sections(config)
    for dx_m, dy_m in OFFSETS:
        assert _sections(moved(config, dx_m, dy_m)) == expected, (dx_m, dy_m)


def test_moved_places_every_user_and_the_arsu():
    config = _config("golden/gnss-ghosts")
    shifted = moved(config, 40.0, -25.0)
    assert (shifted.arsu.x_m, shifted.arsu.y_m) == (40.0, -25.0)
    assert [(u.x_m, u.y_m) for u in shifted.users] == [
        (u.x_m + 40.0, u.y_m - 25.0) for u in config.users]
