"""``tools/digests.py`` hashes what ``arsusim run --trace`` writes."""

import hashlib
import importlib.util
from pathlib import Path

from arsusim.cli import main
from arsusim.config import parse_scenario

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digests.py"
_SPEC = importlib.util.spec_from_file_location("digests_tool", _PATH)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def test_cases_are_eighteen_and_named_apart():
    cases = digests.cases()
    assert len(cases) == 18
    assert len({name for name, *_ in cases}) == 18
    assert {(workload, seed) for _, workload, seed, edit in cases
            if edit is None} == {
        (w, s) for w in digests.WORKLOADS for s in (7, 101, 102)}


def test_one_case_matches_arsusim_run(tmp_path):
    workload, seed, edit = "cell-fanout", 101, "drops-0.3"
    text = digests.scenario_text(workload, seed, edit)
    assert parse_scenario(text).mqtt.drop_probability == 0.3
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--trace"]) == 0
    expected = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.json", "trace.csv"))
    assert digests.digests(workload, seed, edit) == expected
