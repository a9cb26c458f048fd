"""``tools/digests.py`` hashes what ``arsusim run --trace`` writes."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from arsusim.cli import main
from arsusim.config import parse_scenario

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digests.py"
_SPEC = importlib.util.spec_from_file_location("digests_tool", _PATH)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def test_cases_are_thirty_six_and_named_apart():
    cases = digests.cases()
    assert len(cases) == 36
    assert len({name for name, *_ in cases}) == 36
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


def _fake_digests(workload, seed, edit=None):
    """Two made-up digests per case, so that no workload runs."""
    name = f"{workload}@{seed}+{edit}"
    return tuple(hashlib.sha256(f"{name} {file}".encode()).hexdigest()
                 for file in ("report", "trace"))


def _lines():
    return [digests.header()] + [
        " ".join((name, *_fake_digests(workload, seed, edit)))
        for name, workload, seed, edit in digests.cases()]


def test_check_passes_on_the_lines_it_printed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digests, "digests", _fake_digests)
    assert digests.main([]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines() == _lines()
    committed = tmp_path / "digests.txt"
    committed.write_text(printed, encoding="utf-8")
    assert digests.main(["--check", str(committed)]) == 0
    assert capsys.readouterr().out == "0 of 36 lines differ\n"


def test_check_prints_the_case_that_differs_and_fails(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digests, "digests", _fake_digests)
    lines = _lines()
    name, report, trace = lines[5].split()
    lines[5] = " ".join((name, report, "0" * 64))
    committed = tmp_path / "digests.txt"
    committed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert digests.main(["--check", str(committed)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{name} differs: {report} {trace}", "1 of 36 lines differ"]


def test_committed_lines_are_every_case_under_a_numpy_header():
    """``tests/digests.txt`` names each case once, after a header that
    names a numpy version."""
    committed = (_PATH.parent.parent / "tests" / "digests.txt").read_text(
        encoding="utf-8").splitlines()
    assert committed[0].startswith("# numpy ")
    assert [line.split()[0] for line in committed[1:]] == [
        name for name, *_ in digests.cases()]
    assert all(len(line.split()) == 3 for line in committed[1:])


#: The settings whose hand-made mutants (each fixing the setting at its
#: default) passed every other tier-1 test: the BSM interval, the IPU's
#: frame period and processing time, and the freshness window.
SETTINGS_EDITS = ("interval-150", "frame-33", "processing-120",
                  "freshness-150")


def test_settings_cases_match_the_committed_lines():
    """The twelve cases that change one of ``SETTINGS_EDITS`` digest to
    their lines in ``tests/digests.txt``, so a change that ignores one
    of those settings fails here."""
    header, *lines = (_PATH.parent.parent / "tests" / "digests.txt"
                      ).read_text(encoding="utf-8").splitlines()
    if header != digests.header():
        pytest.skip(f"tests/digests.txt was written at {header[2:]}; "
                    f"this is {digests.header()[2:]}")
    committed = {name: tuple(hashes)
                 for name, *hashes in map(str.split, lines)}
    cases = [case for case in digests.cases() if case[3] in SETTINGS_EDITS]
    assert len(cases) == 12
    for name, workload, seed, edit in cases:
        assert digests.digests(workload, seed, edit) == committed[name], name
