"""``tools/digests.py`` hashes what ``arsusim run --trace`` writes."""

import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import pytest

from arsusim.cli import main
from arsusim.config import ScenarioConfig, UserSpec, parse_scenario

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digests.py"
_SPEC = importlib.util.spec_from_file_location("digests_tool", _PATH)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def test_cases_are_sixty_and_named_apart():
    cases = digests.cases()
    assert len(cases) == 60
    assert len({name for name, *_ in cases}) == 60
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
    assert capsys.readouterr().out == "0 of 60 lines differ\n"


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
        f"{name} differs: {report} {trace}", "1 of 60 lines differ"]


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


def _assert_cases_match_the_committed_lines(cases):
    """Each of ``cases`` digests to its line in ``tests/digests.txt``;
    skipped when the file was written at another numpy."""
    header, *lines = (_PATH.parent.parent / "tests" / "digests.txt"
                      ).read_text(encoding="utf-8").splitlines()
    if header != digests.header():
        pytest.skip(f"tests/digests.txt was written at {header[2:]}; "
                    f"this is {digests.header()[2:]}")
    committed = {name: tuple(hashes)
                 for name, *hashes in map(str.split, lines)}
    for name, workload, seed, edit in cases:
        assert digests.digests(workload, seed, edit) == committed[name], name


def test_settings_cases_match_the_committed_lines():
    """The twelve cases that change one of ``SETTINGS_EDITS`` digest to
    their lines in ``tests/digests.txt``, so a change that ignores one
    of those settings fails here."""
    cases = [case for case in digests.cases() if case[3] in SETTINGS_EDITS]
    assert len(cases) == 12
    _assert_cases_match_the_committed_lines(cases)


#: The cases whose settings move the detection filter's counts: its
#: gate and history window, the camera's noise, and an origin next to a
#: pole, where the local frame's positions are no longer those at (0, 0).
#: ``sigma-3`` also makes radio-dense suppress duplicates, which no other
#: radio-dense case does.
FILTER_CASES = ("camera-crowd@101+sigma-3", "camera-crowd@101+sigma-8",
                "camera-crowd@101+window-120", "camera-crowd@101+noise-2",
                "camera-crowd@101+origin-pole", "radio-dense@101+sigma-3")


def test_filter_cases_match_the_committed_lines():
    """The ``FILTER_CASES`` digest to their lines in
    ``tests/digests.txt``, so a change that ignores the filter's
    ``sigma_m`` or ``window_ms``, the camera's ``noise_std_m`` or the
    origin fails here."""
    cases = [case for case in digests.cases() if case[0] in FILTER_CASES]
    assert len(cases) == len(FILTER_CASES)
    _assert_cases_match_the_committed_lines(cases)


def _field_names(settings: type, prefix: str = ""):
    """The dotted name of every field of the settings class ``settings``
    and of the settings it nests, a user's fields under ``users.``."""
    for f in dataclasses.fields(settings):
        nested = (UserSpec if f.name == "users" else type(f.default)
                  if dataclasses.is_dataclass(f.default) else None)
        if nested is None:
            yield prefix + f.name
        else:
            yield from _field_names(nested, f"{prefix}{f.name}.")


def _set_off_default(settings, prefix: str = ""):
    """The dotted names of the fields that ``settings``, a settings
    instance, and the settings it nests set off their defaults; a field
    without a default is always set."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        if dataclasses.is_dataclass(value):
            yield from _set_off_default(value, f"{prefix}{f.name}.")
        elif f.name == "users":
            for user in value:
                yield from _set_off_default(user, f"{prefix}users.")
        elif value != f.default:
            yield prefix + f.name


def test_every_setting_is_set_off_its_default_by_some_case():
    """Each field of ``ScenarioConfig``, of its nested settings and of
    ``UserSpec`` is set off its default by a digest case (the workloads'
    own documents, or an edit of one) or by a golden scenario, so a
    change that ignores any setting can change a committed output. A
    new setting comes with a case that sets it."""
    documents = [digests.scenario_text(workload, seed, edit)
                 for _, workload, seed, edit in digests.cases()]
    golden = _PATH.parent.parent / "tests" / "golden"
    documents += [path.read_text(encoding="utf-8")
                  for path in sorted(golden.glob("*/scenario.yaml"))]
    set_fields = set()
    for text in documents:
        set_fields.update(_set_off_default(parse_scenario(text)))
    assert set(_field_names(ScenarioConfig)) - set_fields == set()
