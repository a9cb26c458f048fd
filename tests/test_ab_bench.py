"""The summary and claim rule of ``tools/ab_bench.py``."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

PARENT = [0.20, 0.22, 0.19, 0.21, 0.20, 0.23, 0.18, 0.21, 0.20, 0.22]


def test_summary_of_a_lower_is_better_metric():
    change = [v - 0.05 for v in PARENT]
    change[3] = 0.25  # one pair lost
    change[5] = PARENT[5]  # one tied
    summary = ab_bench.summarize(PARENT, change, "lower", "s/s", 0.25)
    assert summary["parent"] == {
        "median": 0.205, "q1": 0.2, "q3": 0.2175, "iqr": 0.0175,
        "runs": PARENT,
    }
    assert summary["change"]["median"] == 0.155
    assert summary["change_better_pairs"] == 8
    assert summary["tied_pairs"] == 1
    assert summary["relative_change"] == round((0.155 - 0.205) / 0.205, 4)
    assert (summary["unit"], summary["better"], summary["bound"]) == (
        "s/s", "lower", 0.25)


def test_higher_is_better_counts_the_other_way():
    summary = ab_bench.summarize([1.0, 2.0], [1.5, 1.0], "higher", "x", 0.1)
    assert summary["change_better_pairs"] == 1
    assert summary["tied_pairs"] == 0


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        ab_bench.summarize([1.0, 2.0], [1.0], "lower", "s", 0.1)


@pytest.mark.parametrize("shift, lost, met", [
    (0.05, 0, True),   # 24% better, 10 of 10 pairs
    (0.05, 2, False),  # 8 of 10 pairs
    (0.02, 0, False),  # 10% better: below the 15% gain
])
def test_claim_rule(shift, lost, met):
    change = [v - shift for v in PARENT]
    for i in range(lost):
        change[i] = PARENT[i] + 0.01
    summary = ab_bench.summarize(PARENT, change, "lower", "s/s", 0.25)
    assert ab_bench.claim_met(summary, 0.15) is met


def test_claim_needs_a_gap_wider_than_the_parent_iqr():
    parent = [1.0, 2.0, 3.0, 4.0]
    summary = ab_bench.summarize(parent, [v - 0.5 for v in parent],
                                 "lower", "s", 0.25)
    assert summary["parent"]["iqr"] == 1.5
    assert summary["relative_change"] == -0.2
    assert not ab_bench.claim_met(summary, 0.15)


def test_count_diff_names_changed_and_one_sided_counts():
    parent = {"sim.events": 10, "gateway.relayed": 4, "broker.drops": 0}
    change = {"sim.events": 10, "gateway.relayed": 5, "gateway.ghosts": 1}
    assert ab_bench.count_diff(parent, change) == [
        "broker.drops", "gateway.ghosts", "gateway.relayed"]
    assert ab_bench.count_diff(parent, dict(parent)) == []


def test_ratio_interval_is_seeded_and_brackets_the_median_ratio():
    change = [v * 0.8 for v in PARENT]
    change[2] = PARENT[2] * 1.1
    low, high = ab_bench.ratio_ci95(PARENT, change)
    assert ab_bench.ratio_ci95(PARENT, change) == [low, high]
    assert low <= 0.8 <= high < 1.0
    summary = ab_bench.summarize(PARENT, change, "lower", "s/s", 0.25)
    assert summary["ratio_ci95"] == [low, high]


def test_ratio_interval_of_a_zero_parent_is_none():
    assert ab_bench.ratio_ci95([0.0, 1.0], [1.0, 1.0]) is None


@pytest.mark.parametrize("better, interval, met", [
    ("lower", [0.7, 0.9], True),
    ("lower", [0.7, 1.01], False),  # the interval reaches 1
    ("lower", None, False),  # no interval: a parent value was 0
    ("higher", [1.1, 1.3], True),
    ("higher", [0.99, 1.3], False),
])
def test_claim_needs_the_ratio_interval_to_exclude_one(better, interval,
                                                       met):
    sign = -1 if better == "lower" else 1
    change = [v * (1 + sign * 0.3) for v in PARENT]
    summary = ab_bench.summarize(PARENT, change, better, "s/s", 0.25)
    assert ab_bench.claim_met(summary, 0.15)  # every other condition holds
    summary["ratio_ci95"] = interval
    assert ab_bench.claim_met(summary, 0.15) is met


def test_checkouts_at_paths_of_unequal_length_are_refused(tmp_path, capsys):
    (tmp_path / "p").mkdir()
    (tmp_path / "cc").mkdir()
    common = ["--parent-sha", "a", "--change-sha", "b", "--run",
              "camera-crowd@101", "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(["--parent", str(tmp_path / "p"),
                       "--change", str(tmp_path / "cc"), *common])
    assert exit_info.value.code == 2
    assert "paths of equal length" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
    args = ab_bench._parse_args(["--parent", str(tmp_path / "p"),
                                 "--change", str(tmp_path / "p"), *common])
    assert args.change == tmp_path / "p"
