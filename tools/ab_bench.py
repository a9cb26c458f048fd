"""Alternating parent/change runs of ``perfbench/run.py``, summarised as a
``BENCH_<n>.json``.

Usage, from the root of a checkout, with the two sides already unpacked
(``git archive <sha> | tar -x -C <dir>``) at paths of equal length:

    python3 tools/ab_bench.py --parent ../ab/p --change ../ab/c \\
        --parent-sha e39cde7 --change-sha HEAD --pairs 10 --seconds 10 \\
        --run camera-crowd@101 --run camera-crowd@102 --run radio-dense@101 \\
        --claim camera-crowd:wall_s_per_sim_s:0.15 --out BENCH_15.json

It refuses checkouts whose resolved paths differ in length: a run's
``peak_rss_mb`` moves with the length of its checkout's path.

For each ``workload@seed`` it runs ``perfbench/run.py --trace 0`` in each
checkout, ``--pairs`` times, alternating which side goes first; then
``--trace 1`` once per side, whose count-valued per-layer metrics (unit
``count`` in ``BENCHMARK.json``) go into the record with the names of
those that differ between the sides. A run's
value of a metric is perfbench's median over its simulations; each side's
median and quartiles over the runs are numpy linear percentiles. A pair
is won by the side whose value is better by the metric's direction in
``BENCHMARK.json``; equal values tie. ``ratio_ci95`` is a 95% bootstrap
interval of the median of the paired change/parent ratios: the pairs
resampled with replacement 10,000 times from a fixed seed, and the 2.5th
and 97.5th percentiles of the resamples' medians; it is None when a
parent value is 0. The record also holds failed
operations, whether every run wrote the same ``report.json`` and
``trace.csv``, the provenance perfbench printed, and the net lines of
``src/`` between the two shas (``git diff --numstat`` in this checkout).

A claim ``workload:metric:gain`` is met when, on every seed run of that
workload, the change's median is better than the parent's by at least
``gain`` (a fraction of the parent's median) and by more than the
parent's interquartile range, the change wins at least nine tenths of
the pairs, and ``ratio_ci95`` lies wholly on the better side of 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: Bootstrap resamples of the paired ratios, and their seed.
RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def _stats(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {
        "median": round(float(median), 4),
        "q1": round(float(q1), 4),
        "q3": round(float(q3), 4),
        "iqr": round(float(q3 - q1), 4),
        "runs": [round(v, 4) for v in values],
    }


def ratio_ci95(parent: list[float], change: list[float]) -> Optional[list]:
    """The 95% bootstrap interval of the median change/parent ratio over
    the pairs, or None when a parent value is 0."""
    parent_values = np.asarray(parent, dtype=float)
    if not parent_values.all():
        return None
    ratios = np.asarray(change, dtype=float) / parent_values
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(0, len(ratios), (RESAMPLES, len(ratios)))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return [round(float(low), 4), round(float(high), 4)]


def summarize(parent: list[float], change: list[float], better: str,
              unit: str, bound: float) -> dict:
    """One metric's parent and change runs, paired in order: each side's
    median, quartiles and runs, the pairs the change won and tied, the
    change's median relative to the parent's, and the bootstrap interval
    of the paired ratio."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = -1.0 if better == "lower" else 1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    tied = sum(c == p for p, c in zip(parent, change))
    p_stats, c_stats = _stats(parent), _stats(change)
    base = float(np.median(parent))
    relative = (float(np.median(change)) - base) / base if base else 0.0
    return {
        "unit": unit,
        "better": better,
        "bound": bound,
        "parent": p_stats,
        "change": c_stats,
        "change_better_pairs": int(won),
        "tied_pairs": int(tied),
        "relative_change": round(relative, 4),
        "ratio_ci95": ratio_ci95(parent, change),
    }


def claim_met(summary: dict, gain: float) -> bool:
    """The claim rule of the module docstring, on one metric's summary."""
    parent, change = summary["parent"], summary["change"]
    sign = -1.0 if summary["better"] == "lower" else 1.0
    improvement = sign * (change["median"] - parent["median"])
    pairs = len(parent["runs"])
    interval = summary["ratio_ci95"]
    return (
        sign * summary["relative_change"] >= gain
        and improvement > parent["iqr"]
        and summary["change_better_pairs"] >= 0.9 * pairs
        and interval is not None
        and (interval[1] < 1.0 if sign < 0 else interval[0] > 1.0)
    )


def count_diff(parent: dict, change: dict) -> list[str]:
    """The names of the per-layer counts whose values differ between the
    two sides, or that only one side has, sorted."""
    return sorted(name for name in parent.keys() | change.keys()
                  if parent.get(name) != change.get(name))


def _perfbench(checkout: Path, workload: str, seed: int,
               seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run: its result line, provenance and
    output digests."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout}: {done.stderr}")
    run = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(" ")
        if key == "provenance":
            run["provenance"] = json.loads(rest)
        elif key in ("report_sha256", "trace_sha256"):
            run[key] = rest.split()
    return run


def _net_lines(parent_sha: str, change_sha: str) -> dict:
    command = ["git", "diff", "--numstat", parent_sha, change_sha, "--", "src"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout
    by_file, added, deleted = {}, 0, 0
    for line in out.splitlines():
        plus, minus, path = line.split("\t")
        added, deleted = added + int(plus), deleted + int(minus)
        by_file[Path(path).name] = f"+{plus} -{minus}"
    return {"command": " ".join(command), "insertions": added,
            "deletions": deleted, "net": added - deleted, "by_file": by_file}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-sha", required=True)
    parser.add_argument("--change-sha", required=True)
    parser.add_argument("--run", action="append", required=True,
                        metavar="WORKLOAD@SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC:GAIN")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    lengths = [len(str(path.resolve())) for path in (args.parent, args.change)]
    if lengths[0] != lengths[1]:
        parser.error(f"--parent and --change resolve to paths of "
                     f"{lengths[0]} and {lengths[1]} characters; unpack "
                     "them at paths of equal length")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    count_names = {m["name"] for m in spec["per_layer"]
                   if m["unit"] == "count"}
    checkouts = {"parent": args.parent, "change": args.change}
    record = {side: {} for side in SIDES}
    workloads = {}
    for name in args.run:
        workload, _, seed = name.partition("@")
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                started = time.perf_counter()
                run = _perfbench(checkouts[side], workload, int(seed),
                                 args.seconds)
                runs[side].append(run)
                values = " ".join(f"{metric}={value['value']:.4g}"
                                  for metric, value in run["metrics"].items())
                print(f"{name} pair {i + 1} {side}: {values} failed="
                      f"{run['failed']} ({time.perf_counter() - started:.0f} s)",
                      flush=True)
        digests = {
            (tuple(r["report_sha256"]), tuple(r["trace_sha256"]))
            for side in SIDES for r in runs[side]
        }
        entry = {
            "pairs": args.pairs,
            "failed_operations": {
                **{side: sum(r["failed"] for r in runs[side])
                   for side in SIDES},
                **{f"attempted_{side}": sum(r["attempted"] for r in runs[side])
                   for side in SIDES},
            },
            "report_and_trace_sha256_equal": len(digests) == 1,
        }
        for metric, meta in metrics.items():
            values = {
                side: [r["metrics"][metric]["value"] for r in runs[side]
                       if metric in r["metrics"]]
                for side in SIDES
            }
            if len(values["parent"]) == len(values["change"]) == args.pairs:
                entry[metric] = summarize(
                    values["parent"], values["change"], meta["better"],
                    meta["unit"], meta["bound"])
        counts = {}
        for side in SIDES:
            traced = _perfbench(checkouts[side], workload, int(seed),
                                args.seconds, trace=1)
            counts[side] = {
                metric: value["value"]
                for metric, value in traced["metrics"].items()
                if metric in count_names
            }
        entry["layer_counts"] = {
            **counts, "differ": count_diff(counts["parent"], counts["change"])
        }
        print(f"{name} per-layer counts differing: "
              f"{entry['layer_counts']['differ'] or 'none'}", flush=True)
        workloads[name] = entry
        for side in SIDES:
            provenance = runs[side][0]["provenance"]
            record[side] = {"git_sha": provenance["git_sha"],
                            "source_sha256": provenance["source_sha256"]}
            record["host"] = {key: provenance[key]
                              for key in ("python", "numpy", "nproc")}

    record["parent"]["git_sha"] = record["parent"]["git_sha"] or args.parent_sha
    record["change"]["git_sha"] = record["change"]["git_sha"] or args.change_sha
    record["method"] = (
        f"perfbench/run.py --seconds {args.seconds:g} --trace 0, untraced; "
        f"each side run from its own checkout; {args.pairs} pairs per "
        "workload, alternating which side runs first; each run's value is "
        "perfbench's median over its simulations; median and quartiles "
        "over the runs are numpy linear percentiles; per-layer counts "
        "from one --trace 1 run per side (tools/ab_bench.py)"
    )
    record["net_src_lines"] = _net_lines(args.parent_sha, args.change_sha)
    if args.claim:
        workload, metric, gain = args.claim.split(":")
        claimed = {name: entry[metric] for name, entry in workloads.items()
                   if name.partition("@")[0] == workload}
        record["claim"] = {
            "metric": f"{metric} on {workload}",
            "target": f"at least {float(gain):.0%} better on every seed run, "
                      "at least 9 of 10 pairs, median difference above the "
                      "parent's IQR, bootstrap 95% interval of the paired "
                      "ratio excluding 1",
            "met": bool(claimed) and all(
                claim_met(s, float(gain)) for s in claimed.values()),
            **{name: {"relative_change": s["relative_change"],
                      "change_better_pairs": s["change_better_pairs"],
                      "ratio_ci95": s["ratio_ci95"]}
               for name, s in claimed.items()},
        }
    record["workloads"] = workloads
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
