"""Benchmark of arsusim: seeded scenarios through the ``arsusim run`` pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload radio-dense --seed 1 --seconds 30 --trace 0

The scenario is generated from (workload, seed) by ``workloads.py`` and
written as YAML. Each simulation runs in a fresh interpreter
(``worker.py``) so set-up time and peak RSS belong to that one run:
load the scenario, construct the simulation, run it, build the report
and write ``report.json``, ``table4.csv``, ``matrix.csv`` and, on
traced workloads, ``trace.csv``. Simulations of the one scenario are
repeated one after another, on one core, until ``--seconds`` have
passed, and every metric is the median over them.

With ``--trace 0`` the last line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer
metrics, from runs with the wrappers of ``tracing.py`` installed,
alternated with untraced runs that give the tracing overhead.

Every simulation is checked: it must exit cleanly, deliver at least one
message, keep every path that does not start at the camera within
0.001 ms of the latency model, and write a ``report.json`` (and
``trace.csv``) whose sha256 equals that of every other simulation of
the same (workload, seed), traced or not. The generator must give the
same YAML twice. A failed check counts as a failed operation.

The last run's outputs and spans go to ``perfbench/.work/latest/``.
``perfbench/.work/results/<workload>-seed<n>-trace<0|1>.json`` keeps
each run's per-simulation records and provenance (git commit, source
digest, Python and numpy versions, CPU count, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, scenario_yaml
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "arsusim"

#: At least this many simulations per run, whatever ``--seconds`` says.
MIN_SIMULATIONS = 3
#: Whole run, set-up included, stays under the 180 s a run may take.
RUN_LIMIT_S = 170.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _provenance(seed: int) -> dict:
    commit = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _simulate(scenario: Path, out_dir: Path, write_trace: bool, spans: bool,
              timeout_s: float) -> tuple[dict | None, str]:
    """One worker process: (record, "") or (None, why it failed)."""
    args = [
        sys.executable, str(HERE / "worker.py"), str(scenario), str(out_dir),
        str(int(write_trace)), str(int(spans)),
    ]
    try:
        done = subprocess.run(
            args + [repr(time.perf_counter())], capture_output=True,
            text=True, timeout=timeout_s, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"simulation exceeded {timeout_s:.0f} s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit code {done.returncode}: {tail[0]}"
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if record["problems"]:
        return record, "; ".join(record["problems"])
    return record, ""


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no arsusim sources at {PACKAGE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace and set(units) != set(tracing.MOVES):
        print("BENCHMARK.json per_layer and tracing.MOVES disagree",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / ".work" / "latest"  # outputs of the last run only
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    text = scenario_yaml(args.workload, args.seed)
    failures = []
    if scenario_yaml(args.workload, args.seed) != text:
        failures.append("generator gave different YAML for the same seed")
    scenario = work / "scenario.yaml"
    scenario.write_text(text, encoding="utf-8")

    plain, traced = [], []
    attempted = failed = 0
    rounds = []
    while True:
        round_start = time.perf_counter()
        # Traced runs alternate which of the pair goes first.
        pair = (False, True) if len(rounds) % 2 == 0 else (True, False)
        for spans in pair if args.trace else (False,):
            attempted += 1
            remaining = RUN_LIMIT_S - (round_start - started)
            record, problem = _simulate(
                scenario, work / ("traced" if spans else "plain"),
                workload.trace, spans, max(remaining, 1.0),
            )
            if problem:
                failed += 1
                failures.append(f"simulation {attempted}: {problem}")
            if record is not None:
                (traced if spans else plain).append(record)
        now = time.perf_counter()
        rounds.append(now - round_start)
        elapsed = now - started
        # Stop where the run ends closest to --seconds.
        if attempted >= MIN_SIMULATIONS and (
            elapsed + statistics.median(rounds) / 2 >= args.seconds
        ):
            break
        if elapsed + 2 * max(rounds) > RUN_LIMIT_S:
            break

    records = plain + traced
    outputs = [(r["report_sha256"], r["trace_sha256"]) for r in records]
    for i, digests in enumerate(outputs[1:], start=2):
        if digests != outputs[0]:
            failed += 1
            failures.append(f"output digests of record {i} differ from the "
                            f"first: {digests} != {outputs[0]}")
    counts = [r["layer_counts"] for r in traced]
    if any(c != counts[0] for c in counts):
        failures.append("per-layer counts differ between traced simulations")

    # Each metric is the median of its per-simulation samples.
    samples = {}
    if plain and not args.trace:
        samples["setup_s"] = [r["setup_s"] for r in plain]
        samples["wall_s_per_sim_s"] = [r["wall_s"] / r["sim_s"] for r in plain]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
        samples["model_error_ms"] = [
            r["model_error_ms"] for r in plain if r["path_errors_ms"]]
    elif plain and traced:
        for name in counts[0]:
            samples[name] = [r["layer_counts"][name] for r in traced]
        for name in traced[0]["layer_times"]:
            samples[name] = [r["layer_times"][name] for r in traced]
        for name in ("import_s", "config.load_s", "sim.init_s"):
            samples[name] = [r[name] for r in plain]
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        samples["trace.overhead"] = [
            r["wall_s"] / plain_wall - 1.0 for r in traced]
    metrics = {name: statistics.median(v) for name, v in samples.items() if v}
    if counts:
        metrics.update(counts[0])  # equal in every traced simulation
    if set(metrics) != set(units):
        failures.append(f"metrics missing: {sorted(set(units) - set(metrics))}")
        metrics = {}

    provenance = _provenance(args.seed)
    provenance["numpy"] = records[0]["numpy"] if records else None
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    print(f"workload {args.workload}: {why}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"simulations {attempted} ({len(plain)} untraced, {len(traced)} "
          f"traced), {workload.duration_ms / 1000:g} simulated s each")
    for key in ("report_sha256", "trace_sha256"):
        print(f"{key} " + " ".join(sorted({str(r[key]) for r in records})))
    def fmt(value):
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    for name, value in metrics.items():
        note = f"; moves {tracing.MOVES[name]}" if args.trace else ""
        print(f"{name} = {fmt(value)} {units[name]} (median of "
              f"{len(samples[name])}, range {fmt(min(samples[name]))} to "
              f"{fmt(max(samples[name]))}{note})")
    for failure in failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": max(failed, int(bool(failures))),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    results = HERE / ".work" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{run_name}.json").write_text(json.dumps(
        {"provenance": provenance, "simulations": records, "result": result},
        indent=1,
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
