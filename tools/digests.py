"""sha256 of the ``report.json`` and ``trace.csv`` that ``arsusim run
--trace`` writes for 60 fixed cases, one line per case.

Usage, from the root of a checkout:

    python3 tools/digests.py                          # print every line
    python3 tools/digests.py --check tests/digests.txt

The cases are the benchmark workloads (``perfbench/workloads.py``)
radio-dense, cell-fanout and camera-crowd at seeds 7, 101 and 102, and
each at seed 101 with one setting changed (``EDITS``):
``scenario_speed_kmh: 60.95`` (equal DSRC and C-V2X link halves),
``mqtt.drop_probability: 0.3``, ``link_speed_mode: max_endpoint``,
``arsu: {coverage_radius_m: 120}``, ``arsu: {x_m: 120, y_m: -80,
coverage_radius_m: 150}`` (in these two, users cross the coverage
disc's edge during the run), ``bsm_interval_ms: 150`` on every user,
``ipu: {frame_period_ms: 33}``, ``ipu: {processing_ms: 120}``,
``freshness_window_ms: 150``, ``filter: {sigma_m: 3}``, ``filter:
{sigma_m: 8}``, ``filter: {window_ms: 120}``, ``ipu: {noise_std_m: 2}``,
the origin at (48.1, 11.6), at (-33.9, 179.999), where users east of
x = 92 m wrap past 180°, and at (89.9975, 0), as near the pole as the
workloads allow, and ``latency_csv: latency.csv``, a table the tool
writes (``latency_table``). Each line reads ``<case> <report sha256>
<trace sha256>``, after a header line ``# numpy <version>``: the
digests rest on numpy's ``Generator`` stream.

``--check FILE`` works out every case and compares it with FILE's line
of that name, as printed before; it prints each case that differs or
that FILE lacks, and each line of FILE that names no case, and exits 1
if there is any. ``tests/digests.txt`` holds the lines of the committed
code: a change that must keep outputs byte-identical passes the check,
and one that changes outputs rewrites the file
(``python3 tools/digests.py > tests/digests.txt``).

The tool runs the ``arsusim`` in the ``src/`` beside it, through
``arsusim.cli.main``, each case in a temporary directory, and leaves
nothing behind.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arsusim.cli import main as arsusim_main  # noqa: E402
from arsusim.latency import (  # noqa: E402
    DEFAULT_COMPOSED_DELAYS_MS,
    PAIR_ROWS,
    composed_csv_rows,
)
from arsusim.messages import LinkTech  # noqa: E402

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

WORKLOADS = ("radio-dense", "cell-fanout", "camera-crowd")
SEEDS = (7, 101, 102)
#: The delay table ``latency-table`` reads, by a path relative to the
#: directory a case runs in, so that ``report.json``'s echo of it names
#: no temporary directory.
LATENCY_CSV = "latency.csv"
#: Each setting changed at seed 101, by name: its top-level key and value;
#: under ``users``, the fields set on every user entry.
EDITS = {
    "speed-60.95": ("scenario_speed_kmh", 60.95),
    "drops-0.3": ("mqtt", {"drop_probability": 0.3}),
    "max_endpoint": ("link_speed_mode", "max_endpoint"),
    "coverage-120": ("arsu", {"coverage_radius_m": 120}),
    "arsu-offset": ("arsu", {"x_m": 120, "y_m": -80,
                             "coverage_radius_m": 150}),
    "interval-150": ("users", {"bsm_interval_ms": 150}),
    "frame-33": ("ipu", {"frame_period_ms": 33}),
    "processing-120": ("ipu", {"processing_ms": 120}),
    "freshness-150": ("freshness_window_ms", 150),
    "sigma-3": ("filter", {"sigma_m": 3}),
    "sigma-8": ("filter", {"sigma_m": 8}),
    "window-120": ("filter", {"window_ms": 120}),
    "noise-2": ("ipu", {"noise_std_m": 2}),
    "origin-48.1": ("origin", {"lat": 48.1, "lon": 11.6}),
    "origin-antimeridian": ("origin", {"lat": -33.9, "lon": 179.999}),
    "origin-pole": ("origin", {"lat": 89.9975, "lon": 0}),
    "latency-table": ("latency_csv", LATENCY_CSV),
}


def cases() -> list[tuple[str, str, int, Optional[str]]]:
    """``(name, workload, seed, edit)`` of every case, in print order."""
    plain = [(f"{w}@{s}", w, s, None) for w in WORKLOADS for s in SEEDS]
    edited = [(f"{w}@101+{e}", w, 101, e) for w in WORKLOADS for e in EDITS]
    return plain + edited


def scenario_text(workload: str, seed: int, edit: Optional[str]) -> str:
    """The workload's scenario document, with ``edit`` applied."""
    text = workloads.scenario_yaml(workload, seed)
    if edit is None:
        return text
    # libyaml's loader and dumper, where PyYAML has them, build and write
    # the same documents as the pure-Python ones, several times faster.
    doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    key, value = EDITS[edit]
    if key == "users":
        for user in doc["users"]:
            user.update(value)
    else:
        doc[key] = value
    return yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper),
                     sort_keys=False)


def latency_table() -> list[list[float]]:
    """The delay table at ``LATENCY_CSV``: the default one with DSRC's
    half 2 ms longer at every speed, in the rows that DSRC is an end of
    (DSRC->CV2X, DSRC->Cell and Cam->DSRC), so rows 1-4 still
    recompose."""
    return [[v + 2.0 for v in row] if LinkTech.DSRC in pair else list(row)
            for pair, row in zip(PAIR_ROWS, DEFAULT_COMPOSED_DELAYS_MS)]


def digests(workload: str, seed: int,
            edit: Optional[str] = None) -> tuple[str, str]:
    """The sha256 of ``report.json`` and of ``trace.csv`` from
    ``arsusim run --trace`` on one case, run in a temporary directory
    that also holds ``LATENCY_CSV``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scenario.yaml").write_text(
            scenario_text(workload, seed, edit), encoding="utf-8")
        with open(tmp / LATENCY_CSV, "w", newline="") as fh:
            csv.writer(fh).writerows(composed_csv_rows(latency_table()))
        cwd = os.getcwd()
        os.chdir(tmp)  # contextlib.chdir needs Python 3.11
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = arsusim_main(
                    ["run", "scenario.yaml", "--out", "out", "--trace"])
        finally:
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"arsusim run exited {code} on {workload}"
                               f"@{seed} {edit or ''}")
        return tuple(
            hashlib.sha256((tmp / "out" / name).read_bytes()).hexdigest()
            for name in ("report.json", "trace.csv"))


def header() -> str:
    """The first line printed: the numpy version the digests rest on."""
    return f"# numpy {np.__version__}"


def check(path: str) -> int:
    """Compare every case with its line in ``path``; print each case
    that differs or is missing, and each line that names no case. 1 if
    there is any, else 0."""
    expected = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# numpy ") and line != header():
            print(f"{path} was written at {line[2:]}; this is {header()[2:]}")
        elif line and not line.startswith("#"):
            name, *hashes = line.split()
            expected[name] = tuple(hashes)
    failed = 0
    for name, workload, seed, edit in cases():
        got = digests(workload, seed, edit)
        want = expected.pop(name, None)
        if want is None:
            print(f"{name} missing from {path}: {' '.join(got)}", flush=True)
        elif want != got:
            print(f"{name} differs: {' '.join(got)}", flush=True)
        failed += want != got
    for name in expected:
        print(f"{name} in {path} names no case")
    failed += len(expected)
    print(f"{failed} of {len(cases()) + len(expected)} lines differ")
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with FILE's lines; exit 1 on a change")
    args = parser.parse_args(argv)
    if args.check is not None:
        return check(args.check)
    print(header())
    for name, workload, seed, edit in cases():
        print(name, *digests(workload, seed, edit), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
