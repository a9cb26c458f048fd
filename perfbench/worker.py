"""One simulation in a fresh interpreter, the way ``arsusim run`` does it.

Usage: python3 perfbench/worker.py SCENARIO OUT_DIR WRITE_TRACE SPANS SPAWNED_AT

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started
this process. On Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so set-up time includes interpreter start-up. WRITE_TRACE (0/1)
writes ``trace.csv`` as ``arsusim run --trace`` does; SPANS (0/1)
installs the per-layer tracing of ``tracing.py``.

The last line on standard output is one JSON record of timings, checks
and output digests. Exceptions from the simulation are not caught: the
process then exits non-zero and the parent counts the run as failed.
"""

import sys
import time

import_start = time.perf_counter()

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import arsusim  # noqa: E402
import numpy  # noqa: E402
from arsusim import config, gateway, report, sim  # noqa: E402

import tracing  # noqa: E402

#: Largest |measured - model| (ms) allowed on a path that does not start
#: at the camera; the acceptance suite's end-to-end fidelity tolerance.
RADIO_CELL_TOLERANCE_MS = 0.001

TRACE_HEADER = ["at_ms", "kind", "actor", "subject", "detail"]


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    scenario, out_dir = Path(sys.argv[1]), Path(sys.argv[2])
    write_trace, spans = sys.argv[3] == "1", sys.argv[4] == "1"
    spawned_at = float(sys.argv[5])
    if Path(arsusim.__file__).resolve().parent != ROOT / "src" / "arsusim":
        raise SystemExit(f"imported arsusim from {arsusim.__file__}")
    load_start = time.perf_counter()
    cfg = config.load_scenario(scenario)
    init_start = time.perf_counter()
    simulation = sim.Simulation(cfg)
    setup_end = time.perf_counter()

    tracer = counts = None
    if spans:
        tracer = tracing.Tracer()
        counts = tracing.instrument(simulation, gateway, tracer)

    def build(result):
        report_dict = report.build_report_dict(result)
        _, _, table_rows = report.emit_table4(result.model)
        matrix_rows = report.matrix_csv_rows(report_dict["scenario_matrix"])
        return report_dict, report.report_json(report_dict), table_rows, \
            matrix_rows

    def write(text, table_rows, matrix_rows, trace_rows):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(text, encoding="utf-8")
        _write_csv(out_dir / "table4.csv", table_rows)
        _write_csv(out_dir / "matrix.csv", matrix_rows)
        if write_trace:
            _write_csv(out_dir / "trace.csv", [TRACE_HEADER, *trace_rows])

    if tracer is not None:
        build = tracer.wrap("report.build", build)
        write = tracer.wrap("report.write", write)

    run_start = time.perf_counter()
    result = simulation.run()
    report_dict, text, table_rows, matrix_rows = build(result)
    write(text, table_rows, matrix_rows, result.trace_rows)
    run_end = time.perf_counter()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    errors = [
        (label, path["max_abs_error_ms"])
        for label, path in report_dict["paths"].items()
    ]
    problems = []
    if report_dict["counts"]["deliveries_to_users"] < 1:
        problems.append("no message was delivered")
    if not errors:
        problems.append("report.json has no path compared with the model")
    for label, error in errors:
        if not label.startswith("Cam->") and error > RADIO_CELL_TOLERANCE_MS:
            problems.append(f"{label} is {error} ms off the model")

    trace_path = out_dir / "trace.csv"
    record = {
        "setup_s": setup_end - spawned_at,
        "import_s": load_start - import_start,
        "config.load_s": init_start - load_start,
        "sim.init_s": setup_end - init_start,
        "wall_s": run_end - run_start,
        "sim_s": cfg.duration_ms / 1000.0,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "model_error_ms": max(e for _, e in errors) if errors else None,
        "path_errors_ms": dict(errors),
        "problems": problems,
        "report_sha256": _sha256(out_dir / "report.json"),
        "trace_sha256": _sha256(trace_path) if write_trace else None,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        trace_bytes = trace_path.stat().st_size if write_trace else 0
        record["layer_counts"], record["layer_times"] = tracing.layer_metrics(
            tracer, counts, result, trace_bytes)
        tracer.save(out_dir / "spans.npz")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
