"""Command-line interface.

Subcommands:
  run              run a scenario, write report.json / table4.csv /
                   matrix.csv (plus trace.csv with --trace)
  table4           print the composed-delay table, optionally as CSV
  matrix           print/write the 10-scenario serviceability matrix
  validate-config  parse a scenario document, load its delay table and
                   report problems

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import sys
from itertools import chain
from pathlib import Path

from .config import MAX_SCENARIO_SPEED_KMH, ConfigError, load_scenario
from .report import (
    build_report_dict,
    emit_table4,
    matrix_csv_rows,
    report_json,
    scenario_matrix,
)
from .sim import (
    SimulationInvariantError,
    load_latency_model,
    run as run_simulation,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arsusim",
        description=(
            "Deterministic simulator of a roadside unit bridging DSRC, "
            "C-V2X, cellular MQTT and camera-detected road users."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write reports")
    p_run.add_argument("config", help="scenario YAML document")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default="arsusim-out",
                       help="output directory (default: arsusim-out)")
    p_run.add_argument("--trace", action="store_true",
                       help="also write the event trace CSV")

    p_t4 = sub.add_parser("table4", help="print the composed-delay table")
    p_t4.add_argument("--latency-csv", default=None,
                      help="load the delay matrix from CSV instead of the "
                           "embedded default")
    p_t4.add_argument("--csv", default=None,
                      help="also write the table as CSV (loadable format)")

    p_mx = sub.add_parser("matrix", help="print the scenario matrix")
    p_mx.add_argument("--speed-range", nargs=2, type=float,
                      default=(0.0, MAX_SCENARIO_SPEED_KMH),
                      metavar=("LO", "HI"),
                      help="operating speed range in km/h "
                           f"(default 0 {MAX_SCENARIO_SPEED_KMH:g})")
    p_mx.add_argument("--latency-csv", default=None)
    p_mx.add_argument("--csv", default=None,
                      help="also write the matrix as CSV")

    p_val = sub.add_parser("validate-config",
                           help="check a scenario document")
    p_val.add_argument("config")
    return parser


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _cmd_run(args) -> int:
    try:
        config = load_scenario(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_simulation(config, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    report = build_report_dict(result)
    _, table_text, table_rows = emit_table4(result.model)
    matrix_rows = matrix_csv_rows(report["scenario_matrix"])
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(
            report_json(report), encoding="utf-8"
        )
        _write_csv(out_dir / "table4.csv", table_rows)
        _write_csv(out_dir / "matrix.csv", matrix_rows)
        if args.trace:
            _write_csv(out_dir / "trace.csv", chain(
                [["at_ms", "kind", "actor", "subject", "detail"]],
                result.trace_rows,
            ))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    cov = report["coverage"]["final"]
    print(f"run complete: seed={result.seed} "
          f"events={report['counts']['events_executed']} "
          f"deliveries={report['counts']['deliveries_to_users']} "
          f"coverage={'n/a' if cov is None else cov} "
          f"ghosts={report['ghosts']['count']}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _cmd_table4(args) -> int:
    try:
        model = load_latency_model(args.latency_csv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _, text, rows = emit_table4(model)
    print(text)
    if args.csv:
        try:
            _write_csv(Path(args.csv), rows)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def _cmd_matrix(args) -> int:
    lo, hi = args.speed_range
    if not 0.0 <= lo <= hi <= MAX_SCENARIO_SPEED_KMH:
        print("config error: speed range must satisfy "
              f"0 <= LO <= HI <= {MAX_SCENARIO_SPEED_KMH:g}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        model = load_latency_model(args.latency_csv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = scenario_matrix(model, (lo, hi))
    width = max(len(r["internetworking"]) for r in rows)
    print(f"{'#':>2} {'uplink':>6} {'bridge':<{width}} {'downlink':>8} "
          f"{'max ms':>9}  {'category':<15} apps")
    for r in rows:
        apps = ",".join(r["serviceable_apps"]) or "-"
        print(f"{r['scenario']:>2} {r['uplink']:>6} "
              f"{r['internetworking']:<{width}} {r['downlink']:>8} "
              f"{r['max_delay_ms']:>9.3f}  {r['category']:<15} {apps}")
    if args.csv:
        try:
            _write_csv(Path(args.csv), matrix_csv_rows(rows))
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        config = load_scenario(args.config)
        load_latency_model(config.latency_csv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: {len(config.users)} users, "
          f"duration {config.duration_ms:g} ms, "
          f"speed {config.scenario_speed_kmh:g} km/h, seed {config.seed}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "table4": _cmd_table4,
        "matrix": _cmd_matrix,
        "validate-config": _cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
