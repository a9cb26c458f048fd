"""Delay/serviceability tables and the machine-readable run report.

Builds the composed-delay table (7 link pairs x 5 speeds, annotated with
delay categories), the 10-row intercommunication scenario matrix with
per-bundle serviceability, and the JSON report document for a run. All
floating-point output is fixed at 3 decimals so golden files do not
drift on formatting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .latency import (
    DelayCategory,
    LatencyModel,
    PAIR_ROWS,
    SPEEDS_KMH,
    TECH_LABEL,
    classify,
    composed_csv_rows,
)
from .messages import LinkTech
from .sim import RunResult

_CATEGORY_MARK = {
    DelayCategory.NEAR_REAL_TIME: "",
    DelayCategory.REDUCED_LATENCY: "*",
    DelayCategory.UNSERVICEABLE: "!",
}


@dataclass(frozen=True)
class ScenarioDescriptor:
    number: int
    uplink: LinkTech
    downlink: LinkTech
    internetworking: str


#: The ten heterogeneous intercommunication scenarios: uplink technology,
#: bridging path, downlink technology.
SCENARIOS: tuple[ScenarioDescriptor, ...] = (
    ScenarioDescriptor(1, LinkTech.DSRC, LinkTech.CV2X, "A-RSU"),
    ScenarioDescriptor(2, LinkTech.DSRC, LinkTech.CELL_MQTT,
                       "A-RSU -> Cellular Cloud"),
    ScenarioDescriptor(3, LinkTech.CV2X, LinkTech.DSRC, "A-RSU"),
    ScenarioDescriptor(4, LinkTech.CV2X, LinkTech.CELL_MQTT,
                       "A-RSU -> Cellular Cloud"),
    ScenarioDescriptor(5, LinkTech.CELL_MQTT, LinkTech.CV2X,
                       "Cellular Cloud -> A-RSU"),
    ScenarioDescriptor(6, LinkTech.CELL_MQTT, LinkTech.DSRC,
                       "Cellular Cloud -> A-RSU"),
    ScenarioDescriptor(7, LinkTech.CELL_MQTT, LinkTech.CELL_MQTT,
                       "Cellular Cloud"),
    ScenarioDescriptor(8, LinkTech.CAMERA, LinkTech.CV2X, "A-RSU"),
    ScenarioDescriptor(9, LinkTech.CAMERA, LinkTech.DSRC, "A-RSU"),
    ScenarioDescriptor(10, LinkTech.CAMERA, LinkTech.CELL_MQTT,
                       "A-RSU -> Cellular Cloud"),
)

#: Tolerance for flagging observed-vs-model disagreement (ms).
OBSERVED_TOLERANCE_MS = 0.01


def emit_table4(model: LatencyModel) -> tuple[list[list[float]], str, list[list[str]]]:
    """Composed-delay table: (values matrix, formatted text, CSV rows).

    The CSV rows are in the loadable matrix format, so an emitted table
    can be fed back in via ``--latency-csv``.
    """
    matrix = model.composed_matrix()
    header = f"{'uplink':>8} {'downlink':>8}" + "".join(
        f"{f'{s:g} km/h':>12}" for s in SPEEDS_KMH
    )
    lines = [header, "-" * len(header)]
    for (up, down), row in zip(PAIR_ROWS, matrix):
        cells = "".join(
            f"{f'{v:.3f}{_CATEGORY_MARK[classify(v)]}':>12}" for v in row
        )
        lines.append(f"{TECH_LABEL[up]:>8} {TECH_LABEL[down]:>8}{cells}")
    lines.append("")
    lines.append("categories: unmarked < 100 ms (near real-time), "
                 "* < 600 ms (reduced latency), ! >= 600 ms (unserviceable)")
    return matrix, "\n".join(lines), [list(r) for r in composed_csv_rows(matrix)]


def scenario_matrix(
    model: LatencyModel,
    speed_range_kmh: tuple[float, float] = (0.0, SPEEDS_KMH[-1]),
    result: Optional[RunResult] = None,
) -> list[dict]:
    """The 10-row scenario matrix with category and serviceable apps.

    When a run result is supplied, each row is cross-checked against the
    observed mean latency on that uplink/downlink path; rows whose
    observation disagrees with the model beyond tolerance are flagged.
    """
    observed_model_speed = None
    if result is not None and result.config.link_speed_mode == "scenario":
        observed_model_speed = result.config.scenario_speed_kmh
    rows = []
    for sc in SCENARIOS:
        worst = model.max_composed_delay(
            sc.uplink, sc.downlink, *speed_range_kmh
        )
        apps = sorted(
            a.name for a in model.serviceable_apps(
                sc.uplink, sc.downlink, speed_range_kmh
            )
        )
        row = {
            "scenario": sc.number,
            "uplink": TECH_LABEL[sc.uplink],
            "internetworking": sc.internetworking,
            "downlink": TECH_LABEL[sc.downlink],
            "delays_ms": [
                round(model.composed_delay(sc.uplink, sc.downlink, s), 3)
                for s in SPEEDS_KMH
            ],
            "max_delay_ms": round(worst, 3),
            "category": classify(worst).value,
            "serviceable_apps": apps,
            "observed_mean_ms": None,
            "observed_count": 0,
            "flagged": False,
        }
        if result is not None:
            stats = result.metrics.path_stats.get((sc.uplink, sc.downlink))
            if stats is not None and stats.count:
                row["observed_mean_ms"] = round(stats.mean_ms, 3)
                row["observed_count"] = stats.count
                if observed_model_speed is not None:
                    expected = model.composed_delay(
                        sc.uplink, sc.downlink, observed_model_speed
                    )
                    row["flagged"] = (
                        abs(stats.mean_ms - expected) > OBSERVED_TOLERANCE_MS
                    )
        rows.append(row)
    return rows


def matrix_csv_rows(rows: Sequence[dict]) -> list[list[str]]:
    header = [
        "scenario", "uplink", "internetworking", "downlink",
    ] + [f"delay_{s:g}_ms" for s in SPEEDS_KMH] + [
        "max_delay_ms", "category", "serviceable_apps",
        "observed_mean_ms", "observed_count", "flagged",
    ]
    out = [header]
    for row in rows:
        out.append([
            str(row["scenario"]),
            row["uplink"],
            row["internetworking"],
            row["downlink"],
            *[f"{v:.3f}" for v in row["delays_ms"]],
            f"{row['max_delay_ms']:.3f}",
            row["category"],
            ";".join(row["serviceable_apps"]),
            "" if row["observed_mean_ms"] is None
            else f"{row['observed_mean_ms']:.3f}",
            str(row["observed_count"]),
            "yes" if row["flagged"] else "no",
        ])
    return out


def build_report_dict(result: RunResult) -> dict:
    """Assemble the full machine-readable report for one run."""
    metrics = result.metrics
    paths = {}
    model_speed = (
        result.config.scenario_speed_kmh
        if result.config.link_speed_mode == "scenario"
        else None
    )
    for (up, down), stats in metrics.path_stats.items():
        label = f"{TECH_LABEL[up]}->{TECH_LABEL[down]}"
        entry = {
            "count": stats.count,
            "mean_ms": round(stats.mean_ms, 3),
            "min_ms": round(stats.min_ms, 3),
            "max_ms": round(stats.max_ms, 3),
        }
        if model_speed is not None:
            expected = result.model.composed_delay(up, down, model_speed)
            entry["model_ms"] = round(expected, 3)
            entry["max_abs_error_ms"] = round(
                max(abs(stats.min_ms - expected), abs(stats.max_ms - expected)),
                3,
            )
        paths[label] = entry

    table_values, _, _ = emit_table4(result.model)
    gateway = result.gateway
    return {
        "seed": result.seed,
        "duration_ms": result.config.duration_ms,
        "config": result.config.canonical_dict(),
        "counts": {
            "events_executed": metrics.events_executed,
            "bsm_tx": metrics.bsm_tx,
            "deliveries_to_users": metrics.delivered,
            "duplicates_suppressed": metrics.duplicates_suppressed,
            "detections": metrics.detections,
            "broker_publishes": result.broker.publish_count,
            "broker_drops": result.broker.drop_count,
            "confirmed_non_connected": (
                gateway.confirmed_tracks if gateway else 0
            ),
            "pending_tracks_left": gateway.pending_tracks if gateway else 0,
        },
        "coverage": {
            "final": _round_or_none(result.final_coverage, 4),
            "mean": _round_or_none(result.mean_coverage, 4),
            "no_pairs": result.final_coverage is None,
            "samples": len(metrics.coverage_samples),
        },
        "ghosts": {
            "count": len(result.ghost_pairs),
            "pairs": [list(p) for p in result.ghost_pairs],
        },
        "paths": paths,
        "table4_recomposition": {
            "speeds_kmh": list(SPEEDS_KMH),
            "rows": [
                {
                    "uplink": TECH_LABEL[up],
                    "downlink": TECH_LABEL[down],
                    "delays_ms": [round(v, 3) for v in row],
                }
                for (up, down), row in zip(PAIR_ROWS, table_values)
            ],
        },
        "scenario_matrix": scenario_matrix(result.model, result=result),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _round_or_none(value: Optional[float], digits: int) -> Optional[float]:
    return None if value is None else round(value, digits)
