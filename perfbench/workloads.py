"""Seeded scenario generator for the benchmark workloads.

``scenario_yaml(workload, seed)`` returns the text of a scenario document
that ``arsusim.config.load_scenario`` accepts. The same (workload, seed)
always gives the same bytes. User counts, run length and settings are
fixed per workload; the seed draws positions in a disc well inside the
gateway's coverage, headings, per-user speeds, BSM phases, the scenario
link speed and the simulation seed. Every user therefore stays in
coverage for the whole run, so the work a run does depends on the
workload and hardly at all on the seed.

This module imports nothing from ``arsusim``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Gateway coverage radius (m) in every workload.
COVERAGE_RADIUS_M = 300.0

#: Users start in a disc of this radius around the gateway. At 60 km/h a
#: user moves 100 m in 6 s, so nobody leaves coverage during a run.
DISC_RADIUS_M = 150.0


@dataclass(frozen=True)
class Group:
    kind: str
    count: int
    speed_lo_kmh: float
    speed_hi_kmh: float


@dataclass(frozen=True)
class Workload:
    name: str
    duration_ms: float
    trace: bool
    drop_probability: float
    groups: tuple[Group, ...]


_PEDESTRIANS = Group("non_connected", 4, 3.0, 6.0)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="radio-dense",
            duration_ms=2000.0,
            trace=False,
            drop_probability=0.0,
            groups=(
                Group("native_dsrc", 40, 20.0, 60.0),
                Group("native_cv2x", 40, 20.0, 60.0),
                Group("nonnative_cell", 4, 5.0, 50.0),
                _PEDESTRIANS,
            ),
        ),
        Workload(
            name="cell-fanout",
            duration_ms=2000.0,
            trace=True,
            drop_probability=0.05,
            groups=(
                Group("nonnative_cell", 60, 5.0, 50.0),
                Group("native_dsrc", 4, 20.0, 60.0),
                Group("native_cv2x", 4, 20.0, 60.0),
                _PEDESTRIANS,
            ),
        ),
        Workload(
            name="camera-crowd",
            duration_ms=6000.0,
            trace=False,
            drop_probability=0.0,
            groups=(
                Group("non_connected", 150, 3.0, 6.0),
                Group("native_dsrc", 3, 20.0, 60.0),
                Group("native_cv2x", 3, 20.0, 60.0),
                Group("nonnative_cell", 2, 5.0, 50.0),
            ),
        ),
    )
}


def scenario_yaml(workload: str, seed: int) -> str:
    """Scenario document for one (workload, seed)."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    lines = [
        f"# benchmark workload {workload}, seed {seed}",
        f"duration_ms: {spec.duration_ms:.0f}",
        f"scenario_speed_kmh: {rng.uniform(20.0, 100.0):.1f}",
        f"seed: {seed}",
        "link_speed_mode: scenario",
        f"arsu: {{coverage_radius_m: {COVERAGE_RADIUS_M:.0f}}}",
        f"mqtt: {{drop_probability: {spec.drop_probability}}}",
        "users:",
    ]
    for group in spec.groups:
        for i in range(1, group.count + 1):
            # Uniform over the disc's area, not its radius.
            r = DISC_RADIUS_M * math.sqrt(rng.random())
            angle = rng.uniform(0.0, 2.0 * math.pi)
            lines.append(
                f"  - {{kind: {group.kind}, id: {group.kind}-{i},"
                f" x_m: {r * math.cos(angle):.3f},"
                f" y_m: {r * math.sin(angle):.3f},"
                f" heading_deg: {rng.uniform(0.0, 360.0):.1f},"
                f" speed_kmh: "
                f"{rng.uniform(group.speed_lo_kmh, group.speed_hi_kmh):.1f},"
                f" bsm_phase_ms: {rng.uniform(0.0, 99.0):.3f}}}"
            )
    return "\n".join(lines) + "\n"
