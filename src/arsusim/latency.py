"""Per-technology link delays as a function of speed.

The model is anchored on the published 7x5 matrix of composed
uplink+downlink delays at speeds 0/30/60/90/120 km/h. Uplink and
downlink each contribute half of that technology's RTT, and the three
camera rows equal a fixed image-processing overhead (300 ms) plus the
downlink half, which makes the matrix over-determined: subtracting the
overhead from the camera rows yields every half-delay, and rows 1-4 must
recompose from those halves. That consistency check runs whenever a
matrix is loaded. The decode is fixed: columns at ``SPEEDS_KMH`` and a
``DEFAULT_IPU_PROCESSING_MS`` overhead.

Between tabulated speeds the model interpolates linearly; above the last
sample it clamps (with a warning) rather than invent an extrapolation.
"""

from __future__ import annotations

import csv
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .messages import LinkTech

SPEEDS_KMH: tuple[float, ...] = (0.0, 30.0, 60.0, 90.0, 120.0)

#: Uplink/downlink pairs of the composed-delay matrix, in row order.
PAIR_ROWS: tuple[tuple[LinkTech, LinkTech], ...] = (
    (LinkTech.DSRC, LinkTech.CV2X),
    (LinkTech.DSRC, LinkTech.CELL_MQTT),
    (LinkTech.CV2X, LinkTech.CELL_MQTT),
    (LinkTech.CELL_MQTT, LinkTech.CELL_MQTT),
    (LinkTech.CAMERA, LinkTech.DSRC),
    (LinkTech.CAMERA, LinkTech.CV2X),
    (LinkTech.CAMERA, LinkTech.CELL_MQTT),
)

#: Built-in composed delays (ms) per PAIR_ROWS x SPEEDS_KMH.
DEFAULT_COMPOSED_DELAYS_MS: tuple[tuple[float, ...], ...] = (
    (5.470, 7.354, 9.166, 10.906, 12.574),
    (43.387, 60.919, 74.509, 84.157, 89.863),
    (45.400, 61.903, 74.536, 83.299, 88.192),
    (83.318, 115.469, 139.880, 156.551, 165.482),
    (301.728, 303.185, 304.569, 305.882, 307.122),
    (303.742, 304.169, 304.597, 305.024, 305.452),
    (341.659, 357.735, 369.940, 378.275, 382.741),
)

DEFAULT_IPU_PROCESSING_MS = 300.0
#: Largest residual (ms) a composed matrix may show when rows 1-4 are
#: recomposed from its own halves.
RECOMPOSITION_TOLERANCE_MS = 0.01

NEAR_REAL_TIME_LIMIT_MS = 100.0
#: Maximum inter-transmission time; also the end-to-end delay ceiling.
MAX_ITT_MS = 600.0

#: Short technology labels of the delay table, its CSV and the reports.
TECH_LABEL: Mapping[LinkTech, str] = {
    LinkTech.DSRC: "DSRC",
    LinkTech.CV2X: "CV2X",
    LinkTech.CELL_MQTT: "Cell",
    LinkTech.CAMERA: "Cam",
}


class DelayCategory(Enum):
    """Delay band of a composed link, with strict-< boundaries."""

    NEAR_REAL_TIME = "near real-time"
    REDUCED_LATENCY = "reduced latency"
    UNSERVICEABLE = "unserviceable"


def classify(delay_ms: float) -> DelayCategory:
    """Band a composed delay: <100 ms, <600 ms, or unserviceable."""
    if delay_ms < 0.0:
        raise ValueError("delay must be non-negative")
    if delay_ms < NEAR_REAL_TIME_LIMIT_MS:
        return DelayCategory.NEAR_REAL_TIME
    if delay_ms < MAX_ITT_MS:
        return DelayCategory.REDUCED_LATENCY
    return DelayCategory.UNSERVICEABLE


class AppCategory(Enum):
    TIME_CRITICAL = "time-critical"
    TIME_SENSITIVE = "time-sensitive"


@dataclass(frozen=True, order=True)
class SafetyApp:
    name: str
    category: AppCategory = field(compare=False)
    max_latency_ms: float = field(compare=False)


SAFETY_APPS: tuple[SafetyApp, ...] = (
    SafetyApp("EEBL", AppCategory.TIME_CRITICAL, 100.0),
    SafetyApp("FCW", AppCategory.TIME_CRITICAL, 100.0),
    SafetyApp("IMA", AppCategory.TIME_CRITICAL, 100.0),
    SafetyApp("BSW", AppCategory.TIME_SENSITIVE, 1000.0),
    SafetyApp("LCW", AppCategory.TIME_SENSITIVE, 1000.0),
    SafetyApp("DNPW", AppCategory.TIME_SENSITIVE, 1000.0),
)


class InconsistentDelayTable(ValueError):
    """The composed matrix does not recompose from its own halves."""


class SpeedClampWarning(UserWarning):
    """Queried speed above the last tabulated sample; value clamped."""


def recomposition_residuals(
    composed_ms: Sequence[Sequence[float]],
) -> list[list[float]]:
    """Absolute residuals (ms) of rows 1-4 against the derived halves.

    Returns a 4 x n_speeds matrix; entry [i][j] is |printed - recomposed|
    for composed row i at speed column j.
    """
    _check_shape(composed_ms)
    camera_rows = {
        LinkTech.DSRC: composed_ms[4],
        LinkTech.CV2X: composed_ms[5],
        LinkTech.CELL_MQTT: composed_ms[6],
    }
    residuals = []
    for i in range(4):
        up, down = PAIR_ROWS[i]
        row = []
        for j in range(len(composed_ms[i])):
            recomposed = (camera_rows[up][j] - DEFAULT_IPU_PROCESSING_MS) + (
                camera_rows[down][j] - DEFAULT_IPU_PROCESSING_MS
            )
            row.append(abs(composed_ms[i][j] - recomposed))
        residuals.append(row)
    return residuals


def _check_shape(composed_ms: Sequence[Sequence[float]]) -> None:
    if len(composed_ms) != len(PAIR_ROWS):
        raise ValueError(f"expected {len(PAIR_ROWS)} rows, got {len(composed_ms)}")
    widths = {len(row) for row in composed_ms}
    if widths != {len(SPEEDS_KMH)}:
        raise ValueError(f"expected {len(SPEEDS_KMH)} delay columns per row")


@dataclass(frozen=True)
class LatencyModel:
    """Per-technology half-RTT samples (ms) at ``SPEEDS_KMH``; immutable
    once built."""

    half_ms: Mapping[LinkTech, tuple[float, ...]]

    def __post_init__(self):
        for tech, values in self.half_ms.items():
            if any(v <= 0.0 for v in values):
                raise ValueError(f"{tech.value}: half-RTT must be positive")
            if any(b < a for a, b in zip(values, values[1:])):
                raise ValueError(
                    f"{tech.value}: half-RTT must be non-decreasing in speed"
                )

    @classmethod
    def default(cls) -> "LatencyModel":
        return cls.from_composed(DEFAULT_COMPOSED_DELAYS_MS)

    @classmethod
    def from_composed(
        cls, composed_ms: Sequence[Sequence[float]]
    ) -> "LatencyModel":
        """Decode per-technology half-RTTs from a composed 7x5 matrix.

        The camera rows (5-7) equal processing overhead + downlink half,
        so half(tech) = camera_row(tech) - overhead. Rows 1-4 must then
        recompose within ``RECOMPOSITION_TOLERANCE_MS``; the first
        offending cell is named in the raised error.
        """
        residuals = recomposition_residuals(composed_ms)
        for i, row in enumerate(residuals):
            for j, residual in enumerate(row):
                if residual > RECOMPOSITION_TOLERANCE_MS:
                    up, down = PAIR_ROWS[i]
                    raise InconsistentDelayTable(
                        f"inconsistent delay table: row {i + 1} "
                        f"({up.value}-{down.value}) at {SPEEDS_KMH[j]:g} "
                        f"km/h, residual {residual:.3f} ms exceeds "
                        f"{RECOMPOSITION_TOLERANCE_MS} ms"
                    )
        return cls({
            tech: tuple(
                v - DEFAULT_IPU_PROCESSING_MS for v in composed_ms[4 + k]
            )
            for k, tech in enumerate(
                (LinkTech.DSRC, LinkTech.CV2X, LinkTech.CELL_MQTT)
            )
        })

    @classmethod
    def from_csv(cls, path) -> "LatencyModel":
        return cls.from_composed(load_composed_csv(path))

    def half_delay(self, tech: LinkTech, speed_kmh: float) -> float:
        """Half-RTT (ms) for one leg: exact at samples, linear between,
        clamped (with a SpeedClampWarning) above the last sample."""
        if tech is LinkTech.CAMERA:
            raise ValueError("camera has no half-RTT; use composed_delay")
        if speed_kmh < 0.0:
            raise ValueError("speed must be non-negative")
        speeds = SPEEDS_KMH
        values = self.half_ms[tech]
        if speed_kmh > speeds[-1]:
            warnings.warn(
                f"speed {speed_kmh:g} km/h above table maximum "
                f"{speeds[-1]:g}; clamping",
                SpeedClampWarning,
                stacklevel=2,
            )
            return values[-1]
        i = bisect_left(speeds, speed_kmh)
        if speeds[i] == speed_kmh:
            return values[i]
        lo, hi = speeds[i - 1], speeds[i]
        frac = (speed_kmh - lo) / (hi - lo)
        return values[i - 1] + frac * (values[i] - values[i - 1])

    def composed_delay(
        self, uplink: LinkTech, downlink: LinkTech, speed_kmh: float
    ) -> float:
        """End-to-end delay (ms) of one uplink/downlink bundle.

        A camera uplink contributes the fixed processing overhead instead
        of a half-RTT; a camera downlink does not exist.
        """
        if downlink is LinkTech.CAMERA:
            raise ValueError("camera cannot be a downlink")
        down = self.half_delay(downlink, speed_kmh)
        if uplink is LinkTech.CAMERA:
            return DEFAULT_IPU_PROCESSING_MS + down
        return self.half_delay(uplink, speed_kmh) + down

    def max_composed_delay(
        self, uplink: LinkTech, downlink: LinkTech, lo_kmh: float, hi_kmh: float
    ) -> float:
        """Maximum composed delay over a speed range.

        Evaluated at the range endpoints and every interior breakpoint,
        which is exact for a piecewise-linear model.
        """
        if lo_kmh > hi_kmh:
            raise ValueError("empty speed range")
        points = [lo_kmh, hi_kmh]
        points += [s for s in SPEEDS_KMH if lo_kmh < s < hi_kmh]
        return max(self.composed_delay(uplink, downlink, v) for v in points)

    def serviceable_apps(
        self,
        uplink: LinkTech,
        downlink: LinkTech,
        speed_range_kmh: tuple[float, float],
    ) -> frozenset[SafetyApp]:
        """Safety applications this link bundle can serve over a speed range.

        The judgment is bundle-level: the worst-case delay over the range
        must meet the app's latency requirement and stay under the
        600 ms inter-transmission ceiling.
        """
        worst = self.max_composed_delay(uplink, downlink, *speed_range_kmh)
        if worst >= MAX_ITT_MS:
            return frozenset()
        return frozenset(
            app for app in SAFETY_APPS if worst <= app.max_latency_ms
        )

    def composed_matrix(self) -> list[list[float]]:
        """Recomposed 7x5 matrix over PAIR_ROWS x tabulated speeds."""
        return [
            [self.composed_delay(up, down, v) for v in SPEEDS_KMH]
            for up, down in PAIR_ROWS
        ]


def load_composed_csv(path) -> list[list[float]]:
    """Read a composed-delay matrix: header ``uplink,downlink,<speeds>``
    then seven rows in PAIR_ROWS order with labeled endpoints."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and not row[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty delay table")
    header = rows[0]
    expected_header = ["uplink", "downlink"] + [f"{s:g}" for s in SPEEDS_KMH]
    if [c.strip() for c in header] != expected_header:
        raise ValueError(
            f"{path}: expected header {','.join(expected_header)!r}"
        )
    body = rows[1:]
    if len(body) != len(PAIR_ROWS):
        raise ValueError(f"{path}: expected {len(PAIR_ROWS)} data rows")
    matrix = []
    for i, row in enumerate(body):
        up, down = PAIR_ROWS[i]
        if (row[0].strip(), row[1].strip()) != (
            TECH_LABEL[up],
            TECH_LABEL[down],
        ):
            raise ValueError(
                f"{path}: row {i + 1} must be labeled "
                f"{TECH_LABEL[up]},{TECH_LABEL[down]}"
            )
        try:
            matrix.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise ValueError(f"{path}: row {i + 1}: {exc}") from None
    _check_shape(matrix)
    return matrix


def composed_csv_rows(matrix: Sequence[Sequence[float]]) -> Iterable[list[str]]:
    """CSV rows (header + 7 data rows) in the loadable format."""
    yield ["uplink", "downlink"] + [f"{s:g}" for s in SPEEDS_KMH]
    for (up, down), row in zip(PAIR_ROWS, matrix):
        yield [TECH_LABEL[up], TECH_LABEL[down]] + [
            f"{v:.3f}" for v in row
        ]
