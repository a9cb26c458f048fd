"""Small geodesy helpers: a local planar frame and horizontal distance.

Scenario geometry lives in a local east/north frame (meters) anchored at
a configurable origin; messages carry geodetic positions. Both sides use
the same equirectangular scaling so frame round-trips are exact at the
scales this simulator works at (an intersection, not a continent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .messages import Position

EARTH_RADIUS_M = 6_371_000.0
#: Length of one degree of latitude (a meridian arc) on the model sphere;
#: :func:`horizontal_distance_m` is never less than this times the
#: latitude difference in degrees.
METERS_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0


@dataclass(frozen=True)
class LocalFrame:
    origin_lat_deg: float = 0.0
    origin_lon_deg: float = 0.0

    def _lon_scale(self) -> float:
        return METERS_PER_DEG * math.cos(math.radians(self.origin_lat_deg))

    def position_at(self, x_m: float, y_m: float, elev_m: float = 0.0) -> Position:
        """Geodetic position of local point (x east, y north), meters."""
        return Position(
            lat_deg=self.origin_lat_deg + y_m / METERS_PER_DEG,
            lon_deg=self.origin_lon_deg + x_m / self._lon_scale(),
            elev_m=elev_m,
        )

    def xy_of(self, position: Position) -> tuple[float, float]:
        return (
            (position.lon_deg - self.origin_lon_deg) * self._lon_scale(),
            (position.lat_deg - self.origin_lat_deg) * METERS_PER_DEG,
        )


def horizontal_distance_m(a: Position, b: Position) -> float:
    """Great-circle distance in meters; elevation is excluded on purpose
    (horizontal error dominates the matching use case)."""
    lat1, lon1 = math.radians(a.lat_deg), math.radians(a.lon_deg)
    lat2, lon2 = math.radians(b.lat_deg), math.radians(b.lon_deg)
    s_lat = math.sin((lat2 - lat1) / 2.0)
    s_lon = math.sin((lon2 - lon1) / 2.0)
    h = s_lat * s_lat + math.cos(lat1) * math.cos(lat2) * s_lon * s_lon
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))
