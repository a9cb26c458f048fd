"""Small geodesy helpers: a local planar frame, horizontal distance and
Earth-centred coordinates.

Scenario geometry lives in a local east/north frame (meters) anchored at
a configurable origin; messages carry geodetic positions. Both sides use
the same equirectangular scaling so frame round-trips are exact at the
scales this simulator works at (an intersection, not a continent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .messages import Position

EARTH_RADIUS_M = 6_371_000.0
#: Length of one degree of latitude (a meridian arc) on the model sphere;
#: :func:`horizontal_distance_m` is never less than this times the
#: latitude difference in degrees.
METERS_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0
_RAD_PER_DEG = math.pi / 180.0


@dataclass(frozen=True)
class LocalFrame:
    origin_lat_deg: float = 0.0
    origin_lon_deg: float = 0.0
    #: Meters per degree of longitude at the origin, set with it.
    _lon_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_lon_scale",
            METERS_PER_DEG * math.cos(math.radians(self.origin_lat_deg)),
        )

    def position_at(self, x_m: float, y_m: float) -> Position:
        """Geodetic position of local point (x east, y north), meters."""
        lat = self.origin_lat_deg + y_m / METERS_PER_DEG
        lon = self.origin_lon_deg + x_m / self._lon_scale
        # The common case, both in range, without a call.
        if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
            return Position(lat, lon)
        return Position(_clamp_lat(lat), _wrap_lon(lon))

    def xy_of(self, position: Position) -> tuple[float, float]:
        return (
            _wrap_lon(position.lon_deg - self.origin_lon_deg)
            * self._lon_scale,
            (position.lat_deg - self.origin_lat_deg) * METERS_PER_DEG,
        )


def _clamp_lat(lat_deg: float) -> float:
    """``lat_deg`` in [-90, 90]: a value already in range is returned as
    it is, bit for bit; a noisy sample past a pole is held at the pole."""
    if -90.0 <= lat_deg <= 90.0:
        return lat_deg
    return 90.0 if lat_deg > 0.0 else -90.0


def _wrap_lon(lon_deg: float) -> float:
    """``lon_deg`` in [-180, 180]: a value already in range is returned
    as it is, bit for bit; one past the antimeridian is wrapped."""
    if -180.0 <= lon_deg <= 180.0:
        return lon_deg
    return (lon_deg + 180.0) % 360.0 - 180.0


def horizontal_distance_m(a: Position, b: Position) -> float:
    """Great-circle distance in meters; elevation is excluded on purpose
    (horizontal error dominates the matching use case)."""
    # x * _RAD_PER_DEG is math.radians(x), bit for bit.
    lat1, lon1, _ = a
    lat2, lon2, _ = b
    lat1, lon1 = lat1 * _RAD_PER_DEG, lon1 * _RAD_PER_DEG
    lat2, lon2 = lat2 * _RAD_PER_DEG, lon2 * _RAD_PER_DEG
    s_lat = math.sin((lat2 - lat1) / 2.0)
    s_lon = math.sin((lon2 - lon1) / 2.0)
    h = s_lat * s_lat + math.cos(lat1) * math.cos(lat2) * s_lon * s_lon
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def earth_centred_m(position: Position) -> tuple[float, float, float]:
    """Earth-centred Cartesian coordinates ``(x, y, z)`` of ``position``,
    in meters on the model sphere: x towards latitude 0 on the prime
    meridian, y towards longitude 90 east, z towards the north pole.
    Elevation is left out, as :func:`horizontal_distance_m` leaves it
    out, so the chord between two positions' coordinates is never longer
    than their distance, the arc it spans."""
    lat, lon, _ = position
    lat, lon = lat * _RAD_PER_DEG, lon * _RAD_PER_DEG
    ground = EARTH_RADIUS_M * math.cos(lat)
    return (ground * math.cos(lon), ground * math.sin(lon),
            EARTH_RADIUS_M * math.sin(lat))
