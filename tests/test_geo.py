import math

import pytest
from hypothesis import given, strategies as st

from arsusim.geo import (
    METERS_PER_DEG,
    LocalFrame,
    earth_centred_m,
    horizontal_distance_m,
)
from arsusim.messages import Position


def test_frame_round_trip():
    frame = LocalFrame(-27.5, 153.0)
    pos = frame.position_at(123.4, -56.7)
    x, y = frame.xy_of(pos)
    assert x == pytest.approx(123.4, abs=1e-6)
    assert y == pytest.approx(-56.7, abs=1e-6)


@pytest.mark.parametrize("origin_lon", [180.0, -180.0, 179.99995])
def test_frame_round_trip_across_the_antimeridian(origin_lon):
    frame = LocalFrame(10.0, origin_lon)
    for x in (-10.0, 10.0):
        pos = frame.position_at(x, 3.0)
        assert -180.0 <= pos.lon_deg <= 180.0
        assert frame.xy_of(pos) == pytest.approx((x, 3.0), abs=1e-6)
    east, west = frame.position_at(10.0, 0.0), frame.position_at(-10.0, 0.0)
    assert horizontal_distance_m(east, west) == pytest.approx(20.0, abs=1e-6)


def test_position_past_a_pole_is_held_at_it():
    frame = LocalFrame(89.9999, 0.0)
    assert frame.position_at(0.0, 20.0).lat_deg == 90.0
    assert LocalFrame(-89.9999, 0.0).position_at(0.0, -20.0).lat_deg == -90.0
    # In range: bit for bit the unclamped value.
    assert frame.position_at(0.0, -20.0).lat_deg == (
        89.9999 + -20.0 / METERS_PER_DEG
    )


def test_known_offset_distance():
    frame = LocalFrame(0.0, 0.0)
    a = frame.position_at(0.0, 0.0)
    b = frame.position_at(3.0, 4.0)
    assert horizontal_distance_m(a, b) == pytest.approx(5.0, abs=1e-6)


def test_distance_ignores_elevation():
    a = Position(0.0, 0.0, 0.0)
    b = Position(0.0, 0.0, 500.0)
    assert horizontal_distance_m(a, b) == 0.0


def test_distance_symmetric():
    frame = LocalFrame(45.0, 9.0)
    a = frame.position_at(10.0, 20.0)
    b = frame.position_at(-30.0, 5.0)
    assert horizontal_distance_m(a, b) == pytest.approx(
        horizontal_distance_m(b, a), abs=1e-12
    )


def test_distance_matches_planar_at_small_scale():
    frame = LocalFrame(40.0, -75.0)
    a = frame.position_at(0.0, 0.0)
    b = frame.position_at(100.0, 100.0)
    expected = math.hypot(100.0, 100.0)
    assert horizontal_distance_m(a, b) == pytest.approx(expected, rel=1e-4)


latitudes = st.floats(-90.0, 90.0)
longitudes = st.floats(-180.0, 180.0)


@given(latitudes, longitudes, latitudes, longitudes)
def test_distance_never_below_meridian_arc(lat1, lon1, lat2, lon2):
    # The 1 nm absolute slack covers squared sines that underflow below
    # ~1e-154.
    a, b = Position(lat1, lon1), Position(lat2, lon2)
    arc = METERS_PER_DEG * abs(a.lat_deg - b.lat_deg)
    assert horizontal_distance_m(a, b) >= arc * (1 - 1e-9) - 1e-9


def test_coordinates_lie_on_the_model_sphere():
    assert earth_centred_m(Position(0.0, 0.0)) == (6_371_000.0, 0.0, 0.0)
    x, y, z = earth_centred_m(Position(90.0, 123.0, 500.0))
    assert (x, y) == pytest.approx((0.0, 0.0), abs=1e-9)
    assert z == 6_371_000.0  # elevation left out
    x, y, z = earth_centred_m(Position(-30.0, 90.0))
    assert math.hypot(x, y, z) == pytest.approx(6_371_000.0, rel=1e-15)
    assert (x, z) == pytest.approx((0.0, -3_185_500.0), abs=1e-6)


# Positions anywhere, with the poles and both sides of the antimeridian
# drawn on their own, and a second position at the first, or up to 0.9
# degrees from it on each axis (at most 100 km at the equator), or
# anywhere.
anywhere = st.builds(
    Position,
    st.one_of(latitudes, st.sampled_from([-90.0, 90.0])),
    st.one_of(longitudes, st.sampled_from([-180.0, 180.0]),
              st.floats(179.999, 180.0), st.floats(-180.0, -179.999)),
)


def _near(position, d_lat, d_lon):
    lat = max(-90.0, min(90.0, position.lat_deg + d_lat))
    lon = (position.lon_deg + d_lon + 180.0) % 360.0 - 180.0
    return Position(lat, lon)


pairs = anywhere.flatmap(lambda a: st.tuples(st.just(a), st.one_of(
    st.just(a),
    st.builds(_near, st.just(a), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
    anywhere,
)))


@given(pairs)
def test_chord_never_longer_than_distance(pair):
    # The gateway's cubes rely on this bound, with this margin.
    a, b = pair
    chord = math.dist(earth_centred_m(a), earth_centred_m(b))
    assert chord <= horizontal_distance_m(a, b) * (1 + 1e-6) + 1e-6
