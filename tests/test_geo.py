import math

import pytest
from hypothesis import given, strategies as st

from arsusim.geo import METERS_PER_DEG, LocalFrame, horizontal_distance_m
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
    # The gateway's latitude-band index relies on this bound. The 1 nm
    # absolute slack covers squared sines that underflow below ~1e-154.
    a, b = Position(lat1, lon1), Position(lat2, lon2)
    arc = METERS_PER_DEG * abs(a.lat_deg - b.lat_deg)
    assert horizontal_distance_m(a, b) >= arc * (1 - 1e-9) - 1e-9
