import random

import pytest

from arsusim.messages import (
    Bsm,
    Detection,
    LinkTech,
    MqttEnvelope,
    Position,
    PositionAccuracy,
    ValidationError,
    make_bsm,
    make_ipu_bsm,
    validate_bsm,
)


def _make(
    lat=0.0, lon=0.0, elev=0.0, speed=0.0, heading=0.0,
    tech=LinkTech.DSRC, now=0, sigma=1.0, dop=1.0, user="U1",
):
    return make_bsm(
        user,
        Position(lat, lon, elev),
        speed,
        heading,
        PositionAccuracy(sigma, dop),
        tech,
        now,
    )


class TestMakeBsm:
    def test_all_zero_identity_case(self):
        bsm = _make()
        assert bsm.generated_at_us == 0
        assert bsm.origin_tech is LinkTech.DSRC
        assert validate_bsm(bsm) == []

    def test_latitude_out_of_range(self):
        with pytest.raises(ValidationError, match="latitude out of range"):
            _make(lat=91.0)

    def test_camera_is_not_a_bsm_origin(self):
        with pytest.raises(ValidationError, match="camera is not a BSM origin"):
            _make(tech=LinkTech.CAMERA)

    def test_heading_normalized(self):
        assert _make(heading=360.0).heading_deg == 0.0
        assert _make(heading=-90.0).heading_deg == 270.0

    def test_negative_speed_rejected(self):
        with pytest.raises(ValidationError):
            _make(speed=-1.0)


class TestValidateBsm:
    def test_well_formed_is_ok(self):
        assert validate_bsm(_make(lat=12.5, lon=-30.0, speed=50.0)) == []

    def test_heading_boundary(self):
        bsm = Bsm(
            "U1", Position(0, 0), PositionAccuracy(1.0),
            0.0, 360.0, 0, LinkTech.DSRC,
        )
        assert any("heading" in v for v in validate_bsm(bsm))

    def test_negative_timestamp(self):
        bsm = Bsm(
            "U1", Position(0, 0), PositionAccuracy(1.0),
            0.0, 0.0, -1, LinkTech.DSRC,
        )
        assert any("negative timestamp" in v for v in validate_bsm(bsm))

    def test_camera_origin_needs_synthetic_id(self):
        bsm = Bsm(
            "U1", Position(0, 0), PositionAccuracy(1.0),
            0.0, 0.0, 0, LinkTech.CAMERA,
        )
        assert any("synthetic" in v for v in validate_bsm(bsm))

    def test_constructor_validator_agreement_random_inrange(self):
        rng = random.Random(42)
        for _ in range(200):
            bsm = _make(
                lat=rng.uniform(-90, 90),
                lon=rng.uniform(-180, 180),
                elev=rng.uniform(-100, 4000),
                speed=rng.uniform(0, 250),
                heading=rng.uniform(0, 359.999),
                now=rng.randrange(0, 10**9),
                sigma=rng.uniform(0, 20),
                dop=rng.uniform(1, 10),
            )
            assert validate_bsm(bsm) == []


class TestIpuBsm:
    def _detection(self):
        return Detection(
            estimate=Position(0.001, 0.002),
            speed_kmh=30.0,
            heading_deg=90.0,
            captured_at_us=1_000_000,
            available_at_us=1_300_000,
        )

    def test_carries_detection_kinematics_and_capture_epoch(self):
        bsm = make_ipu_bsm("ipu:1", self._detection(), 5.0)
        assert bsm.generated_at_us == 1_000_000
        assert bsm.origin_tech is LinkTech.CAMERA
        assert bsm.accuracy.horizontal_sigma_m == 5.0
        assert validate_bsm(bsm) == []

    def test_rejects_non_synthetic_id(self):
        with pytest.raises(ValidationError):
            make_ipu_bsm("U1", self._detection(), 5.0)


class TestDetection:
    def test_available_before_capture_rejected(self):
        with pytest.raises(ValidationError):
            Detection(Position(0, 0), 0.0, 0.0, 100, 99)


class TestSerialization:
    def test_envelope_topic_closed_set(self):
        with pytest.raises(ValidationError):
            MqttEnvelope("Rogue", _make(), 0)
