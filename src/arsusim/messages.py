"""Safety-message types shared by every other module.

Basic safety messages (BSM) are modeled as typed records carrying the
semantic field subset (position, accuracy, speed, heading, timestamp,
origin technology) rather than a wire encoding. Camera detections and
MQTT envelopes live here too, together with the constructors and the
validator that enforce field ranges. The records a run builds by the
thousand are immutable named tuples; a record with a field rule checks
it in ``__new__``.

Simulation time is integer microseconds everywhere inside the package;
milliseconds (3 decimals) appear only in reports and traces.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

US_PER_MS = 1000


def ms_to_us(ms: float) -> int:
    """Convert milliseconds to integer microseconds (round to nearest)."""
    return int(round(ms * US_PER_MS))


def us_to_ms(us: int) -> float:
    return us / US_PER_MS


class LinkTech(str, Enum):
    """Communication technology of a link endpoint.

    Camera is a passive uplink only: camera data enters the system as
    Detection records, never as a transmit technology.
    """

    DSRC = "DSRC"
    CV2X = "CV2X"
    CELL_MQTT = "CellMqtt"
    CAMERA = "Camera"


class Topic(str, Enum):
    """The four broker topics; a closed set, no wildcards."""

    IPU = "IPU"
    DSRC = "DSRC"
    CV2X = "CV2X"
    CELL = "Cell"


#: Identifiers generated by the gateway for confirmed non-connected road
#: users live in this reserved namespace; scenario ids must not use it.
SYNTHETIC_ID_PREFIX = "ipu:"


class ValidationError(ValueError):
    """A message field is outside its allowed range."""


class Position(NamedTuple):
    lat_deg: float
    lon_deg: float
    elev_m: float = 0.0


class PositionAccuracy(NamedTuple):
    """Reported positioning quality: 1-sigma horizontal error and DOP."""

    horizontal_sigma_m: float
    dop: float = 1.0


class Bsm(NamedTuple):
    """One road user's basic safety message (semantic subset). ``id`` is
    the road user's scenario-unique transmitter id."""

    id: str
    position: Position
    accuracy: PositionAccuracy
    speed_kmh: float
    heading_deg: float
    generated_at_us: int
    origin_tech: LinkTech


class _DetectionFields(NamedTuple):
    estimate: Position
    speed_kmh: float
    heading_deg: float
    captured_at_us: int
    available_at_us: int
    truth_id: Optional[str] = None


class Detection(_DetectionFields):
    """A camera/IPU estimate of one road user's kinematic state.

    ``available_at_us`` is when the estimate leaves the image-processing
    pipeline (capture time plus processing latency). ``truth_id`` is a
    simulation-only ground-truth link used by the ghost metric; it is
    never serialized and never consulted by the matching filter.
    """

    __slots__ = ()

    def __new__(
        cls,
        estimate: Position,
        speed_kmh: float,
        heading_deg: float,
        captured_at_us: int,
        available_at_us: int,
        truth_id: Optional[str] = None,
    ):
        if available_at_us < captured_at_us:
            raise ValidationError("detection available before capture")
        return tuple.__new__(cls, (
            estimate, speed_kmh, heading_deg, captured_at_us,
            available_at_us, truth_id,
        ))

    @classmethod
    def of_frame(
        cls,
        rows: Iterable[tuple[Position, float, float, Optional[str]]],
        captured_at_us: int,
        available_at_us: int,
    ) -> list[Detection]:
        """One camera frame's detections, one per ``(estimate, speed_kmh,
        heading_deg, truth_id)`` row. A frame has one capture and one
        available time, so their check runs once."""
        if available_at_us < captured_at_us:
            raise ValidationError("detection available before capture")
        new = tuple.__new__
        return [
            new(cls, (estimate, speed_kmh, heading_deg, captured_at_us,
                      available_at_us, truth_id))
            for estimate, speed_kmh, heading_deg, truth_id in rows
        ]


class _MqttEnvelopeFields(NamedTuple):
    topic: Topic
    payload: Bsm
    published_at_us: int


class MqttEnvelope(_MqttEnvelopeFields):
    __slots__ = ()

    def __new__(cls, topic: Topic, payload: Bsm, published_at_us: int):
        if not isinstance(topic, Topic):
            raise ValidationError(f"unknown topic {topic!r}")
        return tuple.__new__(cls, (topic, payload, published_at_us))


def make_bsm(
    user_id: str,
    position: Position,
    speed_kmh: float,
    heading_deg: float,
    accuracy: PositionAccuracy,
    tech: LinkTech,
    now_us: int,
) -> Bsm:
    """Build a validated BSM stamped ``generated_at = now``.

    Heading is normalized into [0, 360). Camera is rejected: camera data
    becomes a BSM only through the gateway's generation path for
    confirmed non-connected users (see :func:`make_ipu_bsm`).
    """
    if tech is LinkTech.CAMERA:
        raise ValidationError("camera is not a BSM origin")
    bsm = Bsm(
        id=user_id,
        position=position,
        accuracy=accuracy,
        speed_kmh=speed_kmh,
        heading_deg=heading_deg % 360.0,
        generated_at_us=now_us,
        origin_tech=tech,
    )
    violations = validate_bsm(bsm)
    if violations:
        raise ValidationError(violations[0])
    return bsm


def make_ipu_bsm(
    synthetic_id: str,
    detection: Detection,
    sigma_m: float,
) -> Bsm:
    """Build the gateway-generated BSM for a confirmed non-connected user.

    The message carries the detection's kinematics, origin Camera, the
    calibration error as its reported accuracy, and the capture time as
    its data epoch.
    """
    if not synthetic_id.startswith(SYNTHETIC_ID_PREFIX):
        raise ValidationError(
            f"generated BSM id must start with {SYNTHETIC_ID_PREFIX!r}"
        )
    return Bsm(
        synthetic_id, detection.estimate, _camera_accuracy(sigma_m),
        detection.speed_kmh, detection.heading_deg % 360.0,
        detection.captured_at_us, LinkTech.CAMERA,
    )


@lru_cache(maxsize=8, typed=True)
def _camera_accuracy(sigma_m: float) -> PositionAccuracy:
    """The accuracy of every camera BSM built with ``sigma_m``: one
    shared, immutable record per calibration error."""
    return PositionAccuracy(horizontal_sigma_m=sigma_m, dop=1.0)


def validate_bsm(bsm: Bsm) -> list[str]:
    """Return every invariant violation (empty list means valid).

    Violations are data, not failures: callers decide whether to raise.
    """
    violations = []
    if not -90.0 <= bsm.position.lat_deg <= 90.0:
        violations.append("latitude out of range [-90, 90]")
    if not -180.0 <= bsm.position.lon_deg <= 180.0:
        violations.append("longitude out of range [-180, 180]")
    if bsm.accuracy.horizontal_sigma_m < 0.0:
        violations.append("horizontal_sigma out of range (negative)")
    if bsm.accuracy.dop < 1.0:
        violations.append("dop out of range (< 1)")
    if bsm.speed_kmh < 0.0:
        violations.append("speed out of range (negative)")
    if not 0.0 <= bsm.heading_deg < 360.0:
        violations.append("heading out of [0, 360)")
    if bsm.generated_at_us < 0:
        violations.append("negative timestamp")
    if (bsm.origin_tech is LinkTech.CAMERA
            and not bsm.id.startswith(SYNTHETIC_ID_PREFIX)):
        violations.append("camera origin requires a synthetic id")
    return violations

