"""Scenario configuration: schema, defaults, strict parsing.

Scenario documents are YAML (key/value with nesting). Parsing is strict:
unknown keys are hard errors rather than silently ignored typos, ranges
are validated up front, and defaults are materialized so a parsed config
is complete and self-describing.

The settings dataclasses below are the one schema: each field is a
document key, and its default and range (or, for a non-number, its
``parse`` function) are declared on the field and nowhere else. One
reader walks the fields to parse a document, and
``ScenarioConfig.canonical_dict`` walks the same fields to echo it, so
the allowed keys, defaults, range checks and echo cannot drift apart.
A user entry writes ``UserSpec.user_id`` as ``id``.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Optional

import yaml

from .broker import ARSU_CLIENT
from .geo import METERS_PER_DEG
from .latency import DEFAULT_IPU_PROCESSING_MS, MAX_ITT_MS, SPEEDS_KMH
from .messages import SYNTHETIC_ID_PREFIX, LinkTech, ms_to_us

#: Fastest speed a scenario or a user may run at: the delay table's last
#: sample, the fastest the latency model accepts.
MAX_SCENARIO_SPEED_KMH = SPEEDS_KMH[-1]


class ConfigError(ValueError):
    """Scenario document rejected (syntax, unknown key, or range)."""


class RoadUserKind(Enum):
    """A road user's kind, parsed from its ``value``; ``tech`` is the
    technology it transmits and hears on, None for non-connected users,
    and ``id_prefix`` starts its automatic ids (``dsrc1``, ``dsrc2``, ...).
    """

    NATIVE_DSRC = ("native_dsrc", LinkTech.DSRC, "dsrc")
    NATIVE_CV2X = ("native_cv2x", LinkTech.CV2X, "cv2x")
    NONNATIVE_CELL = ("nonnative_cell", LinkTech.CELL_MQTT, "cell")
    NON_CONNECTED = ("non_connected", None, "nc")

    def __new__(cls, value: str, tech: Optional[LinkTech], id_prefix: str):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.tech = tech
        kind.id_prefix = id_prefix
        return kind

    @property
    def is_connected(self) -> bool:
        return self is not RoadUserKind.NON_CONNECTED


def _setting(default=MISSING, **metadata):
    """A settings field with its default (none: the key is required) and
    how a document sets it: ``parse(value, where)`` for a non-number, else
    a number within the optional ``minimum`` and ``maximum``. A field
    declared without ``_setting`` is a number with no range."""
    return field(default=default, metadata=metadata)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _seed(value, where: str) -> int:
    value = _integer(value, where)
    if value < 0:
        raise ConfigError(
            f"{where} must be a non-negative integer, got {value}"
        )
    return value


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be a boolean")
    return value


def _link_speed_mode(value, where: str) -> str:
    if value not in ("scenario", "max_endpoint"):
        raise ConfigError(
            f"{where} must be 'scenario' or 'max_endpoint', got {value!r}"
        )
    return value


def _path(value, where: str) -> Optional[str]:
    """A path string, or None. An empty path names no file; it is
    refused as a file that fails to load is: ``<key>: <reason>``."""
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{where} must be a path string")
    if value == "":
        key = where.rpartition(".")[2]
        raise ConfigError(f"{key}: an empty path names no file")
    return value


def _users(value, where: str) -> tuple[UserSpec, ...]:
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):  # a tuple: the field default
        raise ConfigError(f"{where} must be a list")
    return _build_users(value)


@dataclass(frozen=True)
class UserSpec:
    kind: RoadUserKind
    user_id: str
    x_m: float = 0.0
    y_m: float = 0.0
    heading_deg: float = 0.0
    speed_kmh: Optional[float] = _setting(  # None: scenario speed
        None, minimum=0.0, maximum=MAX_SCENARIO_SPEED_KMH
    )
    gnss_error_std_m: float = _setting(5.0 / 3.0, minimum=0.0)
    bsm_interval_ms: float = _setting(100.0, minimum=1e-3, maximum=MAX_ITT_MS)
    bsm_phase_ms: float = _setting(0.0, minimum=0.0)


@dataclass(frozen=True)
class ArsuSettings:
    present: bool = _setting(True, parse=_boolean)
    x_m: float = 0.0
    y_m: float = 0.0
    coverage_radius_m: float = _setting(150.0, minimum=1.0)


@dataclass(frozen=True)
class FilterSettings:
    sigma_m: float = _setting(5.0, minimum=1e-9)
    window_ms: float = _setting(200.0, minimum=1e-3)
    grace_ms: float = _setting(100.0, minimum=1e-3)


@dataclass(frozen=True)
class IpuSettings:
    noise_std_m: float = _setting(1.0, minimum=0.0)  # per horizontal axis
    frame_period_ms: float = _setting(100.0, minimum=1e-3)
    processing_ms: float = _setting(DEFAULT_IPU_PROCESSING_MS, minimum=1e-3)


@dataclass(frozen=True)
class MqttSettings:
    drop_probability: float = _setting(0.0, minimum=0.0, maximum=1.0)


@dataclass(frozen=True)
class OriginSettings:
    lat: float = _setting(0.0, minimum=-90.0, maximum=90.0)
    lon: float = _setting(0.0, minimum=-180.0, maximum=180.0)


@dataclass(frozen=True)
class ScenarioConfig:
    duration_ms: float = _setting(minimum=1.0)  # required
    scenario_speed_kmh: float = _setting(
        0.0, minimum=0.0, maximum=MAX_SCENARIO_SPEED_KMH
    )
    seed: int = _setting(0, parse=_seed)
    link_speed_mode: str = _setting("scenario", parse=_link_speed_mode)
    origin: OriginSettings = OriginSettings()
    arsu: ArsuSettings = ArsuSettings()
    filter: FilterSettings = FilterSettings()
    ipu: IpuSettings = IpuSettings()
    mqtt: MqttSettings = MqttSettings()
    latency_csv: Optional[str] = _setting(None, parse=_path)
    freshness_window_ms: float = _setting(600.0, minimum=1e-3)
    users: tuple[UserSpec, ...] = _setting((), parse=_users)

    @property
    def duration_us(self) -> int:
        return ms_to_us(self.duration_ms)

    def canonical_dict(self) -> dict:
        """Fully-defaulted plain-dict echo for reports; it parses back to
        an equal config."""
        return _echo(self)


def _doc_key(name: str) -> str:
    """The document key of settings field ``name``."""
    return "id" if name == "user_id" else name


#: Values the echo passes through as they are; tested first, as most are.
_PLAIN = (bool, int, float, str, type(None))


def _echo(value):
    """``value`` as plain data: a tuple as a list, an enum as its value,
    and a settings dataclass as a mapping of its fields."""
    if isinstance(value, _PLAIN):
        return value
    if isinstance(value, tuple):
        return [_echo(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    return {
        _doc_key(f.name): _echo(getattr(value, f.name)) for f in fields(value)
    }


def parse_scenario(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse and fully validate a scenario document."""
    try:
        # libyaml's safe loader, where PyYAML has it, builds the same
        # document as the pure-Python one, several times faster.
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = (
            f"line {mark.line + 1}, column {mark.column + 1}"
            if mark is not None
            else "unknown position"
        )
        raise ConfigError(f"{source}: syntax error at {where}: {exc}") from None
    if raw is None:
        raise ConfigError(f"{source}: empty document")
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    config = _read(ScenarioConfig, raw, "scenario")
    _check_pole_reach(config)
    return config


def _check_pole_reach(config: ScenarioConfig) -> None:
    """Reject an origin on a pole, and a user whose start plus its travel
    over the run can cross one or lie more than 90° of longitude east or
    west of the origin. The local frame's meters per degree of longitude
    are about 6e-17 at a pole, so every east offset would land on an
    arbitrary meridian; near one, an offset of 180° or more would wrap
    onto another user's meridian. It maps north-south meters straight
    onto latitude, so a BSM from past ±90° could not be built."""
    origin_lat = config.origin.lat
    if abs(origin_lat) == 90.0:
        raise ConfigError(
            f"origin.lat {origin_lat:g} is a pole: the local frame has no "
            f"east there; move the origin off the pole"
        )
    duration_s = config.duration_ms / 1000.0
    quarter_m = 90.0 * METERS_PER_DEG * math.cos(math.radians(origin_lat))
    for user in config.users:
        speed_kmh = user.speed_kmh
        if speed_kmh is None:
            speed_kmh = config.scenario_speed_kmh
        travel_m = speed_kmh / 3.6 * duration_s
        for y_m in (user.y_m + travel_m, user.y_m - travel_m):
            lat = origin_lat + y_m / METERS_PER_DEG
            if not -90.0 <= lat <= 90.0:
                raise ConfigError(
                    f"user {user.user_id!r} can reach latitude {lat:.6f}, "
                    f"past a pole: y_m {user.y_m:g} ± {travel_m:g} m of "
                    f"travel from origin.lat {origin_lat}"
                )
        reach_m = abs(user.x_m) + travel_m
        if reach_m > quarter_m:
            raise ConfigError(
                f"user {user.user_id!r} can reach {reach_m:g} m east or west "
                f"of the origin, past 90° of longitude ({quarter_m:g} m) at "
                f"origin.lat {origin_lat}"
            )


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from None
    return parse_scenario(text, source=str(path))


# --- strict builders ---

def _reject_unknown(data: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {context}")


def _number(data: dict, key: str, context: str, default=None,
            minimum=None, maximum=None, required=False) -> Optional[float]:
    if key not in data:
        if required:
            raise ConfigError(f"missing required key {key!r} in {context}")
        return default
    value = data[key]
    if value is None and not required:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}.{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{context}.{key} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(
            f"{context}.{key} out of range (< {minimum:g}): {value:g}"
        )
    if maximum is not None and value > maximum:
        raise ConfigError(
            f"{context}.{key} out of range (> {maximum:g}): {value:g}"
        )
    return value


def _section(data: dict, key: str, context: str) -> dict:
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{context}.{key} must be a mapping")
    return value


def _read(cls, data: dict, context: str):
    """Settings class ``cls`` built from the mapping ``data``."""
    _reject_unknown(data, {f.name for f in fields(cls)}, context)
    return cls(**_values(fields(cls), data, context))


def _values(settings, data: dict, context: str) -> dict:
    """Each of the ``settings`` fields read from ``data``, in order: a
    section when its default is a settings dataclass, by its ``parse``
    function when it declares one, and otherwise as a number in range."""
    values = {}
    for f in settings:
        key, default = f.name, f.default
        if is_dataclass(default):
            section = _section(data, key, context)
            values[key] = _read(type(default), section, key)
        elif "parse" in f.metadata:
            values[key] = f.metadata["parse"](
                data.get(key, default), f"{context}.{key}"
            )
        else:
            values[key] = _number(
                data, key, context, default, required=default is MISSING,
                **f.metadata,
            )
    return values


#: A user entry's numeric fields: where it stands, read only for an entry
#: of one user, and how it moves and transmits, read for every entry.
_PLACEMENT = [f for f in fields(UserSpec) if f.name in ("x_m", "y_m")]
_MOTION = [
    f for f in fields(UserSpec)
    if f.name not in ("kind", "user_id") and f not in _PLACEMENT
]

#: Auto-placement spacing along the x axis for count-style entries.
_AUTO_SPACING_M = 15.0


def _build_users(users_raw: list) -> tuple[UserSpec, ...]:
    allowed = {"count"} | {_doc_key(f.name) for f in fields(UserSpec)}
    users: list[UserSpec] = []
    seen_ids: set[str] = set()
    kind_counters: dict[RoadUserKind, int] = {}
    auto_index = 0
    for i, entry in enumerate(users_raw):
        context = f"users[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{context} must be a mapping")
        _reject_unknown(entry, allowed, context)
        kind_raw = entry.get("kind")
        try:
            kind = RoadUserKind(kind_raw)
        except ValueError:
            valid = ", ".join(k.value for k in RoadUserKind)
            raise ConfigError(
                f"{context}.kind must be one of {valid}; got {kind_raw!r}"
            ) from None
        count = entry.get("count", 1)
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ConfigError(f"{context}.count must be a positive integer")
        placed = any(f.name in entry for f in _PLACEMENT)
        if count > 1 and ("id" in entry or placed):
            raise ConfigError(
                f"{context}: explicit id/placement requires count 1"
            )
        motion = _values(_MOTION, entry, context)
        if motion["bsm_phase_ms"] >= motion["bsm_interval_ms"]:
            raise ConfigError(
                f"{context}.bsm_phase_ms must be below bsm_interval_ms"
            )
        # A tiny negative heading's remainder rounds up to 360.0.
        heading = motion["heading_deg"] % 360.0
        motion["heading_deg"] = 0.0 if heading == 360.0 else heading
        for _ in range(count):
            counter = kind_counters.get(kind, 0) + 1
            kind_counters[kind] = counter
            default_id = f"{kind.id_prefix}{counter}"
            user_id = entry.get("id", default_id) if count == 1 else default_id
            if not isinstance(user_id, str) or not user_id:
                raise ConfigError(f"{context}.id must be a non-empty string")
            if user_id.startswith(SYNTHETIC_ID_PREFIX):
                raise ConfigError(
                    f"{context}.id must not use the reserved "
                    f"{SYNTHETIC_ID_PREFIX!r} namespace"
                )
            if user_id == ARSU_CLIENT:
                raise ConfigError(
                    f"{context}.id {ARSU_CLIENT!r} is reserved for the "
                    "gateway's broker client"
                )
            if user_id in seen_ids:
                raise ConfigError(f"duplicate user id {user_id!r}")
            seen_ids.add(user_id)
            if placed:
                place = _values(_PLACEMENT, entry, context)
            else:
                place = {"x_m": _AUTO_SPACING_M * auto_index, "y_m": 0.0}
            auto_index += 1
            users.append(
                UserSpec(kind=kind, user_id=user_id, **place, **motion)
            )
    return tuple(users)
