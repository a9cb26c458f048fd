"""Scenario configuration: schema, defaults, strict parsing.

Scenario documents are YAML (key/value with nesting). Parsing is strict:
unknown keys are hard errors rather than silently ignored typos, ranges
are validated up front, and defaults are materialized so a parsed config
is complete and self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import yaml

from .latency import MAX_ITT_MS, SPEEDS_KMH
from .messages import SYNTHETIC_ID_PREFIX, LinkTech, ms_to_us

#: Fastest speed a scenario or a user may run at: the delay table's last
#: sample, so the latency model never clamps.
MAX_SCENARIO_SPEED_KMH = SPEEDS_KMH[-1]

GNSS_DEFAULT_STD_M = 5.0 / 3.0


class ConfigError(ValueError):
    """Scenario document rejected (syntax, unknown key, or range)."""


class RoadUserKind(Enum):
    """A road user's kind, parsed from its ``value``; ``tech`` is the
    technology it transmits and hears on, None for non-connected users."""

    NATIVE_DSRC = ("native_dsrc", LinkTech.DSRC)
    NATIVE_CV2X = ("native_cv2x", LinkTech.CV2X)
    NONNATIVE_CELL = ("nonnative_cell", LinkTech.CELL_MQTT)
    NON_CONNECTED = ("non_connected", None)

    def __new__(cls, value: str, tech: Optional[LinkTech]):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.tech = tech
        return kind

    @property
    def is_connected(self) -> bool:
        return self is not RoadUserKind.NON_CONNECTED


_KIND_ID_PREFIX = {
    RoadUserKind.NATIVE_DSRC: "dsrc",
    RoadUserKind.NATIVE_CV2X: "cv2x",
    RoadUserKind.NONNATIVE_CELL: "cell",
    RoadUserKind.NON_CONNECTED: "nc",
}


@dataclass(frozen=True)
class UserSpec:
    kind: RoadUserKind
    user_id: str
    x_m: float
    y_m: float
    heading_deg: float = 0.0
    speed_kmh: Optional[float] = None  # None: scenario speed
    gnss_error_std_m: float = GNSS_DEFAULT_STD_M
    bsm_interval_ms: float = 100.0
    bsm_phase_ms: float = 0.0


@dataclass(frozen=True)
class ArsuSettings:
    present: bool = True
    x_m: float = 0.0
    y_m: float = 0.0
    coverage_radius_m: float = 150.0


@dataclass(frozen=True)
class FilterSettings:
    sigma_m: float = 5.0
    window_ms: float = 200.0
    grace_ms: float = 100.0


@dataclass(frozen=True)
class IpuSettings:
    noise_std_m: float = 1.0  # per horizontal axis
    frame_period_ms: float = 100.0
    processing_ms: float = 300.0


@dataclass(frozen=True)
class MqttSettings:
    drop_probability: float = 0.0


@dataclass(frozen=True)
class OriginSettings:
    lat: float = 0.0
    lon: float = 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    duration_ms: float
    users: tuple[UserSpec, ...]
    scenario_speed_kmh: float = 0.0
    seed: int = 0
    link_speed_mode: str = "scenario"  # or "max_endpoint"
    origin: OriginSettings = OriginSettings()
    arsu: ArsuSettings = ArsuSettings()
    filter: FilterSettings = FilterSettings()
    ipu: IpuSettings = IpuSettings()
    mqtt: MqttSettings = MqttSettings()
    latency_csv: Optional[str] = None
    freshness_window_ms: float = 600.0

    @property
    def duration_us(self) -> int:
        return ms_to_us(self.duration_ms)

    def canonical_dict(self) -> dict:
        """Fully-defaulted plain-dict echo for reports."""
        return {
            "duration_ms": self.duration_ms,
            "scenario_speed_kmh": self.scenario_speed_kmh,
            "seed": self.seed,
            "link_speed_mode": self.link_speed_mode,
            "origin": {"lat": self.origin.lat, "lon": self.origin.lon},
            "arsu": {
                "present": self.arsu.present,
                "x_m": self.arsu.x_m,
                "y_m": self.arsu.y_m,
                "coverage_radius_m": self.arsu.coverage_radius_m,
            },
            "filter": {
                "sigma_m": self.filter.sigma_m,
                "window_ms": self.filter.window_ms,
                "grace_ms": self.filter.grace_ms,
            },
            "ipu": {
                "noise_std_m": self.ipu.noise_std_m,
                "frame_period_ms": self.ipu.frame_period_ms,
                "processing_ms": self.ipu.processing_ms,
            },
            "mqtt": {"drop_probability": self.mqtt.drop_probability},
            "latency_csv": self.latency_csv,
            "freshness_window_ms": self.freshness_window_ms,
            "users": [
                {
                    "kind": u.kind.value,
                    "id": u.user_id,
                    "x_m": u.x_m,
                    "y_m": u.y_m,
                    "heading_deg": u.heading_deg,
                    "speed_kmh": u.speed_kmh,
                    "gnss_error_std_m": u.gnss_error_std_m,
                    "bsm_interval_ms": u.bsm_interval_ms,
                    "bsm_phase_ms": u.bsm_phase_ms,
                }
                for u in self.users
            ],
        }


def parse_scenario(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse and fully validate a scenario document."""
    try:
        raw = yaml.safe_load(text)
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
    return _build_config(raw, source)


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
    if value is None:
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


def _build_config(raw: dict, source: str) -> ScenarioConfig:
    _reject_unknown(
        raw,
        {
            "duration_ms", "scenario_speed_kmh", "seed", "link_speed_mode",
            "origin", "arsu", "filter", "ipu", "mqtt", "latency_csv",
            "freshness_window_ms", "users",
        },
        "scenario",
    )
    duration_ms = _number(
        raw, "duration_ms", "scenario", required=True, minimum=1.0
    )
    speed = _number(
        raw, "scenario_speed_kmh", "scenario", default=0.0,
        minimum=0.0, maximum=MAX_SCENARIO_SPEED_KMH,
    )
    seed_raw = raw.get("seed", 0)
    if isinstance(seed_raw, bool) or not isinstance(seed_raw, int):
        raise ConfigError(f"scenario.seed must be an integer, got {seed_raw!r}")
    mode = raw.get("link_speed_mode", "scenario")
    if mode not in ("scenario", "max_endpoint"):
        raise ConfigError(
            f"scenario.link_speed_mode must be 'scenario' or 'max_endpoint',"
            f" got {mode!r}"
        )

    origin_raw = _section(raw, "origin", "scenario")
    _reject_unknown(origin_raw, {"lat", "lon"}, "origin")
    origin = OriginSettings(
        lat=_number(origin_raw, "lat", "origin", 0.0, -90.0, 90.0),
        lon=_number(origin_raw, "lon", "origin", 0.0, -180.0, 180.0),
    )

    arsu_raw = _section(raw, "arsu", "scenario")
    _reject_unknown(
        arsu_raw, {"present", "x_m", "y_m", "coverage_radius_m"}, "arsu"
    )
    present = arsu_raw.get("present", True)
    if not isinstance(present, bool):
        raise ConfigError("arsu.present must be a boolean")
    arsu = ArsuSettings(
        present=present,
        x_m=_number(arsu_raw, "x_m", "arsu", 0.0),
        y_m=_number(arsu_raw, "y_m", "arsu", 0.0),
        coverage_radius_m=_number(
            arsu_raw, "coverage_radius_m", "arsu", 150.0, minimum=1.0
        ),
    )

    filter_raw = _section(raw, "filter", "scenario")
    _reject_unknown(filter_raw, {"sigma_m", "window_ms", "grace_ms"}, "filter")
    filt = FilterSettings(
        sigma_m=_number(filter_raw, "sigma_m", "filter", 5.0, minimum=1e-9),
        window_ms=_number(filter_raw, "window_ms", "filter", 200.0, minimum=1e-3),
        grace_ms=_number(filter_raw, "grace_ms", "filter", 100.0, minimum=1e-3),
    )

    ipu_raw = _section(raw, "ipu", "scenario")
    _reject_unknown(
        ipu_raw, {"noise_std_m", "frame_period_ms", "processing_ms"}, "ipu"
    )
    ipu = IpuSettings(
        noise_std_m=_number(ipu_raw, "noise_std_m", "ipu", 1.0, minimum=0.0),
        frame_period_ms=_number(
            ipu_raw, "frame_period_ms", "ipu", 100.0, minimum=1e-3
        ),
        processing_ms=_number(
            ipu_raw, "processing_ms", "ipu", 300.0, minimum=1e-3
        ),
    )

    mqtt_raw = _section(raw, "mqtt", "scenario")
    _reject_unknown(mqtt_raw, {"drop_probability"}, "mqtt")
    mqtt = MqttSettings(
        drop_probability=_number(
            mqtt_raw, "drop_probability", "mqtt", 0.0, 0.0, 1.0
        ),
    )

    latency_csv = raw.get("latency_csv")
    if latency_csv is not None and not isinstance(latency_csv, str):
        raise ConfigError("scenario.latency_csv must be a path string")

    freshness = _number(
        raw, "freshness_window_ms", "scenario", 600.0, minimum=1e-3
    )

    users_raw = raw.get("users", [])
    if users_raw is None:
        users_raw = []
    if not isinstance(users_raw, list):
        raise ConfigError("scenario.users must be a list")
    users = _build_users(users_raw)

    return ScenarioConfig(
        duration_ms=duration_ms,
        users=users,
        scenario_speed_kmh=speed,
        seed=seed_raw,
        link_speed_mode=mode,
        origin=origin,
        arsu=arsu,
        filter=filt,
        ipu=ipu,
        mqtt=mqtt,
        latency_csv=latency_csv,
        freshness_window_ms=freshness,
    )


_USER_KEYS = {
    "kind", "id", "count", "x_m", "y_m", "heading_deg", "speed_kmh",
    "gnss_error_std_m", "bsm_interval_ms", "bsm_phase_ms",
}

#: Auto-placement spacing along the x axis for count-style entries.
_AUTO_SPACING_M = 15.0


def _build_users(users_raw: list) -> tuple[UserSpec, ...]:
    users: list[UserSpec] = []
    seen_ids: set[str] = set()
    kind_counters: dict[RoadUserKind, int] = {}
    auto_index = 0
    for i, entry in enumerate(users_raw):
        context = f"users[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{context} must be a mapping")
        _reject_unknown(entry, _USER_KEYS, context)
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
        if count > 1 and (
            "id" in entry or "x_m" in entry or "y_m" in entry
        ):
            raise ConfigError(
                f"{context}: explicit id/placement requires count 1"
            )
        heading = _number(entry, "heading_deg", context, 0.0)
        speed = _number(
            entry, "speed_kmh", context, None,
            minimum=0.0, maximum=MAX_SCENARIO_SPEED_KMH,
        )
        gnss = _number(
            entry, "gnss_error_std_m", context, GNSS_DEFAULT_STD_M, minimum=0.0
        )
        interval = _number(
            entry, "bsm_interval_ms", context, 100.0,
            minimum=1e-3, maximum=MAX_ITT_MS,
        )
        phase = _number(entry, "bsm_phase_ms", context, 0.0, minimum=0.0)
        if phase >= interval:
            raise ConfigError(
                f"{context}.bsm_phase_ms must be below bsm_interval_ms"
            )
        for _ in range(count):
            counter = kind_counters.get(kind, 0) + 1
            kind_counters[kind] = counter
            default_id = f"{_KIND_ID_PREFIX[kind]}{counter}"
            user_id = entry.get("id", default_id) if count == 1 else default_id
            if not isinstance(user_id, str) or not user_id:
                raise ConfigError(f"{context}.id must be a non-empty string")
            if user_id.startswith(SYNTHETIC_ID_PREFIX):
                raise ConfigError(
                    f"{context}.id must not use the reserved "
                    f"{SYNTHETIC_ID_PREFIX!r} namespace"
                )
            if user_id in seen_ids:
                raise ConfigError(f"duplicate user id {user_id!r}")
            seen_ids.add(user_id)
            if count == 1 and ("x_m" in entry or "y_m" in entry):
                x_m = _number(entry, "x_m", context, 0.0)
                y_m = _number(entry, "y_m", context, 0.0)
            else:
                x_m = _AUTO_SPACING_M * auto_index
                y_m = 0.0
            auto_index += 1
            users.append(
                UserSpec(
                    kind=kind,
                    user_id=user_id,
                    x_m=x_m,
                    y_m=y_m,
                    heading_deg=heading % 360.0,
                    speed_kmh=speed,
                    gnss_error_std_m=gnss,
                    bsm_interval_ms=interval,
                    bsm_phase_ms=phase,
                )
            )
    return tuple(users)
