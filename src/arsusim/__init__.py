"""Deterministic simulator of an augmenting V2X roadside unit.

The package models a gateway that translates and relays basic safety
messages among DSRC, C-V2X and cellular/MQTT road users, generates
messages for camera-detected non-connected users, and evaluates the
resulting link latencies against safety-application requirements. The
gateway names each send as a ``(medium, topic)`` target, in
``LinkTech`` and ``Topic`` terms; the simulation carries it out.
"""

from .broker import ARSU_CLIENT, Broker, TopicOwnershipError
from .config import (
    ConfigError,
    RoadUserKind,
    ScenarioConfig,
    UserSpec,
    load_scenario,
    parse_scenario,
)
from .gateway import DetectionOutcome, FilterStatus, Gateway
from .latency import (
    DEFAULT_COMPOSED_DELAYS_MS,
    DelayCategory,
    InconsistentDelayTable,
    LatencyModel,
    MAX_ITT_MS,
    SAFETY_APPS,
    SafetyApp,
    classify,
)
from .messages import (
    Bsm,
    Detection,
    LinkTech,
    MqttEnvelope,
    Position,
    PositionAccuracy,
    Topic,
    ValidationError,
    make_bsm,
    validate_bsm,
)
from .sim import RunResult, SimulationInvariantError, run

__version__ = "0.1.0"

__all__ = [
    "ARSU_CLIENT",
    "Broker",
    "Bsm",
    "ConfigError",
    "DEFAULT_COMPOSED_DELAYS_MS",
    "DelayCategory",
    "Detection",
    "DetectionOutcome",
    "FilterStatus",
    "Gateway",
    "InconsistentDelayTable",
    "LatencyModel",
    "LinkTech",
    "MAX_ITT_MS",
    "MqttEnvelope",
    "Position",
    "PositionAccuracy",
    "RoadUserKind",
    "RunResult",
    "SAFETY_APPS",
    "SafetyApp",
    "ScenarioConfig",
    "SimulationInvariantError",
    "Topic",
    "TopicOwnershipError",
    "UserSpec",
    "ValidationError",
    "classify",
    "load_scenario",
    "make_bsm",
    "parse_scenario",
    "run",
    "validate_bsm",
]
