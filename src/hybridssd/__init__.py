"""Hybrid SLC/QLC SSD simulator with a self-tuning management stack."""

from .config import (ConfigProfile, PlacementStrategy, TUNABLE_PARAMS,
                     default_param_bounds, load_config_file, parse_scalar,
                     resolve_param_name, validate_profile)
from .errors import (AuditError, BackendUnavailable, CapacityError,
                     ConfigError, GeometryError, NoValidUpdate,
                     PageStateError, ParseFailure, SimulatorError)
from .ftl import ACTION_ORDER, SAFETY_BOUND, ActionKind, FtlEngine
from .hotness import HotnessClassifier, classify, kmeans
from .monitor import SlidingWindow
from .replay import SimulatorStack, emit_report, replay
from .rl import AgentState, QTable, SpaceAgent, reward
from .ssd import FlashGeometry, LatencyModel, Mode, SsdState, desk_geometry
from .trace import FORMATS, OpKind, load_trace, page_span, synth_trace
from .tuner import ScriptedBackend
from .verification import EpochSchedule

__version__ = "0.1.0"

# the names tests and the benchmark import from the package, plus every
# exception class; everything else is imported from its own module
__all__ = [
    "ACTION_ORDER", "AgentState", "ActionKind", "AuditError",
    "BackendUnavailable", "CapacityError", "ConfigError", "ConfigProfile",
    "EpochSchedule", "FlashGeometry", "FORMATS", "FtlEngine", "GeometryError",
    "HotnessClassifier", "LatencyModel", "Mode", "NoValidUpdate", "OpKind",
    "PageStateError", "ParseFailure", "PlacementStrategy", "QTable",
    "SAFETY_BOUND", "ScriptedBackend",
    "SimulatorError", "SimulatorStack", "SlidingWindow", "SpaceAgent",
    "SsdState", "TUNABLE_PARAMS", "classify",
    "default_param_bounds", "desk_geometry", "emit_report", "kmeans",
    "load_config_file", "load_trace", "page_span", "parse_scalar", "replay",
    "resolve_param_name", "reward", "synth_trace",
    "validate_profile",
]
