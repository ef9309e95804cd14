"""Hybrid SLC/QLC SSD simulator with a self-tuning management stack."""

from .config import (ConfigProfile, ParamSpec, PlacementStrategy,
                     TUNABLE_PARAMS, default_param_bounds, load_config_file,
                     parse_scalar, resolve_param_name, validate_profile)
from .errors import (AuditError, BackendUnavailable, CapacityError,
                     ConfigError, GeometryError, NoData, NoValidUpdate,
                     PageStateError, ParseFailure, SimulatorError)
from .ftl import (ACTION_ORDER, SAFETY_BOUND, ActionKind, ActionOutcome,
                  FtlEngine, SpaceAction, WaCounters)
from .hotness import (Hotness, HotnessClassifier, HotnessLabels, UpdateStats,
                      classify, kmeans, slice_of)
from .monitor import SlidingWindow, WindowEntry, WorkloadSummary
from .replay import (RunReport, SimulatorStack, emit_report, replay,
                     run_sweep)
from .rl import AgentState, QTable, SpaceAgent, bucket_fraction, reward
from .ssd import FlashGeometry, LatencyModel, Mode, SsdState, desk_geometry
from .trace import (FORMATS, OpKind, TraceRecord, load_trace, page_span,
                    parse_trace_line, synth_trace)
from .tuner import (PromptBundle, RemoteBackend, ScriptedBackend,
                    TuningRecord, Verdict, build_prompt, correct_mistakes,
                    estimate_tokens, parse_config, query_backend,
                    segment_prompt)
from .verification import (EpochSchedule, Marker, PerfSnapshot,
                           VerificationLoop, accuracy, measure,
                           should_rollback)

__version__ = "0.1.0"

__all__ = [
    "ACTION_ORDER", "AgentState", "ActionKind", "ActionOutcome", "AuditError",
    "BackendUnavailable", "CapacityError", "ConfigError", "ConfigProfile",
    "EpochSchedule", "FlashGeometry", "FORMATS", "FtlEngine", "GeometryError",
    "Hotness", "HotnessClassifier", "HotnessLabels", "LatencyModel", "Marker",
    "Mode", "NoData", "NoValidUpdate", "OpKind", "PageStateError",
    "ParamSpec", "ParseFailure", "PerfSnapshot", "PlacementStrategy",
    "PromptBundle", "QTable", "RemoteBackend", "RunReport", "SAFETY_BOUND",
    "ScriptedBackend", "SimulatorError", "SimulatorStack", "SlidingWindow",
    "SpaceAction", "SpaceAgent", "SsdState", "TUNABLE_PARAMS", "TraceRecord",
    "TuningRecord", "UpdateStats", "Verdict", "VerificationLoop",
    "WaCounters", "WindowEntry", "WorkloadSummary", "accuracy",
    "bucket_fraction", "build_prompt", "classify", "correct_mistakes",
    "default_param_bounds", "desk_geometry", "emit_report", "estimate_tokens",
    "kmeans", "load_config_file", "load_trace", "measure",
    "page_span", "parse_config", "parse_scalar", "parse_trace_line",
    "query_backend", "replay", "resolve_param_name", "reward", "run_sweep",
    "segment_prompt", "should_rollback", "slice_of", "synth_trace",
    "validate_profile",
]
