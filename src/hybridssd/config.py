"""Tunable configuration profile, parameter bounds, and value parsing.

The whole management stack is steered by 15 tunable parameters. They travel
as one immutable ConfigProfile so that applying / rolling back a tuning epoch
is a reference swap, never a partial mutation.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, fields, replace

from .errors import ConfigError


class PlacementStrategy(enum.Enum):
    SLC_FIRST = "slc_first"
    HOTNESS_BASED = "hotness_based"


@dataclass(frozen=True)
class ConfigProfile:
    """The 15 runtime-tunable parameters with their shipped defaults.

    Canonical units: times in microseconds, sizes in bytes, trigger
    thresholds in percent of free blocks.
    """

    conversion_granularity: int = 1          # blocks per MC action
    conversion_trigger_threshold: int = 6    # % free SLC blocks below which MC is eligible
    gc_granularity: int = 1                  # blocks per GC action
    gc_trigger_threshold: int = 6            # % free blocks below which GC triggers
    placement_strategy: PlacementStrategy = PlacementStrategy.SLC_FIRST
    window_size: int = 2000                  # requests kept by the workload monitor
    std_dev_threshold: int = 10000           # pages; LPN-std shift detector
    slice_size: int = 200 * 1024 * 1024      # bytes per hotness slice
    kmeans_max_iterations: int = 10
    kmeans_trigger_threshold: int = 10000    # writes between classifications
    rl_training_interval: int = 1000         # requests between Q updates
    rl_learning_rate: float = 0.1
    rl_reward_threshold: float = 1600.0      # us; avg response time judged favorable at or below
    rl_discount: float = 0.9
    rl_exploration: float = 0.1

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = v.value if isinstance(v, enum.Enum) else v
        return out


# Table-order tuple; prompt rendering and the corrector iterate this.
TUNABLE_PARAMS = tuple(f.name for f in fields(ConfigProfile))


@dataclass(frozen=True)
class ParamSpec:
    """Legal range for one tunable (used to correct backend mistakes)."""

    name: str
    kind: str                    # "int" | "float" | "enum"
    lo: float | None = None
    hi: float | None = None
    step: int | None = None      # int params only: value snapped to a multiple


def default_param_bounds(page_size: int = 16384) -> dict[str, ParamSpec]:
    """Bounds table with min <= shipped default <= max for every parameter.

    slice_size must stay a positive multiple of the page size, so its spec
    carries step=page_size and its floor is one page.
    """
    specs = [
        ParamSpec("conversion_granularity", "int", 1, 64),
        ParamSpec("conversion_trigger_threshold", "int", 1, 50),
        ParamSpec("gc_granularity", "int", 1, 64),
        ParamSpec("gc_trigger_threshold", "int", 1, 50),
        ParamSpec("placement_strategy", "enum"),
        ParamSpec("window_size", "int", 16, 200000),
        ParamSpec("std_dev_threshold", "int", 1, 100000000),
        ParamSpec("slice_size", "int", page_size, 16 * 1024 ** 3,
                  step=page_size),
        ParamSpec("kmeans_max_iterations", "int", 1, 1000),
        ParamSpec("kmeans_trigger_threshold", "int", 100, 100000000),
        ParamSpec("rl_training_interval", "int", 10, 10000000),
        ParamSpec("rl_learning_rate", "float", 1e-6, 1.0),
        ParamSpec("rl_reward_threshold", "float", 1.0, 60000000.0),
        ParamSpec("rl_discount", "float", 0.0, 0.9999),
        ParamSpec("rl_exploration", "float", 0.0, 1.0),
    ]
    return {s.name: s for s in specs}


def validate_profile(profile: ConfigProfile,
                     bounds: dict[str, ParamSpec] | None = None) -> None:
    """Raise ConfigError if any field is outside its legal range."""
    bounds = bounds or default_param_bounds()
    for name in TUNABLE_PARAMS:
        spec = bounds[name]
        value = getattr(profile, name)
        if spec.kind == "enum":
            if not isinstance(value, PlacementStrategy):
                raise ConfigError(f"{name}: expected PlacementStrategy, got {value!r}")
            continue
        if spec.kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name}: expected int, got {value!r}")
        else:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name}: expected number, got {value!r}")
        if not (spec.lo <= value <= spec.hi):
            raise ConfigError(f"{name}: {value!r} outside [{spec.lo}, {spec.hi}]")
        if spec.step and value % spec.step != 0:
            raise ConfigError(f"{name}: {value!r} not a multiple of {spec.step}")


# --- parameter-name aliases -------------------------------------------------
#
# Backend responses and config files spell names loosely ("GC trigger
# threshold", "Windows size", "k-means..."). Matching happens on a squashed
# key: lowercase with everything non-alphanumeric removed.

def squash_name(text: str) -> str:
    return re.sub(r"[^a-z0-9]", "", text.lower())


_EXTRA_ALIASES = {
    "conversion_granularity": ("mode conversion granularity",),
    "conversion_trigger_threshold": ("mode conversion trigger threshold",
                                     "conversion threshold"),
    "gc_granularity": ("garbage collection granularity",),
    "gc_trigger_threshold": ("garbage collection trigger threshold",
                             "gc threshold"),
    "placement_strategy": ("data placement strategy", "data placement",
                           "placement"),
    "window_size": ("windows size", "sliding window size"),
    "std_dev_threshold": ("standard deviation threshold",
                          "std deviation threshold", "standard deviation"),
    "slice_size": (),
    "kmeans_max_iterations": ("k-means max iterations", "k-means iterations",
                              "kmeans iterations", "k-means max iteration"),
    "kmeans_trigger_threshold": ("k-means trigger threshold",),
    "rl_training_interval": ("training interval", "rl training interval"),
    "rl_learning_rate": ("learning rate",),
    "rl_reward_threshold": ("rl reward", "reward threshold"),
    "rl_discount": ("rl discount factor", "discount factor"),
    "rl_exploration": ("rl exploration rate", "exploration rate"),
}

PARAM_ALIASES: dict[str, str] = {}
for _canon in TUNABLE_PARAMS:
    PARAM_ALIASES[squash_name(_canon)] = _canon
    for _alias in _EXTRA_ALIASES.get(_canon, ()):
        PARAM_ALIASES[squash_name(_alias)] = _canon


def resolve_param_name(text: str) -> str | None:
    """Map a loosely spelled parameter name to its canonical field name."""
    return PARAM_ALIASES.get(squash_name(text))


# --- scalar parsing with unit suffixes --------------------------------------

_NUMBER_RE = re.compile(
    r"^\s*([+-]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*"
    r"([a-zA-Z%]*)\s*$"
)

# multipliers into canonical units (us for time, bytes for size)
_UNIT_SCALE = {
    "": 1,
    "%": 1,
    "us": 1,
    "ms": 1000,
    "s": 1000000,
    "sec": 1000000,
    "b": 1,
    "kb": 1024,
    "mb": 1024 ** 2,
    "gb": 1024 ** 3,
}


def parse_scalar(text: str):
    """Parse a config value string into a canonical-unit number or a string.

    "1.6ms" -> 1600, "200MB" -> 209715200, "8%" -> 8, "0.1" -> 0.1.
    Integral results come back as int. Non-numeric text comes back stripped
    (placement strategies are named, not numbered), and so does a number
    too large for a float: callers reject text where they need a number.
    """
    m = _NUMBER_RE.match(text)
    if not m:
        return text.strip()
    digits, unit = m.group(1).replace(",", ""), m.group(2).lower()
    if unit not in _UNIT_SCALE:
        return text.strip()
    value = float(digits) * _UNIT_SCALE[unit]
    if not math.isfinite(value):
        return text.strip()
    if value == int(value):
        return int(value)
    return value


def parse_placement(value) -> PlacementStrategy | None:
    """Accept 'SLC first', 'slc_first', 'hotness-based', 'hotness', etc."""
    if isinstance(value, PlacementStrategy):
        return value
    if not isinstance(value, str):
        return None
    key = squash_name(value)
    if key in ("slcfirst", "slc"):
        return PlacementStrategy.SLC_FIRST
    if key in ("hotnessbased", "hotness", "hotcold", "hotnessfirst"):
        return PlacementStrategy.HOTNESS_BASED
    return None


# --- flat key = value config files ------------------------------------------

# Non-tunable keys a config file may carry alongside the 15 parameters.
SETTING_KEYS = (
    "channels",
    "blocks_per_channel",
    "pages_per_block_slc",
    "page_size",
    "op_ratio",
    "initial_mode_split",
    "kmeans_tol",
)


def load_config_file(path, page_size: int = 16384
                     ) -> tuple[ConfigProfile, dict]:
    """Read a flat `key = value` file into (profile, settings).

    Lines are `name = value`; blank lines and #-comments are skipped.
    Tunable names accept the same aliases and unit suffixes as backend
    output, but here a bad key or out-of-range value is the operator's
    mistake and raises ConfigError instead of being silently corrected.
    `slice_size` is checked against the file's own `page_size` if it sets
    one, else against `page_size`, the device's page size.
    """
    profile = ConfigProfile()
    settings: dict = {}
    bounds = default_param_bounds()
    updates: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected `key = value`")
            key_text, value_text = line.split("=", 1)
            key = key_text.strip()
            value = parse_scalar(value_text)
            if key in SETTING_KEYS:
                if isinstance(value, str):
                    raise ConfigError(f"{path}:{line_no}: {key} needs a number")
                settings[key] = value
                continue
            canon = resolve_param_name(key)
            if canon is None:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            if canon == "placement_strategy":
                strategy = parse_placement(value)
                if strategy is None:
                    raise ConfigError(
                        f"{path}:{line_no}: bad placement strategy {value!r}")
                updates[canon] = strategy
                continue
            spec = bounds[canon]
            if spec.kind == "int":
                if isinstance(value, float) or isinstance(value, str):
                    raise ConfigError(f"{path}:{line_no}: {canon} needs an integer")
            elif isinstance(value, str):
                raise ConfigError(f"{path}:{line_no}: {canon} needs a number")
            updates[canon] = value
    # the file's own page size wins; a fractional one is left for
    # FlashGeometry to reject by name
    if isinstance(settings.get("page_size"), int):
        page_size = settings["page_size"]
    profile = replace(profile, **updates)
    validate_profile(profile, default_param_bounds(page_size=page_size))
    return profile, settings
