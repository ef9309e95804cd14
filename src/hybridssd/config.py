"""Tunable configuration profile, parameter bounds, and value parsing.

The whole management stack is steered by 15 tunable parameters. They travel
as one immutable ConfigProfile so that applying / rolling back a tuning epoch
is a reference swap, never a partial mutation.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .ssd import FlashGeometry


class PlacementStrategy(enum.Enum):
    SLC_FIRST = "slc_first"
    HOTNESS_BASED = "hotness_based"


def _tunable(default, *, lo=None, hi=None, unit: str, meaning: str,
             aliases: tuple[str, ...] = (), page_grid: bool = False):
    """One tunable: its shipped default, legal range [lo, hi], unit and
    meaning as the tuning prompt lists them, and the looser names a reply
    or config file may use. A `page_grid` tunable is a multiple of the page
    size, from one page up to `hi` rounded down onto the grid."""
    return field(default=default, metadata={
        "lo": lo, "hi": hi, "unit": unit, "meaning": meaning,
        "aliases": aliases, "page_grid": page_grid})


@dataclass(frozen=True)
class ConfigProfile:
    """The 15 runtime-tunable parameters, each declared once.

    Canonical units: times in microseconds, sizes in bytes, trigger
    thresholds in percent of free blocks.
    """

    conversion_granularity: int = _tunable(
        1, lo=1, hi=64, unit="blocks",
        meaning="free SLC blocks converted to QLC per conversion action",
        aliases=("mode conversion granularity",))
    conversion_trigger_threshold: int = _tunable(
        6, lo=1, hi=50, unit="percent",
        meaning="free-SLC fraction below which conversion becomes eligible",
        aliases=("mode conversion trigger threshold", "conversion threshold"))
    gc_granularity: int = _tunable(
        1, lo=1, hi=64, unit="blocks",
        meaning="victim blocks collected per GC action",
        aliases=("garbage collection granularity",))
    gc_trigger_threshold: int = _tunable(
        6, lo=1, hi=50, unit="percent",
        meaning="free-block fraction below which space management runs",
        aliases=("garbage collection trigger threshold", "gc threshold"))
    placement_strategy: PlacementStrategy = _tunable(
        PlacementStrategy.SLC_FIRST,
        unit="|".join(s.value for s in PlacementStrategy),
        meaning="where fresh host writes land",
        aliases=("data placement strategy", "data placement", "placement"))
    window_size: int = _tunable(
        2000, lo=16, hi=200000, unit="requests",
        meaning="sliding-window length of the workload monitor",
        aliases=("windows size", "sliding window size"))
    std_dev_threshold: int = _tunable(
        10000, lo=1, hi=100000000, unit="pages",
        meaning="LPN std-dev change that counts as a workload shift",
        aliases=("standard deviation threshold", "std deviation threshold",
                 "standard deviation"))
    slice_size: int = _tunable(
        200 * 1024 * 1024, hi=16 * 1024 ** 3, page_grid=True, unit="bytes",
        meaning="hotness slice size; statistics are kept per slice")
    kmeans_max_iterations: int = _tunable(
        10, lo=1, hi=1000, unit="iterations",
        meaning="K-means iteration cap per classification",
        aliases=("k-means max iterations", "k-means iterations",
                 "kmeans iterations", "k-means max iteration"))
    kmeans_trigger_threshold: int = _tunable(
        10000, lo=100, hi=100000000, unit="writes",
        meaning="host writes between hotness classifications",
        aliases=("k-means trigger threshold",))
    rl_training_interval: int = _tunable(
        1000, lo=10, hi=10000000, unit="requests",
        meaning="requests between Q-learning updates",
        aliases=("training interval", "rl training interval"))
    rl_learning_rate: float = _tunable(
        0.1, lo=1e-6, hi=1.0, unit="0-1",
        meaning="Q-learning step size alpha",
        aliases=("learning rate",))
    rl_reward_threshold: float = _tunable(
        1600.0, lo=1.0, hi=60000000.0, unit="us",
        meaning="average response time judged favorable at or below",
        aliases=("rl reward", "reward threshold"))
    rl_discount: float = _tunable(
        0.9, lo=0.0, hi=0.9999, unit="0-1",
        meaning="Q-learning discount factor gamma",
        aliases=("rl discount factor", "discount factor"))
    rl_exploration: float = _tunable(
        0.1, lo=0.0, hi=1.0, unit="0-1",
        meaning="epsilon for epsilon-greedy action choice",
        aliases=("rl exploration rate", "exploration rate"))

    def __post_init__(self):
        # a strategy given by name becomes its member, so that the engine's
        # identity test places by it; an unknown name is refused here
        strategy = parse_placement(self.placement_strategy)
        if strategy is None:
            raise ConfigError(f"placement_strategy: not a strategy: "
                              f"{self.placement_strategy!r}")
        object.__setattr__(self, "placement_strategy", strategy)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = v.value if isinstance(v, enum.Enum) else v
        return out


# Declaration order, which is also the order the prompt lists them in.
TUNABLE_PARAMS = tuple(f.name for f in fields(ConfigProfile))


@dataclass(frozen=True)
class ParamSpec:
    """Legal type and range for one tunable."""

    kind: str                    # "int" | "float" | "enum"
    lo: float | None = None
    hi: float | None = None
    step: int | None = None      # int params only: values are multiples

    def convert(self, value):
        """`value` as this tunable's type, else ConfigError with the reason:
        a strategy member or name, or an int or float (never a bool or a
        NaN), of which an int tunable takes only integral values, as ints."""
        if self.kind == "enum":
            strategy = parse_placement(value)
            if strategy is None:
                raise ConfigError(f"not a strategy: {value!r}")
            return strategy
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or value != value):
            raise ConfigError(f"not a number: {value!r}")
        if self.kind == "int" and isinstance(value, float):
            if not value.is_integer():
                raise ConfigError(f"needs an integer: {value!r}")
            return int(value)
        return value


def default_param_bounds(page_size: int = FlashGeometry.page_size
                         ) -> dict[str, ParamSpec]:
    """Each tunable's declared range, with min <= shipped default <= max.

    The kind follows the default's type. Integers step by 1, except that a
    page-grid tunable (slice_size) steps by the page size from a floor of
    one page to its ceiling rounded down onto the grid.
    """
    specs = {}
    for f in fields(ConfigProfile):
        kind = ("enum" if isinstance(f.default, enum.Enum)
                else type(f.default).__name__)
        lo, hi, step = f.metadata["lo"], f.metadata["hi"], None
        if kind == "int":
            step = 1
        if f.metadata["page_grid"]:
            lo, hi, step = page_size, hi - hi % page_size, page_size
        specs[f.name] = ParamSpec(kind, lo, hi, step)
    return specs


def validate_profile(profile: ConfigProfile,
                     bounds: dict[str, ParamSpec] | None = None
                     ) -> ConfigProfile:
    """`profile` with every tunable converted to its type (see
    `ParamSpec.convert`); raises ConfigError if any field has no such type
    or is outside its legal range."""
    bounds = bounds or default_param_bounds()
    typed = {}
    for name in TUNABLE_PARAMS:
        spec = bounds[name]
        try:
            value = typed[name] = spec.convert(getattr(profile, name))
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from None
        if spec.kind == "enum":
            continue
        if not (spec.lo <= value <= spec.hi):
            raise ConfigError(f"{name}: {value!r} outside [{spec.lo}, {spec.hi}]")
        if spec.step and value % spec.step != 0:
            raise ConfigError(f"{name}: {value!r} not a multiple of {spec.step}")
    return replace(profile, **typed)


# --- parameter-name aliases -------------------------------------------------
#
# Backend responses and config files spell names loosely ("GC trigger
# threshold", "Windows size", "k-means..."). Matching happens on a squashed
# key: lowercase with everything non-alphanumeric removed.

def squash_name(text: str) -> str:
    return re.sub(r"[^a-z0-9]", "", text.lower())


PARAM_ALIASES: dict[str, str] = {
    squash_name(name): f.name
    for f in fields(ConfigProfile)
    for name in (f.name, *f.metadata["aliases"])
}


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

# Non-tunable keys a config file may carry alongside the 15 parameters:
# the device geometry and two run settings.
SETTING_KEYS = (tuple(f.name for f in fields(FlashGeometry))
                + ("initial_mode_split", "kmeans_tol"))


def load_config_file(path, page_size: int = FlashGeometry.page_size
                     ) -> tuple[ConfigProfile, dict]:
    """Read a flat `key = value` file into (profile, settings).

    Lines are `name = value`; blank lines and #-comments are skipped.
    Tunable names accept the same aliases and unit suffixes as backend
    output, but here a bad key or out-of-range value is the operator's
    mistake and raises ConfigError instead of being silently corrected.
    `slice_size` is checked against the file's own `page_size` if it sets
    one, else against `page_size`, the device's page size.
    """
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
            try:
                updates[canon] = bounds[canon].convert(value)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{line_no}: {canon}: {exc}") from None
    # the file's own page size wins; a fractional one is left for
    # FlashGeometry to reject by name
    if isinstance(settings.get("page_size"), int):
        page_size = settings["page_size"]
    profile = validate_profile(ConfigProfile(**updates),
                               default_param_bounds(page_size=page_size))
    return profile, settings
