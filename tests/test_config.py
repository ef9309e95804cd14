import dataclasses

import pytest

from hybridssd import (ConfigProfile, ConfigError, NoValidUpdate,
                       PlacementStrategy, TUNABLE_PARAMS, default_param_bounds,
                       load_config_file, parse_scalar, resolve_param_name,
                       validate_profile)
from hybridssd.tuner import correct_mistakes


class TestDefaults:
    def test_exactly_fifteen_tunables(self):
        assert len(TUNABLE_PARAMS) == 15
        assert len(set(TUNABLE_PARAMS)) == 15

    def test_shipped_defaults(self):
        cfg = ConfigProfile()
        assert cfg.conversion_granularity == 1
        assert cfg.conversion_trigger_threshold == 6
        assert cfg.gc_granularity == 1
        assert cfg.gc_trigger_threshold == 6
        assert cfg.placement_strategy is PlacementStrategy.SLC_FIRST
        assert cfg.window_size == 2000
        assert cfg.std_dev_threshold == 10000
        assert cfg.slice_size == 200 * 1024 * 1024
        assert cfg.kmeans_max_iterations == 10
        assert cfg.kmeans_trigger_threshold == 10000
        assert cfg.rl_training_interval == 1000
        assert cfg.rl_learning_rate == 0.1
        assert cfg.rl_reward_threshold == 1600.0
        assert cfg.rl_discount == 0.9
        assert cfg.rl_exploration == 0.1

    def test_profile_is_immutable(self):
        cfg = ConfigProfile()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.window_size = 5

    def test_as_dict_serializes_enum(self):
        d = ConfigProfile().as_dict()
        assert d["placement_strategy"] == "slc_first"
        assert set(d) == set(TUNABLE_PARAMS)

    @pytest.mark.parametrize("name, strategy", [
        ("slc_first", PlacementStrategy.SLC_FIRST),
        ("hotness_based", PlacementStrategy.HOTNESS_BASED)])
    def test_a_strategy_name_becomes_its_member(self, name, strategy):
        profile = ConfigProfile(placement_strategy=name)
        assert profile.placement_strategy is strategy
        assert profile.as_dict()["placement_strategy"] == name

    def test_an_unknown_strategy_name_is_refused(self):
        with pytest.raises(ConfigError, match="not a strategy: 'sideways'"):
            ConfigProfile(placement_strategy="sideways")


class TestBounds:
    def test_bounds_cover_all_params_and_defaults(self):
        bounds = default_param_bounds()
        assert set(bounds) == set(TUNABLE_PARAMS)
        validate_profile(ConfigProfile(), bounds)  # defaults are legal

    def test_out_of_range_rejected(self):
        bad = dataclasses.replace(ConfigProfile(), gc_trigger_threshold=0)
        with pytest.raises(ConfigError):
            validate_profile(bad)

    def test_slice_size_must_stay_on_page_grid(self):
        bad = dataclasses.replace(ConfigProfile(), slice_size=16384 + 1)
        with pytest.raises(ConfigError):
            validate_profile(bad)

    def test_bool_is_not_a_number(self):
        bad = dataclasses.replace(ConfigProfile(), gc_granularity=True)
        with pytest.raises(ConfigError):
            validate_profile(bad)


# case, spacing and spelling variants seen in replies
_SPELLINGS = [
    ("gc_trigger_threshold", "gc_trigger_threshold"),
    ("GC trigger threshold", "gc_trigger_threshold"),
    ("GC Trigger Threshold", "gc_trigger_threshold"),
    ("Windows size", "window_size"),          # common misspelling
    ("window size", "window_size"),
    ("K-means trigger threshold", "kmeans_trigger_threshold"),
    ("k means trigger threshold", "kmeans_trigger_threshold"),
    ("RL reward", "rl_reward_threshold"),
    ("learning rate", "rl_learning_rate"),
    ("data placement strategy", "placement_strategy"),
    ("Slice size", "slice_size"),
    ("standard deviation threshold", "std_dev_threshold"),
    ("Mode conversion trigger threshold", "conversion_trigger_threshold"),
    ("exploration rate", "rl_exploration"),
]
# every canonical name and declared alias of every tunable
_DECLARED = [(name, f.name) for f in dataclasses.fields(ConfigProfile)
             for name in (f.name, *f.metadata["aliases"])]


class TestNameResolution:
    @pytest.mark.parametrize("alias,canon", _SPELLINGS + [
        pair for pair in _DECLARED if pair not in _SPELLINGS])
    def test_aliases(self, alias, canon):
        assert resolve_param_name(alias) == canon

    def test_unknown_name_is_none(self):
        assert resolve_param_name("flux capacitor charge") is None


class TestScalarParsing:
    @pytest.mark.parametrize("text,expected", [
        ("8", 8),
        (" 8 ", 8),
        ("8%", 8),
        ("0.1", 0.1),
        ("1600us", 1600),
        ("1.6ms", 1600),
        ("2 ms", 2000),
        ("0.5s", 500000),
        ("200MB", 200 * 1024 * 1024),
        ("4KB", 4096),
        ("1GB", 1024 ** 3),
        ("1,500", 1500),
        ("1e3", 1000),
        ("-3", -3),
        ("2.5", 2.5),
    ])
    def test_numeric(self, text, expected):
        got = parse_scalar(text)
        assert got == expected
        assert type(got) is type(expected)

    def test_non_numeric_passes_through_stripped(self):
        assert parse_scalar("  hotness_based ") == "hotness_based"

    def test_unknown_unit_is_not_a_number(self):
        assert parse_scalar("5 furlongs") == "5 furlongs"

    def test_overflow_is_not_a_number(self):
        assert parse_scalar(" 1e309") == "1e309"
        assert parse_scalar("1e308GB") == "1e308GB"


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "conf.txt"
        p.write_text(
            "# comment line\n"
            "GC trigger threshold = 8\n"
            "window size = 500\n"
            "slice size = 2MB\n"
            "placement strategy = hotness based\n"
            "rl reward = 1.5ms\n"
            "channels = 2\n"
            "kmeans_tol = 0.001\n")
        profile, settings = load_config_file(p)
        assert profile.gc_trigger_threshold == 8
        assert profile.window_size == 500
        assert profile.slice_size == 2 * 1024 * 1024
        assert profile.placement_strategy is PlacementStrategy.HOTNESS_BASED
        assert profile.rl_reward_threshold == 1500
        assert settings == {"channels": 2, "kmeans_tol": 0.001}
        # untouched fields keep their defaults
        assert profile.gc_granularity == 1

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "conf.txt"
        p.write_text("warp_drive = 9\n")
        with pytest.raises(ConfigError):
            load_config_file(p)

    def test_out_of_range_value_rejected(self, tmp_path):
        p = tmp_path / "conf.txt"
        p.write_text("gc_trigger_threshold = 99\n")
        with pytest.raises(ConfigError):
            load_config_file(p)

    def test_a_setting_needs_a_number(self, tmp_path):
        p = tmp_path / "conf.txt"
        p.write_text("channels = plenty\n")
        with pytest.raises(ConfigError, match="channels needs a number"):
            load_config_file(p)

    def test_the_files_own_page_size_sets_the_slice_grid(self, tmp_path):
        # three 4 KiB pages: on the grid of the file's page size, off the
        # grid of the default 16 KiB one
        p = tmp_path / "conf.txt"
        p.write_text("slice size = 12288\n")
        with pytest.raises(ConfigError, match="slice_size"):
            load_config_file(p)
        p.write_text("page_size = 4096\nslice size = 12288\n")
        profile, settings = load_config_file(p)
        assert profile.slice_size == 12288
        assert settings == {"page_size": 4096}

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "conf.txt"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_config_file(p)


# --- one legal type per tunable, whichever way a value arrives -------------

HOT = PlacementStrategy.HOTNESS_BASED
# raw value -> does it have the type of an int tunable, a float tunable and
# the strategy? Each value lies inside both numeric ranges.
_TYPE_TABLE = {
    True: (False, False, False),
    "fast": (False, False, False),
    2.5: (False, True, False),
    3.0: (True, True, False),
    "hotness based": (False, False, True),
    HOT: (False, False, True),
}
_TYPE_CASES = [
    (name, raw, typed)
    for raw, verdicts in _TYPE_TABLE.items()
    for name, typed in zip(("gc_granularity", "rl_reward_threshold",
                            "placement_strategy"), verdicts)]


def _via_correction(name, raw):
    try:
        profile, _ = correct_mistakes({name: raw}, default_param_bounds(),
                                      ConfigProfile())
    except NoValidUpdate:
        return None
    return getattr(profile, name)


def _via_file(tmp_path, name, raw):
    # a file carries text: a strategy member as its value, anything else
    # as str() spells it
    p = tmp_path / "conf.txt"
    p.write_text(f"{name} = {raw.value if raw is HOT else raw}\n")
    try:
        return getattr(load_config_file(p)[0], name)
    except ConfigError:
        return None


def _via_profile(name, raw):
    try:
        profile = validate_profile(
            dataclasses.replace(ConfigProfile(), **{name: raw}))
    except ConfigError:
        return None
    return getattr(profile, name)


@pytest.mark.parametrize("name, raw, typed", _TYPE_CASES)
def test_entry_points_agree_on_the_tunable_type(tmp_path, name, raw, typed):
    got = [_via_correction(name, raw), _via_file(tmp_path, name, raw),
           _via_profile(name, raw)]
    if not typed:
        assert got == [None] * 3
        return
    expected = HOT if name == "placement_strategy" else raw
    assert got == [expected] * 3
    # an int tunable holds an int, however the value arrived
    if name == "gc_granularity":
        assert [type(v) for v in got] == [int] * 3


@pytest.mark.parametrize("value, reason", [
    (True, "not a number: True"),
    ("fast", "not a number: 'fast'"),
    (2.5, "needs an integer: 2.5"),
    (float("inf"), "needs an integer: inf"),
])
def test_one_reason_text_for_a_wrong_type(tmp_path, value, reason):
    bounds = default_param_bounds()
    with pytest.raises(ConfigError, match=f"^{reason}$"):
        bounds["gc_granularity"].convert(value)
    with pytest.raises(NoValidUpdate) as exc:
        correct_mistakes({"gc_granularity": value}, bounds, ConfigProfile())
    assert exc.value.corrections == [f"gc_granularity: dropped ({reason})"]
    with pytest.raises(ConfigError) as exc:
        validate_profile(dataclasses.replace(ConfigProfile(),
                                             gc_granularity=value))
    assert str(exc.value) == f"gc_granularity: {reason}"


@pytest.mark.parametrize("name", ["rl_learning_rate", "gc_granularity"])
def test_nan_is_not_a_number(name):
    nan = float("nan")
    bounds = default_param_bounds()
    with pytest.raises(ConfigError, match="^not a number: nan$"):
        bounds[name].convert(nan)
    with pytest.raises(NoValidUpdate) as exc:
        correct_mistakes({name: nan}, bounds, ConfigProfile())
    assert exc.value.corrections == [f"{name}: dropped (not a number: nan)"]
    # beside a usable value it is dropped and the rest applies
    profile, corrections = correct_mistakes(
        {name: nan, "window_size": 1500}, bounds, ConfigProfile())
    assert profile.window_size == 1500
    assert getattr(profile, name) == getattr(ConfigProfile(), name)
    assert corrections == [f"{name}: dropped (not a number: nan)"]
    with pytest.raises(ConfigError, match=f"^{name}: not a number: nan$"):
        validate_profile(dataclasses.replace(ConfigProfile(), **{name: nan}))


@pytest.mark.parametrize("value, bound", [(float("inf"), 1.0),
                                          (float("-inf"), 1e-06)])
def test_an_infinite_float_is_clamped(value, bound):
    profile, corrections = correct_mistakes(
        {"rl_learning_rate": value}, default_param_bounds(), ConfigProfile())
    assert profile.rl_learning_rate == bound
    assert len(corrections) == 1
    assert corrections[0].startswith("rl_learning_rate: clamped")
