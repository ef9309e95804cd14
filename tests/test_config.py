import dataclasses

import pytest

from hybridssd import (ConfigProfile, ConfigError, PlacementStrategy,
                       TUNABLE_PARAMS, default_param_bounds, load_config_file,
                       parse_scalar, resolve_param_name, validate_profile)


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

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "conf.txt"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_config_file(p)
