import random

import pytest

from hybridssd import ConfigProfile, LatencyModel, SsdState, desk_geometry


@pytest.fixture
def desk_geo():
    # 1 channel x 8 blocks x 8 pages: every page fits in your head
    return desk_geometry()


@pytest.fixture
def desk_ssd(desk_geo):
    return SsdState(desk_geo, LatencyModel(), initial_mode_split=0.5)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def make_stack(channels=1, blocks_per_channel=16, pages_per_block=8,
               mode_split=0.5, seed=0, **config_over):
    """Small full-stack helper shared across integration tests."""
    from hybridssd import SimulatorStack
    geo = desk_geometry(channels=channels,
                        blocks_per_channel=blocks_per_channel,
                        pages_per_block_slc=pages_per_block)
    defaults = dict(window_size=100, rl_training_interval=50,
                    kmeans_trigger_threshold=400,
                    slice_size=geo.page_size * 8)
    defaults.update(config_over)
    cfg = ConfigProfile(**defaults)
    return SimulatorStack(geo, cfg, seed=seed)
