import random

import pytest

from hybridssd import (ActionKind, ConfigProfile, LatencyModel, SsdState,
                       desk_geometry)


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


class StreakCases:
    """The cases the agent's multi-draw `choose_action` calls reach,
    recorded by wrapping `SpaceAgent.choose_action` and
    `FtlEngine.mc_eligible` (pass each the function to wrap):

    - "bound": every draw skipped up to the limit,
    - "bucket moved": the draws queued pairs of more than one state,
    - "ineligible mc": a conversion drawn and skipped while not eligible,
    - "trained greedy": the greedy kind of the first state is not the first
      in the action order.
    """

    def __init__(self):
        self.seen = set()
        self.mc_eligible = None

    def wrap_choose_action(self, choose_action):
        def recording(agent, state, epsilon, skip=(), limit=1, counts=None):
            start = len(agent.pending)
            greedy = agent.qtable.best_action(state)
            kind, draws = choose_action(agent, state, epsilon, skip, limit,
                                        counts)
            if draws > 1:
                drawn = agent.pending[start:]
                if kind is None:
                    self.seen.add("bound")
                if len({pair[0] for pair in drawn}) > 1:
                    self.seen.add("bucket moved")
                if self.mc_eligible is False and any(
                        k is ActionKind.SLC_TO_QLC_MC for _, k in drawn[:-1]):
                    self.seen.add("ineligible mc")
                if greedy is not ActionKind.SLC_INTERNAL_GC:
                    self.seen.add("trained greedy")
            return kind, draws
        return recording

    def wrap_mc_eligible(self, mc_eligible):
        def recording(ftl):
            self.mc_eligible = mc_eligible(ftl)
            return self.mc_eligible
        return recording
