import logging
import math
import pickle
import random

import pytest

from hybridssd import (ACTION_ORDER, ActionKind, AgentState, ConfigProfile,
                       Mode, QTable, SpaceAgent, reward)
from hybridssd.rl import INTENSITY_SAMPLES
from conftest import make_stack
from oracles import bucket_fraction, q_update

S0 = AgentState(0, 0, 0, 0)
S1 = AgentState(1, 2, 3, 1)


class TestBuckets:
    @pytest.mark.parametrize("fraction,expected", [
        (0.0, 0), (0.09, 0), (0.1, 1), (0.55, 5), (0.99, 9), (1.0, 9),
    ])
    def test_free_fraction_ten_buckets(self, fraction, expected):
        assert bucket_fraction(fraction, 10) == expected

    @pytest.mark.parametrize("fraction,expected", [
        (0.0, 0), (0.24, 0), (0.25, 1), (0.5, 2), (0.75, 3), (1.0, 3),
    ])
    def test_quartile_buckets(self, fraction, expected):
        assert bucket_fraction(fraction, 4) == expected

    def test_out_of_range_clamped(self):
        assert bucket_fraction(-0.5, 10) == 0
        assert bucket_fraction(1.5, 10) == 9


class TestReward:
    def test_two_piece_with_favorable_boundary(self):
        assert reward(1599.9, 1600.0) == 1.0
        assert reward(1600.0, 1600.0) == 1.0   # boundary counts as met
        assert reward(1600.1, 1600.0) == -1.0


class TestQTable:
    def test_default_value_is_zero(self):
        t = QTable()
        assert t.value(S0, ActionKind.IDLE) == 0.0
        assert t.max_value(S0) == 0.0

    def test_update_matches_bellman_backup(self):
        t = QTable()
        got = t.update(S0, ActionKind.SLC_INTERNAL_GC, 1.0, S1,
                       alpha=0.1, gamma=0.9)
        assert got == q_update(0.0, 0.1, 0.9, 1.0, 0.0) == pytest.approx(0.1)
        # second update bootstraps from the next state's best value
        t.q[S1] = {ActionKind.IDLE: 0.5}
        got = t.update(S0, ActionKind.SLC_INTERNAL_GC, 1.0, S1,
                       alpha=0.1, gamma=0.9)
        assert got == pytest.approx(q_update(0.1, 0.1, 0.9, 1.0, 0.5))
        assert got == pytest.approx(0.235)

    def test_ties_resolve_to_earliest_action(self):
        t = QTable()
        assert t.best_action(S0) is ACTION_ORDER[0]
        t.q[S0] = {ActionKind.QLC_INTERNAL_GC: 0.7,
                   ActionKind.SLC_TO_QLC_MC: 0.7}
        assert t.best_action(S0) is ActionKind.QLC_INTERNAL_GC

    def test_negative_values_still_beat_nothing(self):
        t = QTable()
        t.q[S0] = {ActionKind.SLC_INTERNAL_GC: -0.5}
        # untouched actions have value 0, which beats -0.5
        assert t.best_action(S0) is ActionKind.QLC_INTERNAL_GC

    def test_non_finite_value_resets_with_warning(self, caplog):
        t = QTable()
        t.q[S0] = {ActionKind.IDLE: float("inf")}
        with caplog.at_level(logging.WARNING, logger="hybridssd.rl"):
            got = t.update(S0, ActionKind.IDLE, 1.0, S0, alpha=1.0, gamma=0.9)
        assert got == 0.0
        assert t.reset_warnings == 1
        assert any("non-finite" in r.message for r in caplog.records)
        # the table is usable again afterwards
        assert math.isfinite(t.update(S0, ActionKind.IDLE, 1.0, S0, 0.1, 0.9))

    def test_json_dict_keys(self):
        t = QTable()
        t.update(S1, ActionKind.IDLE, -1.0, S1, 0.1, 0.9)
        d = t.to_json_dict()
        assert set(d) == {"1,2,3,1|idle"}


class TestAgent:
    def test_exploit_uses_best_action(self):
        agent = SpaceAgent(random.Random(1))
        agent.qtable.q[S0] = {ActionKind.SLC_TO_QLC_GC: 1.0}
        assert agent.choose_action(S0, epsilon=0.0) == (
            ActionKind.SLC_TO_QLC_GC, 1)

    def test_explore_rate_roughly_epsilon(self):
        agent = SpaceAgent(random.Random(2))
        agent.qtable.q[S0] = {ActionKind.SLC_INTERNAL_GC: 5.0}
        non_greedy = sum(
            agent.choose_action(S0, epsilon=0.3)[0]
            is not ActionKind.SLC_INTERNAL_GC
            for _ in range(4000))
        # explorations pick uniformly, 1/5 of them hit the greedy arm anyway
        assert 0.3 * 0.8 * 4000 * 0.8 < non_greedy < 0.3 * 0.8 * 4000 * 1.2

    def test_decisions_queue_until_training(self):
        agent = SpaceAgent(random.Random(3))
        cfg = ConfigProfile()
        for _ in range(4):
            agent.choose_action(S0, epsilon=0.0)
        assert len(agent.pending) == 4
        r = agent.train(100.0, S1, cfg)   # well under the 1600us threshold
        assert r == 1.0
        assert agent.pending == []
        assert agent.trainings == 1

    def test_same_reward_for_every_queued_pair(self):
        agent = SpaceAgent(random.Random(4))
        cfg = ConfigProfile(rl_learning_rate=1.0, rl_discount=0.0)
        agent.choose_action(S0, epsilon=0.0)
        agent.qtable.q[S1] = {ActionKind.IDLE: 9.9}     # future is ignored
        agent.choose_action(S1, epsilon=0.0)
        agent.train(5000.0, S0, cfg)                     # over threshold: -1
        assert agent.qtable.value(S0, ActionKind.SLC_INTERNAL_GC) == -1.0
        assert agent.qtable.value(S1, ActionKind.IDLE) == \
            q_update(9.9, 1.0, 0.0, -1.0, 0.0)

    def test_unchanged_device_shares_one_state_and_one_pair(self):
        # sharing is what keeps thousands of decisions on one device state
        # from holding thousands of tuples until the next training tick
        agent = SpaceAgent(random.Random(10))
        free = {Mode.SLC: 3, Mode.QLC: 9}
        tally = {Mode.SLC: 10, Mode.QLC: 30}
        states = [agent.observe_state(free, tally, 0.0, 0.5)
                  for _ in range(3)]
        assert states[0] is states[1] is states[2]
        for state in states:
            agent.choose_action(state, epsilon=0.0)
        first = agent.pending[0]
        assert all(pair is first for pair in agent.pending)
        # a moved input gives a new state with pairs of its own
        free[Mode.SLC] = 2
        moved = agent.observe_state(free, tally, 0.0, 0.5)
        assert moved is not states[0]
        agent.choose_action(moved, epsilon=0.0)
        assert agent.pending[-1] == (moved, first[1])
        assert agent.pending[-1] is not first

    def test_stack_decisions_on_an_unchanged_device_share_pairs(self):
        stack = make_stack()
        kinds = [stack.agent.act(stack.ftl, (), 1)[0] for _ in range(4)]
        pending = stack.agent.pending
        assert len(pending) == 4
        for kind, pair in zip(kinds, pending):
            assert pair[0] is pending[0][0]
            assert pair is next(p for p in pending if p[1] is kind)

    def test_a_streak_on_a_state_not_observed_last_is_refused(self):
        # a draw after a skipped kind observes the last observation again,
        # so a call on another state that may draw twice cannot start
        agent = SpaceAgent(random.Random(11))
        skip = {ActionKind.SLC_INTERNAL_GC}
        with pytest.raises(ValueError):
            agent.choose_action(S0, 0.0, skip, limit=3)
        free = {Mode.SLC: 3, Mode.QLC: 9}
        tally = {Mode.SLC: 10, Mode.QLC: 30}
        observed = agent.observe_state(free, tally, 0.0, 0.5)
        assert observed != S0
        with pytest.raises(ValueError):
            agent.choose_action(S0, 0.0, skip, limit=3)
        assert agent.pending == [] and agent.decisions == 0
        # one draw, an empty skip or the observed state itself can all go
        assert agent.choose_action(S0, 0.0, skip, limit=1) == (None, 1)
        assert agent.choose_action(S0, 0.0, (), limit=3) == (
            ActionKind.SLC_INTERNAL_GC, 1)
        assert agent.choose_action(AgentState(*observed), 0.0, skip,
                                   limit=3) == (None, 3)
        assert [pair[0] for pair in agent.pending] == [S0, S0] + [observed] * 3

    def test_train_without_decisions_is_none(self):
        agent = SpaceAgent(random.Random(5))
        assert agent.train(10.0, S0, ConfigProfile()) is None
        assert agent.trainings == 0

    def test_identical_seeds_identical_decisions(self):
        a = SpaceAgent(random.Random(42))
        b = SpaceAgent(random.Random(42))
        seq_a = [a.choose_action(S0, 0.5) for _ in range(50)]
        seq_b = [b.choose_action(S0, 0.5) for _ in range(50)]
        assert seq_a == seq_b


class TestIntensityBucket:
    def test_midrank_percentile(self):
        agent = SpaceAgent(random.Random(6))
        for v in (10.0, 20.0, 30.0, 40.0):
            agent.intensity_bucket(v)
        # 50.0 ranks above all 4 samples: (4 + 0.5) / 5 = 0.9 -> top quartile
        assert agent.intensity_bucket(50.0) == 3
        # 5.0 ranks below all: 0.5 / 6 -> bottom quartile
        assert agent.intensity_bucket(5.0) == 0

    def test_first_sample_is_median(self):
        agent = SpaceAgent(random.Random(7))
        # single sample ranks at its own midpoint: 0.5 -> bucket 2
        assert agent.intensity_bucket(100.0) == 2

    def test_a_pickled_agent_ranks_as_the_original(self):
        agent = SpaceAgent(random.Random(9))
        for i in range(300):
            agent.intensity_bucket(float(i % 7))
        for _ in range(40):
            agent.intensity_bucket(3.0)      # a run of one rate, mid-way
        twin = pickle.loads(pickle.dumps(agent))
        # the run goes on past a full window of 3.0, then the rate moves
        rates = [3.0] * (INTENSITY_SAMPLES + 10) + [4.0, 2.0, 2.0]
        assert ([agent.intensity_bucket(r) for r in rates]
                == [twin.intensity_bucket(r) for r in rates])
        assert agent.intensity_samples == twin.intensity_samples

    def test_observe_state_without_summary(self):
        agent = SpaceAgent(random.Random(8))
        # free fractions 0.35 and 0.8
        free = {Mode.SLC: 7, Mode.QLC: 16}
        tally = {Mode.SLC: 20, Mode.QLC: 20}
        st = agent.observe_state(free, tally, 0.0, 0.6)
        assert st.slc_free_bucket == 3
        assert st.qlc_free_bucket == 8
        assert st.hot_ratio_bucket == 2

    @pytest.mark.parametrize("free,tally", [
        (0, 0), (0, 7), (3, 7), (7, 7), (9, 10), (1, 10), (999, 1000)])
    def test_observe_state_buckets_like_bucket_fraction(self, free, tally):
        agent = SpaceAgent(random.Random(8))
        fraction = free / tally if tally else 0.0
        for hot in (0.0, 0.249, 0.25, 0.999, 1.0):
            st = agent.observe_state({Mode.SLC: free, Mode.QLC: free},
                                     {Mode.SLC: tally, Mode.QLC: tally},
                                     0.0, hot)
            assert st.slc_free_bucket == st.qlc_free_bucket == \
                bucket_fraction(fraction, 10)
            assert st.hot_ratio_bucket == bucket_fraction(hot, 4)


class TestGreedyConvergence:
    def test_bandit_learns_the_rewarding_action(self):
        # single-state bandit: SLC_TO_QLC_MC earns +1, everything else -1
        agent = SpaceAgent(random.Random(9))
        cfg = ConfigProfile(rl_learning_rate=0.1, rl_discount=0.9,
                            rl_exploration=0.1, rl_reward_threshold=100.0)
        target = ActionKind.SLC_TO_QLC_MC
        for _ in range(2000):
            kind, _ = agent.choose_action(S0, cfg.rl_exploration)
            avg = 50.0 if kind is target else 500.0
            agent.train(avg, S0, cfg)
        assert agent.qtable.best_action(S0) is target
