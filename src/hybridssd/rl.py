"""Tabular Q-learning agent that picks space-management actions.

State is a coarse 4-tuple of buckets (10 x 10 x 4 x 4 = 1600 states), the
action set is the five space-management kinds. Rewards are two-piece: +1
when the average response time since the last training tick stayed at or
under the reward threshold, -1 otherwise.
"""
from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import NamedTuple

from .config import ConfigProfile
from .ftl import ACTION_ORDER, ActionKind
from .ssd import Mode

logger = logging.getLogger(__name__)

N_FREE_BUCKETS = 10
N_QUARTILES = 4
# writes/sec samples kept to rank the current write intensity
INTENSITY_SAMPLES = 256


class AgentState(NamedTuple):
    slc_free_bucket: int
    qlc_free_bucket: int
    write_intensity_bucket: int
    hot_ratio_bucket: int


def bucket_fraction(fraction: float, n_buckets: int) -> int:
    """Map a [0,1] fraction onto 0..n_buckets-1 (1.0 lands in the top)."""
    b = int(fraction * n_buckets)
    return min(max(b, 0), n_buckets - 1)


def reward(avg_response_us: float, threshold_us: float) -> float:
    """+1 when the period met the latency target (boundary counts), else -1."""
    return 1.0 if avg_response_us <= threshold_us else -1.0


class QTable:
    """Sparse (state, action) -> value table with a fixed argmax order."""

    def __init__(self):
        self.q: dict[tuple[AgentState, ActionKind], float] = {}
        self.reset_warnings = 0

    def value(self, state: AgentState, action: ActionKind) -> float:
        return self.q.get((state, action), 0.0)

    def best_action(self, state: AgentState) -> ActionKind:
        # strictly-greater comparison walks ACTION_ORDER, so ties always
        # resolve to the earliest action in the fixed order
        get = self.q.get
        best = ACTION_ORDER[0]
        best_v = get((state, best), 0.0)
        for kind in ACTION_ORDER[1:]:
            v = get((state, kind), 0.0)
            if v > best_v:
                best, best_v = kind, v
        return best

    def max_value(self, state: AgentState) -> float:
        return max(self.value(state, kind) for kind in ACTION_ORDER)

    def update(self, state: AgentState, action: ActionKind, r: float,
               next_state: AgentState, alpha: float, gamma: float) -> float:
        old = self.value(state, action)
        new = old + alpha * (r + gamma * self.max_value(next_state) - old)
        if not math.isfinite(new):
            # poisoned entry: reset instead of propagating NaN/inf
            logger.warning("non-finite Q for %s/%s reset to 0", state, action)
            self.reset_warnings += 1
            new = 0.0
        self.q[(state, action)] = new
        return new

    def to_json_dict(self) -> dict:
        out = {}
        for (state, action), v in self.q.items():
            key = ",".join(str(x) for x in state) + "|" + action.value
            out[key] = v
        return out


class SpaceAgent:
    """Epsilon-greedy decision maker over the space-management actions.

    Decisions made between training ticks queue up as pending (state, action)
    pairs; each training tick computes one reward for the whole period and
    applies it to every queued pair in order.
    """

    def __init__(self, rng):
        self.qtable = QTable()
        self.rng = rng
        self.pending: list[tuple[AgentState, ActionKind]] = []
        self.intensity_samples: deque[float] = deque(maxlen=INTENSITY_SAMPLES)
        # the same samples in sorted order, so a rank is two bisections
        self._ranked: list[float] = []
        self.decisions = 0
        self.trainings = 0

    # --- state construction ---------------------------------------------------

    def intensity_bucket(self, writes_per_second: float) -> int:
        samples, ranked = self.intensity_samples, self._ranked
        if len(samples) == samples.maxlen:
            del ranked[bisect_left(ranked, samples[0])]
        samples.append(writes_per_second)
        insort(ranked, writes_per_second)
        below = bisect_left(ranked, writes_per_second)
        equal = bisect_right(ranked, writes_per_second) - below
        rank = (below + 0.5 * equal) / len(ranked)    # in (0, 1]
        return min(int(rank * N_QUARTILES), N_QUARTILES - 1)

    def observe_state(self, free_count: dict, block_tally: dict,
                      workload_summary,
                      hot_write_fraction: float) -> AgentState:
        """Bucketize device occupancy and workload into an AgentState.

        Occupancy is each mode's free fraction, free blocks (`free_count`)
        over blocks (`block_tally`), 0 for a mode without blocks; fractions
        lie in [0, 1], so `bucket_fraction` reduces to a cap at the top.
        `workload_summary` is the monitor's latest summary or None before
        any window data exists.
        """
        rate = (workload_summary.writes_per_virtual_second
                if workload_summary is not None else 0.0)
        slc_blocks, qlc_blocks = block_tally[Mode.SLC], block_tally[Mode.QLC]
        slc_free = free_count[Mode.SLC] / slc_blocks if slc_blocks else 0.0
        qlc_free = free_count[Mode.QLC] / qlc_blocks if qlc_blocks else 0.0
        top = N_FREE_BUCKETS - 1
        return AgentState(
            min(int(slc_free * N_FREE_BUCKETS), top),
            min(int(qlc_free * N_FREE_BUCKETS), top),
            self.intensity_bucket(rate),
            min(int(hot_write_fraction * N_QUARTILES), N_QUARTILES - 1))

    # --- acting and learning -----------------------------------------------------

    def choose_action(self, state: AgentState, epsilon: float) -> ActionKind:
        if self.rng.random() < epsilon:
            kind = self.rng.choice(ACTION_ORDER)
        else:
            kind = self.qtable.best_action(state)
        self.pending.append((state, kind))
        self.decisions += 1
        return kind

    def train(self, avg_response_us: float, next_state: AgentState,
              config: ConfigProfile) -> float | None:
        """Apply the period reward to all queued decisions. Returns the
        reward, or None when no decision happened in the period."""
        if not self.pending:
            return None
        r = reward(avg_response_us, config.rl_reward_threshold)
        for state, action in self.pending:
            self.qtable.update(state, action, r, next_state,
                               config.rl_learning_rate, config.rl_discount)
        self.pending.clear()
        self.trainings += 1
        return r
