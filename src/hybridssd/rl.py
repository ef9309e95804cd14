"""Tabular Q-learning agent that picks space-management actions.

State is a coarse 4-tuple of buckets (10 x 10 x 4 x 4 = 1600 states), the
action set is the five space-management kinds. Rewards are two-piece: +1
when the average response time since the last training tick stayed at or
under the reward threshold, -1 otherwise. The engine's action source is
`act`; the agent owns its workload inputs and keeps no engine reference.
"""
from __future__ import annotations

import logging
import math
from collections import deque
from typing import NamedTuple

from .config import ConfigProfile
from .ftl import ACTION_ORDER, IDLE, ActionKind, FtlEngine
from .ssd import QLC, SLC

logger = logging.getLogger(__name__)

N_FREE_BUCKETS = 10
N_QUARTILES = 4
# writes/sec samples kept to rank the current write intensity
INTENSITY_SAMPLES = 256
# write requests whose hot flags the hot-write fraction reads
HOT_WINDOW = 256

_LATER_ACTIONS = ACTION_ORDER[1:]
# the bucket of a sample ranked exactly at the middle of its window
_MID_BUCKET = int(0.5 * N_QUARTILES)


class AgentState(NamedTuple):
    slc_free_bucket: int
    qlc_free_bucket: int
    write_intensity_bucket: int
    hot_ratio_bucket: int


def _rank_pushes(samples: deque, x: float):
    """Push `x` into the window `samples` at each step and yield the
    bucket of its rank among the samples. The first push rescans the
    window; the rate only changes at training ticks, so later pushes almost
    always repeat x, and each then moves the counts of samples below and
    equal to x by the one sample it evicts."""
    samples.append(x)
    below = sum(1 for s in samples if s < x)
    equal = samples.count(x)
    while equal < len(samples):
        # x itself is counted in `equal`, so the rank lies in (0, 1) and
        # the bucket needs no cap
        yield int((below + 0.5 * equal) / len(samples) * N_QUARTILES)
        if len(samples) == INTENSITY_SAMPLES:
            evicted = samples[0]
            if evicted < x:
                below -= 1
            elif evicted == x:
                equal -= 1
        samples.append(x)
        equal += 1
    # every sample equals x, so none lies below it: the rank is exactly one
    # half at any length, and a push of x keeps the window so
    while True:
        yield _MID_BUCKET
        samples.append(x)


def reward(avg_response_us: float, threshold_us: float) -> float:
    """+1 when the period met the latency target (boundary counts), else -1."""
    return 1.0 if avg_response_us <= threshold_us else -1.0


class QTable:
    """Sparse state -> {action: value} rows with a fixed argmax order.

    A row holds only the actions ever updated in that state; a missing
    state or action has value 0.
    """

    def __init__(self):
        self.q: dict[AgentState, dict[ActionKind, float]] = {}
        self.reset_warnings = 0

    def value(self, state: AgentState, action: ActionKind) -> float:
        row = self.q.get(state)
        return 0.0 if row is None else row.get(action, 0.0)

    def best_action(self, state: AgentState) -> ActionKind:
        # strictly-greater comparison walks ACTION_ORDER, so ties always
        # resolve to the earliest action in the fixed order
        row = self.q.get(state)
        best = ACTION_ORDER[0]
        if row is None:
            return best
        get = row.get
        best_v = get(best, 0.0)
        for kind in _LATER_ACTIONS:
            v = get(kind, 0.0)
            if v > best_v:
                best, best_v = kind, v
        return best

    def max_value(self, state: AgentState) -> float:
        row = self.q.get(state)
        if row is None:
            return 0.0
        return max(row.get(kind, 0.0) for kind in ACTION_ORDER)

    def update(self, state: AgentState, action: ActionKind, r: float,
               next_state: AgentState, alpha: float, gamma: float) -> float:
        old = self.value(state, action)
        new = old + alpha * (r + gamma * self.max_value(next_state) - old)
        if not math.isfinite(new):
            # poisoned entry: reset instead of propagating NaN/inf
            logger.warning("non-finite Q for %s/%s reset to 0", state, action)
            self.reset_warnings += 1
            new = 0.0
        self.q.setdefault(state, {})[action] = new
        return new

    def to_json_dict(self) -> dict:
        out = {}
        for state, row in self.q.items():
            prefix = ",".join(str(x) for x in state) + "|"
            for action, v in row.items():
                out[prefix + action.value] = v
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
        self.write_rate = 0.0   # writes/s at the last training tick's summary
        # the last HOT_WINDOW write requests' hot flags, oldest first, and
        # how many of them are set
        self.hot_flags: deque[bool] = deque(maxlen=HOT_WINDOW)
        self._hot_count = 0
        # the last rate pushed and the `_rank_pushes` of it over
        # intensity_samples that ranks every following push of the same rate
        self._rank_value: float | None = None
        self._ranks = None
        # the last observation: its inputs, the AgentState they gave, one
        # (state, kind) pending pair per kind for that state and its greedy
        # kind, kept by `train` as the Q-table changes only there
        self._memo_key: tuple | None = None
        self._memo_state: AgentState | None = None
        self._memo_pairs: dict[ActionKind, tuple[AgentState, ActionKind]] = {}
        self._memo_greedy: ActionKind | None = None
        self.decisions = 0
        self.trainings = 0

    def __getstate__(self) -> dict:
        """The agent for copy and pickle, less the rank generator, which
        neither can take: the next push rescans the window, and that gives
        the below and equal counts the generator carried."""
        state = self.__dict__.copy()
        state["_rank_value"] = state["_ranks"] = None
        return state

    # --- state construction ---------------------------------------------------

    def push_hot_flag(self, hot: bool) -> None:
        """Slide one write request's hot flag into the window."""
        flags = self.hot_flags
        if len(flags) == HOT_WINDOW and flags[0]:
            self._hot_count -= 1
        flags.append(hot)
        if hot:
            self._hot_count += 1

    def hot_write_fraction(self) -> float:
        """Share of hot-flagged requests among the last HOT_WINDOW writes."""
        flags = self.hot_flags
        return self._hot_count / len(flags) if flags else 0.0

    def intensity_bucket(self, writes_per_second: float) -> int:
        """Push one writes/sec sample and bucket its rank in the window:
        one step of the rate's `_rank_pushes`."""
        if writes_per_second != self._rank_value:
            self._rank_value = writes_per_second
            self._ranks = _rank_pushes(self.intensity_samples,
                                       writes_per_second)
        return next(self._ranks)

    def observe_state(self, free_count: dict, block_tally: dict,
                      write_rate: float,
                      hot_write_fraction: float) -> AgentState:
        """Bucketize device occupancy and workload into an AgentState.

        Occupancy is each mode's free fraction, free blocks (`free_count`)
        over blocks (`block_tally`), 0 for a mode without blocks. Fractions
        lie in [0, 1], so each bucket is `int(fraction * n)` capped at the
        top one. `write_rate` is the monitor's latest writes per virtual
        second, 0.0 before any summary.

        The intensity sample is pushed on every call. When no input moved
        since the last call, the last AgentState object itself comes back.
        """
        key = (free_count[SLC], free_count[QLC], block_tally[SLC],
               block_tally[QLC], hot_write_fraction,
               self.intensity_bucket(write_rate))
        if key != self._memo_key:
            self._observe(key)
        return self._memo_state

    def _observe(self, key: tuple) -> None:
        """Make `key`, an observe_state input tuple, the last observation."""
        slc_free, qlc_free, slc_blocks, qlc_blocks, hot_fraction, intensity \
            = key
        top = N_FREE_BUCKETS - 1
        slc = (int(slc_free / slc_blocks * N_FREE_BUCKETS)
               if slc_blocks else 0)
        if slc > top:
            slc = top
        qlc = (int(qlc_free / qlc_blocks * N_FREE_BUCKETS)
               if qlc_blocks else 0)
        if qlc > top:
            qlc = top
        hot = int(hot_fraction * N_QUARTILES)
        if hot > N_QUARTILES - 1:
            hot = N_QUARTILES - 1
        state = AgentState(slc, qlc, intensity, hot)
        self._memo_key, self._memo_state = key, state
        self._memo_pairs = {kind: (state, kind) for kind in ACTION_ORDER}
        self._memo_greedy = self.qtable.best_action(state)

    def observe(self, ftl: FtlEngine) -> AgentState:
        """`observe_state` on the engine's occupancy and the agent's inputs."""
        return self.observe_state(ftl.free_count, ftl.ssd.block_tally,
                                  self.write_rate, self.hot_write_fraction())

    # --- acting and learning -----------------------------------------------------

    def act(self, ftl: FtlEngine, skip,
            limit: int) -> tuple[ActionKind | None, int]:
        """The engine's action source: `choose_action` on the observed
        state, at the exploration rate of the engine's active profile."""
        return self.choose_action(self.observe(ftl),
                                  ftl.config.rl_exploration, skip, limit,
                                  ftl.action_counts)

    def choose_action(self, state: AgentState, epsilon: float, skip=(),
                      limit: int = 1, counts: dict | None = None
                      ) -> tuple[ActionKind | None, int]:
        """Draw epsilon-greedy actions until one is IDLE or not in `skip`,
        at most `limit` of them; returns that kind (None when all `limit`
        draws fell in `skip`) and the number of draws. Each draw queues a
        pending pair and counts its kind in `counts`.

        The first draw is on `state`. A later draw follows a skipped kind
        that left the device as it was, so it observes the last observation
        again: `state` must be that observation's state. Only its intensity
        sample is new, and the state changes only when its bucket moves.
        So a call on another state that could draw twice raises ValueError
        before its first draw.
        """
        rng = self.rng
        random, pending = rng.random, self.pending
        if counts is None:
            counts = dict.fromkeys(ACTION_ORDER, 0)
        if state is self._memo_state:
            pairs, greedy = self._memo_pairs, self._memo_greedy
        elif skip and limit > 1 and state != self._memo_state:
            raise ValueError("a draw after a skipped kind observes the last "
                             "observation again: state must be its state")
        else:
            pairs = {kind: (state, kind) for kind in ACTION_ORDER}
            greedy = self.qtable.best_action(state)
        intensity, ranks = state[2], self._ranks
        draws = 0
        while True:
            kind = rng.choice(ACTION_ORDER) if random() < epsilon else greedy
            pending.append(pairs[kind])
            counts[kind] += 1
            draws += 1
            if kind is IDLE or kind not in skip:
                break
            if draws == limit:
                kind = None
                break
            bucket = next(ranks)
            if bucket != intensity:
                intensity = bucket
                self._observe(self._memo_key[:-1] + (bucket,))
                pairs, greedy = self._memo_pairs, self._memo_greedy
        self.decisions += draws
        return kind, draws

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
        if self._memo_state is not None:
            self._memo_greedy = self.qtable.best_action(self._memo_state)
        return r
