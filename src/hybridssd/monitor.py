"""Sliding-window workload monitor and distribution-shift detection.

A push appends the request's lpn, write flag and timestamp to three column
lists and nothing more. The window's exact-integer counts (writes, sum of
lpns, sum of squared lpns) fold in only the entries pushed or evicted since
the last read, so a summary costs the requests since the previous one,
whatever the window size.
"""
from __future__ import annotations

import math
from operator import mul

from .errors import ConfigError

# bits of the integer square root: enough that one final rounding of the
# round-to-odd root gives the correctly rounded float
_SQRT_BITS = 2 * 53 + 3

# fewest requests a window holds
MIN_CAPACITY = 2


def _sqrt_of_fraction(n: int, m: int) -> float:
    """sqrt(n/m) correctly rounded to a float, for integers n >= 0, m > 0:
    the value `statistics.pstdev` computes from its exact variance."""
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n            # round to odd
    return float(root << q) if q >= 0 else root / (1 << -q)


class SlidingWindow:
    """FIFO window over the last `capacity` requests.

    `push` only appends to three column lists; the window's counts catch
    up with them (a fold) when something reads them. `entries` lists the
    window's (lpn, is_write, timestamp_us) requests, oldest first;
    `writes`, `lpn_sum` and `lpn_sq_sum` count over exactly those.
    """

    def __init__(self, capacity: int):
        if capacity < MIN_CAPACITY:
            raise ConfigError(f"window capacity must be >= {MIN_CAPACITY}")
        self.capacity = capacity
        # one column per field; after a fold they hold just the window
        self._lpns: list[int] = []
        self._flags: list[bool] = []
        self._stamps: list[float] = []
        self._folded = 0            # entries the counts include
        self._fold_at = capacity    # length past which a push folds
        self._writes = 0
        self._lpn_sum = 0
        self._lpn_sq_sum = 0
        self._prev_std: float | None = None
        self.shifts_detected = 0

    def push(self, lpn: int, is_write: bool, timestamp_us: float) -> None:
        # once per request; folding here too keeps the lists below twice
        # the capacity when nothing reads the window
        lpns = self._lpns
        lpns.append(lpn)
        self._flags.append(is_write)
        self._stamps.append(timestamp_us)
        if len(lpns) > self._fold_at:
            self._fold()

    def _fold(self) -> None:
        """Count the entries pushed since the last fold and drop those that
        fell out of the window: exact integer sums over the new and the
        evicted slices only."""
        lpns, flags = self._lpns, self._flags
        n = len(lpns)
        cut = max(n - self.capacity, 0)     # entries before it fall out
        # count the uncounted entries that stay, uncount the counted ones
        # that fall out
        keep, gone = max(self._folded, cut), min(self._folded, cut)
        new, old = lpns[keep:], lpns[:gone]
        self._writes += sum(flags[keep:]) - sum(flags[:gone])
        self._lpn_sum += sum(new) - sum(old)
        self._lpn_sq_sum += sum(map(mul, new, new)) - sum(map(mul, old, old))
        if cut:
            del lpns[:cut], flags[:cut], self._stamps[:cut]
        self._folded = n - cut
        self._fold_at = self._folded + self.capacity

    def _catch_up(self) -> None:
        if len(self._lpns) != self._folded:
            self._fold()

    @property
    def entries(self) -> list[tuple[int, bool, float]]:
        self._catch_up()
        return list(zip(self._lpns, self._flags, self._stamps))

    @property
    def writes(self) -> int:
        self._catch_up()
        return self._writes

    @property
    def lpn_sum(self) -> int:
        self._catch_up()
        return self._lpn_sum

    @property
    def lpn_sq_sum(self) -> int:
        self._catch_up()
        return self._lpn_sq_sum

    def set_capacity(self, capacity: int) -> None:
        """Resize keeping the most recent entries."""
        if capacity < MIN_CAPACITY:
            raise ConfigError(f"window capacity must be >= {MIN_CAPACITY}")
        # the entries pushed so far slide under the old capacity
        self._fold()
        self.capacity = capacity
        self._fold()

    def summarize(self, std_dev_threshold: float) -> float:
        """Writes per virtual second over the window's time span, 0.0 for an
        empty window; counts a shift in `shifts_detected`.

        A shift is a change of more than std_dev_threshold pages in the
        population std-dev of the window's LPNs since the previous summary;
        the first summary never shifts. The std-dev is the correctly rounded
        root of the exact variance (n*sum(x^2) - sum(x)^2) / n^2, bit for bit
        what `statistics.pstdev` returns.
        """
        self._catch_up()
        n = self._folded
        if not n:
            return 0.0
        std = _sqrt_of_fraction(n * self._lpn_sq_sum - self._lpn_sum ** 2,
                                n * n)
        prev = self._prev_std
        if prev is not None and abs(std - prev) > std_dev_threshold:
            self.shifts_detected += 1
        self._prev_std = std
        stamps = self._stamps
        span_us = stamps[-1] - stamps[0]
        return self._writes / (max(span_us, 1.0) / 1e6)
