"""Sliding-window workload monitor and distribution-shift detection.

The window keeps each request as a plain (lpn, is_write, timestamp_us)
tuple plus running exact-integer counts (writes, sum of lpns, sum of squared
lpns) that pushes, evictions and resizes keep current, so a summary is O(1)
whatever the window size.
"""
from __future__ import annotations

import math
from collections import deque

from .errors import ConfigError

# bits of the integer square root: enough that one final rounding of the
# round-to-odd root gives the correctly rounded float
_SQRT_BITS = 2 * 53 + 3


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

    `entries` holds (lpn, is_write, timestamp_us) tuples, oldest first;
    `writes`, `lpn_sum` and `lpn_sq_sum` count over exactly those entries.
    """

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ConfigError("window capacity must be >= 2")
        self.capacity = capacity
        self.entries: deque[tuple[int, bool, float]] = deque()
        self.writes = 0
        self.lpn_sum = 0
        self.lpn_sq_sum = 0
        self._prev_std: float | None = None
        self.shifts_detected = 0

    def push(self, lpn: int, is_write: bool, timestamp_us: float) -> None:
        # once per request: a full window folds the eviction into one
        # update per count
        entries = self.entries
        entries.append((lpn, is_write, timestamp_us))
        if len(entries) > self.capacity:
            old, old_write, _ = entries.popleft()
            self.writes += is_write - old_write
            self.lpn_sum += lpn - old
            self.lpn_sq_sum += lpn * lpn - old * old
        else:
            self.writes += is_write
            self.lpn_sum += lpn
            self.lpn_sq_sum += lpn * lpn

    def set_capacity(self, capacity: int) -> None:
        """Resize keeping the most recent entries."""
        if capacity < 2:
            raise ConfigError("window capacity must be >= 2")
        self.capacity = capacity
        entries = self.entries
        while len(entries) > capacity:
            lpn, is_write, _ = entries.popleft()
            self.writes -= is_write
            self.lpn_sum -= lpn
            self.lpn_sq_sum -= lpn * lpn

    def summarize(self, std_dev_threshold: float) -> float:
        """Writes per virtual second over the window's time span, 0.0 for an
        empty window; counts a shift in `shifts_detected`.

        A shift is a change of more than std_dev_threshold pages in the
        population std-dev of the window's LPNs since the previous summary;
        the first summary never shifts. The std-dev is the correctly rounded
        root of the exact variance (n*sum(x^2) - sum(x)^2) / n^2, bit for bit
        what `statistics.pstdev` returns.
        """
        entries = self.entries
        if not entries:
            return 0.0
        n = len(entries)
        std = _sqrt_of_fraction(n * self.lpn_sq_sum - self.lpn_sum ** 2,
                                n * n)
        prev = self._prev_std
        if prev is not None and abs(std - prev) > std_dev_threshold:
            self.shifts_detected += 1
        self._prev_std = std
        span_us = entries[-1][2] - entries[0][2]
        return self.writes / (max(span_us, 1.0) / 1e6)
