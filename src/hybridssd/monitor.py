"""Sliding-window workload monitor and distribution-shift detection."""
from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass

from .errors import ConfigError, NoData


@dataclass(frozen=True)
class WindowEntry:
    lpn: int
    is_write: bool
    timestamp_us: float


@dataclass(frozen=True)
class WorkloadSummary:
    writes_per_virtual_second: float
    shift_detected: bool


class SlidingWindow:
    """FIFO window over the last `capacity` requests."""

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ConfigError("window capacity must be >= 2")
        self.capacity = capacity
        self.entries: deque[WindowEntry] = deque()
        self._prev_std: float | None = None
        self.shifts_detected = 0

    def push(self, entry: WindowEntry) -> None:
        self.entries.append(entry)
        if len(self.entries) > self.capacity:
            self.entries.popleft()

    def set_capacity(self, capacity: int) -> None:
        """Resize keeping the most recent entries."""
        if capacity < 2:
            raise ConfigError("window capacity must be >= 2")
        self.capacity = capacity
        while len(self.entries) > capacity:
            self.entries.popleft()

    def summarize(self, std_dev_threshold: float) -> WorkloadSummary:
        """Write rate over the window's virtual time plus shift detection.

        A shift is a change of more than std_dev_threshold pages in the
        population std-dev of the window's LPNs since the previous summary;
        the first summary never shifts.
        """
        if not self.entries:
            raise NoData("workload window is empty")
        writes = sum(1 for e in self.entries if e.is_write)
        std = statistics.pstdev(e.lpn for e in self.entries)
        span_us = self.entries[-1].timestamp_us - self.entries[0].timestamp_us
        rate = writes / (max(span_us, 1.0) / 1e6)
        prev = self._prev_std
        shift = prev is not None and abs(std - prev) > std_dev_threshold
        if shift:
            self.shifts_detected += 1
        self._prev_std = std
        return WorkloadSummary(writes_per_virtual_second=rate,
                               shift_detected=shift)
