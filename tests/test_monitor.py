import statistics
from collections import deque

import pytest

from hybridssd import ConfigError, SlidingWindow, default_param_bounds


class TestWindowMechanics:
    def test_capacity_must_be_sane(self):
        with pytest.raises(ConfigError):
            SlidingWindow(1)
        w = SlidingWindow(2)
        with pytest.raises(ConfigError):
            w.set_capacity(1)
        assert w.capacity == 2

    def test_oldest_entries_evicted(self):
        w = SlidingWindow(3)
        for i in range(5):
            w.push(i, True, float(i))
        assert [lpn for lpn, _, _ in w.entries] == [2, 3, 4]

    def test_shrink_keeps_most_recent(self):
        w = SlidingWindow(10)
        for i in range(6):
            w.push(i, True, float(i))
        w.set_capacity(2)
        assert [lpn for lpn, _, _ in w.entries] == [4, 5]

    def test_grow_keeps_existing(self):
        w = SlidingWindow(2)
        w.push(1, True, 1.0)
        w.push(2, True, 2.0)
        w.set_capacity(5)
        w.push(3, True, 3.0)
        assert len(w.entries) == 3


class TestSummary:
    def test_empty_window_has_no_data(self):
        w = SlidingWindow(4)
        assert w.summarize(100) == 0.0
        # an empty window records no std-dev: the next summary is the first
        w.push(1, True, 0.0)
        w.push(1000, True, 1.0)
        w.summarize(0)
        assert w.shifts_detected == 0

    def test_statistics_match_stdlib(self):
        before = [3, 1, 4, 1, 5, 9, 2, 6]
        now = [30, 1, 40, 1, 50, 9, 20, 6]
        delta = abs(statistics.pstdev(now) - statistics.pstdev(before))
        for threshold in (0, delta / 2, delta, 2 * delta):
            w = SlidingWindow(8)
            for i, lpn in enumerate(before):
                w.push(lpn, True, 100.0 * i)
            w.summarize(threshold)
            for i, lpn in enumerate(now):
                w.push(lpn, i % 2 == 0, 100.0 * (i + 9))
            rate = w.summarize(threshold)
            # a shift is an LPN std-dev jump strictly above the threshold
            assert w.shifts_detected == (delta > threshold)
            # 4 writes over 700us of virtual time
            assert rate == pytest.approx(4 / (700 / 1e6))

    def test_summary_takes_no_full_window_pass(self):
        # the tunable's upper bound: a summary reads the running counts and
        # the two end timestamps, never the 200000 entries in between
        cap = default_param_bounds()["window_size"].hi
        assert cap == 200000
        w = SlidingWindow(cap)
        lpns = [(i * 7919) % 100003 for i in range(cap)]
        for i, lpn in enumerate(lpns):
            w.push(lpn, i % 3 == 0, float(i))
        read = []

        class NoPass(deque):
            def __iter__(self):
                raise AssertionError("summary iterated the window")

            def __reversed__(self):
                raise AssertionError("summary iterated the window")

            def __getitem__(self, index):
                read.append(index)
                return super().__getitem__(index)

        w.entries = NoPass(w.entries)
        rate = w.summarize(100)
        assert set(read) <= {0, -1}
        writes = (cap + 2) // 3                 # i % 3 == 0
        assert rate == writes / ((cap - 1) / 1e6)
        # 0 replaces the evicted lpns[0] == 0: the std-dev cannot move
        w.push(0, False, float(cap))
        w.summarize(0)
        assert w.shifts_detected == 0
        assert set(read) <= {0, -1}

    def test_zero_span_rate_does_not_divide_by_zero(self):
        w = SlidingWindow(4)
        w.push(1, True, 5.0)
        w.push(2, True, 5.0)
        assert w.summarize(100) == pytest.approx(2 / (1.0 / 1e6))


class TestShiftDetection:
    def fill(self, w, lpns, t0=0.0):
        for i, lpn in enumerate(lpns):
            w.push(lpn, True, t0 + float(i))

    def test_first_summary_never_shifts(self):
        w = SlidingWindow(8)
        self.fill(w, [1, 100, 10000, 5])
        w.summarize(std_dev_threshold=1)
        assert w.shifts_detected == 0

    def test_shift_requires_strictly_larger_jump(self):
        w = SlidingWindow(4)
        self.fill(w, [0, 0, 0, 0])
        w.summarize(std_dev_threshold=10)          # std 0 recorded
        self.fill(w, [0, 20, 0, 20], t0=10.0)      # std exactly 10
        w.summarize(std_dev_threshold=10)
        assert w.shifts_detected == 0               # 10 > 10 is false
        self.fill(w, [0, 22, 0, 22], t0=20.0)      # std 11, delta 1
        w.summarize(std_dev_threshold=10)
        assert w.shifts_detected == 0
        self.fill(w, [0, 60, 0, 60], t0=30.0)      # std 30, delta 19
        w.summarize(std_dev_threshold=10)
        assert w.shifts_detected == 1

    def test_shift_state_updates_every_summary(self):
        w = SlidingWindow(4)
        self.fill(w, [0, 0, 0, 0])
        w.summarize(5)
        self.fill(w, [0, 1000, 0, 1000], t0=10.0)
        w.summarize(5)
        assert w.shifts_detected == 1
        # immediately after, the new std is the baseline: no second shift
        w.summarize(5)
        assert w.shifts_detected == 1
