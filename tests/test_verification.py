"""Epoch scheduling, probe measurement, and rollback decisions."""
import dataclasses
from itertools import islice
from types import SimpleNamespace

import pytest

from hybridssd.config import ConfigProfile
from hybridssd.errors import ConfigError
from hybridssd.trace import synth_trace
from hybridssd.tuner import (ScriptedBackend, TuningRecord, Verdict,
                             build_prompt, estimate_tokens)
from hybridssd.verification import (EpochSchedule, Marker, PerfSnapshot,
                                    VerificationLoop, accuracy, measure,
                                    should_rollback)

from conftest import make_stack

PAGE = 16384


def mk(requests=0, total_us=0.0, host=0, device=0, writes=0):
    return Marker(requests=requests, writes=writes, total_latency_us=total_us,
                  host_pages=host, device_pages=device)


class ScriptedStack:
    """Stand-in stack serving pre-scripted markers, so probe math is exact."""

    geometry = SimpleNamespace(page_size=PAGE)

    def __init__(self, markers, config=None):
        self.markers = list(markers)
        self.config = config or ConfigProfile()
        self.applied = []

    def marker(self):
        return self.markers.pop(0)

    def system_info(self):
        return {
            "channels": 1, "blocks_per_channel": 16, "page_size": PAGE,
            "pages_per_block_slc": 8, "pages_per_block_qlc": 32,
            "op_ratio": 0.125, "logical_capacity_pages": 280,
            "slc_blocks": 8, "qlc_blocks": 8,
            "slc_free_fraction": 0.5, "qlc_free_fraction": 0.75,
            "latency": {"read_slc": 20.0, "read_qlc": 140.0,
                        "write_slc": 200.0, "write_qlc": 2000.0,
                        "erase_slc": 3000.0, "erase_qlc": 3500.0},
        }

    def apply_config(self, profile):
        self.applied.append(profile)
        self.config = profile

    def service(self, record):
        pass        # the markers script what the probe measures


def epoch_markers(spans, n=100):
    """Cumulative marker script, four pops per epoch: prev-span end (measure),
    probe start, probe end (measure), cycle marker."""
    markers = []
    req, total = 0, 0.0
    for prev_mean, probe_mean in spans:
        req += n
        total += prev_mean * n
        prev_end = mk(requests=req, total_us=total, host=req, device=req)
        markers += [prev_end, prev_end]
        req += n
        total += probe_mean * n
        probe_end = mk(requests=req, total_us=total, host=req, device=req)
        markers += [probe_end, probe_end]
    return markers


def scripted_markers(prev_mean, probe_mean):
    return epoch_markers([(prev_mean, probe_mean)])


GOOD_REPLY = "Window looks cramped. `1.Windows size: 1500`"
# the requests a scripted stack's probe services: any will do
PROBE_OPS = range(100)


# --- measure ---------------------------------------------------------------------

class TestMeasure:
    def test_deltas(self):
        since = mk(requests=10, total_us=1000.0, host=20, device=30)
        now = mk(requests=30, total_us=4000.0, host=60, device=110)
        snap = measure(ScriptedStack([now]), since)
        assert snap.requests == 20
        assert snap.mean_latency_us == pytest.approx(3000.0 / 20)
        assert snap.wa == pytest.approx(80 / 40)

    def test_no_requests_is_none(self):
        m = mk(requests=5, total_us=100.0)
        assert measure(ScriptedStack([m]), m) is None

    def test_read_only_span_has_neutral_wa(self):
        since = mk(requests=0)
        now = mk(requests=10, total_us=200.0, host=0, device=0)
        snap = measure(ScriptedStack([now]), since)
        assert snap.wa == 1.0


# --- rollback rule ----------------------------------------------------------------

class TestShouldRollback:
    def snap(self, mean):
        return PerfSnapshot(mean_latency_us=mean, wa=1.0, requests=100)

    def test_strictly_greater_than_allowance(self):
        prev = self.snap(100.0)
        # exactly at prev * 1.05 survives; the next float up does not
        assert not should_rollback(prev, self.snap(105.0), 0.05)
        import math
        assert should_rollback(prev, self.snap(math.nextafter(105.0, 200.0)),
                               0.05)

    def test_brackets_around_threshold(self):
        prev = self.snap(100.0)
        assert not should_rollback(prev, self.snap(104.0), 0.05)
        assert should_rollback(prev, self.snap(106.0), 0.05)

    def test_improvement_never_rolls_back(self):
        prev = self.snap(100.0)
        assert not should_rollback(prev, self.snap(60.0), 0.05)
        assert not should_rollback(prev, self.snap(100.0), 0.0)


# --- accuracy --------------------------------------------------------------------

def adj(epoch, verdict, improved):
    return TuningRecord(
        epoch=epoch, trigger="scheduled", verdict=verdict, reason="",
        corrections=(), changed={}, latency_before_us=100.0,
        latency_after_us=90.0, wa_before=1.2, wa_after=1.1,
        improved_over_default=improved)


class TestAccuracy:
    def test_twenty_seven_of_thirty(self):
        history = ([adj(i, Verdict.ACCEPTED, True) for i in range(25)]
                   + [adj(25 + i, Verdict.CORRECTED, True) for i in range(2)]
                   + [adj(27 + i, Verdict.ROLLED_BACK, None) for i in range(3)])
        assert accuracy(history) == pytest.approx(0.9)

    def test_rejected_epochs_excluded(self):
        history = [adj(0, Verdict.ACCEPTED, True),
                   adj(1, Verdict.REJECTED, None),
                   adj(2, Verdict.REJECTED, None)]
        assert accuracy(history) == 1.0

    def test_accepted_but_not_improved_hurts(self):
        history = [adj(0, Verdict.ACCEPTED, True),
                   adj(1, Verdict.ACCEPTED, False)]
        assert accuracy(history) == 0.5

    def test_all_rejected_is_no_data(self):
        assert accuracy([adj(0, Verdict.REJECTED, None)]) is None
        assert accuracy([]) is None


# --- schedule validation -----------------------------------------------------------

class TestEpochSchedule:
    def test_defaults(self):
        s = EpochSchedule()
        assert s.tuning_interval_writes == 100000
        assert s.investigation_ops == 10000
        assert s.degradation_threshold == 0.05
        assert s.max_epochs == 30

    @pytest.mark.parametrize("kw", [
        dict(tuning_interval_writes=0),
        dict(investigation_ops=0),
        dict(tuning_interval_writes=100, investigation_ops=101),
        dict(degradation_threshold=-0.1),
        dict(max_epochs=-1),
    ])
    def test_bad_schedules_rejected(self, kw):
        with pytest.raises(ConfigError):
            EpochSchedule(**kw)


# --- scheduling -------------------------------------------------------------------

def shift_stub(writes=0, shifts=0):
    """The two counters `wants_epoch` reads off a stack."""
    return SimpleNamespace(writes=writes,
                           monitor=SimpleNamespace(shifts_detected=shifts))


class TestWantsEpoch:
    def make_loop(self, **kw):
        sched = EpochSchedule(tuning_interval_writes=kw.pop("interval", 400),
                              investigation_ops=kw.pop("probe", 100),
                              max_epochs=kw.pop("max_epochs", 30))
        return VerificationLoop(ScriptedBackend([GOOD_REPLY] * 2), sched)

    def test_scheduled_at_write_interval(self):
        loop = self.make_loop(interval=400)
        stub = shift_stub(writes=399)
        assert loop.wants_epoch(stub) is None
        stub.writes = 400
        assert loop.wants_epoch(stub) == "scheduled"

    def test_interval_counts_from_cycle_start(self):
        loop = self.make_loop(interval=400)
        loop.cycle_marker = mk(writes=1000)
        stub = shift_stub(writes=1399)
        assert loop.wants_epoch(stub) is None
        stub.writes = 1400
        assert loop.wants_epoch(stub) == "scheduled"

    def test_shift_triggers_early(self):
        loop = self.make_loop(interval=400)
        assert loop.wants_epoch(shift_stub(writes=10, shifts=1)) == "shift"

    def test_shift_rate_limited_per_interval(self):
        loop = self.make_loop(interval=400)
        loop.shift_epoch_this_interval = True
        stub = shift_stub(writes=10, shifts=1)
        assert loop.wants_epoch(stub) is None
        # the scheduled trigger still fires regardless
        stub.writes = 400
        stub.monitor.shifts_detected = 2
        assert loop.wants_epoch(stub) == "scheduled"

    def test_max_epochs_cap(self):
        loop = self.make_loop(max_epochs=2)
        loop.history = [None, None]     # two epochs already run
        assert loop.wants_epoch(shift_stub(writes=10_000, shifts=1)) is None

    def test_a_shift_fires_at_one_check_only(self):
        loop = self.make_loop(interval=400)
        stub = shift_stub(writes=10, shifts=1)
        assert loop.wants_epoch(stub) == "shift"
        # no epoch ran; the same count is no new shift
        stub.writes = 11
        assert loop.wants_epoch(stub) is None
        stub.monitor.shifts_detected = 2
        assert loop.wants_epoch(stub) == "shift"

    def test_a_rate_limited_shift_is_spent(self):
        loop = self.make_loop(interval=400)
        markers = epoch_markers([(100.0, 90.0), (90.0, 85.0)])
        # each epoch's last marker starts the next cycle
        markers[3] = dataclasses.replace(markers[3], writes=10)
        markers[7] = dataclasses.replace(markers[7], writes=410)
        stack = ScriptedStack(markers)
        stack.writes = 10
        stack.monitor = SimpleNamespace(shifts_detected=1)
        assert loop.wants_epoch(stack) == "shift"
        loop.run_epoch(stack, PROBE_OPS, "shift")
        # a shift under the one-per-interval limit starts nothing ...
        stack.monitor.shifts_detected = 2
        assert loop.wants_epoch(stack) is None
        stack.writes = 410
        assert loop.wants_epoch(stack) == "scheduled"
        loop.run_epoch(stack, PROBE_OPS, "scheduled")
        # ... and is not saved for the interval after the scheduled epoch
        stack.writes = 411
        assert loop.wants_epoch(stack) is None


# --- the epoch, with scripted markers ---------------------------------------------

def make_loop(responses, threshold=0.05, max_epochs=30, **kw):
    sched = EpochSchedule(tuning_interval_writes=400, investigation_ops=100,
                          degradation_threshold=threshold,
                          max_epochs=max_epochs)
    return VerificationLoop(ScriptedBackend(responses), sched, **kw)


FULL_HISTORY_NOTE = "10 earlier adjustments were left out to fit the prompt."


def history_free_tokens(stack, stage4_note):
    """Tokens of the epoch prompt with no history line, an empty last
    period and `stage4_note` in place of the history."""
    info = stack.system_info()
    info["last_period"] = {"mean_latency_us": 0.0, "requests": 0, "wa": 1.0}
    text = build_prompt(info, [], stack.config).joined()
    return estimate_tokens(text.replace("No prior adjustments.", stage4_note))


class TestPromptLimit:
    def test_check_budgets_the_note_for_a_full_history(self):
        stack = ScriptedStack([])
        bare = history_free_tokens(stack, "No prior adjustments.")
        noted = history_free_tokens(stack, FULL_HISTORY_NOTE)
        assert noted > bare
        with pytest.raises(ConfigError, match="every history line"):
            make_loop([GOOD_REPLY], max_tokens=bare).check_prompt_fits(stack)
        make_loop([GOOD_REPLY], max_tokens=noted).check_prompt_fits(stack)

    def test_epoch_over_the_limit_is_rejected_unsent(self):
        class Recording(ScriptedBackend):
            def complete(self, prompt):
                sent.append(prompt)
                return super().complete(prompt)

        sent: list = []
        # a last period with wider numbers than the check's empty one
        stack = ScriptedStack(epoch_markers([(123456.7, 90.0)], n=100000))
        limit = history_free_tokens(stack, FULL_HISTORY_NOTE)
        sched = EpochSchedule(tuning_interval_writes=400,
                              investigation_ops=100)
        loop = VerificationLoop(Recording([GOOD_REPLY]), sched,
                                max_tokens=limit)
        loop.check_prompt_fits(stack)
        loop.history = [adj(i, Verdict.ACCEPTED, True) for i in range(1, 11)]
        rec = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert sent == []
        assert rec.verdict is Verdict.REJECTED
        assert rec.reason.startswith("rejected: the prompt needs ~")
        assert f"over max_tokens {limit}" in rec.reason
        assert FULL_HISTORY_NOTE in rec.prompt
        assert estimate_tokens(rec.prompt) > limit
        assert rec.raw_response is None and rec.config_after is None
        assert stack.applied == []


class TestRunEpoch:
    def test_accepts_a_harmless_probe(self):
        stack = ScriptedStack(scripted_markers(prev_mean=100.0,
                                               probe_mean=104.0))
        loop = make_loop([GOOD_REPLY])
        rec = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert rec.verdict is Verdict.ACCEPTED
        assert rec.changed == {"window_size": (2000, 1500)}
        assert rec.latency_before_us == pytest.approx(100.0)
        assert rec.latency_after_us == pytest.approx(104.0)
        assert stack.config.window_size == 1500   # change kept
        assert len(stack.applied) == 1

    def test_rolls_back_a_degrading_probe(self):
        original = ConfigProfile()
        stack = ScriptedStack(scripted_markers(100.0, 106.0), config=original)
        loop = make_loop([GOOD_REPLY])
        rec = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert rec.verdict is Verdict.ROLLED_BACK
        # restored profile is field-identical to what was there before
        assert stack.config == original
        assert dataclasses.asdict(stack.config) == dataclasses.asdict(original)
        assert [p.window_size for p in stack.applied] == [1500, 2000]
        # the record still names what was tried
        assert rec.changed == {"window_size": (2000, 1500)}
        assert rec.config_after["window_size"] == 1500

    def test_probe_exactly_at_allowance_survives(self):
        stack = ScriptedStack(scripted_markers(100.0, 105.0))
        loop = make_loop([GOOD_REPLY])
        rec = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert rec.verdict is Verdict.ACCEPTED

    def test_corrected_when_values_were_clamped(self):
        stack = ScriptedStack(scripted_markers(100.0, 90.0))
        loop = make_loop(["too eager `1.RL learning rate: 5.0`"])
        rec = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert rec.verdict is Verdict.CORRECTED
        assert stack.config.rl_learning_rate == 1.0
        assert any("clamped" in c for c in rec.corrections)

    def test_bounds_follow_the_stack_page_size(self):
        reply = "finer slices `1.Slice size: 8KB`"
        small = ScriptedStack(scripted_markers(100.0, 90.0))
        small.geometry = SimpleNamespace(page_size=4096)
        rec = make_loop([reply]).run_epoch(small, PROBE_OPS, "scheduled")
        assert rec.verdict is Verdict.ACCEPTED and rec.corrections == ()
        assert small.config.slice_size == 8192
        # on the default 16 KB grid the same reply is clamped to one page
        large = ScriptedStack(scripted_markers(100.0, 90.0))
        rec = make_loop([reply]).run_epoch(large, PROBE_OPS, "scheduled")
        assert rec.verdict is Verdict.CORRECTED
        assert large.config.slice_size == PAGE

    def test_rejects_an_unparseable_reply(self):
        stack = ScriptedStack(scripted_markers(100.0, 90.0))
        loop = make_loop(["no fenced block anywhere"])
        rec = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert rec.verdict is Verdict.REJECTED
        assert stack.applied == []          # config never touched
        assert rec.latency_after_us is None
        assert rec.config_after is None
        assert rec.raw_response == "no fenced block anywhere"
        assert "rejected" in rec.reason

    def test_rejects_when_nothing_usable_remains(self):
        stack = ScriptedStack(scripted_markers(100.0, 90.0))
        loop = make_loop(["`1.Flux capacitor: 88`"])
        rec = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert rec.verdict is Verdict.REJECTED
        assert stack.applied == []

    def test_rejects_a_value_too_large_for_a_float(self):
        stack = ScriptedStack(scripted_markers(100.0, 90.0))
        loop = make_loop(["`1.GC trigger threshold: 1e309`"])
        rec = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert rec.verdict is Verdict.REJECTED
        assert stack.applied == []
        # the record says why the only candidate was dropped
        assert rec.corrections == (
            "gc_trigger_threshold: dropped (not a number: '1e309')",)

    def test_rolls_back_when_no_ops_left_to_probe(self):
        original = ConfigProfile()
        # the probe's end marker is its start: it serviced nothing
        markers = scripted_markers(100.0, 90.0)[:2] + [mk(requests=100)] * 2
        stack = ScriptedStack(markers, config=original)
        loop = make_loop([GOOD_REPLY])
        rec = loop.run_epoch(stack, iter(()), "scheduled")
        assert rec.verdict is Verdict.ROLLED_BACK
        assert rec.latency_after_us is None
        assert stack.config == original

    def test_record_carries_prompt_and_config_snapshots(self):
        stack = ScriptedStack(scripted_markers(100.0, 90.0))
        loop = make_loop([GOOD_REPLY])
        rec = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert rec.prompt and "SSD firmware engineer" in rec.prompt
        assert rec.config_before == ConfigProfile().as_dict()
        assert rec.config_after == stack.config.as_dict()
        assert rec.config_after["window_size"] == 1500

    def test_improved_is_judged_against_first_epoch_baseline(self):
        # epoch 1 establishes the default-config baseline (mean 100)
        markers = epoch_markers([(100.0, 95.0), (95.0, 99.0)])
        stack = ScriptedStack(markers)
        loop = make_loop([GOOD_REPLY,
                          "more `1.GC trigger threshold: 8`"])
        r1 = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        r2 = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert loop.baseline.mean_latency_us == pytest.approx(100.0)
        assert r1.improved_over_default is True      # 95 < 100
        assert r2.improved_over_default is True      # 99 < 100
        assert r2.latency_before_us == pytest.approx(95.0)

    def test_epoch_bookkeeping(self):
        markers = scripted_markers(100.0, 90.0)
        markers[-1] = dataclasses.replace(markers[-1], writes=450)
        stack = ScriptedStack(markers)
        loop = make_loop([GOOD_REPLY])
        rec = loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert rec.epoch == 1
        assert loop.history == [rec]
        # the next cycle measures, and counts its writes, from the end of
        # this epoch's probe
        assert loop.cycle_marker == mk(requests=200, total_us=19000.0,
                                       host=200, device=200, writes=450)

    def test_shift_flag_set_and_cleared(self):
        markers = epoch_markers([(100.0, 90.0), (90.0, 85.0)])
        stack = ScriptedStack(markers)
        loop = make_loop([GOOD_REPLY, GOOD_REPLY])
        loop.run_epoch(stack, PROBE_OPS, "shift")
        assert loop.shift_epoch_this_interval is True
        loop.run_epoch(stack, PROBE_OPS, "scheduled")
        assert loop.shift_epoch_this_interval is False


# --- on the real stack -------------------------------------------------------------

class TestEpochOnRealStack:
    def test_full_cycle_applies_and_probes(self):
        stack = make_stack(gc_trigger_threshold=13)
        logical = stack.ssd.logical_capacity_pages
        records = synth_trace(1200, logical_pages=logical, page_size=PAGE,
                              seed=11)
        ops = iter(records)
        for record in islice(ops, 600):
            stack.service(record)
        loop = make_loop([GOOD_REPLY], threshold=10.0)   # never roll back
        rec = loop.run_epoch(stack, ops, "scheduled")
        assert rec.verdict is Verdict.ACCEPTED
        assert stack.config.window_size == 1500
        assert rec.latency_after_us is not None
        assert rec.latency_after_us > 0
        # probe really serviced the investigation period, drawn from `ops`
        assert stack.requests == 600 + 100
        assert next(ops) is records[700]
        assert rec.epoch == 1 and loop.history == [rec]

    def test_rollback_restores_live_config(self):
        stack = make_stack(gc_trigger_threshold=13)
        logical = stack.ssd.logical_capacity_pages
        records = synth_trace(1200, logical_pages=logical, page_size=PAGE,
                              seed=11)
        ops = iter(records)
        for record in islice(ops, 600):
            stack.service(record)
        before = stack.config
        # a self-sabotaging config: collect half the device every request
        bad = ("hold on `1.GC trigger threshold: 50; 2.GC granularity: 64; "
               "3.Placement strategy: hotness_based`")
        loop = make_loop([bad], threshold=0.0)
        rec = loop.run_epoch(stack, ops, "scheduled")
        assert rec.verdict is Verdict.ROLLED_BACK
        assert stack.config == before
        assert stack.config.window_size == before.window_size
