"""Full-stack replay, reports, sweeps, and the command line."""
import copy
import dataclasses
import json
import os
import stat

from pathlib import Path

import pytest

from hybridssd import cli
from hybridssd.config import ConfigProfile
from hybridssd.errors import ConfigError
from hybridssd.replay import (RunReport, SimulatorStack, _build_report,
                              _scale_param, emit_report, replay, run_sweep)
from hybridssd.ssd import FlashGeometry, desk_geometry
from hybridssd.trace import OpKind, TraceRecord, synth_trace
from hybridssd.tuner import ScriptedBackend, estimate_tokens
from hybridssd.verification import EpochSchedule

from conftest import make_stack

PAGE = 16384
GOOD_REPLY = "Window looks cramped. `1.Windows size: 1500`"
FIXTURE = Path(__file__).parent / "fixtures" / "tuning_reply.txt"


def small_geo():
    return desk_geometry(channels=1, blocks_per_channel=16,
                         pages_per_block_slc=8)


def small_config(**over):
    defaults = dict(window_size=100, rl_training_interval=50,
                    kmeans_trigger_threshold=400, slice_size=PAGE * 8,
                    gc_trigger_threshold=13)
    defaults.update(over)
    return ConfigProfile(**defaults)


def small_trace(ops=800, seed=5, **kw):
    return synth_trace(ops, logical_pages=280, page_size=PAGE, seed=seed,
                       **kw)


def run_small(records=None, config=None, **kw):
    kw.setdefault("initial_mode_split", 0.5)
    return replay(records if records is not None else small_trace(),
                  config or small_config(), small_geo(), **kw)


# --- the stack itself -------------------------------------------------------------

class TestSimulatorStack:
    def test_service_accumulates_counters_and_clock(self):
        stack = make_stack(gc_trigger_threshold=13)
        w = TraceRecord(OpKind.WRITE, 0, PAGE * 2)
        r = TraceRecord(OpKind.READ, 0, PAGE)
        us_w = stack.service(w)
        us_r = stack.service(r)
        assert us_w == 400.0          # two SLC page programs, one channel
        assert us_r == 20.0           # one SLC read
        assert stack.requests == 2
        assert stack.writes == 1 and stack.reads == 1
        assert stack.total_latency_us == us_w + us_r

    def test_training_cadence(self):
        stack = make_stack(gc_trigger_threshold=13, rl_training_interval=50)
        records = small_trace(199, seed=3)
        for rec in records[:199]:
            stack.service(rec)
        assert stack.agent.trainings == 3    # at requests 50, 100, 150
        stack.service(records[0])
        assert stack.agent.trainings == 4    # request 200

    def test_classification_cadence(self):
        stack = make_stack(gc_trigger_threshold=13,
                           kmeans_trigger_threshold=100)
        # every op a single-page write: classify at write 100, 200, ...
        for i, rec in enumerate(small_trace(250, seed=4, write_ratio=1.0)):
            stack.service(rec)
        assert stack.classifier.generation == 2

    def test_apply_config_swaps_every_consumer(self):
        stack = make_stack(gc_trigger_threshold=13)
        new = small_config(window_size=64, slice_size=PAGE * 4,
                           gc_trigger_threshold=20)
        stack.apply_config(new)
        assert stack.config is new
        assert stack.ftl.config is new
        assert stack.monitor.capacity == 64
        assert stack.classifier.slice_size == PAGE * 4

    def test_prefill_keeps_occupancy_but_zeroes_metrics(self):
        stack = make_stack(gc_trigger_threshold=13)
        logical = stack.ssd.logical_capacity_pages
        n = stack.prefill(0.5)
        assert n == logical // 2
        assert stack.ssd.valid_pages() == n
        assert stack.requests == 0
        assert stack.total_latency_us == 0.0
        assert stack.ftl.wa.host_pages_written == 0
        assert stack.ftl.wa.device_pages_written == 0
        assert stack.erases == 0

    @pytest.mark.parametrize("split, config", [
        (0.25, {}),     # the gc_steady benchmark workload's start
        # both triggers at 50%: the fill converts blocks and crosses
        # SAFETY_BOUND once
        (1.0, dict(gc_trigger_threshold=50, conversion_trigger_threshold=50)),
    ])
    def test_prefill_erases_nothing_and_asks_the_agent_nothing(self, split,
                                                              config):
        geo = FlashGeometry(channels=8, blocks_per_channel=32,
                            pages_per_block_slc=32)
        stack = SimulatorStack(geo, ConfigProfile(**config),
                               initial_mode_split=split)
        stack.prefill(0.9)
        assert stack.ssd.erase_ops == 0
        assert stack.agent.decisions == 0 and not stack.agent.pending

    def test_a_deep_copy_replays_as_the_original(self):
        # the gc_steady benchmark's start; the agent has decided, trained
        # and pushed intensity samples before the copy
        geo = FlashGeometry(channels=8, blocks_per_channel=32,
                            pages_per_block_slc=32)
        stack = SimulatorStack(geo, ConfigProfile(rl_training_interval=50),
                               seed=1)
        stack.prefill(0.9)
        records = synth_trace(2500, stack.ssd.logical_capacity_pages,
                              geo.page_size, seed=3)
        for record in records[:500]:
            stack.service(record)
        assert stack.agent.decisions and stack.agent.trainings
        twin = copy.deepcopy(stack)
        assert twin.ftl.action_source.__self__ is twin
        runs = []
        for s in (stack, twin):
            decisions = s.agent.decisions
            latencies = [s.service(record) for record in records[500:]]
            assert s.agent.decisions - decisions > 1000
            report = _build_report(s, "default", len(records), 0, s.config,
                                   None, None)
            runs.append((latencies, report.to_json_dict(),
                         s.agent.rng.getstate(),
                         list(s.agent.intensity_samples)))
            s.ssd.audit()
        assert runs[0] == runs[1]

    def test_prefill_fraction_validated(self):
        stack = make_stack()
        with pytest.raises(ConfigError):
            stack.prefill(1.5)

    def test_hot_write_fraction_window(self):
        stack = make_stack(gc_trigger_threshold=13)
        assert stack.hot_write_fraction() == 0.0
        # service records each write request's flag through _record_hotness
        for hot in (True, False, True, True):
            stack._record_hotness(hot)
        assert stack.hot_write_fraction() == pytest.approx(0.75)
        # 256 cold writes slide the hot ones out of the window
        for _ in range(256):
            stack._record_hotness(False)
        assert stack.hot_write_fraction() == 0.0


# --- replay ----------------------------------------------------------------------

class TestReplay:
    def test_default_mode_report_basics(self):
        records = small_trace()
        rep = run_small(records)
        assert rep.mode == "default"
        assert rep.requests == len(records)
        assert rep.writes + rep.reads == rep.requests
        assert rep.trace_ops == len(records)
        assert rep.total_latency_us > 0
        assert rep.mean_latency_us == pytest.approx(
            rep.total_latency_us / rep.requests)
        assert rep.wa >= 1.0
        assert rep.epochs == [] and rep.epochs_run == 0
        assert rep.accuracy is None and rep.sweep is None

    def test_deterministic_per_seed(self):
        a = run_small(seed=9)
        b = run_small(seed=9)
        assert a.total_latency_us == b.total_latency_us
        assert json.dumps(a.to_json_dict(), sort_keys=True) == \
            json.dumps(b.to_json_dict(), sort_keys=True)
        c = run_small(seed=10)
        assert c.total_latency_us != a.total_latency_us

    def test_report_json_round_trips(self):
        rep = run_small()
        payload = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert json.loads(payload) == json.loads(
            json.dumps(rep.to_json_dict(), sort_keys=True))

    def test_normalized_against_itself_is_exactly_one(self):
        base = run_small(seed=2)
        again = run_small(seed=2, baseline_total_us=base.total_latency_us)
        assert again.normalized_execution_time == 1.0

    def test_prefix_run_counters_never_exceed_full_run(self):
        records = small_trace(1000, seed=6)
        full = run_small(records)
        prefix = run_small(records[:400])
        for name in ("requests", "writes", "reads", "rejected_requests",
                     "erases", "total_latency_us", "classifications",
                     "agent_trainings"):
            assert getattr(prefix, name) <= getattr(full, name), name

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            run_small(mode="bogus")

    def test_tuned_mode_needs_backend(self):
        with pytest.raises(ConfigError):
            run_small(mode="tuned")

    def test_prefill_fraction_forwarded(self):
        rep = run_small(prefill_fraction=0.5)
        assert rep.requests == 800   # prefill writes are not requests


class TestTunedReplay:
    def schedule(self, max_epochs=3):
        return EpochSchedule(tuning_interval_writes=300,
                             investigation_ops=100,
                             degradation_threshold=0.05,
                             max_epochs=max_epochs)

    def test_epochs_fire_and_are_recorded(self):
        records = small_trace(1500, seed=7)
        rep = run_small(records, mode="tuned",
                        backend=ScriptedBackend([GOOD_REPLY]),
                        schedule=self.schedule())
        assert rep.mode == "tuned"
        assert 1 <= rep.epochs_run <= 3
        assert len(rep.epochs) == rep.epochs_run
        first = rep.epochs[0]
        assert first["epoch"] == 1
        assert first["trigger"] in ("scheduled", "shift")
        assert first["verdict"] in ("accepted", "corrected", "rolled_back",
                                    "rejected")
        assert first["prompt"]
        assert first["config_before"]["window_size"] == 100
        # every request in the trace was serviced exactly once
        assert rep.requests == len(records)

    def test_each_epoch_sends_one_fitted_prompt(self):
        class Recording(ScriptedBackend):
            def complete(self, prompt):
                sent.append(prompt)
                return super().complete(prompt)

        records = small_trace(2400, seed=7)
        schedule = self.schedule(max_epochs=5)
        untrimmed = run_small(records, mode="tuned",
                              backend=ScriptedBackend([GOOD_REPLY]),
                              schedule=schedule)
        # one token short of the longest prompt forces a trim
        limit = estimate_tokens(untrimmed.epochs[-1]["prompt"]) - 1
        sent: list = []
        rep = run_small(records, mode="tuned",
                        backend=Recording([GOOD_REPLY]), schedule=schedule,
                        max_tokens=limit)
        assert rep.epochs_run >= 3
        assert sent == [e["prompt"] for e in rep.epochs]
        for e, prompt in zip(rep.epochs, sent):
            assert estimate_tokens(prompt) <= limit
            assert "Hybrid SSD under management" in prompt
            if e["epoch"] > 1:
                assert f"\nepoch {e['epoch'] - 1} [" in prompt
        assert "epoch 1 [" not in sent[-1]

    def test_max_epochs_zero_equals_default_mode(self):
        records = small_trace(1200, seed=8)
        tuned = run_small(records, mode="tuned",
                          backend=ScriptedBackend([GOOD_REPLY]),
                          schedule=self.schedule(max_epochs=0))
        default = run_small(records)
        assert tuned.total_latency_us == default.total_latency_us
        assert tuned.wa == default.wa
        assert tuned.erases == default.erases
        assert tuned.epochs == [] and tuned.epochs_run == 0

    def test_rejected_epochs_service_exactly_the_default_requests(self):
        # a rejected epoch probes nothing, so it draws no request from the
        # trace: the run services what default mode does, in the same order
        records = small_trace(1500, seed=7)
        tuned = run_small(records, mode="tuned",
                          backend=ScriptedBackend(["no fenced block"]),
                          schedule=self.schedule(max_epochs=30))
        default = run_small(records)
        assert tuned.epochs_run >= 3
        assert {e["verdict"] for e in tuned.epochs} == {"rejected"}
        assert default.agent_decisions > 0
        for name in ("requests", "total_latency_us", "wa", "action_counts",
                     "qtable"):
            assert getattr(tuned, name) == getattr(default, name), name

    def test_epoch_on_the_last_request_rolls_back_unprobed(self):
        records = small_trace(300, seed=7, write_ratio=1.0)
        rep = run_small(records, mode="tuned",
                        backend=ScriptedBackend([GOOD_REPLY]),
                        schedule=self.schedule())
        assert rep.requests == 300 and rep.epochs_run == 1
        (epoch,) = rep.epochs
        assert epoch["trigger"] == "scheduled"
        assert epoch["verdict"] == "rolled_back"
        assert epoch["reason"] == ("rolled back: no operations left to "
                                   "probe with")
        assert epoch["latency_after_us"] is None
        assert rep.config_final == rep.config_initial

    def test_reply_past_the_slice_ceiling_on_an_odd_page_size(self):
        # 16 GiB is no multiple of a 10000 B page; the clamped value must
        # still land on the grid instead of failing the profile check
        geo = desk_geometry(channels=1, blocks_per_channel=16,
                            pages_per_block_slc=8, page_size=10000)
        records = synth_trace(1500, logical_pages=280, page_size=10000,
                              seed=7)
        rep = replay(records, small_config(slice_size=80000), geo,
                     mode="tuned", initial_mode_split=0.5,
                     backend=ScriptedBackend(["`1.Slice size: 100GB`"]),
                     schedule=self.schedule())
        assert rep.epochs_run >= 1
        assert rep.epochs[0]["changed"]["slice_size"] == [80000, 17179860000]

    def test_config_final_reflects_kept_changes(self):
        records = small_trace(1500, seed=7)
        rep = run_small(records, mode="tuned",
                        backend=ScriptedBackend([GOOD_REPLY]),
                        schedule=self.schedule())
        kept = any(e["verdict"] in ("accepted", "corrected")
                   for e in rep.epochs)
        if kept:
            assert rep.config_final["window_size"] == 1500
        else:
            assert rep.config_final == rep.config_initial


# --- parameter scaling and sweeps ----------------------------------------------------

class TestScaleParam:
    def test_int_rounds_half_to_even_with_floor_of_one(self):
        cfg = small_config(window_size=2000, gc_granularity=1,
                           gc_trigger_threshold=5)
        assert _scale_param(cfg, "window_size", 0.25, PAGE).window_size == 500
        # 2.5 is a tie: Python's round goes to the even 2
        assert _scale_param(cfg, "gc_trigger_threshold", 0.5,
                            PAGE).gc_trigger_threshold == 2
        assert _scale_param(cfg, "gc_granularity", 0.1, PAGE).gc_granularity == 1
        assert _scale_param(cfg, "window_size", 2.0, PAGE).window_size == 4000

    def test_slice_size_snaps_to_page_grid(self):
        cfg = small_config(slice_size=PAGE * 8)
        scaled = _scale_param(cfg, "slice_size", 0.3, PAGE)
        assert scaled.slice_size == PAGE * 2   # 2.4 pages rounds to 2
        tiny = _scale_param(cfg, "slice_size", 0.001, PAGE)
        assert tiny.slice_size == PAGE         # never below one page

    def test_float_param_scales_plainly(self):
        cfg = small_config(rl_exploration=0.1)
        assert _scale_param(cfg, "rl_exploration", 2.0,
                            PAGE).rl_exploration == pytest.approx(0.2)

    def test_non_numeric_param_rejected(self):
        with pytest.raises(ConfigError):
            _scale_param(small_config(), "placement_strategy", 2.0, PAGE)

    def test_float_param_holding_an_integral_value_rounds_to_an_integer(self):
        # a config file line `rl reward = 1.6ms` parses to the int 1600
        cfg = small_config(rl_reward_threshold=1600)
        assert _scale_param(cfg, "rl_reward_threshold", 0.5,
                            PAGE).rl_reward_threshold == 800
        assert _scale_param(cfg, "rl_reward_threshold", 0.0001,
                            PAGE).rl_reward_threshold == 1


class TestRunSweep:
    def test_sweep_rows_match_fresh_replays_exactly(self):
        records = small_trace(400, seed=12)
        rep = run_sweep(records, small_config(), small_geo(),
                        "gc_trigger_threshold", [0.5, 1.0, 2.0],
                        initial_mode_split=0.5)
        assert rep.mode == "sweep"
        assert [r["multiplier"] for r in rep.sweep] == [0.5, 1.0, 2.0]
        for row in rep.sweep:
            fresh = run_small(records, small_config(
                gc_trigger_threshold=row["value"]))
            assert row["total_latency_us"] == fresh.total_latency_us
            assert row["wa"] == fresh.wa
            assert row["erases"] == fresh.erases

    def test_normalized_against_the_unit_multiplier(self):
        records = small_trace(400, seed=12)
        rep = run_sweep(records, small_config(), small_geo(),
                        "gc_trigger_threshold", [0.5, 1.0, 2.0],
                        initial_mode_split=0.5)
        rows = {r["multiplier"]: r for r in rep.sweep}
        assert rows[1.0]["normalized_execution_time"] == 1.0
        base = rows[1.0]["total_latency_us"]
        for m, row in rows.items():
            assert row["normalized_execution_time"] == pytest.approx(
                row["total_latency_us"] / base)

    def test_kmeans_tol_is_sweepable(self):
        records = small_trace(300, seed=13)
        rep = run_sweep(records, small_config(), small_geo(), "kmeans_tol",
                        [1.0, 10.0], initial_mode_split=0.5)
        values = [r["value"] for r in rep.sweep]
        assert values == [pytest.approx(1e-4), pytest.approx(1e-3)]

    def test_a_sweep_without_the_unit_multiplier_reports_the_base_config(
            self):
        records = small_trace(300, seed=13)
        rep = run_sweep(records, small_config(), small_geo(),
                        "gc_trigger_threshold", [2.0], initial_mode_split=0.5)
        assert [row["value"] for row in rep.sweep] == [26]
        assert "normalized_execution_time" not in rep.sweep[0]
        base = run_small(records)
        assert rep.total_latency_us == base.total_latency_us
        assert rep.config_final == base.config_final

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep([], small_config(), small_geo(), "warp_factor", [1.0])

    def test_rejects_a_caller_mode(self):
        with pytest.raises(TypeError):
            run_sweep([], small_config(), small_geo(), "window_size", [1.0],
                      mode="tuned")


# --- report emission ---------------------------------------------------------------

class TestEmitReport:
    def test_json_file_is_sorted_and_loadable(self, tmp_path):
        rep = run_small(small_trace(200, seed=1))
        path = tmp_path / "report.json"
        emit_report(rep, path, "json")
        data = json.loads(path.read_text())
        assert data["requests"] == rep.requests
        keys = list(data)
        assert keys == sorted(keys)

    def test_csv_epoch_report_row_count(self, tmp_path):
        records = small_trace(1500, seed=7)
        rep = run_small(records, mode="tuned",
                        backend=ScriptedBackend([GOOD_REPLY]),
                        schedule=EpochSchedule(tuning_interval_writes=300,
                                               investigation_ops=100,
                                               max_epochs=3))
        assert rep.epochs_run >= 1
        path = tmp_path / "report.csv"
        emit_report(rep, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(rep.epochs) + 1
        assert lines[0].startswith("epoch,trigger,verdict")

    def test_csv_sweep_report_row_count(self, tmp_path):
        records = small_trace(300, seed=13)
        rep = run_sweep(records, small_config(), small_geo(),
                        "gc_trigger_threshold", [0.5, 1.0],
                        initial_mode_split=0.5)
        path = tmp_path / "sweep.csv"
        emit_report(rep, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("param,multiplier,value")

    def test_history_jsonl_written_alongside_tuned_report(self, tmp_path):
        records = small_trace(1500, seed=7)
        rep = run_small(records, mode="tuned",
                        backend=ScriptedBackend([GOOD_REPLY]),
                        schedule=EpochSchedule(tuning_interval_writes=300,
                                               investigation_ops=100,
                                               max_epochs=3))
        path = tmp_path / "tuned.json"
        emit_report(rep, path, "json")
        history = tmp_path / "tuned.history.jsonl"
        assert history.exists()
        lines = [json.loads(l) for l in history.read_text().splitlines()]
        assert len(lines) == rep.epochs_run
        for line in lines:
            assert line["prompt"]
            assert line["config_before"] is not None
            assert line["verdict"] in ("accepted", "corrected", "rolled_back",
                                       "rejected")

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644),
                                             (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_report_files_get_the_mode_open_would_give(self, tmp_path,
                                                       umask, mode):
        rep = run_small(small_trace(1500, seed=7), mode="tuned",
                        backend=ScriptedBackend([GOOD_REPLY]),
                        schedule=EpochSchedule(tuning_interval_writes=300,
                                               investigation_ops=100,
                                               max_epochs=1))
        old = os.umask(umask)
        try:
            emit_report(rep, tmp_path / "tuned.json", "json")
        finally:
            os.umask(old)
        for name in ("tuned.json", "tuned.history.jsonl"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode

    def test_a_report_written_over_keeps_its_mode(self, tmp_path):
        rep = run_small(small_trace(1500, seed=7), mode="tuned",
                        backend=ScriptedBackend([GOOD_REPLY]),
                        schedule=EpochSchedule(tuning_interval_writes=300,
                                               investigation_ops=100,
                                               max_epochs=1))
        names = ("tuned.json", "tuned.history.jsonl")
        for name in names:
            (tmp_path / name).write_text("old")
            os.chmod(tmp_path / name, 0o600)
        old = os.umask(0o022)
        try:
            emit_report(rep, tmp_path / "tuned.json", "json")
        finally:
            os.umask(old)
        for name in names:
            assert (tmp_path / name).read_text() != "old"
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o600

    def test_a_symlinked_report_path_is_written_through(self, tmp_path):
        rep = run_small(small_trace(200, seed=1))
        out = tmp_path / "out"
        out.mkdir()
        emit_report(rep, out / "plain.json", "json")
        target = out / "target.json"
        target.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        emit_report(rep, link, "json")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == (out / "plain.json").read_text()
        # the temporary file lived beside the target, and is gone
        assert sorted(os.listdir(tmp_path)) == ["link.json", "out"]
        assert sorted(os.listdir(out)) == ["plain.json", "target.json"]

    def test_no_history_file_for_default_mode(self, tmp_path):
        rep = run_small(small_trace(200, seed=1))
        emit_report(rep, tmp_path / "plain.json", "json")
        assert sorted(os.listdir(tmp_path)) == ["plain.json"]

    def test_unknown_format_rejected(self, tmp_path):
        rep = run_small(small_trace(200, seed=1))
        with pytest.raises(ConfigError):
            emit_report(rep, tmp_path / "report.xml", "xml")

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        rep = run_small(small_trace(200, seed=1))
        target_dir = tmp_path / "out"
        target_dir.mkdir()
        # writing over a directory fails at the final rename
        with pytest.raises(OSError):
            emit_report(rep, target_dir, "json")
        assert os.listdir(tmp_path) == ["out"]
        assert os.listdir(target_dir) == []   # no temp droppings either

    def test_missing_directory_creates_nothing(self, tmp_path):
        rep = run_small(small_trace(200, seed=1))
        with pytest.raises(OSError):
            emit_report(rep, tmp_path / "nope" / "report.json", "json")
        assert os.listdir(tmp_path) == []


# --- the command line ----------------------------------------------------------------

SMALL_GEO_ARGS = ["--channels", "1", "--blocks-per-channel", "16",
                  "--pages-per-block", "8", "--mode-split", "0.5"]


def small_cli_config(tmp_path):
    path = tmp_path / "drive.conf"
    path.write_text(
        "# small-device profile\n"
        "gc trigger threshold = 13\n"
        "window size = 100\n"
        "rl training interval = 50\n"
        "kmeans trigger threshold = 400\n"
        "slice size = 131072\n",
        encoding="utf-8")
    return str(path)


class TestCli:
    def test_default_run_writes_report(self, tmp_path, capsys):
        report = tmp_path / "out.json"
        rc = cli.main(["run", "--ops", "300", "--seed", "3",
                       "--config", small_cli_config(tmp_path),
                       "--report", str(report)] + SMALL_GEO_ARGS)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["mode"] == "default"
        assert data["requests"] == 300
        out = capsys.readouterr().out
        assert "requests=300" in out
        assert "report written to" in out

    def test_normalize_flag_yields_exactly_one_for_default_config(
            self, tmp_path):
        report = tmp_path / "out.json"
        # default profile vs default profile: same run, ratio is exactly 1
        rc = cli.main(["run", "--ops", "300", "--seed", "3", "--normalize",
                       "--config", small_cli_config(tmp_path),
                       "--report", str(report)] + SMALL_GEO_ARGS)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["normalized_execution_time"] is not None

    def test_tuned_run_via_scripted_backend(self, tmp_path):
        script = tmp_path / "responses.txt"
        script.write_text(GOOD_REPLY + "\n", encoding="utf-8")
        report = tmp_path / "tuned.json"
        rc = cli.main(["run", "--ops", "1500", "--seed", "7",
                       "--mode", "tuned",
                       "--backend", f"scripted:{script}",
                       "--tuning-interval", "300",
                       "--investigation-ops", "100",
                       "--max-epochs", "3",
                       "--config", small_cli_config(tmp_path),
                       "--report", str(report)] + SMALL_GEO_ARGS)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["mode"] == "tuned"
        assert data["epochs_run"] >= 1
        assert (tmp_path / "tuned.history.jsonl").exists()

    def test_sweep_run_csv_by_extension(self, tmp_path):
        report = tmp_path / "sweep.csv"
        rc = cli.main(["run", "--ops", "300", "--seed", "3",
                       "--mode", "sweep",
                       "--sweep-param", "gc_trigger_threshold",
                       "--sweep-multipliers", "0.5,1,2",
                       "--config", small_cli_config(tmp_path),
                       "--report", str(report)] + SMALL_GEO_ARGS)
        assert rc == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 4   # header + three multipliers

    def test_default_run_rejects_csv_before_the_replay(
            self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the report format check")
        monkeypatch.setattr(cli, "synth_trace", must_not_run)
        report = tmp_path / "out.csv"
        rc = cli.main(["run", "--ops", "300", "--seed", "3",
                       "--report", str(report)] + SMALL_GEO_ARGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "csv" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("mode", ["default", "sweep"])
    def test_skipped_trace_lines_reach_the_report(self, tmp_path, mode):
        trace = tmp_path / "w.csv"
        lines = [f"{128166372003061629 + i * 10000},src,0,Write,"
                 f"{(i % 10) * PAGE},{PAGE},100" for i in range(40)]
        lines.insert(5, "not,a,trace,line")
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = tmp_path / "r.json"
        rc = cli.main(["run", "--trace", str(trace), "--format", "msr",
                       "--mode", mode, "--sweep-multipliers", "1,2",
                       "--config", small_cli_config(tmp_path),
                       "--report", str(report)] + SMALL_GEO_ARGS)
        assert rc == 0
        assert json.loads(report.read_text())["skipped_lines"] == 1

    def test_sweep_of_a_float_tunable_loaded_as_an_integer(self, tmp_path):
        conf = tmp_path / "int.conf"
        conf.write_text(open(small_cli_config(tmp_path)).read()
                        + "rl reward = 1.6ms\n", encoding="utf-8")
        report = tmp_path / "r.json"
        rc = cli.main(["run", "--ops", "200", "--mode", "sweep",
                       "--sweep-param", "rl_reward_threshold",
                       "--sweep-multipliers", "0.5,1",
                       "--config", str(conf),
                       "--report", str(report)] + SMALL_GEO_ARGS)
        assert rc == 0
        rows = json.loads(report.read_text())["sweep"]
        assert [r["value"] for r in rows] == [800, 1600]

    @pytest.mark.parametrize("param, multipliers", [
        ("gc_trigger_threshold", "1,1e308"),     # an int tunable
        ("rl_reward_threshold", "1,1e306"),      # a float tunable
    ])
    def test_sweep_past_the_float_range_is_a_one_line_error(
            self, tmp_path, capsys, param, multipliers):
        report = tmp_path / "r.json"
        rc = cli.main(["run", "--ops", "200", "--mode", "sweep",
                       "--sweep-param", param,
                       "--sweep-multipliers", multipliers,
                       "--config", small_cli_config(tmp_path),
                       "--report", str(report)] + SMALL_GEO_ARGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert param in err and "not a finite number" in err
        assert not report.exists()

    def test_a_window_too_small_fails_before_any_replay(
            self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a replay ran before the bad value failed")
        # `hybridssd.replay` names the function, so patch the name
        # run_sweep looks up
        monkeypatch.setitem(run_sweep.__globals__, "replay", must_not_run)
        report = tmp_path / "r.json"
        rc = cli.main(["run", "--ops", "200", "--mode", "sweep",
                       "--sweep-param", "window_size",
                       "--sweep-multipliers", "1,0.0001",
                       "--config", small_cli_config(tmp_path),
                       "--report", str(report)] + SMALL_GEO_ARGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window_size ") and err.count("\n") == 1
        assert not report.exists()

    def test_tuned_without_backend_is_a_clean_error(self, tmp_path, capsys):
        rc = cli.main(["run", "--ops", "100", "--mode", "tuned",
                       "--report", str(tmp_path / "x.json")] + SMALL_GEO_ARGS)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["channels = 2.5",
                                      "page_size = 1000.5"])
    def test_fractional_geometry_in_config_is_a_clean_error(
            self, tmp_path, capsys, line):
        conf = tmp_path / "frac.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        rc = cli.main(["run", "--ops", "100", "--config", str(conf),
                       "--report", str(tmp_path / "x.json")] + SMALL_GEO_ARGS)
        assert rc == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("page_size, slice_size, rc", [
        ("4096", 8192, 0),       # slice a multiple of the flag's page size
        ("32768", 16384, 2),     # slice smaller than the flag's page size
    ])
    def test_config_slice_size_checked_against_page_size_flag(
            self, tmp_path, capsys, page_size, slice_size, rc):
        conf = tmp_path / "slice.conf"
        conf.write_text(f"slice size = {slice_size}\n", encoding="utf-8")
        report = tmp_path / "x.json"
        assert cli.main(["run", "--ops", "100", "--page-size", page_size,
                         "--config", str(conf), "--report", str(report)]
                        + SMALL_GEO_ARGS) == rc
        assert report.exists() == (rc == 0)
        if rc:
            assert "slice_size" in capsys.readouterr().err

    def test_trace_format_without_file_is_a_clean_error(self, tmp_path,
                                                        capsys):
        rc = cli.main(["run", "--format", "msr",
                       "--report", str(tmp_path / "x.json")] + SMALL_GEO_ARGS)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--hot-fraction", "2"],
        ["--ops", "-5"],
        ["--write-ratio", "3"],
        ["--format", "msr", "--trace", "{missing}"],
        ["--config", "{missing}"],
        ["--mode", "tuned", "--backend", "scripted:{missing}"],
        ["--mode", "sweep", "--sweep-multipliers", "1,abc"],
        ["--mode", "sweep", "--sweep-multipliers", "1,nan"],
        ["--mode", "sweep", "--sweep-multipliers", "1,inf"],
        ["--mode", "sweep", "--sweep-multipliers", "1,-2"],
        ["--mode", "tuned", "--backend", "scripted:{fixture}",
         "--degradation-threshold", "nan"],
        ["--config", "{overflow}"],
        ["--report", "{missing}/r.json"],
        ["--mode", "tuned", "--backend", "scripted:{fixture}",
         "--max-tokens", "0"],
        ["--mode", "tuned", "--backend", "scripted:{fixture}",
         "--max-tokens", "100"],
        # a tuned run that holds no epoch has no rows for a csv report
        ["--mode", "tuned", "--backend", "scripted:{fixture}",
         "--max-epochs", "0", "--report-format", "csv"],
        ["--mode", "sweep", "--sweep-multipliers", ","],
        ["--mode", "tuned", "--backend", "scripted:"],
        ["--mode", "tuned", "--backend", "remote:"],
        ["--mode", "tuned", "--backend", "telepathy:now"],
        ["--format", "msr", "--trace", "{junk}"],
    ])
    def test_bad_input_is_a_one_line_error(self, tmp_path, capsys, args):
        missing = str(tmp_path / "missing.txt")
        overflow = tmp_path / "overflow.conf"
        overflow.write_text("window size = 1e309\n", encoding="utf-8")
        junk = tmp_path / "junk.csv"      # no line parses as a record
        junk.write_text("not,a,record\n", encoding="utf-8")
        report = tmp_path / "x.json"
        argv = [a.format(missing=missing, overflow=overflow, fixture=FIXTURE,
                         junk=junk)
                for a in args]
        # a later --report replaces an earlier one
        rc = cli.main(["run", "--ops", "100", "--report", str(report), *argv]
                      + SMALL_GEO_ARGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize("where", ["{tmp}/missing/r.json", "{tmp}"])
    def test_unwritable_report_fails_before_the_replay(
            self, tmp_path, capsys, monkeypatch, where):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the --report check")
        monkeypatch.setattr(cli, "synth_trace", must_not_run)
        monkeypatch.setattr(cli, "replay", must_not_run)
        rc = cli.main(["run", "--ops", "100",
                       "--report", where.format(tmp=tmp_path)]
                      + SMALL_GEO_ARGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: report: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []      # the probe file is gone

    def test_msr_trace_file_end_to_end(self, tmp_path):
        trace = tmp_path / "w.csv"
        lines = []
        for i in range(40):
            off = (i % 10) * PAGE
            lines.append(f"{128166372003061629 + i * 10000},src,0,Write,"
                         f"{off},{PAGE},100")
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = tmp_path / "msr.json"
        rc = cli.main(["run", "--trace", str(trace), "--format", "msr",
                       "--config", small_cli_config(tmp_path),
                       "--report", str(report)] + SMALL_GEO_ARGS)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["requests"] == 40
        assert data["writes"] == 40
