"""Prompt assembly, backends, and response parsing."""
import dataclasses
import json
import os
import re
from http.server import BaseHTTPRequestHandler, HTTPServer
from threading import Thread
from urllib.error import URLError

import pytest

from hybridssd.config import (ConfigProfile, PlacementStrategy,
                              default_param_bounds)
from hybridssd.errors import BackendUnavailable, ConfigError, NoValidUpdate, ParseFailure
from hybridssd.tuner import (HISTORY_HORIZON, MAX_ATTEMPTS, RemoteBackend,
                             ScriptedBackend, TuningRecord, Verdict,
                             build_prompt, correct_mistakes, estimate_tokens,
                             parse_config, segment_prompt)

PAGE = 16384


def make_info(**over):
    info = {
        "channels": 32, "blocks_per_channel": 512, "page_size": PAGE,
        "pages_per_block_slc": 64, "pages_per_block_qlc": 256,
        "op_ratio": 0.125, "logical_capacity_pages": 3670016,
        "slc_blocks": 4096, "qlc_blocks": 12288,
        "slc_free_fraction": 0.31, "qlc_free_fraction": 0.62,
        "latency": {"read_slc": 20.0, "read_qlc": 140.0,
                    "write_slc": 200.0, "write_qlc": 2000.0,
                    "erase_slc": 3000.0, "erase_qlc": 3500.0},
        "last_period": {"mean_latency_us": 812.5, "requests": 100000,
                        "wa": 1.42},
    }
    info.update(over)
    return info


def make_record(epoch, verdict=Verdict.ACCEPTED, **over):
    kw = dict(
        epoch=epoch, trigger="scheduled", verdict=verdict,
        reason="latency trending up, widening the window",
        corrections=(), changed={"window_size": (2000, 1500)},
        latency_before_us=800.0 + epoch, latency_after_us=780.0 + epoch,
        wa_before=1.5, wa_after=1.4, improved_over_default=True,
        raw_response="...")
    kw.update(over)
    return TuningRecord(**kw)


# --- token estimate -----------------------------------------------------------

def test_estimate_tokens_is_quarter_chars():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 1
    assert estimate_tokens("x" * 4000) == 1000


# --- prompt assembly ----------------------------------------------------------

class TestBuildPrompt:
    def test_five_stages_in_order(self):
        bundle = build_prompt(make_info(), [], ConfigProfile())
        assert len(bundle.stages) == 5
        role, device, mgmt, state, req = bundle.stages
        assert "SSD firmware engineer" in role
        assert "32 channels x 512 blocks" in device
        assert "Management stack" in mgmt
        assert "Current configuration" in state
        assert "Reply format" in req

    def test_empty_history_placeholder(self):
        bundle = build_prompt(make_info(), [], ConfigProfile())
        assert "No prior adjustments." in bundle.stages[3]
        assert bundle.history_lines == ()

    def test_history_horizon_is_ten(self):
        history = [make_record(i) for i in range(1, 26)]
        bundle = build_prompt(make_info(), history, ConfigProfile())
        assert len(bundle.history_lines) == HISTORY_HORIZON == 10
        # most recent entries survive, oldest are cut
        assert "epoch 25" in bundle.stages[3]
        assert "epoch 16" in bundle.stages[3]
        assert "epoch 15" not in bundle.stages[3]

    def test_all_fifteen_parameters_listed(self):
        bundle = build_prompt(make_info(), [], ConfigProfile())
        for name in ConfigProfile().as_dict():
            assert name in bundle.stages[2], name
            assert name in bundle.stages[3], name

    def test_parameter_list_shows_declared_unit_and_meaning(self):
        bundle = build_prompt(make_info(), [], ConfigProfile())
        for i, f in enumerate(dataclasses.fields(ConfigProfile), start=1):
            unit, meaning = f.metadata["unit"], f.metadata["meaning"]
            assert f"{i}. {f.name} ({unit}): {meaning}" in bundle.stages[2]
            # and the current value carries the same unit
            assert re.search(rf"^{f.name} = \S+ \({re.escape(unit)}\)$",
                             bundle.stages[3], re.M), f.name

    def test_current_values_rendered(self):
        cfg = ConfigProfile(window_size=1234, rl_learning_rate=0.25)
        bundle = build_prompt(make_info(), [], cfg)
        assert "window_size = 1234" in bundle.stages[3]
        assert "rl_learning_rate = 0.25" in bundle.stages[3]
        assert "placement_strategy = slc_first" in bundle.stages[3]

    def test_token_budget_with_full_history(self):
        # ten history entries keep the prompt around the 2.4k-token mark,
        # so the default limit sends it untrimmed
        history = [make_record(i) for i in range(1, 11)]
        bundle = build_prompt(make_info(), history, ConfigProfile())
        assert 1800 <= bundle.estimated_tokens <= 3200
        assert segment_prompt(bundle) == bundle.joined()

    def test_deterministic(self):
        history = [make_record(i) for i in range(1, 6)]
        a = build_prompt(make_info(), history, ConfigProfile())
        b = build_prompt(make_info(), history, ConfigProfile())
        assert a.joined() == b.joined()
        assert a.estimated_tokens == b.estimated_tokens

    def test_target_note_appended(self):
        bundle = build_prompt(make_info(), [], ConfigProfile(),
                              target_note="prioritize WA")
        assert "Operator note: prioritize WA" in bundle.stages[4]

    def test_history_line_shape(self):
        from hybridssd.tuner import render_history_line
        line = render_history_line(make_record(
            3, verdict=Verdict.ROLLED_BACK,
            changed={"gc_trigger_threshold": (6, 30)},
            latency_before_us=500.0, latency_after_us=900.0,
            corrections=("gc_trigger_threshold: clamped 90 -> 50",)))
        assert line.startswith("epoch 3 [rolled_back, scheduled]")
        assert "gc_trigger_threshold 6 -> 30" in line
        assert "500.0us -> 900.0us (+400.0us)" in line
        assert "1 value(s) auto-corrected" in line

    def test_a_long_note_is_cut_to_180_characters(self):
        from hybridssd.tuner import render_history_line
        line = render_history_line(make_record(1, reason="slow  io\n" * 40))
        note = line.split("; note: ")[1]
        assert note == ("slow io " * 23)[:177] + "..."
        assert len(note) == 180


# --- fitting the prompt to max_tokens ---------------------------------------------

def noisy_history(n=10):
    return [make_record(i, reason="z" * 170) for i in range(1, n + 1)]


def with_newest(history, k):
    """The prompt built from the newest `k` of `history`, with the stage-4
    note for the lines left out."""
    text = build_prompt(make_info(), history[len(history) - k:],
                        ConfigProfile()).joined()
    left_out = len(history) - k
    if not left_out:
        return text
    were = "adjustment was" if left_out == 1 else "adjustments were"
    note = f"{left_out} earlier {were} left out to fit the prompt."
    if not k:
        return text.replace("No prior adjustments.", note)
    head = "most recent last):\n"
    return text.replace(head, head + note + "\n")


class TestSegmentPrompt:
    def test_fits_in_one_segment(self):
        bundle = build_prompt(make_info(), [], ConfigProfile())
        assert segment_prompt(bundle, max_tokens=4096) == bundle.joined()

    def test_oversized_prompt_goes_out_whole(self):
        # with no history to drop, an oversized prompt is not cut up
        pad = build_prompt(make_info(), [], ConfigProfile(),
                           target_note="y" * 40000)
        assert pad.estimated_tokens > 4096
        assert segment_prompt(pad, max_tokens=4096) == pad.joined()

    def test_history_truncated_oldest_first(self):
        bundle = build_prompt(make_info(), noisy_history(), ConfigProfile())
        budget = bundle.estimated_tokens - 300
        text = segment_prompt(bundle, max_tokens=budget)
        assert estimate_tokens(text) <= budget
        assert "epoch 10" in text
        assert "epoch 1 [" not in text

    def test_history_trimmed_until_the_whole_prompt_fits(self):
        history = noisy_history()
        full = build_prompt(make_info(), history, ConfigProfile())
        seen = set()
        budgets = range(estimate_tokens(with_newest(history, 0)),
                        full.estimated_tokens, 25)
        for budget in [*budgets, full.estimated_tokens]:
            text = segment_prompt(full, max_tokens=budget)
            kept = sum(ln in text for ln in full.history_lines)
            seen.add(kept)
            # the newest `kept` lines and the left-out note, whole prompt
            # otherwise unchanged ...
            assert text == with_newest(history, kept)
            assert estimate_tokens(text) <= budget
            # ... and no line is dropped that the limit had room for
            if kept < len(history):
                assert estimate_tokens(with_newest(history, kept + 1)) > budget
        assert {0, len(history)} < seen

    @pytest.mark.parametrize("left_out,note", [
        (1, "1 earlier adjustment was left out to fit the prompt."),
        (4, "4 earlier adjustments were left out to fit the prompt.")])
    def test_trimmed_prompt_says_how_many_lines_were_left_out(self, left_out,
                                                              note):
        history = noisy_history()
        bundle = build_prompt(make_info(), history, ConfigProfile())
        budget = estimate_tokens(with_newest(history, 10 - left_out))
        text = segment_prompt(bundle, max_tokens=budget)
        assert note in text
        assert "No prior adjustments." not in text
        assert sum(ln in text for ln in bundle.history_lines) == 10 - left_out

    def test_unfittable_limit_returns_the_history_free_prompt(self):
        bundle = build_prompt(make_info(), noisy_history(), ConfigProfile())
        text = segment_prompt(bundle, max_tokens=100)
        # every line is dropped, and the prompt says so
        note = "10 earlier adjustments were left out to fit the prompt."
        assert text == build_prompt(make_info(), [], ConfigProfile()).joined(
            ).replace("No prior adjustments.", note)
        assert estimate_tokens(text) > 100

    @pytest.mark.parametrize("max_tokens", [0, -1])
    def test_bad_limits_rejected(self, max_tokens):
        bundle = build_prompt(make_info(), [], ConfigProfile())
        with pytest.raises(ConfigError):
            segment_prompt(bundle, max_tokens=max_tokens)


# --- scripted backend -----------------------------------------------------------

class TestScriptedBackend:
    def test_serves_in_order_then_repeats_last(self):
        be = ScriptedBackend(["one", "two"])
        assert be.complete("p") == "one"
        assert be.complete("p") == "two"
        assert be.complete("p") == "two"
        assert be.complete("p") == "two"

    def test_empty_script_rejected(self):
        with pytest.raises(BackendUnavailable):
            ScriptedBackend([])

    def test_from_file_unescapes_newlines(self, tmp_path):
        path = tmp_path / "script.txt"
        path.write_text("reason\\n`1.GC trigger threshold: 8`\n\nsecond\n",
                        encoding="utf-8")
        be = ScriptedBackend.from_file(path)
        assert be.responses == ["reason\n`1.GC trigger threshold: 8`",
                                "second"]


# --- remote backend -------------------------------------------------------------

def answer(status=200, payload=None):
    """A transport answer: the status and the JSON body bytes."""
    if payload is None:
        payload = {"choices": [{"message": {
            "content": "ok `1.Windows size: 1500`"}}]}
    return status, json.dumps(payload).encode("utf-8")


class FakePost:
    """A RemoteBackend transport answering from a script (an exception in
    it is raised) and keeping what it was sent."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def __call__(self, url, body, headers, timeout):
        self.requests.append({"url": url, "json": json.loads(body),
                              "headers": headers, "timeout": timeout})
        item = self.replies.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestRemoteBackend:
    def test_payload_shape_and_reply(self):
        post = FakePost([answer()])
        be = RemoteBackend("http://llm.test/v1/chat", model="gpt-4",
                           temperature=0.0, post=post)
        reply = be.complete("the prompt")
        assert reply == "ok `1.Windows size: 1500`"
        assert len(post.requests) == 1
        sent = post.requests[0]
        assert sent["url"] == "http://llm.test/v1/chat"
        assert sent["json"] == {
            "model": "gpt-4",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.0,
        }

    def test_token_read_from_env_at_call_time(self, monkeypatch):
        post = FakePost([answer(), answer()])
        be = RemoteBackend("http://llm.test", auth_env="LLM_API_KEY",
                           post=post)
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        be.complete("p")
        assert "Authorization" not in post.requests[0]["headers"]
        monkeypatch.setenv("LLM_API_KEY", "sk-test-123")
        be.complete("p")
        assert post.requests[1]["headers"]["Authorization"] == "Bearer sk-test-123"
        # the token itself is never persisted on the backend object
        assert "sk-test-123" not in repr(vars(be))

    def test_retries_then_succeeds(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("hybridssd.tuner.time.sleep", sleeps.append)
        post = FakePost([URLError("down"), answer(503), answer()])
        be = RemoteBackend("http://llm.test", post=post)
        assert be.complete("p").startswith("ok")
        assert len(post.requests) == 3
        assert sleeps == [1.0, 2.0]   # exponential backoff between attempts

    def test_gives_up_after_max_attempts(self, monkeypatch):
        monkeypatch.setattr("hybridssd.tuner.time.sleep", lambda s: None)
        post = FakePost([URLError("down"), TimeoutError("slow"),
                         OSError("reset")])
        be = RemoteBackend("http://llm.test", post=post)
        with pytest.raises(BackendUnavailable):
            be.complete("p")
        assert len(post.requests) == MAX_ATTEMPTS == 3

    def test_empty_completion_is_retried(self, monkeypatch):
        monkeypatch.setattr("hybridssd.tuner.time.sleep", lambda s: None)
        post = FakePost([
            answer(payload={"choices": [{"message": {"content": ""}}]}),
            answer(),
        ])
        be = RemoteBackend("http://llm.test", post=post)
        assert be.complete("p").startswith("ok")

    def test_malformed_json_is_retried(self, monkeypatch):
        monkeypatch.setattr("hybridssd.tuner.time.sleep", lambda s: None)
        # valid JSON of the wrong shape counts as a failed attempt
        for payload in ({"nope": True}, [], {"choices": None},
                        {"choices": [{"message": None}]},
                        {"choices": [{"message": {"content": 123}}]}):
            post = FakePost([answer(payload=payload)] * MAX_ATTEMPTS)
            be = RemoteBackend("http://llm.test", post=post)
            with pytest.raises(BackendUnavailable):
                be.complete("p")
            assert len(post.requests) == MAX_ATTEMPTS
        # so does a body that is not JSON at all
        post = FakePost([(200, b"<html>busy</html>")] * MAX_ATTEMPTS)
        with pytest.raises(BackendUnavailable, match="JSONDecodeError"):
            RemoteBackend("http://llm.test", post=post).complete("p")


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next (status, body) of the server's
    script and keeps what it was sent."""

    def do_POST(self):
        sent = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.received.append((dict(self.headers), json.loads(sent)))
        status, body = self.server.script.pop(0)
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback():
    server = HTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.script, server.received = [], []
    thread = Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_default_transport_retries_a_503_over_loopback(loopback,
                                                       monkeypatch):
    sleeps = []
    monkeypatch.setattr("hybridssd.tuner.time.sleep", sleeps.append)
    monkeypatch.setenv("LLM_API_KEY", "sk-loop")
    reply = {"choices": [{"message": {"content": "ok `Windows size: 900`"}}]}
    loopback.script = [(503, {"error": "busy"}), (200, reply)]
    host, port = loopback.server_address
    be = RemoteBackend(f"http://{host}:{port}/v1/chat", timeout_s=5.0)
    assert be.complete("the prompt") == "ok `Windows size: 900`"
    assert sleeps == [1.0]
    assert len(loopback.received) == 2
    headers, body = loopback.received[1]
    assert headers["Authorization"] == "Bearer sk-loop"
    assert body["messages"] == [{"role": "user", "content": "the prompt"}]


def test_default_transport_reports_the_last_status(loopback, monkeypatch):
    monkeypatch.setattr("hybridssd.tuner.time.sleep", lambda s: None)
    loopback.script = [(503, {})] * (MAX_ATTEMPTS - 1) + [(404, {})]
    host, port = loopback.server_address
    be = RemoteBackend(f"http://{host}:{port}/", timeout_s=5.0)
    with pytest.raises(BackendUnavailable, match="HTTP 404"):
        be.complete("p")
    assert loopback.script == []


# --- response parsing -----------------------------------------------------------

class TestParseConfig:
    def test_single_fence_two_entries(self):
        reason, cand = parse_config(
            "The window is too small for this burst pattern. "
            "New configuration: `1.K-means trigger threshold: 1000; "
            "2.Windows size: 1500`")
        assert cand == {"kmeans_trigger_threshold": 1000,
                        "window_size": 1500}
        assert "burst pattern" in reason
        assert "`" not in reason

    def test_triple_fence_preferred_over_single(self):
        raw = ("as noted in `window_size: 9` above\n"
               "```\n1. GC trigger threshold: 8\n2. Window size: 1500\n```")
        reason, cand = parse_config(raw)
        assert cand == {"gc_trigger_threshold": 8, "window_size": 1500}
        assert "window_size: 9" in reason   # inline code stays in the reason

    def test_percent_and_unit_suffixes(self):
        _, cand = parse_config(
            "`1.GC trigger threshold: 8%; 2.Slice size: 200MB; "
            "3.RL reward threshold: 1.6ms`")
        assert cand == {"gc_trigger_threshold": 8,
                        "slice_size": 209715200,
                        "rl_reward_threshold": 1600.0}

    def test_placement_strategy_value(self):
        _, cand = parse_config("`placement strategy: hotness_based`")
        assert cand == {"placement_strategy": "hotness_based"}

    def test_unknown_names_dropped(self):
        _, cand = parse_config(
            "`1.Overdrive factor: 3; 2.Windows size: 1500`")
        assert cand == {"window_size": 1500}

    def test_no_fence_raises(self):
        with pytest.raises(ParseFailure):
            parse_config("just set the window to 1500, trust me")

    def test_newline_separated_entries(self):
        _, cand = parse_config(
            "```\nwindow size: 800\nrl exploration: 0.2\n```")
        assert cand == {"window_size": 800, "rl_exploration": 0.2}

    def test_index_prefix_variants(self):
        _, cand = parse_config(
            "`1. window size: 100; 2) std dev threshold: 5000; "
            "3 . kmeans max iterations: 20`")
        assert cand == {"window_size": 100, "std_dev_threshold": 5000,
                        "kmeans_max_iterations": 20}

    def test_empty_fence_yields_no_candidates(self):
        reason, cand = parse_config("nothing to change `  `")
        assert cand == {}
        assert reason == "nothing to change"


# --- mistake correction -----------------------------------------------------------

class TestCorrectMistakes:
    def setup_method(self):
        self.bounds = default_param_bounds(PAGE)
        self.current = ConfigProfile()

    def test_out_of_range_clamps(self):
        profile, corr = correct_mistakes(
            {"rl_learning_rate": 5.0}, self.bounds, self.current)
        assert profile.rl_learning_rate == 1.0
        assert any("clamped" in c for c in corr)

    def test_unmentioned_parameters_inherit(self):
        profile, _ = correct_mistakes(
            {"window_size": 1500}, self.bounds, self.current)
        current = self.current.as_dict()
        changed = {k: v for k, v in profile.as_dict().items()
                   if current[k] != v}
        assert changed == {"window_size": 1500}

    def test_unknown_key_dropped_with_note(self):
        profile, corr = correct_mistakes(
            {"window_size": 900, "warp_drive": 11},
            self.bounds, self.current)
        assert profile.window_size == 900
        assert not hasattr(profile, "warp_drive")
        assert any("warp_drive" in c and "dropped" in c for c in corr)

    def test_type_mismatch_dropped(self):
        with pytest.raises(NoValidUpdate):
            correct_mistakes({"window_size": "a lot"},
                             self.bounds, self.current)
        profile, corr = correct_mistakes(
            {"window_size": "a lot", "gc_trigger_threshold": 9},
            self.bounds, self.current)
        assert profile.gc_trigger_threshold == 9
        assert profile.window_size == self.current.window_size
        assert any("not a number" in c for c in corr)

    def test_fractional_int_dropped(self):
        with pytest.raises(NoValidUpdate):
            correct_mistakes({"window_size": 99.5},
                             self.bounds, self.current)

    def test_integral_float_accepted_as_int(self):
        profile, corr = correct_mistakes(
            {"window_size": 1500.0}, self.bounds, self.current)
        assert profile.window_size == 1500
        assert isinstance(profile.window_size, int)
        assert corr == []

    def test_slice_size_snaps_to_page_grid(self):
        profile, corr = correct_mistakes(
            {"slice_size": 200 * 1000 * 1000},   # decimal MB, off-grid
            self.bounds, self.current)
        assert profile.slice_size % PAGE == 0
        assert any("snapped" in c for c in corr)

    def test_slice_size_ceiling_lands_on_an_odd_page_grid(self):
        # 16 GiB is no multiple of a 10000 B page: the ceiling rounds down
        bounds = default_param_bounds(10000)
        profile, corr = correct_mistakes(
            {"slice_size": 100 * 1024 ** 3}, bounds,
            ConfigProfile(slice_size=80000))
        assert profile.slice_size == 17179860000
        assert profile.slice_size % 10000 == 0
        assert any("clamped" in c for c in corr)

    def test_placement_enum(self):
        profile, corr = correct_mistakes(
            {"placement_strategy": "hotness_based"},
            self.bounds, self.current)
        assert profile.placement_strategy is PlacementStrategy.HOTNESS_BASED
        assert corr == []
        with pytest.raises(NoValidUpdate):
            correct_mistakes({"placement_strategy": "sideways"},
                             self.bounds, self.current)

    def test_idempotent(self):
        first, _ = correct_mistakes(
            {"rl_learning_rate": 5.0, "slice_size": 200 * 1000 * 1000,
             "window_size": 1500},
            self.bounds, self.current)
        second, corr = correct_mistakes(first.as_dict(), self.bounds, first)
        assert second == first
        assert corr == []

    def test_empty_candidates_raise(self):
        with pytest.raises(NoValidUpdate):
            correct_mistakes({}, self.bounds, self.current)

    def test_bool_is_not_a_number(self):
        with pytest.raises(NoValidUpdate):
            correct_mistakes({"window_size": True}, self.bounds, self.current)


# --- record serialization ---------------------------------------------------------

def test_tuning_record_round_trips_to_json():
    rec = make_record(
        4, verdict=Verdict.CORRECTED,
        corrections=("window_size: clamped 500000 -> 200000",),
        prompt="full prompt text",
        config_before={"window_size": 2000},
        config_after={"window_size": 200000})
    d = rec.to_json_dict()
    json.loads(json.dumps(d))   # must be pure JSON types
    assert d["verdict"] == "corrected"
    assert d["prompt"] == "full prompt text"
    assert d["config_before"] == {"window_size": 2000}
    assert d["config_after"] == {"window_size": 200000}
    assert d["changed"] == {"window_size": [2000, 1500]}
