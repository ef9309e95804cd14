"""LLM-driven configuration tuning: prompt assembly, backends, parsing.

The tuner turns device state + adjustment history into a five-stage prompt,
ships it to a chat-completion backend (or a scripted stand-in), and parses
the reply back into a candidate ConfigProfile. Everything coming back from a
backend is untrusted: names are resolved loosely, values are type-checked,
clamped into bounds, and invalid entries are dropped with a logged note.
"""
from __future__ import annotations

import enum
import json
import logging
import os
import re
import time
from dataclasses import dataclass, field, fields, replace

from .config import (ConfigProfile, ParamSpec, parse_scalar,
                     resolve_param_name, validate_profile)
from .errors import BackendUnavailable, ConfigError, NoValidUpdate, ParseFailure

logger = logging.getLogger(__name__)

DEFAULT_MAX_TOKENS = 4096
HISTORY_HORIZON = 10
MAX_ATTEMPTS = 3          # remote backend: tries per prompt
BACKOFF_S = 1.0           # first retry delay, doubling per further try


def estimate_tokens(text: str) -> int:
    # rough chat-model heuristic: one token per four characters
    return len(text) // 4


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    CORRECTED = "corrected"      # accepted after clamping/dropping entries
    ROLLED_BACK = "rolled_back"
    REJECTED = "rejected"        # nothing usable came back


@dataclass(frozen=True)
class TuningRecord:
    """One tuning epoch: what was proposed, what happened, how it went."""

    epoch: int
    trigger: str                       # "scheduled" | "shift"
    verdict: Verdict
    reason: str
    latency_before_us: float
    wa_before: float
    # the corrections, the changes (field -> (old, new), post-correction)
    # and the probe's outcome; the defaults spell an epoch that probed nothing
    corrections: tuple[str, ...] = ()
    changed: dict = field(default_factory=dict)
    latency_after_us: float | None = None
    wa_after: float | None = None
    improved_over_default: bool | None = None
    raw_response: str | None = None
    prompt: str | None = None
    config_before: dict | None = None  # full profile snapshots, as_dict form
    config_after: dict | None = None

    def to_json_dict(self) -> dict:
        def plain(v):
            return v.value if isinstance(v, enum.Enum) else v
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["verdict"] = self.verdict.value
        out["corrections"] = list(self.corrections)
        out["changed"] = {k: [plain(a), plain(b)]
                          for k, (a, b) in sorted(self.changed.items())}
        return out


@dataclass(frozen=True)
class PromptBundle:
    """Five ordered prompt stages plus enough structure to re-shrink stage
    four (history) when a token limit forces truncation."""

    stages: tuple[str, str, str, str, str]
    history_lines: tuple[str, ...]
    stage4_tail: str
    estimated_tokens: int

    def joined(self) -> str:
        return "\n\n".join(self.stages)


# --- prompt rendering ---------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


def _render_role() -> str:
    return (
        "You are a senior SSD firmware engineer consulted to retune a hybrid "
        "SLC/QLC solid-state drive. Your job is to adjust its runtime "
        "configuration so the drive serves the observed workload with lower "
        "average response time and lower write amplification. Base every "
        "recommendation on the device facts, the management stack, and the "
        "measured history below; answer with concrete values, not general "
        "advice.")


def _render_device(info: dict) -> str:
    lat = info["latency"]
    lines = [
        "Hybrid SSD under management:",
        f"- {info['channels']} channels x {info['blocks_per_channel']} blocks, "
        f"page size {info['page_size']} B",
        f"- SLC block holds {info['pages_per_block_slc']} pages, QLC block "
        f"holds {info['pages_per_block_qlc']} pages; each block can be used "
        "in either mode but only converted while empty",
        f"- exported capacity {info['logical_capacity_pages']} pages, "
        f"over-provisioning {_fmt(info['op_ratio'] * 100)}%",
        f"- regions now: {info['slc_blocks']} SLC blocks "
        f"({_fmt(round(info['slc_free_fraction'] * 100, 1))}% free), "
        f"{info['qlc_blocks']} QLC blocks "
        f"({_fmt(round(info['qlc_free_fraction'] * 100, 1))}% free)",
        f"- flash costs in us: SLC read {_fmt(lat['read_slc'])} / write "
        f"{_fmt(lat['write_slc'])} / erase {_fmt(lat['erase_slc'])}; QLC read "
        f"{_fmt(lat['read_qlc'])} / write {_fmt(lat['write_qlc'])} / erase "
        f"{_fmt(lat['erase_qlc'])}",
        "Writes are out-of-place: overwriting a page invalidates the old copy, "
        "and garbage collection later migrates the remaining valid pages and "
        "erases the block. SLC is fast but small; QLC is dense but slow. "
        "Foreground GC and mode conversion are charged to the request that "
        "triggered them, so badly placed thresholds show up directly as "
        "response-time spikes.",
    ]
    return "\n".join(lines)


def _render_management() -> str:
    lines = [
        "Management stack on top of the flash:",
        "- Placement: with slc_first every host write lands in SLC while any "
        "SLC page is free, spilling to QLC otherwise. With hotness_based, "
        "writes whose slice is labeled hot go to SLC and cold writes go "
        "straight to QLC, which spares the hot region and avoids pointless "
        "migrations of cold data.",
        "- Hotness classification: logical space is cut into slices of "
        "slice_size bytes; per-slice update counts and mean update intervals "
        "are clustered by K-means every kmeans_trigger_threshold writes, and "
        "the most-updated cluster is labeled hot.",
        "- Space management: whenever a region's free-block fraction falls "
        "below gc_trigger_threshold percent, a Q-learning agent repeatedly "
        "picks one of five actions - SLC internal GC, QLC internal GC, "
        "SLC-to-QLC GC, SLC-to-QLC mode conversion (eligible once free SLC "
        "drops under conversion_trigger_threshold percent), or idle - until "
        "space recovers or it chooses idle. The agent is rewarded when the "
        "average response time since its last update stays at or under "
        "rl_reward_threshold.",
        "- Monitoring: a sliding window of the last window_size requests "
        "tracks write ratio, request sizes, write intensity and the LPN "
        "standard deviation; a jump larger than std_dev_threshold pages is "
        "treated as a workload shift and may trigger an early retune.",
        "Tunable parameters (name (unit): meaning):",
    ]
    for i, f in enumerate(fields(ConfigProfile), start=1):
        lines.append(f"{i}. {f.name} ({f.metadata['unit']}): "
                     f"{f.metadata['meaning']}")
    return "\n".join(lines)


def render_history_line(rec: TuningRecord) -> str:
    if rec.changed:
        changes = ", ".join(f"{k} {_fmt(a)} -> {_fmt(b)}"
                            for k, (a, b) in sorted(rec.changed.items()))
    else:
        changes = "no field changes"
    perf = f"mean latency {rec.latency_before_us:.1f}us"
    if rec.latency_after_us is not None:
        delta = rec.latency_after_us - rec.latency_before_us
        perf += (f" -> {rec.latency_after_us:.1f}us "
                 f"({'+' if delta >= 0 else ''}{delta:.1f}us)")
    wa = f"WA {rec.wa_before:.3f}"
    if rec.wa_after is not None:
        wa += f" -> {rec.wa_after:.3f}"
    note = re.sub(r"\s+", " ", rec.reason).strip()
    if len(note) > 180:
        note = note[:177] + "..."
    line = (f"epoch {rec.epoch} [{rec.verdict.value}, {rec.trigger}] "
            f"{changes}; {perf}; {wa}")
    if rec.corrections:
        line += f"; {len(rec.corrections)} value(s) auto-corrected"
    if note:
        line += f"; note: {note}"
    return line


def _render_current(current: ConfigProfile) -> str:
    lines = ["Current configuration:"]
    for f in fields(ConfigProfile):
        lines.append(f"{f.name} = {_fmt(getattr(current, f.name))} "
                     f"({f.metadata['unit']})")
    return "\n".join(lines)


def _render_requirements(target_note: str) -> str:
    text = (
        "Optimization targets, both of them: reduce the average request "
        "response time (execution time) and reduce write amplification "
        "(device pages written / host pages written). Prefer few, targeted "
        "changes over rewriting everything; keep any parameter you do not "
        "mention at its current value.\n"
        "Tradeoffs to weigh before proposing values: raising "
        "gc_trigger_threshold starts garbage collection earlier, which "
        "smooths response times but migrates more still-valid pages and so "
        "raises write amplification; lowering it defers that cost until the "
        "device is cornered into long foreground GC bursts. Larger "
        "granularities reclaim more per decision at the price of longer "
        "stalls on the triggering request. A smaller slice_size or a lower "
        "kmeans_trigger_threshold makes hotness tracking more precise and "
        "more reactive, while a coarser one is cheaper and steadier under "
        "scans. window_size and std_dev_threshold set how quickly a workload "
        "shift is noticed versus how often noise is mistaken for one. The "
        "agent's rl_reward_threshold should sit near the response time the "
        "drive can actually sustain: too tight and every action is punished, "
        "too loose and everything is rewarded, and in both cases learning "
        "stalls. Higher rl_exploration adapts faster to new workloads but "
        "wastes requests on bad actions once behavior has converged.\n"
        "Every change you propose is applied immediately and then measured "
        "over an investigation period; if mean latency degrades beyond the "
        "allowed margin, the previous configuration is restored. Out-of-range "
        "values are clamped to their bounds rather than rejected, so stay "
        "inside the documented ranges to keep your intent intact.\n"
        "Reply format, exactly: first a short paragraph of reasoning in plain "
        "text, then one single backtick-fenced block containing the new "
        "values as numbered `name: value` entries separated by semicolons, "
        "for example:\n"
        "`1.GC trigger threshold: 8; 2.Windows size: 1500`\n"
        "Use only parameter names from the list above. Values are bare "
        "numbers with an optional unit suffix (%, us, ms, MB, GB) or, for "
        "the placement strategy, slc_first or hotness_based. Do not put any "
        "other backticks in the reply.")
    if target_note:
        text += f"\nOperator note: {target_note}"
    return text


def build_prompt(system_info: dict, history: list[TuningRecord],
                 current: ConfigProfile, target_note: str = "") -> PromptBundle:
    """Assemble the five prompt stages.

    `system_info` is the device snapshot dict (see SimulatorStack.system_info);
    `history` is chronological; only the last HISTORY_HORIZON entries are
    rendered. Identical inputs yield byte-identical prompts.
    """
    recent = list(history)[-HISTORY_HORIZON:]
    history_lines = tuple(render_history_line(r) for r in recent)
    tail_parts = [_render_current(current)]
    last = system_info.get("last_period")
    if last:
        tail_parts.append(
            f"Last measured period: mean latency {last['mean_latency_us']:.1f}us "
            f"over {last['requests']} requests, WA {last['wa']:.3f}.")
    stage4_tail = "\n\n" + "\n".join(tail_parts)
    stage4 = _compose_stage4(history_lines, stage4_tail)
    stages = (
        _render_role(),
        _render_device(system_info),
        _render_management(),
        stage4,
        _render_requirements(target_note),
    )
    return PromptBundle(
        stages=stages,
        history_lines=history_lines,
        stage4_tail=stage4_tail,
        estimated_tokens=estimate_tokens("\n\n".join(stages)),
    )


def _compose_stage4(lines: tuple[str, ...], tail: str,
                    left_out: int = 0) -> str:
    """Stage 4 from the history lines kept; `left_out` older lines were
    dropped to fit the prompt limit, and the text says so."""
    notice = ""
    if left_out:
        were = "adjustment was" if left_out == 1 else "adjustments were"
        notice = f"{left_out} earlier {were} left out to fit the prompt."
    if not lines:
        return ("Adjustment history:\n" + (notice or "No prior adjustments.")
                + tail)
    return ("Adjustment history (oldest first, most recent last):\n"
            + (notice + "\n" if notice else "") + "\n".join(lines) + tail)


def _without_oldest(bundle: PromptBundle, dropped: int,
                    left_out: int) -> str:
    """`bundle`'s prompt without its `dropped` oldest history lines, with
    stage 4 saying that `left_out` lines were left out."""
    stage4 = _compose_stage4(bundle.history_lines[dropped:],
                             bundle.stage4_tail, left_out)
    return "\n\n".join(bundle.stages[:3] + (stage4,) + bundle.stages[4:])


def history_free_prompt(bundle: PromptBundle) -> str:
    """`bundle`'s prompt with every history line dropped and the note for a
    full HISTORY_HORIZON of them: the longest prompt segment_prompt can
    send once it has dropped all history, for the same device, period and
    configuration lines."""
    return _without_oldest(bundle, len(bundle.history_lines),
                           HISTORY_HORIZON)


def segment_prompt(bundle: PromptBundle,
                   max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
    """The one prompt text to send for `bundle`.

    History lines are dropped oldest first until the whole prompt, with the
    note that says how many were dropped, fits `max_tokens`. A prompt still
    over the limit with no history left is returned as it is: the
    verification loop records that epoch as rejected and does not send it.
    """
    if max_tokens < 1:
        raise ConfigError(f"max_tokens must be >= 1, got {max_tokens}")
    text = bundle.joined()
    dropped = 0
    while (estimate_tokens(text) > max_tokens
           and dropped < len(bundle.history_lines)):
        dropped += 1
        text = _without_oldest(bundle, dropped, dropped)
    return text


# --- backends -----------------------------------------------------------------

class ScriptedBackend:
    """Canned responses for tests and offline runs.

    The response file is newline-delimited: one response per line, with
    literal \\n escapes for multi-line replies. Responses are served in
    order; once exhausted, the last one repeats so long runs stay
    deterministic.
    """

    def __init__(self, responses: list[str]):
        if not responses:
            raise BackendUnavailable("scripted backend has no responses")
        self.responses = list(responses)
        self.cursor = 0

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        return cls([ln.replace("\\n", "\n") for ln in lines])

    def complete(self, prompt: str) -> str:
        resp = self.responses[min(self.cursor, len(self.responses) - 1)]
        self.cursor += 1
        return resp


def urllib_post(url: str, body: bytes, headers: dict,
                timeout: float) -> tuple[int, bytes]:
    """The default RemoteBackend transport: one POST through urllib.request,
    answering (status, body). A non-2xx status is a reply with an empty
    body, not an exception."""
    # imported on first use: a run without a remote backend never loads
    # http.client or ssl
    import http.client
    import urllib.error
    import urllib.request
    req = urllib.request.Request(url, data=body, headers=headers,
                                 method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        return exc.code, b""
    except http.client.HTTPException as exc:
        # a garbled or truncated reply fails the attempt like a dropped
        # connection does
        raise urllib.error.URLError(exc) from exc


class RemoteBackend:
    """Chat-completion endpoint speaking the plain JSON protocol.

    The prompt goes out as one user message, retried up to MAX_ATTEMPTS
    times with exponential backoff. The auth token is read from the
    environment at call time and never stored. `post(url, body, headers,
    timeout)` is the transport, answering (status, body bytes); the default
    is urllib_post.
    """

    def __init__(self, endpoint: str, model: str = "gpt-4",
                 temperature: float = 0.0, auth_env: str = "LLM_API_KEY",
                 timeout_s: float = 30.0, post=urllib_post):
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.auth_env = auth_env
        self.timeout_s = timeout_s
        self.post = post

    def complete(self, prompt: str) -> str:
        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        last_error = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_S * (2 ** (attempt - 1)))
            try:
                status, reply = self.post(self.endpoint, body, headers,
                                          self.timeout_s)
                if status // 100 != 2:
                    last_error = f"HTTP {status}"
                    continue
                text = json.loads(reply)["choices"][0]["message"]["content"]
                if not isinstance(text, str) or not text:
                    last_error = f"no completion text: {text!r}"
                    continue
                return text
            # OSError covers URLError, refused connections and timeouts
            except (OSError, KeyError, IndexError, TypeError,
                    ValueError) as exc:
                last_error = repr(exc)
        raise BackendUnavailable(
            f"backend {self.endpoint} failed after {MAX_ATTEMPTS} "
            f"attempts: {last_error}")


def query_backend(backend, prompt: str) -> str:
    """Send the prompt; the backend's reply is the answer."""
    return backend.complete(prompt)


# --- response parsing ------------------------------------------------------------

_TRIPLE_FENCE = re.compile(r"```[a-zA-Z0-9_-]*\n?(.*?)```", re.S)
_SINGLE_FENCE = re.compile(r"`([^`]+)`", re.S)
_INDEX_PREFIX = re.compile(r"^\s*\d+\s*[.)]\s*")


def parse_config(raw: str) -> tuple[str, dict]:
    """Split a backend reply into (reason_text, candidate values).

    The first backtick-fenced block is the configuration; entries inside it
    are `[index.] name: value` lines separated by newlines or semicolons.
    Unknown names are dropped (logged); values keep loose types here - the
    corrector owns type and range enforcement. Everything outside the fence
    is the model's reasoning.
    """
    m = _TRIPLE_FENCE.search(raw) or _SINGLE_FENCE.search(raw)
    if m is None:
        raise ParseFailure("no backtick-fenced configuration block")
    inner = m.group(1)
    reason = (raw[:m.start()] + " " + raw[m.end():]).strip()
    candidates: dict = {}
    for chunk in re.split(r"[;\n]", inner):
        line = _INDEX_PREFIX.sub("", chunk.strip())
        if not line or ":" not in line:
            continue
        name_text, value_text = line.split(":", 1)
        canon = resolve_param_name(name_text)
        if canon is None:
            logger.debug("dropping unknown parameter %r", name_text.strip())
            continue
        candidates[canon] = parse_scalar(value_text)
    return reason, candidates


def correct_mistakes(candidates: dict, bounds: dict[str, ParamSpec],
                     current: ConfigProfile) -> tuple[ConfigProfile, list[str]]:
    """Sanitize candidate values against bounds, inheriting the rest.

    Unknown keys and type mismatches are dropped; out-of-range numbers are
    clamped to the nearest bound; stepped values snap onto their grid.
    Idempotent: feeding the resulting profile back through changes nothing.
    Raises NoValidUpdate when nothing usable remains.
    """
    accepted: dict = {}
    corrections: list[str] = []
    for name, value in candidates.items():
        spec = bounds.get(name)
        if spec is None:
            corrections.append(f"{name}: dropped (unknown parameter)")
            continue
        try:
            value = spec.convert(value)
        except ConfigError as exc:
            corrections.append(f"{name}: dropped ({exc})")
            continue
        if spec.kind == "enum":
            accepted[name] = value
            continue
        clamped = min(max(value, spec.lo), spec.hi)
        if clamped != value:
            corrections.append(f"{name}: clamped {_fmt(value)} -> {_fmt(clamped)}")
            value = clamped
        if spec.step:
            # lo and hi lie on the grid, so the nearest grid point does too
            snapped = int(round(value / spec.step)) * spec.step
            if snapped != value:
                corrections.append(f"{name}: snapped {_fmt(value)} -> {_fmt(snapped)}")
                value = snapped
        accepted[name] = value
    if not accepted:
        raise NoValidUpdate(
            "no usable parameter in candidate set"
            if candidates else "empty candidate set", corrections)
    return validate_profile(replace(current, **accepted), bounds), corrections
