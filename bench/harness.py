"""Episodes, output checks and metrics of the hybridssd benchmark.

An episode is one closed-loop replay as a user runs it: generate or ingest
the trace, call `hybridssd.replay.replay` (which builds the stack and
prefills), then write the report with `emit_report`. Trace timestamps only
order requests; there is no request rate. Everything runs in this one
process, without threads.

A run replays the workload's input variants in cycles, each variant once
per cycle, until its time is up. Simulated outputs pool the variants of one
cycle; host timings are medians over all episodes.

Shared hosts change speed by tens of percent within seconds and by up to 2x
over minutes. So each episode is bracketed by a fixed pure-Python speed
probe, and the end-to-end host timings are reported at reference speed:
measured value scaled by PROBE_REF_S over the episode's probe time. The
measured values are printed beside them.
"""
from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The benchmark measures the sources of the checkout it sits in and nothing
# else: a missing tree must fail, not fall back to an installed copy.
if not (SRC / "hybridssd" / "__init__.py").is_file():
    raise ImportError(f"simulator sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import hybridssd  # noqa: E402
from hybridssd.config import ConfigProfile  # noqa: E402
from hybridssd.errors import SimulatorError  # noqa: E402
from hybridssd.ftl import ActionKind  # noqa: E402
from hybridssd.replay import SimulatorStack  # noqa: E402

from tracer import Tracer  # noqa: E402
from tracer import replay as replay_mod, trace as trace_mod  # noqa: E402
from workloads import Workload  # noqa: E402

if Path(hybridssd.__file__).resolve().parent != SRC / "hybridssd":
    raise ImportError(f"hybridssd imported from {hybridssd.__file__}, "
                      f"not from {SRC}")

WORKDIR = Path(__file__).resolve().parent / ".work"
VERDICTS = ("accepted", "corrected", "rolled_back", "rejected")


class _Slot:
    __slots__ = ("mode", "key")

    def __init__(self, i: int):
        self.mode = i % 4
        self.key = i


_PROBE_SLOTS = [_Slot(i) for i in range(16384)]
# median probe time on the host the baseline was recorded on (2 vCPU,
# Python 3.11.7); any fixed value would do, it only sets the scale
PROBE_REF_S = 0.025


def probe_s() -> float:
    """Host seconds for a fixed mix of the simulator's kinds of work:
    attribute scans over a block list, dict stores and lookups, tuples.
    The cyclic collector is off meanwhile, so the time does not depend on
    what else the process holds."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for rnd in range(15):
            n = sum(1 for slot in _PROBE_SLOTS if slot.mode == rnd % 4)
            for slot in _PROBE_SLOTS[:4096]:
                table[slot.key] = (slot.key, n)
                table.get(slot.key + rnd)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Recorder:
    """Observes SimulatorStack.service for one episode: the host time of the
    first request, every request's simulated latency, and the stack."""

    def __init__(self, on_first=None):
        self.first_request_t: float | None = None
        self.latencies: list[float] = []
        self.stack: SimulatorStack | None = None
        self.device_pages_at_start = 0
        self._on_first = on_first
        self._original = None

    def install(self) -> None:
        original = self._original = SimulatorStack.__dict__["service"]
        recorder = self

        def service(stack, record):
            if recorder.first_request_t is None:
                recorder.first_request_t = time.perf_counter()
                recorder.stack = stack
                recorder.device_pages_at_start = stack.ssd.device_pages_written
                if recorder._on_first is not None:
                    recorder._on_first()
            us = original(stack, record)
            recorder.latencies.append(us)
            return us

        SimulatorStack.service = service

    def uninstall(self) -> None:
        SimulatorStack.service = self._original


@dataclass
class Episode:
    variant: int
    setup_s: float              # episode start -> first request
    replay_s: float             # first request -> report written
    total_s: float
    attempted: int              # trace records
    serviced: int
    latencies: list             # simulated latency of each serviced request
    scale: float = 1.0          # PROBE_REF_S / probe time around the episode
    rejected: int = 0
    device_pages: int = 0
    host_pages: int = 0
    erases: int = 0
    digest: str = "none"        # sha256 of the emitted JSON report
    error: str | None = None
    failures: list = field(default_factory=list)
    skipped: int = 0
    report: dict = field(default_factory=dict)    # see report_summary
    spans: dict = field(default_factory=dict)     # traced, from 1st request
    setup_spans: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.rejected + (self.attempted - self.serviced)

    @property
    def req_per_s(self) -> float:
        return self.serviced / self.replay_s if self.replay_s > 0 else 0.0

    @property
    def ref_req_per_s(self) -> float:
        return self.req_per_s / self.scale

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s * self.scale


def run_episode(workload: Workload, variant: int, load, *,
                tracer: Tracer | None = None, audit: bool = False) -> Episode:
    """Replay one input variant; check its outputs; drop the stack."""
    report_path = WORKDIR / f"report-{workload.name}-{variant}.json"
    holder: dict = {}

    def start_requests_phase():
        if tracer is not None:
            holder["setup_spans"] = tracer.stats
            tracer.stats = {}

    def body():
        records, skipped = load()
        holder["records"], holder["skipped"] = records, skipped
        try:
            holder["report"] = replay_mod.replay(
                records, ConfigProfile(), workload.geometry,
                skipped_lines=skipped, **workload.replay_kwargs())
            replay_mod.emit_report(holder["report"], report_path)
        except SimulatorError as exc:
            holder["error"] = f"{type(exc).__name__}: {exc}"

    recorder = Recorder(start_requests_phase)
    gc.collect()
    probe_before = probe_s()
    recorder.install()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        if tracer is not None:
            tracer.span("bench.episode", body)
        else:
            body()
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
        recorder.uninstall()

    first = recorder.first_request_t or end
    records, report, stack = holder["records"], holder.get("report"), \
        recorder.stack
    ep = Episode(variant=variant, setup_s=first - start, replay_s=end - first,
                 total_s=end - start, attempted=len(records),
                 serviced=len(recorder.latencies),
                 latencies=recorder.latencies,
                 error=holder.get("error"), skipped=holder["skipped"])
    if stack is not None:
        ep.rejected = stack.ftl.rejected_requests
        ep.device_pages = stack.ftl.wa.device_pages_written
        ep.host_pages = stack.ftl.wa.host_pages_written
        ep.erases = stack.erases
    if report is not None:
        ep.digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
        report_path.unlink()
        ep.report = report_summary(report)
    ep.failures = check_outputs(workload, records, recorder, report, ep.error)
    if audit and stack is not None:
        try:
            stack.ssd.audit()
        except SimulatorError as exc:
            ep.failures.append(f"audit: {exc}")
    if tracer is not None:
        ep.setup_spans = holder.get("setup_spans", {})
        ep.spans = tracer.stats
        ep.failures.extend(span_sum_failures(ep))
    del stack, report, recorder, holder, records
    gc.collect()   # the stack holds reference cycles; free it before the next
    # both probes run with the stack freed and collected
    ep.scale = 2 * PROBE_REF_S / (probe_before + probe_s())
    return ep


def report_summary(report) -> dict:
    """The report fields the per-layer metrics read."""
    verdicts = [e["verdict"] for e in report.epochs]
    return {
        "actions_attempted": sum(report.action_counts[k.value]
                                 for k in ActionKind
                                 if k is not ActionKind.IDLE),
        "ineffective_actions": report.ineffective_actions,
        "capacity_pressure_warnings": report.capacity_pressure_warnings,
        "shifts": report.shifts_detected,
        **{f"verdict_{v}": verdicts.count(v) for v in VERDICTS},
        "accuracy": report.accuracy,
    }


def _sum(values) -> float:
    """Left-to-right float sum, the order the simulator accumulates in."""
    total = 0.0
    for v in values:
        total += v
    return total


def check_outputs(workload: Workload, records, recorder: Recorder, report,
                  error: str | None) -> list[str]:
    """Cross-checks of the simulator's outputs; returns what failed."""
    stack = recorder.stack
    if stack is None:
        return [] if error else ["no request was serviced"]
    failures = []
    total = _sum(recorder.latencies)
    if total != stack.total_latency_us:
        failures.append(f"per-request latencies sum to {total!r}, stack "
                        f"total is {stack.total_latency_us!r}")
    wa = stack.ftl.wa
    device = stack.ssd.device_pages_written - recorder.device_pages_at_start
    if wa.device_pages_written != device:
        failures.append(f"FTL counts {wa.device_pages_written} device pages, "
                        f"flash programmed {device}")
    if error is not None:
        return failures
    host = sum(n for r in records if r.op is trace_mod.OpKind.WRITE
               for _, n in trace_mod.page_span(
                   r, workload.geometry.page_size,
                   stack.ssd.logical_capacity_pages))
    if wa.host_pages_written != host:
        failures.append(f"FTL counts {wa.host_pages_written} host pages, "
                        f"trace writes {host}")
    if report is None:
        return failures + ["replay returned no report"]
    return failures + report_failures(report, recorder.latencies,
                                      len(records), wa, stack.erases)


def report_failures(report, latencies: list, records: int, wa,
                    erases: int) -> list[str]:
    """Does the report agree with what was observed during the replay?"""
    failures = []
    if not (report.requests == len(latencies) == records):
        failures.append(f"{records} records, {len(latencies)} serviced, "
                        f"report says {report.requests}")
    total = _sum(latencies)
    if report.total_latency_us != total:
        failures.append(f"report total_latency_us {report.total_latency_us!r}"
                        f" != sum of request latencies {total!r}")
    expected_wa = (wa.device_pages_written / wa.host_pages_written
                   if wa.host_pages_written else None)
    if report.wa != expected_wa:
        failures.append(f"report wa {report.wa!r} != FTL counters "
                        f"{expected_wa!r}")
    if report.erases != erases:
        failures.append(f"report erases {report.erases} != {erases}")
    return failures


def span_sum_failures(ep: Episode) -> list[str]:
    """Self times of all spans, the episode's own remainder included, must
    add up to the traced episode's duration."""
    attributed = sum(entry[2] for stats in (ep.setup_spans, ep.spans)
                     for entry in stats.values())
    root = ep.spans.get("bench.episode") or ep.setup_spans["bench.episode"]
    gap = abs(attributed - root[1])
    if gap > 1e-6 * max(root[1], 1.0):
        return [f"span self times miss the episode time by {gap:.3g} s"]
    return []


def check_repeat(ep: Episode, first: dict[int, Episode]) -> None:
    """Every episode of one input variant must give the same report and the
    same per-request latencies. Repeats then drop their latencies, so that
    memory does not grow with the number of episodes."""
    ref = first.setdefault(ep.variant, ep)
    if ref is ep:
        return
    if ep.digest != ref.digest or ep.latencies != ref.latencies:
        ep.failures.append(f"variant {ep.variant} replayed differently "
                           f"({ep.digest[:12]} vs {ref.digest[:12]})")
    ep.latencies = []


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def pooled_sim(cycle: list[Episode]) -> dict:
    """Simulated outputs over one cycle, i.e. every input variant once."""
    latencies = [us for ep in cycle for us in ep.latencies]
    host = sum(ep.host_pages for ep in cycle)
    return {
        "mean_latency_us": _sum(latencies) / len(latencies) if latencies
        else 0.0,
        "p99_latency_us": p99(latencies) if latencies else 0.0,
        "samples": len(latencies),
        "wa": sum(ep.device_pages for ep in cycle) / host if host else 1.0,
        "erases": sum(ep.erases for ep in cycle),
        "digest": hashlib.sha256(
            "".join(ep.digest for ep in cycle).encode()).hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the two kinds of run ---------------------------------------------------

def run_cycles(seconds: float):
    """Yields cycle numbers while another cycle, as long as the last one,
    would end no later than half a cycle past `seconds`; at least one."""
    start = time.perf_counter()
    cycle_s = 0.0
    n = 0
    while n == 0 or time.perf_counter() - start + cycle_s / 2 < seconds:
        began = time.perf_counter()
        yield n
        cycle_s = time.perf_counter() - began
        n += 1


def measure(workload: Workload, loads: list, seconds: float) -> tuple:
    """Untraced cycles for about `seconds`. Returns (episodes, pooled
    simulated outputs, end-to-end metrics)."""
    episodes, first = [], {}
    for _ in run_cycles(seconds):
        for variant, load in enumerate(loads):
            episodes.append(run_episode(workload, variant, load))
            check_repeat(episodes[-1], first)
    sim = pooled_sim(episodes[:len(loads)])
    metrics = {
        "req_per_s": (statistics.median(e.ref_req_per_s for e in episodes),
                      "1/s"),
        "setup_s": (statistics.median(e.ref_setup_s for e in episodes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_mean_latency_us": (sim["mean_latency_us"], "sim_us"),
        "sim_p99_latency_us": (sim["p99_latency_us"], "sim_us"),
        "sim_wa": (sim["wa"], "ratio"),
    }
    return episodes, sim, metrics


def measure_traced(workload: Workload, loads: list, seconds: float) -> tuple:
    """Cycles of an untraced then a traced episode per variant, for about
    `seconds`. The device is audited once, after the first traced episode.
    Returns (episodes, pooled simulated outputs, per-layer metrics averaged
    per cycle)."""
    plain, traced, first = [], [], {}
    for _ in run_cycles(seconds):
        for variant, load in enumerate(loads):
            plain.append(run_episode(workload, variant, load))
            traced.append(run_episode(workload, variant, load,
                                      tracer=Tracer(), audit=not traced))
            check_repeat(plain[-1], first)
            check_repeat(traced[-1], first)
    cycles = len(traced) // len(loads)
    metrics = per_layer_metrics(traced, plain, cycles)
    metrics["trace_overhead_pct"] = (
        (sum(e.total_s * e.scale for e in traced)
         / sum(e.total_s * e.scale for e in plain) - 1.0) * 100.0, "%")
    return plain + traced, pooled_sim(plain[:len(loads)]), metrics


# Per-layer metrics read straight from the span table: calls and self time,
# calls only, or self time only.
CALLS_AND_SELF = ("ssd.block_count", "ftl.handle_write", "ftl.handle_read",
                  "ftl.select_victim", "ftl.execute_action",
                  "hotness.classify", "rl.train", "monitor.summarize",
                  "verification.run_epoch")
CALLS_ONLY = ("ssd.program_page", "ssd.read_page", "ssd.erase_block",
              "ssd.convert_block_mode", "rl.choose_action",
              "tuner.query_backend")
SELF_ONLY = ("hotness.record_write", "hotness.is_hot", "hotness.kmeans",
             "rl.observe_state", "rl.intensity_bucket", "monitor.push",
             "tuner.build_prompt", "tuner.segment_prompt",
             "tuner.parse_config", "tuner.correct_mistakes", "replay.service")
LAYER_NAMES = ("trace", "ssd", "ftl", "hotness", "rl", "monitor", "tuner",
               "verification", "replay")
FLASH_OPS = ("ssd.program_page", "ssd.read_page", "ssd.erase_block")


def _merge(tables) -> dict:
    out: dict[str, list] = {}
    for table in tables:
        for name, (calls, total, self_s) in table.items():
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
    return out


def per_layer_metrics(traced: list[Episode], plain: list[Episode],
                      cycles: int) -> dict:
    """Per-layer figures for one cycle: counts from the traced episodes
    (exact, since every cycle repeats them) and times averaged over
    cycles. Span figures count from the first request on; set-up spans
    appear only as replay.prefill_s, replay.stack_init_s and
    trace.load_trace_s."""
    req = _merge(e.spans for e in traced)
    setup = _merge(e.setup_spans for e in traced)

    def calls(name):
        return req.get(name, [0])[0] // cycles

    def self_s(name):
        return req.get(name, [0, 0.0, 0.0])[2] / cycles

    def setup_total_s(name):
        return setup.get(name, [0, 0.0])[1] / cycles

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in CALLS_ONLY:
        m[f"{name}.calls"] = (calls(name), "count")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (self_s(name), "s")
    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = (sum(
            entry[2] for name, entry in req.items()
            if name.startswith(layer + ".")) / cycles, "s")
    flash_ops = sum(calls(name) for name in FLASH_OPS)
    replay_s = sum(e.replay_s for e in plain) / cycles
    # untraced host time per simulated flash operation
    m["host_ns_per_flash_op"] = (
        replay_s / flash_ops * 1e9 if flash_ops else 0.0, "ns")

    one_cycle = [e.report for e in traced[:len(traced) // cycles]]

    def reported(key):
        return sum(r.get(key, 0) for r in one_cycle)

    attempted = reported("actions_attempted")
    m["ftl.actions_attempted"] = (attempted, "count")
    m["ftl.actions_effective_ratio"] = (
        1.0 - reported("ineffective_actions") / attempted if attempted
        else 0.0, "ratio")
    m["ftl.gc_pages_migrated"] = (calls("ftl.gc_pages_migrated"), "count")
    m["ftl.capacity_pressure_warnings"] = (
        reported("capacity_pressure_warnings"), "count")
    m["replay.prefill_s"] = (setup_total_s("replay.prefill"), "s")
    m["replay.stack_init_s"] = (setup_total_s("replay.__init__"), "s")
    m["replay.emit_report_s"] = (
        req.get("replay.emit_report", [0, 0.0])[1] / cycles, "s")
    m["trace.load_trace_s"] = (setup_total_s("trace.load_trace"), "s")
    m["trace.records"] = (sum(e.attempted for e in traced) // cycles, "count")
    m["trace.skipped"] = (sum(e.skipped for e in traced) // cycles, "count")
    m["trace.page_span_wrapped"] = (calls("trace.page_span_wrapped"),
                                    "count")
    m["hotness.kmeans_iterations"] = (calls("hotness.kmeans_iterations"),
                                      "count")
    m["monitor.shifts"] = (reported("shifts"), "count")
    m["tuner.prompt_tokens"] = (calls("tuner.prompt_tokens"), "tokens")
    for verdict in VERDICTS:
        m[f"verification.verdict_{verdict}"] = (
            reported(f"verdict_{verdict}"), "count")
    graded = [r["accuracy"] for r in one_cycle
              if r.get("accuracy") is not None]
    m["verification.accuracy"] = (
        statistics.fmean(graded) if graded else 0.0, "ratio")
    m["traced_episode_s"] = (sum(e.total_s for e in traced) / cycles, "s")
    m["setup_traced_s"] = (sum(e.setup_s for e in traced) / cycles, "s")
    m["unattributed_s"] = (
        _merge([req, setup]).get("bench.episode", [0, 0.0, 0.0])[2] / cycles,
        "s")
    return m
