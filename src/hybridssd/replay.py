"""Closed-loop trace replay over the full management stack, plus reports.

Execution time is the sum of simulated service latencies; trace timestamps
only order requests. One SimulatorStack owns the device, FTL, classifier,
monitor, and agent, which is the FTL's action source and keeps what it
observes; the verification loop (tuned mode) drives config changes between
requests.
"""
from __future__ import annotations

import csv
import errno
import json
import math
import os
import random
import stat
import tempfile
from dataclasses import asdict, dataclass, field, replace

from .config import ConfigProfile, default_param_bounds
from .errors import ConfigError
from .ftl import ACTION_ORDER, FtlEngine, write_amplification
from .hotness import KMEANS_TOL, HotnessClassifier
from .monitor import MIN_CAPACITY, SlidingWindow
from .rl import SpaceAgent
from .ssd import (INITIAL_MODE_SPLIT, QLC, SLC, FlashGeometry, LatencyModel,
                  SsdState)
from .trace import WRITE, TraceRecord, page_span
from .tuner import DEFAULT_MAX_TOKENS
from .verification import (EpochSchedule, Marker, VerificationLoop, accuracy,
                           measure)

class SimulatorStack:
    """Device plus the full management stack under one tunable config."""

    def __init__(self, geometry: FlashGeometry, config: ConfigProfile,
                 latency: LatencyModel | None = None, seed: int = 0,
                 initial_mode_split: float = INITIAL_MODE_SPLIT,
                 kmeans_tol: float = KMEANS_TOL):
        self.geometry = geometry
        self.config = config
        self.seed = seed
        self.initial_mode_split = initial_mode_split
        self.ssd = SsdState(geometry, latency or LatencyModel(),
                            initial_mode_split)
        self.agent = SpaceAgent(random.Random(seed))
        self.ftl = FtlEngine(self.ssd, config, action_source=self.agent.act)
        self.monitor = SlidingWindow(config.window_size)
        self.classifier = HotnessClassifier(config.slice_size,
                                            geometry.page_size,
                                            kmeans_tol=kmeans_tol)
        self.total_latency_us = 0.0     # the virtual clock: never rewinds
        self.reset_metrics()
        # whether a read checks the K-means trigger: a write moves its
        # count, so otherwise only apply_config or a trigger below one
        # write can make it due between writes
        self._classify_due = True

    # --- agent training -----------------------------------------------------

    def _train_agent(self) -> None:
        # service calls this only once the period holds a request
        period = measure(self, self._train_mark)
        agent, config = self.agent, self.config
        agent.write_rate = self.monitor.summarize(config.std_dev_threshold)
        agent.train(period.mean_latency_us, agent.observe(self.ftl), config)
        self._start_training_period()

    def _start_training_period(self) -> None:
        self._train_mark = self.marker()
        self._train_due = (self._train_mark.requests
                           + self.config.rl_training_interval)

    # --- request servicing --------------------------------------------------

    def service(self, record: TraceRecord) -> float:
        """Run one trace request through the whole stack.

        Each trigger is tested only once the event that moves it has
        happened: the K-means trigger after a write (`record_write` moves
        its count) and on the first read after `apply_config`; the
        training tick after every request, against the request index it
        falls due at. The monitor and the classifier only append here; each
        folds what it was given when it is read.
        """
        spans = page_span(record, self.geometry.page_size,
                          self.ssd.logical_capacity_pages)
        us = 0.0
        is_write = record.op is WRITE
        if is_write:
            hot_any = False
            for lpn, n in spans:
                hot = self.classifier.is_hot(lpn)
                hot_any = hot_any or hot
                us += self.ftl.handle_write(lpn, n, hot)
            self.agent.push_hot_flag(hot_any)
        else:
            for lpn, n in spans:
                us += self.ftl.handle_read(lpn, n)
        self.total_latency_us += us
        now = self.total_latency_us
        self.requests += 1
        self.monitor.push(spans[0][0], is_write, now)
        if is_write:
            self.writes += 1
            for lpn, n in spans:
                self.classifier.record_write(lpn, now, n)
            self.classifier.maybe_classify(self.config, now)
        elif self._classify_due:
            self._classify_due = self.config.kmeans_trigger_threshold < 1
            self.classifier.maybe_classify(self.config, now)
        if self.requests >= self._train_due:
            self._train_agent()
        return us

    # --- configuration and measurement ------------------------------------------

    def apply_config(self, profile: ConfigProfile) -> None:
        """Swap the active profile atomically (called between requests)."""
        self.config = profile
        self.ftl.config = profile
        self.monitor.set_capacity(profile.window_size)
        self.classifier.reconfigure(profile.slice_size,
                                    self.total_latency_us)
        self._classify_due = True
        self._train_due = (self._train_mark.requests
                           + profile.rl_training_interval)

    def marker(self) -> Marker:
        """The run's counts so far, each from its start at the last
        `reset_metrics`."""
        return Marker(requests=self.requests, writes=self.writes,
                      total_latency_us=(self.total_latency_us
                                        - self.run_start_us),
                      host_pages=self.ftl.wa.host_pages_written,
                      device_pages=self.ftl.wa.device_pages_written)

    def system_info(self) -> dict:
        return {
            **asdict(self.geometry),
            "pages_per_block_qlc": self.geometry.pages_per_block_qlc,
            "logical_capacity_pages": self.ssd.logical_capacity_pages,
            "slc_blocks": self.ssd.block_count(SLC),
            "qlc_blocks": self.ssd.block_count(QLC),
            "slc_free_fraction": self.ftl.free_fraction(SLC),
            "qlc_free_fraction": self.ftl.free_fraction(QLC),
            "latency": asdict(self.ssd.latency),
        }

    # --- prefill ------------------------------------------------------------------

    def prefill(self, fraction: float) -> int:
        """Sequentially write a fraction of logical space, then zero all
        metrics; only device occupancy survives into the run, which starts
        after the fill. The fill needs an unwritten device and runs under
        the fallback policy, so the agent decides nothing."""
        if not (0.0 <= fraction <= 1.0):
            raise ConfigError("prefill fraction must be in [0, 1]")
        n = int(self.ssd.logical_capacity_pages * fraction)
        self.ftl.fill(n)
        self.reset_metrics()
        return n

    def reset_metrics(self) -> None:
        self.ftl.reset_counters()
        self.requests = self.writes = 0
        self.run_start_us = self.total_latency_us
        self._start_training_period()

    @property
    def reads(self) -> int:
        return self.requests - self.writes

    @property
    def erases(self) -> int:
        # since the run's start at the last reset, so no fill's erases
        return self.ssd.erase_ops - self.ftl.start_erases


@dataclass
class RunReport:
    """Everything a replay produced, JSON/CSV-serializable."""

    mode: str
    seed: int
    trace_ops: int
    skipped_lines: int
    geometry: dict
    config_initial: dict
    config_final: dict
    requests: int
    writes: int
    reads: int
    rejected_requests: int
    unmapped_reads: int
    total_latency_us: float
    mean_latency_us: float | None
    normalized_execution_time: float | None
    wa: float | None
    erases: int
    capacity_pressure_warnings: int
    ineffective_actions: int
    action_counts: dict
    classifications: int
    shifts_detected: int
    agent_decisions: int
    agent_trainings: int
    q_reset_warnings: int
    qtable: dict
    epochs: list = field(default_factory=list)
    epochs_run: int = 0
    accuracy: float | None = None
    sweep: list | None = None

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def _build_report(stack: SimulatorStack, mode: str, trace_ops: int,
                  skipped: int, config_initial: ConfigProfile,
                  loop: VerificationLoop | None,
                  baseline_total_us: float | None) -> RunReport:
    epochs = []
    acc = None
    if loop is not None:
        epochs = [r.to_json_dict() for r in loop.history]
        acc = accuracy(loop.history)
    total = stack.marker().total_latency_us
    normalized = None
    if baseline_total_us:
        normalized = total / baseline_total_us
    return RunReport(
        mode=mode,
        seed=stack.seed,
        trace_ops=trace_ops,
        skipped_lines=skipped,
        geometry={**asdict(stack.geometry),
                  "initial_mode_split": stack.initial_mode_split},
        config_initial=config_initial.as_dict(),
        config_final=stack.config.as_dict(),
        requests=stack.requests,
        writes=stack.writes,
        reads=stack.reads,
        rejected_requests=stack.ftl.rejected_requests,
        unmapped_reads=stack.ftl.unmapped_reads,
        total_latency_us=total,
        mean_latency_us=total / stack.requests if stack.requests else None,
        normalized_execution_time=normalized,
        wa=write_amplification(stack.ftl.wa.device_pages_written,
                               stack.ftl.wa.host_pages_written),
        erases=stack.erases,
        capacity_pressure_warnings=stack.ftl.capacity_pressure_warnings,
        ineffective_actions=stack.ftl.ineffective_actions,
        action_counts={kind.value: stack.ftl.action_counts[kind]
                       for kind in ACTION_ORDER},
        classifications=stack.classifier.generation,
        shifts_detected=stack.monitor.shifts_detected,
        agent_decisions=stack.agent.decisions,
        agent_trainings=stack.agent.trainings,
        q_reset_warnings=stack.agent.qtable.reset_warnings,
        qtable=stack.agent.qtable.to_json_dict(),
        epochs=epochs,
        epochs_run=len(epochs),
        accuracy=acc,
    )


def replay(records: list[TraceRecord], config: ConfigProfile,
           geometry: FlashGeometry, *, latency: LatencyModel | None = None,
           mode: str = "default", backend=None,
           schedule: EpochSchedule | None = None, seed: int = 0,
           initial_mode_split: float = INITIAL_MODE_SPLIT,
           kmeans_tol: float = KMEANS_TOL, prefill_fraction: float = 0.0,
           skipped_lines: int = 0,
           baseline_total_us: float | None = None,
           max_tokens: int = DEFAULT_MAX_TOKENS,
           target_note: str = "") -> RunReport:
    """Replay a trace in `default` or `tuned` mode and report.

    Tuned mode with max_epochs=0 (or no epoch firing, or every epoch
    rejected) services requests exactly like default mode: the tuner only
    ever acts between requests, through apply_config, and only an epoch
    that applies a candidate draws its probe's requests from the trace.
    """
    if mode not in ("default", "tuned"):
        raise ConfigError(f"unknown replay mode {mode!r}")
    if mode == "tuned" and backend is None:
        raise ConfigError("tuned mode needs a backend")
    stack = SimulatorStack(geometry, config, latency=latency, seed=seed,
                           initial_mode_split=initial_mode_split,
                           kmeans_tol=kmeans_tol)
    loop = None
    if mode == "tuned":
        schedule = schedule or EpochSchedule()
        if schedule.max_epochs > 0:
            loop = VerificationLoop(backend, schedule, max_tokens=max_tokens,
                                    target_note=target_note)
            loop.check_prompt_fits(stack)
    if prefill_fraction:
        stack.prefill(prefill_fraction)
    ops = iter(records)
    if loop is not None:
        max_epochs = loop.schedule.max_epochs
        monitor = stack.monitor
        for record in ops:
            stack.service(record)
            # an epoch falls due only on a write (the scheduled interval
            # counts writes) or on a shift the loop has not seen yet (a
            # training tick, perhaps inside the last probe, counted it);
            # wants_epoch spends such a shift, so it is asked at once
            if (record.op is WRITE
                    or monitor.shifts_detected != loop.shifts_seen):
                trigger = loop.wants_epoch(stack)
                if trigger:
                    # the probe draws its requests from `ops` itself
                    loop.run_epoch(stack, ops, trigger)
                    if len(loop.history) >= max_epochs:
                        break
    # no epoch can start: the rest is plain servicing
    for record in ops:
        stack.service(record)
    return _build_report(stack, mode, len(records), skipped_lines, config,
                         loop, baseline_total_us)


# --- parameter sweeps --------------------------------------------------------

SWEEP_EXTRA_PARAMS = ("kmeans_tol",)


def _scale_param(config: ConfigProfile, param: str, multiplier: float,
                 page_size: int) -> ConfigProfile:
    value = getattr(config, param)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{param} is not numeric; cannot sweep it")
    scaled = value * multiplier
    if not math.isfinite(scaled):
        raise ConfigError(f"{param} {value!r} x {multiplier!r} is not a "
                          "finite number")
    if isinstance(value, int):
        # float tunables carry no step; an integral value there snaps to 1
        step = default_param_bounds(page_size)[param].step or 1
        scaled = max(step, int(round(scaled / step)) * step)
    if param == "window_size" and scaled < MIN_CAPACITY:
        raise ConfigError(f"window_size {value!r} x {multiplier!r} is "
                          f"{scaled}, below a window's {MIN_CAPACITY} "
                          "requests")
    return replace(config, **{param: scaled})


def run_sweep(records: list[TraceRecord], config: ConfigProfile,
              geometry: FlashGeometry, param: str,
              multipliers: list[float], *, kmeans_tol: float = KMEANS_TOL,
              **settings) -> RunReport:
    """Replay the trace once per multiplier of one parameter.

    Sensitivity sweeps explore deliberately, so scaling bypasses the
    mistake-correction bounds. An integer rounds half to even (Python's
    `round`) onto its step, 1 or the page size for slice_size, and never
    falls below one step; a window_size scaled below the two requests a
    window holds is refused. Every value is checked before any replay
    runs. `kmeans_tol` sweeps the classifier tolerance, which is a stack
    setting rather than one of the tunables. Every other keyword is a
    `replay()` setting passed to each default-mode replay unchanged.

    Each row's `in_range` says whether its value lies in the tunable's
    declared range, which bounds what the tuner can apply; it is None for
    `kmeans_tol`, which declares none.
    """
    if param not in SWEEP_EXTRA_PARAMS and not hasattr(config, param):
        raise ConfigError(f"unknown sweep parameter {param!r}")
    if not multipliers:
        raise ConfigError("a sweep needs at least one multiplier")
    for m in multipliers:
        if not (m >= 0 and math.isfinite(m)):
            raise ConfigError(
                f"sweep multiplier {m!r} must be a finite number >= 0")
    # scale every value first: a bad one fails before any replay runs
    if param == "kmeans_tol":
        runs = [(config, kmeans_tol * m) for m in multipliers]
    else:
        runs = [(_scale_param(config, param, m, geometry.page_size),
                 kmeans_tol) for m in multipliers]
    spec = default_param_bounds(geometry.page_size).get(param)
    rows = []
    base_report = None
    for m, (cfg, tol) in zip(multipliers, runs):
        value = tol if param == "kmeans_tol" else getattr(cfg, param)
        rep = replay(records, cfg, geometry, mode="default", kmeans_tol=tol,
                     **settings)
        if m == 1.0:
            base_report = rep
        rows.append({
            "param": param,
            "multiplier": m,
            "value": value,
            "in_range": None if spec is None else spec.lo <= value <= spec.hi,
            "total_latency_us": rep.total_latency_us,
            "mean_latency_us": rep.mean_latency_us,
            "wa": rep.wa,
            "erases": rep.erases,
            "requests": rep.requests,
        })
    if base_report is not None:
        base = base_report.total_latency_us
        for row in rows:
            row["normalized_execution_time"] = (
                row["total_latency_us"] / base if base else None)
    anchor = base_report or replay(records, config, geometry, mode="default",
                                   kmeans_tol=kmeans_tol, **settings)
    report = anchor
    report.mode = "sweep"
    report.sweep = rows
    return report


# --- emission ------------------------------------------------------------------

def emit_report(report: RunReport, path, fmt: str = "json") -> None:
    """Write the report atomically; a failed write leaves no partial file.

    Tuning runs also get a `<stem>.history.jsonl` next to the report with one
    JSON line per epoch, so the full prompt/response exchange survives even
    when the report itself is the compact CSV form.
    """
    if fmt == "json":
        payload = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
        payload += "\n"
    elif fmt == "csv":
        payload = _to_csv(report)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    _atomic_write(path, payload)
    if report.epochs:
        lines = "".join(json.dumps(e, sort_keys=True) + "\n"
                        for e in report.epochs)
        stem, _ = os.path.splitext(str(path))
        _atomic_write(stem + ".history.jsonl", lines)


def check_report_path(path) -> None:
    """Raise OSError now if emit_report could not write `path` later, so a
    bad path fails before a long replay instead of after it."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "is a directory", str(path))
    fd, tmp = tempfile.mkstemp(dir=_report_dir(path), prefix=".report-")
    os.close(fd)
    os.unlink(tmp)


def _report_dir(path) -> str:
    return os.path.dirname(os.path.realpath(path)) or "."


def _atomic_write(path, payload: str) -> None:
    # through a symlink: the file it points to is replaced, the link stays
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".report-")
    try:
        # mkstemp makes the file 0600; a report gets the mode a plain
        # open() would give it: the one it has, or 0666 less the umask
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _to_csv(report: RunReport) -> str:
    import io
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if report.sweep is not None:
        writer.writerow(["param", "multiplier", "value", "in_range",
                         "total_latency_us", "mean_latency_us", "wa",
                         "erases", "normalized_execution_time"])
        for row in report.sweep:
            writer.writerow([row["param"], row["multiplier"], row["value"],
                             row["in_range"], row["total_latency_us"],
                             row["mean_latency_us"], row["wa"], row["erases"],
                             row.get("normalized_execution_time")])
        return out.getvalue()
    writer.writerow(["epoch", "trigger", "verdict", "latency_before_us",
                     "latency_after_us", "wa_before", "wa_after",
                     "improved_over_default", "n_corrections", "changed"])
    for e in report.epochs:
        changed = ";".join(f"{k}:{v[0]}->{v[1]}"
                           for k, v in sorted(e["changed"].items()))
        writer.writerow([e["epoch"], e["trigger"], e["verdict"],
                         e["latency_before_us"], e["latency_after_us"],
                         e["wa_before"], e["wa_after"],
                         e["improved_over_default"], len(e["corrections"]),
                         changed])
    return out.getvalue()
