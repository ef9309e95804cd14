"""Tuning epochs: measure, retune, probe, and roll back harmful changes.

An epoch fires every tuning_interval host writes, or early when the
monitor's shift count has grown since the loop's previous check (at most one
shift epoch per interval; a shift seen while that limit holds is spent, not
saved for later). It measures the period just ended, asks the backend for a
new configuration, applies it, replays an investigation period under the new
profile, and keeps the change only if the probe did not degrade mean latency
beyond the threshold. The virtual clock never advances while the backend
call is in flight.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

from .config import default_param_bounds
from .errors import BackendUnavailable, ConfigError, NoValidUpdate, ParseFailure
from .ftl import write_amplification
from .tuner import (TuningRecord, Verdict, build_prompt, correct_mistakes,
                    estimate_tokens, history_free_prompt, parse_config,
                    query_backend, segment_prompt, DEFAULT_MAX_TOKENS)


@dataclass(frozen=True)
class PerfSnapshot:
    """Aggregate performance over a measured span of requests."""

    mean_latency_us: float
    wa: float
    requests: int


# the stand-in for a period that serviced no request
EMPTY_PERIOD = PerfSnapshot(0.0, 1.0, 0)


@dataclass(frozen=True)
class Marker:
    """Counter snapshot delimiting a measurement span."""

    requests: int
    writes: int
    total_latency_us: float
    host_pages: int
    device_pages: int


@dataclass(frozen=True)
class EpochSchedule:
    tuning_interval_writes: int = 100000
    investigation_ops: int = 10000
    degradation_threshold: float = 0.05   # rollback above prev * (1 + this)
    max_epochs: int = 30

    def __post_init__(self):
        if self.tuning_interval_writes < 1 or self.investigation_ops < 1:
            raise ConfigError("schedule intervals must be >= 1")
        if self.investigation_ops > self.tuning_interval_writes:
            raise ConfigError(
                "investigation period cannot exceed the tuning interval")
        if not self.degradation_threshold >= 0:     # NaN included
            raise ConfigError("degradation threshold must be >= 0")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be >= 0")


def measure(stack, since: Marker) -> PerfSnapshot | None:
    """Performance over everything serviced after `since`; None if that
    is nothing."""
    now = stack.marker()
    n = now.requests - since.requests
    if n <= 0:
        return None
    wa = write_amplification(now.device_pages - since.device_pages,
                             now.host_pages - since.host_pages)
    return PerfSnapshot(
        mean_latency_us=(now.total_latency_us - since.total_latency_us) / n,
        wa=1.0 if wa is None else wa,
        requests=n,
    )


def should_rollback(prev: PerfSnapshot, probe: PerfSnapshot,
                    degradation_threshold: float) -> bool:
    """True when the probe degraded mean latency beyond the allowance.

    Strictly greater: a probe at exactly prev * (1 + threshold) survives.
    """
    return probe.mean_latency_us > prev.mean_latency_us * (1.0 + degradation_threshold)


def accuracy(history: list[TuningRecord]) -> float | None:
    """Fraction of adjustments that actually improved on the default config.

    Numerator: accepted (incl. corrected) epochs that improved; denominator:
    every epoch where an adjustment took effect or was rolled back. Rejected
    epochs changed nothing and are excluded entirely; None if no epoch is
    left.
    """
    adjusted = [r for r in history
                if r.verdict in (Verdict.ACCEPTED, Verdict.CORRECTED,
                                 Verdict.ROLLED_BACK)]
    if not adjusted:
        return None
    good = sum(1 for r in adjusted
               if r.verdict in (Verdict.ACCEPTED, Verdict.CORRECTED)
               and r.improved_over_default)
    return good / len(adjusted)


class VerificationLoop:
    """Schedules tuning epochs and guards them with probe-and-rollback."""

    def __init__(self, backend, schedule: EpochSchedule,
                 max_tokens: int = DEFAULT_MAX_TOKENS,
                 target_note: str = ""):
        self.backend = backend
        self.schedule = schedule
        self.max_tokens = max_tokens
        self.target_note = target_note
        self.history: list[TuningRecord] = []
        self.baseline: PerfSnapshot | None = None   # default-config reference
        self.cycle_marker = Marker(0, 0, 0.0, 0, 0)
        self.shift_epoch_this_interval = False
        self.shifts_seen = 0        # the monitor's count at the last check

    def check_prompt_fits(self, stack) -> None:
        """Raise ConfigError unless `max_tokens` holds an epoch prompt with
        every history line left out, so a hopeless limit fails before the
        run starts. The check uses an empty last period; an epoch whose
        wider numbers still overflow the limit is rejected unsent."""
        bundle = self._bundle(stack, EMPTY_PERIOD, [])
        needed = estimate_tokens(history_free_prompt(bundle))
        if needed > self.max_tokens:
            raise ConfigError(
                f"max_tokens {self.max_tokens} cannot hold the tuning prompt "
                f"even with every history line left out (~{needed} tokens)")

    def _bundle(self, stack, prev: PerfSnapshot, history):
        """The prompt stages an epoch builds after measuring `prev`."""
        info = stack.system_info()
        info["last_period"] = {
            "mean_latency_us": prev.mean_latency_us,
            "requests": prev.requests,
            "wa": prev.wa,
        }
        return build_prompt(info, history, stack.config, self.target_note)

    # --- scheduling -------------------------------------------------------------

    def wants_epoch(self, stack) -> str | None:
        """Returns a trigger name if an epoch should start now. Every call
        spends the shifts the monitor detected since the previous one.
        Only a write (the interval counts writes) or a shift not yet seen
        can make the answer other than None, so `replay` asks only then,
        and not at all once `max_epochs` epochs ran."""
        shifts = stack.monitor.shifts_detected
        shifted = shifts > self.shifts_seen
        self.shifts_seen = shifts
        if len(self.history) >= self.schedule.max_epochs:
            return None
        writes_since = stack.writes - self.cycle_marker.writes
        if writes_since >= self.schedule.tuning_interval_writes:
            return "scheduled"
        if shifted and not self.shift_epoch_this_interval:
            return "shift"
        return None

    # --- the epoch itself ------------------------------------------------------------

    def run_epoch(self, stack, ops, trigger: str) -> TuningRecord:
        """One full tune-probe-verify cycle.

        `ops` is the iterator over the trace requests not yet serviced; the
        probe services the next `investigation_ops` of them (fewer if the
        trace ends) under the candidate configuration. A rejected epoch
        draws none.
        """
        record = self._run_epoch(stack, ops, trigger)
        self.history.append(record)
        self.shift_epoch_this_interval = trigger == "shift"
        self.cycle_marker = stack.marker()
        return record

    def _run_epoch(self, stack, ops, trigger: str) -> TuningRecord:
        prev = measure(stack, self.cycle_marker) or EMPTY_PERIOD
        if self.baseline is None:
            self.baseline = prev
        prompt_text = segment_prompt(
            self._bundle(stack, prev, self.history), self.max_tokens)
        config_before = stack.config.as_dict()
        raw = None
        failure = None
        dropped = []
        tokens = estimate_tokens(prompt_text)
        if tokens > self.max_tokens:
            failure = (f"the prompt needs ~{tokens} tokens with every history "
                       f"line left out, over max_tokens {self.max_tokens}")
        else:
            try:
                raw = query_backend(self.backend, prompt_text)
                reason, candidates = parse_config(raw)
                new_profile, corrections = correct_mistakes(
                    candidates, default_param_bounds(stack.geometry.page_size),
                    stack.config)
            except (BackendUnavailable, ParseFailure, NoValidUpdate) as exc:
                # only the text: the traceback holds this frame, and so the
                # stack, in a cycle
                failure = str(exc)
                if isinstance(exc, NoValidUpdate):
                    dropped = exc.corrections
        record = partial(
            TuningRecord, epoch=len(self.history) + 1, trigger=trigger,
            latency_before_us=prev.mean_latency_us, wa_before=prev.wa,
            raw_response=raw, prompt=prompt_text,
            config_before=config_before)
        if failure is not None:
            return record(verdict=Verdict.REJECTED,
                          reason=f"rejected: {failure}",
                          corrections=tuple(dropped))
        old_profile = stack.config
        changed = {name: (getattr(old_profile, name), getattr(new_profile, name))
                   for name in old_profile.as_dict()
                   if getattr(old_profile, name) != getattr(new_profile, name)}
        stack.apply_config(new_profile)
        probe_marker = stack.marker()
        for op in islice(ops, self.schedule.investigation_ops):
            stack.service(op)
        probe = measure(stack, probe_marker)
        if probe is None:
            # nothing left to probe with: keep the safe prior profile
            stack.apply_config(old_profile)
            return record(
                verdict=Verdict.ROLLED_BACK,
                reason="rolled back: no operations left to probe with",
                corrections=tuple(corrections), changed=changed,
                config_after=new_profile.as_dict())
        improved = probe.mean_latency_us < self.baseline.mean_latency_us
        if should_rollback(prev, probe, self.schedule.degradation_threshold):
            stack.apply_config(old_profile)
            verdict = Verdict.ROLLED_BACK
        elif corrections:
            verdict = Verdict.CORRECTED
        else:
            verdict = Verdict.ACCEPTED
        return record(
            verdict=verdict, reason=reason,
            corrections=tuple(corrections), changed=changed,
            latency_after_us=probe.mean_latency_us, wa_after=probe.wa,
            improved_over_default=improved,
            config_after=new_profile.as_dict())
