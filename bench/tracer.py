"""Span tracing around the simulator's layer entry points.

The tracer wraps functions from outside the program: it replaces a class
attribute or a module-level name (in every `hybridssd` module that binds it)
with a timing wrapper, and `uninstall` puts the originals back, so untraced
runs execute the unmodified code.

Spans are aggregated in memory per name: call count, total duration and self
time (duration minus the time covered by child spans). Because every child's
duration is subtracted from exactly one parent, the self times of all spans
under a root add up to the root's duration.
"""
from __future__ import annotations

import sys
import time
from importlib import import_module

# import_module, not `import hybridssd.replay as ...`: the package rebinds
# the name `replay` to the replay() function
ftl, hotness, monitor, replay, rl, ssd, trace, tuner, verification = (
    import_module(f"hybridssd.{name}") for name in (
        "ftl", "hotness", "monitor", "replay", "rl", "ssd", "trace", "tuner",
        "verification"))

# Layer -> (owner, attribute names). These are each layer's public entry
# points. Trivial accessors called many times per flash operation (geometry
# and latency lookups, Q-value reads, slice arithmetic) stay unwrapped: their
# cost lands in the caller's self time instead of inflating tracing overhead.
LAYERS = {
    "trace": [(trace, ("load_trace", "synth_trace", "page_span"))],
    "ssd": [(ssd.SsdState, ("block_count", "valid_pages", "program_page",
                            "read_page", "invalidate_page", "erase_block",
                            "convert_block_mode"))],
    "ftl": [(ftl.FtlEngine, ("handle_write", "handle_read",
                             "free_block_count", "free_fraction", "summary",
                             "mc_eligible", "select_victim",
                             "execute_action"))],
    "hotness": [(hotness.HotnessClassifier, ("record_write", "is_hot",
                                             "maybe_classify",
                                             "reconfigure")),
                (hotness, ("classify", "kmeans"))],
    "rl": [(rl.SpaceAgent, ("choose_action", "observe_state",
                            "intensity_bucket", "train"))],
    "monitor": [(monitor.SlidingWindow, ("push", "summarize",
                                         "set_capacity"))],
    "tuner": [(tuner, ("build_prompt", "segment_prompt", "query_backend",
                       "parse_config", "correct_mistakes"))],
    "verification": [(verification.VerificationLoop, ("run_epoch",
                                                      "wants_epoch")),
                     (verification, ("measure", "should_rollback",
                                     "accuracy"))],
    "replay": [(replay.SimulatorStack, ("__init__", "service", "prefill",
                                        "apply_config", "system_info",
                                        "reset_metrics")),
               (replay, ("replay", "emit_report"))],
}

# span name -> (counter name, amount read from the span's return value)
COUNTERS = {
    "trace.page_span": ("trace.page_span_wrapped", lambda runs: len(runs) > 1),
    "ftl.execute_action": ("ftl.gc_pages_migrated",
                           lambda outcome: outcome.pages_migrated),
    "hotness.kmeans": ("hotness.kmeans_iterations", lambda res: len(res[2])),
    "tuner.build_prompt": ("tuner.prompt_tokens",
                           lambda bundle: bundle.estimated_tokens),
}


class Tracer:
    """Per-name span statistics: name -> [calls, total_s, self_s].

    COUNTERS live in the same table as [count, 0.0, 0.0], so replacing
    `stats` with a fresh dict starts a new phase for spans and counters
    alike.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._open: list[list[float]] = []   # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Run fn() as a span named `name` and return its result."""
        return self._wrapper(name, fn)()

    def _wrapper(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._open.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][0] += elapsed
                entry = tracer.stats.get(name)
                if entry is None:
                    entry = tracer.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
            if counter is not None:
                tracer._add(counter[0], counter[1](result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _add(self, name: str, amount) -> None:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += amount

    def install(self) -> None:
        for layer, owners in LAYERS.items():
            for owner, names in owners:
                for attr in names:
                    self._patch(owner, attr, f"{layer}.{attr}")

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        wrapped = self._wrapper(name, original)
        if isinstance(owner, type):
            targets = [owner]
        else:
            # a module function is also bound, by `from ... import`, in
            # every sibling module that calls it
            targets = [mod for key, mod in list(sys.modules.items())
                       if key == "hybridssd" or key.startswith("hybridssd.")]
        for target in targets:
            if getattr(target, attr, None) is original:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
