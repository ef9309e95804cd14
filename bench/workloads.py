"""The benchmark's workloads: device shape, starting state and input trace.

Inputs are generated from the seed alone; the simulator only ever sees the
generated trace records (or the MSR-format file written for it) and, in
tuned mode, the scripted replies in `replies.txt`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import hybridssd.trace as trace
from hybridssd.ssd import FlashGeometry, LatencyModel, SsdState
from hybridssd.tuner import ScriptedBackend
from hybridssd.verification import EpochSchedule

REPLIES = Path(__file__).resolve().parent / "replies.txt"

# The simulator's own random stream (the agent's exploration) keeps the CLI
# default; the benchmark seed changes the inputs only.
SIM_SEED = 0
# share of blocks that start in SLC mode, the CLI default
MODE_SPLIT = 0.25

# Windows FILETIME-style 100 ns ticks, as in the MSR Cambridge traces
MSR_EPOCH_TICKS = 128166372000000000


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    geometry: FlashGeometry
    requests: int               # trace records replayed per episode
    prefill: float = 0.0
    tuned: bool = False
    # A run replays this many input traces, all derived from its --seed, so
    # that its results do not hinge on one draw of the trace generator.
    variants: int = 4

    @property
    def start(self) -> str:
        """Starting state of the device."""
        return f"prefilled {self.prefill}" if self.prefill else "empty"

    def inputs(self, seed: int, workdir: Path) -> list:
        """One load() per input variant; each call yields (records, skipped
        lines). msr_tuned's trace files are written here, once per run."""
        pages = SsdState(self.geometry, LatencyModel(),
                         MODE_SPLIT).logical_capacity_pages
        return [self._source(seed * self.variants + i, pages, workdir)
                for i in range(self.variants)]

    def _source(self, trace_seed: int, pages: int, workdir: Path):
        if not self.tuned:
            return lambda: (trace.synth_trace(
                self.requests, pages, self.geometry.page_size,
                hot_fraction=0.9, hot_region_fraction=0.1, write_ratio=0.7,
                seed=trace_seed, size_pages=1), 0)
        path = workdir / f"msr-{trace_seed}.csv"
        write_msr_trace(path, self.requests, pages,
                        self.geometry.page_size, trace_seed)
        return lambda: trace.load_trace(path, "msr")

    def replay_kwargs(self) -> dict:
        kwargs = dict(seed=SIM_SEED, initial_mode_split=MODE_SPLIT,
                      prefill_fraction=self.prefill)
        if self.tuned:
            kwargs.update(
                mode="tuned", backend=ScriptedBackend.from_file(REPLIES),
                schedule=EpochSchedule(tuning_interval_writes=500,
                                       investigation_ops=300, max_epochs=4))
        return kwargs


def write_msr_trace(path: Path, requests: int, logical_pages: int,
                    page_size: int, seed: int) -> None:
    """An MSR-Cambridge-format CSV: ~30% writes of 1-8 pages at offsets
    that are 512 B-aligned but not page-aligned. 80% of requests fall in a
    hot extent of 2% of the device, so most reads find written data; the
    rest spread over 105% of capacity, so a few wrap around the end."""
    rng = random.Random(seed)
    hot_pages = max(1, logical_pages // 50)
    span_pages = logical_pages * 105 // 100
    ticks = MSR_EPOCH_TICKS
    lines = []
    for _ in range(requests):
        ticks += 1 + int(rng.expovariate(1.0 / 1000.0))
        kind = "Write" if rng.random() < 0.3 else "Read"
        if rng.random() < 0.8:
            lpn = rng.randrange(hot_pages)
        else:
            lpn = rng.randrange(span_pages)
        head = 512 * rng.randrange(page_size // 512)
        pages = rng.randint(1, 8)
        # size keeps the request within `pages` pages despite the offset
        size = 512 * rng.randint(1, (pages * page_size - head) // 512)
        latency = rng.randint(50, 5000)
        lines.append(f"{ticks},hm,0,{kind},{lpn * page_size + head},"
                     f"{size},{latency}\n")
    path.write_text("".join(lines), encoding="utf-8")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fresh_default",
        geometry=FlashGeometry(),
        requests=1000),
    Workload(
        name="gc_steady",
        geometry=FlashGeometry(channels=8, blocks_per_channel=32,
                               pages_per_block_slc=32),
        # The first 500 requests after the fill, with the agent untrained:
        # longer episodes reach steady GC, but there the agent's course, and
        # with it WA and latency, differs so much between input traces that
        # the figures of one 30 s run vary beyond the benchmark's bounds.
        requests=500,
        prefill=0.9,
        variants=8),
    Workload(
        name="msr_tuned",
        geometry=FlashGeometry(channels=8, blocks_per_channel=64,
                               pages_per_block_slc=32),
        requests=8000,
        tuned=True),
)}
