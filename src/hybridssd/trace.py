"""Trace ingestion (MSR-style and friends) and synthetic workloads.

Every supported text format is declared as a small column adapter; parsing
is one generic routine. Records normalize to an op plus a byte offset and
size; a trace's timestamps only put its requests in order and are dropped
after the sort.
"""
from __future__ import annotations

import enum
import logging
import math
import random
from dataclasses import dataclass, field
from operator import itemgetter

logger = logging.getLogger(__name__)


class OpKind(enum.Enum):
    READ = "read"
    WRITE = "write"


# members bound once for the hot paths, as ssd.SLC/QLC are
READ, WRITE = OpKind.READ, OpKind.WRITE


@dataclass(frozen=True, slots=True, init=False)
class TraceRecord:
    op: OpKind
    offset: int          # bytes
    size: int            # bytes

    def __init__(self, op: OpKind, offset: int, size: int):
        # set through the slots' own descriptors: the generated frozen
        # __init__ pays ~0.5 us a record for three object.__setattr__
        # calls, and a named tuple, as cheap to build, reads its fields
        # ~3x slower on the replay path
        _SET_OP(self, op)
        _SET_OFFSET(self, offset)
        _SET_SIZE(self, size)


_SET_OP, _SET_OFFSET, _SET_SIZE = (vars(TraceRecord)[name].__set__
                                   for name in ("op", "offset", "size"))


@dataclass(frozen=True)
class FormatSpec:
    """Column adapter for one delimited trace format."""

    delimiter: str | None            # None = any whitespace
    ts_col: int
    op_col: int
    offset_col: int
    size_col: int
    ts_scale_us: float               # multiply raw timestamp into us
    offset_scale: int                # multiply raw offset into bytes
    size_scale: int
    read_values: frozenset
    write_values: frozenset
    # fields a line must split into: one past the highest column read
    columns: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", 1 + max(
            self.ts_col, self.op_col, self.offset_col, self.size_col))


# Column layouts:
# msr:  Timestamp(100ns ticks),Hostname,DiskNumber,Type,Offset(B),Size(B),ResponseTime
# fiu:  timestamp(s) pid process lba(512B sectors) size(512B blocks) op ...
# oltp: ASU,LBA(512B blocks),Size(B),Opcode,Timestamp(s)
FORMATS: dict[str, FormatSpec] = {
    "msr": FormatSpec(
        delimiter=",", ts_col=0, op_col=3, offset_col=4,
        size_col=5, ts_scale_us=0.1, offset_scale=1, size_scale=1,
        read_values=frozenset({"read", "r"}),
        write_values=frozenset({"write", "w"})),
    "fiu": FormatSpec(
        delimiter=None, ts_col=0, op_col=5, offset_col=3,
        size_col=4, ts_scale_us=1e6, offset_scale=512, size_scale=512,
        read_values=frozenset({"r", "read"}),
        write_values=frozenset({"w", "write"})),
    "oltp": FormatSpec(
        delimiter=",", ts_col=4, op_col=3, offset_col=1,
        size_col=2, ts_scale_us=1e6, offset_scale=512, size_scale=1,
        read_values=frozenset({"r", "read"}),
        write_values=frozenset({"w", "write"})),
}


def parse_trace_line(spec: FormatSpec,
                     line: str) -> tuple[float, TraceRecord] | None:
    """(timestamp in us, record), or None for anything malformed (non-finite
    or overflowing numbers included)."""
    parts = (line.split(spec.delimiter) if spec.delimiter
             else line.split())
    if len(parts) < spec.columns:
        return None
    try:
        ts = float(parts[spec.ts_col]) * spec.ts_scale_us
        offset = int(float(parts[spec.offset_col])) * spec.offset_scale
        size = int(float(parts[spec.size_col])) * spec.size_scale
    except (ValueError, OverflowError):
        return None
    op_text = parts[spec.op_col].strip().lower()
    if op_text in spec.read_values:
        op = READ
    elif op_text in spec.write_values:
        op = WRITE
    else:
        return None
    if not math.isfinite(ts) or ts < 0 or offset < 0 or size <= 0:
        return None
    return ts, TraceRecord(op, offset, size)


def load_trace(path, fmt: str) -> tuple[list[TraceRecord], int]:
    """Read a trace file; returns (records, skipped line count), the records
    in timestamp order and in file order among equal timestamps."""
    spec = FORMATS.get(fmt)
    if spec is None:
        raise ValueError(f"unknown trace format {fmt!r}; "
                         f"have {sorted(FORMATS)}")
    timed: list[tuple[float, TraceRecord]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parsed = parse_trace_line(spec, line)
            if parsed is None:
                skipped += 1
                if skipped <= 5:
                    logger.warning("%s:%d: skipping malformed line", path,
                                   line_no)
                continue
            timed.append(parsed)
    timed.sort(key=itemgetter(0))   # stable: ties keep file order
    return [rec for _, rec in timed], skipped


def synth_trace(ops: int, logical_pages: int, page_size: int,
                hot_fraction: float = 0.9, hot_region_fraction: float = 0.1,
                write_ratio: float = 0.7, seed: int = 0,
                size_pages: int = 1) -> list[TraceRecord]:
    """Skewed synthetic workload: hot_fraction of accesses hit the first
    hot_region_fraction of the logical space. Deterministic per seed."""
    if not (0 <= hot_fraction <= 1 and 0 < hot_region_fraction <= 1
            and 0 <= write_ratio <= 1):
        raise ValueError("fractions must sit in [0, 1]")
    if logical_pages < 2 or ops < 0 or size_pages < 1:
        raise ValueError(
            "need logical_pages >= 2, ops >= 0 and size_pages >= 1")
    rng = random.Random(seed)
    uniform, getrandbits = rng.random, rng.getrandbits
    hot_pages = min(max(1, int(logical_pages * hot_region_fraction)),
                    logical_pages - 1)
    cold_pages = logical_pages - hot_pages
    hot_bits, cold_bits = hot_pages.bit_length(), cold_pages.bit_length()
    records = []
    for _ in range(ops):
        op = WRITE if uniform() < write_ratio else READ
        # each lpn draws as `rng.randrange` over its region would, without
        # its argument checks: bits of the region's width, redrawn until
        # they fall inside it
        if uniform() < hot_fraction:
            lpn = getrandbits(hot_bits)
            while lpn >= hot_pages:
                lpn = getrandbits(hot_bits)
        else:
            lpn = getrandbits(cold_bits)
            while lpn >= cold_pages:
                lpn = getrandbits(cold_bits)
            lpn += hot_pages
        n = min(size_pages, logical_pages - lpn)
        records.append(TraceRecord(op, lpn * page_size, n * page_size))
    return records


def page_span(record: TraceRecord, page_size: int,
              logical_pages: int) -> list[tuple[int, int]]:
    """Map a byte-addressed request onto whole-page runs.

    Offsets round down, ends round up; offsets beyond the device wrap
    modulo the logical capacity (a wrap yields two contiguous runs). A
    request covers at least one page and at most the whole device.
    Called once per serviced request, so it clamps with branches, not
    `min`/`max` calls.
    """
    offset = record.offset
    start = offset // page_size
    n = -(-(offset + record.size) // page_size) - start
    if n < 1:
        n = 1
    elif n > logical_pages:
        n = logical_pages
    start %= logical_pages
    if start + n <= logical_pages:
        return [(start, n)]
    head = logical_pages - start
    return [(start, head), (0, n - head)]
