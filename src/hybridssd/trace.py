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
from itertools import islice
from operator import gt

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


def load_trace(path, fmt: str) -> tuple[list[TraceRecord], int]:
    """Read a trace file; returns (records, skipped line count), the records
    in timestamp order and in file order among equal timestamps.

    Blank lines and `#` comments are no records and no skips. A line is
    malformed if it splits into too few fields, a number does not parse or
    overflows, its op is neither a read nor a write spelling, or its
    timestamp is negative or not finite, its offset negative or its size
    not positive. An offset or size that spells an integer is read exactly,
    at any size; another number, such as "4096.0" or "7e3", counts by its
    integer part. The first five malformed lines are logged with their
    1-based line numbers.
    """
    spec = FORMATS.get(fmt)
    if spec is None:
        raise ValueError(f"unknown trace format {fmt!r}; "
                         f"have {sorted(FORMATS)}")
    # one loop with the spec bound to locals: a line costs ~2 us, and a
    # call, a (timestamp, record) tuple and the spec's attribute loads per
    # line would add a quarter to it
    delimiter, columns = spec.delimiter, spec.columns
    ts_col, op_col = spec.ts_col, spec.op_col
    offset_col, size_col = spec.offset_col, spec.size_col
    ts_scale, offset_scale = spec.ts_scale_us, spec.offset_scale
    size_scale = spec.size_scale
    read_values, write_values = spec.read_values, spec.write_values
    inf = math.inf
    # raw op field -> its kind; holds only recognised spellings, so a file
    # of distinct junk cannot grow it
    ops: dict[str, OpKind] = {}
    times: list[float] = []
    records: list[TraceRecord] = []
    add_time, add_record = times.append, records.append
    skipped = 0
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            parts = line.split(delimiter)
            if len(parts) >= columns:
                op_text = parts[op_col]
                op = ops.get(op_text)
                if op is None:
                    kind = op_text.strip().lower()
                    if kind in read_values:
                        op = ops[op_text] = READ
                    elif kind in write_values:
                        op = ops[op_text] = WRITE
                try:
                    ts = float(parts[ts_col]) * ts_scale
                    text = parts[offset_col]
                    try:
                        offset = int(text) * offset_scale
                    except ValueError:
                        offset = int(float(text)) * offset_scale
                    text = parts[size_col]
                    try:
                        size = int(text) * size_scale
                    except ValueError:
                        size = int(float(text)) * size_scale
                except (ValueError, OverflowError):
                    op = None
                # a NaN fails both comparisons of the timestamp's range
                if (op is not None and 0 <= ts < inf and offset >= 0
                        and size > 0):
                    add_time(ts)
                    add_record(TraceRecord(op, offset, size))
                    continue
            skipped += 1
            if skipped <= 5:
                logger.warning("%s:%d: skipping malformed line", path,
                               line_no)
    # a trace is normally recorded in time order; then it needs no reorder
    if any(map(gt, times, islice(times, 1, None))):
        # stable: ties keep file order
        order = sorted(range(len(times)), key=times.__getitem__)
        records = [records[i] for i in order]
    return records, skipped


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
    if not isinstance(page_size, int) or page_size < 1:
        raise ValueError(f"page_size must be an integer >= 1, "
                         f"not {page_size!r}")
    rng = random.Random(seed)
    uniform, getrandbits = rng.random, rng.getrandbits
    hot_pages = min(max(1, int(logical_pages * hot_region_fraction)),
                    logical_pages - 1)
    cold_pages = logical_pages - hot_pages
    hot_bits, cold_bits = hot_pages.bit_length(), cold_pages.bit_length()
    records: list[TraceRecord] = []
    append = records.append
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
        n = logical_pages - lpn      # the last request stops at the end
        if n > size_pages:
            n = size_pages
        append(TraceRecord(op, lpn * page_size, n * page_size))
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
