"""Flash device state: geometry, latency table, blocks, and page mechanics.

This layer is pure mechanism. It knows how to program/read/erase pages and
convert block modes while keeping the LPN->PPN mapping honest; every policy
decision (where to place, what to collect) lives in the FTL layer above.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat

from .errors import AuditError, GeometryError, PageStateError

# page states: a valid page stores its lpn; slots past a block's write
# pointer read as PAGE_FREE and are not stored
PAGE_FREE = -1
PAGE_INVALID = -2

# QLC cells hold four bits per cell, so a block gains 4x pages in QLC mode
QLC_PAGE_FACTOR = 4

# share of blocks a fresh device starts in SLC mode
INITIAL_MODE_SPLIT = 0.25


class Mode(enum.Enum):
    SLC = "slc"
    QLC = "qlc"

    # members are singletons: identity hashing keeps Mode-keyed dicts off
    # Enum's Python-level __hash__
    __hash__ = object.__hash__


# Hot paths read these module globals, never `Mode.SLC`: on Python 3.11 a
# member lookup goes through EnumType.__getattr__ and costs ~0.17 us, a
# module global ~0.02 us, and a request does dozens of them
SLC, QLC = Mode.SLC, Mode.QLC


@dataclass(frozen=True)
class FlashGeometry:
    channels: int = 32
    blocks_per_channel: int = 512
    pages_per_block_slc: int = 256
    page_size: int = 16384           # bytes
    op_ratio: float = 0.125          # over-provisioned fraction of raw space

    def __post_init__(self):
        for name in ("channels", "blocks_per_channel", "pages_per_block_slc",
                     "page_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise GeometryError(f"{name} must be an integer, got {value!r}")
        if self.channels < 1 or self.blocks_per_channel < 1:
            raise GeometryError("channels and blocks_per_channel must be >= 1")
        if self.pages_per_block_slc < 1:
            raise GeometryError("pages_per_block_slc must be >= 1")
        if self.page_size < 1:
            raise GeometryError("page_size must be >= 1")
        if not (0.0 <= self.op_ratio < 1.0):
            raise GeometryError("op_ratio must be in [0, 1)")

    @property
    def pages_per_block_qlc(self) -> int:
        return self.pages_per_block_slc * QLC_PAGE_FACTOR

    @property
    def total_blocks(self) -> int:
        return self.channels * self.blocks_per_channel

    def pages_per_block(self, mode: Mode) -> int:
        if mode is SLC:
            return self.pages_per_block_slc
        return self.pages_per_block_qlc

    def channel_of(self, block_id: int) -> int:
        # consecutive block ids round-robin across channels
        return block_id % self.channels


@dataclass(frozen=True)
class LatencyModel:
    """Per-operation flash costs in microseconds."""

    read_slc: float = 20.0
    read_qlc: float = 140.0
    write_slc: float = 200.0
    write_qlc: float = 2000.0
    erase_slc: float = 3000.0
    erase_qlc: float = 3500.0

    def __post_init__(self):
        vals = (self.read_slc, self.read_qlc, self.write_slc,
                self.write_qlc, self.erase_slc, self.erase_qlc)
        if any(v <= 0 for v in vals):
            raise GeometryError("latency values must be positive")
        if self.write_qlc <= self.write_slc or self.read_qlc <= self.read_slc:
            raise GeometryError("QLC read/write must cost more than SLC")

    def read_us(self, mode: Mode) -> float:
        return self.read_slc if mode is SLC else self.read_qlc

    def write_us(self, mode: Mode) -> float:
        return self.write_slc if mode is SLC else self.write_qlc

    def erase_us(self, mode: Mode) -> float:
        return self.erase_slc if mode is SLC else self.erase_qlc


def initial_layout(geometry: FlashGeometry,
                   initial_mode_split: float) -> tuple[int, int]:
    """(SLC block count, logical capacity in pages) of a fresh device.

    The lowest block ids start in SLC; ids round-robin channels, so the split
    is channel-balanced by construction. The exported size is frozen here:
    later mode conversions change raw capacity but never what the host can
    address.
    """
    if not (0.0 <= initial_mode_split <= 1.0):
        raise GeometryError("initial_mode_split must be in [0, 1]")
    n_slc = int(initial_mode_split * geometry.total_blocks + 0.5)
    raw_pages = (n_slc * geometry.pages_per_block_slc
                 + (geometry.total_blocks - n_slc)
                 * geometry.pages_per_block_qlc)
    return n_slc, int(raw_pages * (1.0 - geometry.op_ratio))


class BlockState:
    """One erase block: mode, capacity and its append-only page array.

    `pages` holds only the programmed pages (an lpn or PAGE_INVALID), so
    its length is the write pointer and `len(pages) - valid_count` its
    invalid pages.
    """

    __slots__ = ("mode", "pages", "page_count", "erase_count", "valid_count")

    def __init__(self, mode: Mode, pages_per_block: int):
        self.mode = mode
        self.pages: list[int] = []
        self.page_count = pages_per_block
        self.erase_count = 0
        self.valid_count = 0

    @property
    def free_count(self) -> int:
        return self.page_count - len(self.pages)

    @property
    def is_fully_free(self) -> bool:
        return not self.pages

    @property
    def is_full(self) -> bool:
        return len(self.pages) == self.page_count


class SsdState:
    """Blocks plus the LPN->PPN mapping and raw operation counters.

    A PPN is a (block_id, page_idx) pair; block ids already encode the
    channel (block_id % channels).
    """

    def __init__(self, geometry: FlashGeometry, latency: LatencyModel,
                 initial_mode_split: float = INITIAL_MODE_SPLIT):
        self.geometry = geometry
        self.latency = latency
        n_slc, self.logical_capacity_pages = initial_layout(
            geometry, initial_mode_split)
        # blocks per mode; only convert_block_mode changes a block's mode
        self.block_tally = {SLC: n_slc,
                            QLC: geometry.total_blocks - n_slc}
        # ids [0, n_slc) start in SLC, the rest in QLC: one run per mode
        self.blocks: list[BlockState] = []
        for mode, count in self.block_tally.items():
            self.blocks += map(BlockState, repeat(mode, count),
                               repeat(geometry.pages_per_block(mode), count))
        # GC candidates per mode: valid_count -> ids of the full blocks that
        # hold >=1 invalid page; empty buckets are dropped
        self.reclaimable: dict[Mode, dict[int, set[int]]] = {
            SLC: {}, QLC: {}}
        self.mapping: dict[int, tuple[int, int]] = {}
        self.device_pages_written = 0
        self.erase_ops = 0

    # --- capacity and occupancy ---------------------------------------------

    def block_count(self, mode: Mode) -> int:
        return self.block_tally[mode]

    def valid_pages(self, mode: Mode | None = None) -> int:
        return sum(b.valid_count for b in self.blocks
                   if mode is None or b.mode is mode)

    # --- page operations ------------------------------------------------------

    def program_page(self, block_id: int, page_idx: int, lpn: int) -> float:
        """Append one page to a block. Returns the program latency in us."""
        block = self.blocks[block_id]
        pages = block.pages
        if page_idx != len(pages):
            raise PageStateError(
                f"block {block_id}: program at {page_idx} but write pointer "
                f"is {len(pages)} (append-only)")
        if page_idx >= block.page_count:
            raise PageStateError(f"block {block_id} is full")
        if lpn in self.mapping:
            raise PageStateError(
                f"lpn {lpn} still mapped; invalidate before reprogramming")
        pages.append(lpn)
        block.valid_count += 1
        self.mapping[lpn] = (block_id, page_idx)
        self.device_pages_written += 1
        if block.valid_count <= page_idx and page_idx + 1 == block.page_count:
            self._index(block_id, block)
        return self.latency.write_us(block.mode)

    def program_run(self, block_id: int, lpns) -> None:
        """Append one page per lpn of a sequence to a block, in order:
        `program_page` in bulk, with the same checks."""
        block = self.blocks[block_id]
        pages = block.pages
        start = len(pages)
        end = start + len(lpns)
        if end > block.page_count:
            raise PageStateError(
                f"block {block_id}: {len(lpns)} pages past its "
                f"{block.free_count} free ones")
        mapping = self.mapping
        if any(map(mapping.__contains__, lpns)):
            raise PageStateError(
                f"an lpn of {lpns} still mapped; invalidate before "
                f"reprogramming")
        pages.extend(lpns)
        # key the mapping by the int objects the page array holds: ints
        # from a second pass over `lpns` would double their memory
        mapping.update(zip(pages[start:], zip(repeat(block_id),
                                              range(start, end))))
        block.valid_count += len(lpns)
        self.device_pages_written += len(lpns)
        if end == block.page_count and block.valid_count < end:
            self._index(block_id, block)

    def read_page(self, block_id: int, page_idx: int) -> float:
        """Read one valid page. Returns the read latency in us."""
        block = self.blocks[block_id]
        try:
            lpn = block.pages[page_idx]
        except IndexError:              # at or past the write pointer
            lpn = PAGE_FREE
        if lpn < 0:
            state = "free" if lpn == PAGE_FREE else "invalid"
            raise PageStateError(
                f"read of {state} page {block_id}/{page_idx}: mapping corrupt")
        return self.latency.read_us(block.mode)

    def invalidate_page(self, block_id: int, page_idx: int) -> None:
        """Drop a valid page from the mapping (data became stale)."""
        block = self.blocks[block_id]
        pages = block.pages
        try:
            lpn = pages[page_idx]
        except IndexError:
            lpn = PAGE_FREE
        if lpn < 0:
            raise PageStateError(
                f"invalidate of non-valid page {block_id}/{page_idx}")
        pages[page_idx] = PAGE_INVALID
        block.valid_count -= 1
        del self.mapping[lpn]
        if block.is_full:
            # not its first invalid page: it is filed one valid page up
            if len(pages) - block.valid_count > 1:
                self._unindex(block_id, block, block.valid_count + 1)
            self._index(block_id, block)

    def evacuate(self, block_id: int) -> list[int]:
        """Invalidate every valid page of a block; returns their lpns in
        page order. `invalidate_page` per valid page, in bulk: a full block
        is re-filed in the victim index once, under no valid page."""
        block = self.blocks[block_id]
        pages = block.pages
        lpns = [lpn for lpn in pages if lpn >= 0]
        full = block.is_full
        if full and block.valid_count < len(pages):
            self._unindex(block_id, block, block.valid_count)
        mapping = self.mapping
        for lpn in lpns:
            del mapping[lpn]
        block.pages = [PAGE_INVALID] * len(pages)
        block.valid_count = 0
        if full:
            self._index(block_id, block)
        return lpns

    def erase_block(self, block_id: int) -> float:
        """Erase a block holding no valid data. Returns erase latency in us."""
        block = self.blocks[block_id]
        if block.valid_count != 0:
            raise PageStateError(
                f"erase of block {block_id} with {block.valid_count} valid pages")
        if block.is_full:       # with no valid page, every page is invalid
            self._unindex(block_id, block, 0)
        block.pages = []
        block.erase_count += 1
        self.erase_ops += 1
        return self.latency.erase_us(block.mode)

    def convert_block_mode(self, block_id: int, new_mode: Mode) -> None:
        """Switch a fully-free block between SLC and QLC page counts.

        Metadata-only: the erase that freed the block already paid the cost,
        so conversion itself charges no latency and no endurance.
        """
        block = self.blocks[block_id]
        if not block.is_fully_free:
            raise PageStateError(
                f"convert of non-empty block {block_id} (erase it first)")
        if block.mode is new_mode:
            return
        self.block_tally[block.mode] -= 1
        self.block_tally[new_mode] += 1
        block.mode = new_mode
        block.page_count = self.geometry.pages_per_block(new_mode)

    # --- victim index -------------------------------------------------------------

    def _index(self, block_id: int, block: BlockState) -> None:
        self.reclaimable[block.mode].setdefault(
            block.valid_count, set()).add(block_id)

    def _unindex(self, block_id: int, block: BlockState, valid: int) -> None:
        buckets = self.reclaimable[block.mode]
        bucket = buckets[valid]
        bucket.remove(block_id)
        if not bucket:
            del buckets[valid]

    # --- consistency audit -----------------------------------------------------

    def audit(self) -> None:
        """Cross-check mapping against page states; raises AuditError.

        The mapping must be a bijection onto exactly the valid pages, and
        every cached counter and the victim index must agree with a recount.
        """
        for lpn, (block_id, page_idx) in self.mapping.items():
            pages = self.blocks[block_id].pages
            if not 0 <= page_idx < len(pages):
                raise AuditError(
                    f"mapping says lpn {lpn} -> {block_id}/{page_idx}, "
                    f"past the block's {len(pages)} written pages")
            stored = pages[page_idx]
            if stored != lpn:
                raise AuditError(
                    f"mapping says lpn {lpn} -> {block_id}/{page_idx}, "
                    f"page stores {stored}")
        total_valid = 0
        for block_id, block in enumerate(self.blocks):
            if len(block.pages) > block.page_count:
                raise AuditError(
                    f"block {block_id}: {len(block.pages)} pages written "
                    f"past its {block.page_count}")
            valid = sum(1 for p in block.pages if p >= 0)
            invalid = block.pages.count(PAGE_INVALID)
            if valid != block.valid_count:
                raise AuditError(f"block {block_id}: counter drift")
            if valid + invalid != len(block.pages):
                raise AuditError(
                    f"block {block_id}: free page below the write pointer")
            total_valid += valid
        if total_valid != len(self.mapping):
            raise AuditError(
                f"{total_valid} valid pages vs {len(self.mapping)} mapped lpns")
        for mode, tally in self.block_tally.items():
            if tally != sum(1 for b in self.blocks if b.mode is mode):
                raise AuditError(f"{mode.value} block tally drift")
        recount: dict[Mode, dict[int, set[int]]] = {SLC: {}, QLC: {}}
        for block_id, block in enumerate(self.blocks):
            if block.is_full and block.valid_count < len(block.pages):
                recount[block.mode].setdefault(
                    block.valid_count, set()).add(block_id)
        if recount != self.reclaimable:
            raise AuditError("reclaimable index drift")


def desk_geometry(channels: int = 1, blocks_per_channel: int = 8,
                  pages_per_block_slc: int = 8, page_size: int = 16384,
                  op_ratio: float = 0.125) -> FlashGeometry:
    """Hand-traceable geometry for tests and experiments."""
    return FlashGeometry(channels=channels,
                         blocks_per_channel=blocks_per_channel,
                         pages_per_block_slc=pages_per_block_slc,
                         page_size=page_size,
                         op_ratio=op_ratio)
