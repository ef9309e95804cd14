"""Flash device state: geometry, latency table, blocks, and page mechanics.

This layer is pure mechanism. It knows how to program/read/erase pages and
convert block modes while keeping the LPN->PPN mapping honest; every policy
decision (where to place, what to collect) lives in the FTL layer above.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, islice
from operator import eq

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
        if not all(v > 0 for v in vals):    # NaN included
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


# the page array of every block with no page written: immutable, so a write
# meant for one block can never land in another that shares it
NO_PAGES = ()


class SsdState:
    """Blocks plus the LPN->PPN mapping and raw operation counters.

    `mapping` holds one int PPN per mapped lpn, `block_id << shift |
    page_idx`, where `shift` is the bit width of the largest page index, so
    `ppn >> shift` and `ppn & mask` decode it; `locate` returns the pair.
    An int takes half the bytes of a `(block_id, page_idx)` tuple, and the
    cyclic collector never tracks it. `program_page` and `program_run` add
    an entry, `invalidate_page` deletes one, and `relocate`, GC's op,
    rewrites the entries of a victim's lpns in place: a CPython dict does
    not reuse a deleted entry's slot, so a delete then re-insert per moved
    page would regrow the table. `erase_block` is the one op that erases
    a block, `relocate`'s victim included. Block ids already encode the channel
    (block_id % channels). Block state is four flat lists, indexed by block
    id: `mode`, `erase_count`, `valid_count` and `pages`. A block's capacity
    follows from its mode, `block_pages[mode[b]]`. `pages[b]` holds only
    the programmed pages (an lpn or PAGE_INVALID), so its length is the
    write pointer and `len(pages[b]) - valid_count[b]` the invalid pages; a
    block gets a list of its own at its first program and shares NO_PAGES
    again once erased.
    """

    def __init__(self, geometry: FlashGeometry, latency: LatencyModel,
                 initial_mode_split: float = INITIAL_MODE_SPLIT):
        self.geometry = geometry
        self.latency = latency
        n_slc, self.logical_capacity_pages = initial_layout(
            geometry, initial_mode_split)
        total = geometry.total_blocks
        n_qlc = total - n_slc
        # blocks per mode; only convert_block_mode changes a block's mode
        self.block_tally = {SLC: n_slc, QLC: n_qlc}
        # ids [0, n_slc) start in SLC, the rest in QLC: one run per mode
        self.mode = [SLC] * n_slc + [QLC] * n_qlc
        # pages a block holds in each mode
        self.block_pages = {SLC: geometry.pages_per_block_slc,
                            QLC: geometry.pages_per_block_qlc}
        self.erase_count = [0] * total
        self.valid_count = [0] * total
        self.pages: list[list[int] | tuple] = [NO_PAGES] * total
        # GC candidates per mode: valid_count -> ids of the full blocks that
        # hold >=1 invalid page; empty buckets are dropped
        self.reclaimable: dict[Mode, dict[int, set[int]]] = {
            SLC: {}, QLC: {}}
        self.shift = (geometry.pages_per_block_qlc - 1).bit_length()
        self.mask = (1 << self.shift) - 1
        self.mapping: dict[int, int] = {}
        self.device_pages_written = 0
        self.erase_ops = 0

    # --- capacity and occupancy ---------------------------------------------

    def locate(self, lpn: int) -> tuple[int, int] | None:
        """(block_id, page_idx) the lpn is mapped to, or None."""
        ppn = self.mapping.get(lpn)
        if ppn is None:
            return None
        return ppn >> self.shift, ppn & self.mask

    def block_count(self, mode: Mode) -> int:
        return self.block_tally[mode]

    def valid_pages(self) -> int:
        return sum(self.valid_count)

    def free_pages(self, block_id: int) -> int:
        """Pages of a block past its write pointer."""
        return (self.block_pages[self.mode[block_id]]
                - len(self.pages[block_id]))

    def is_full(self, block_id: int) -> bool:
        return (len(self.pages[block_id])
                == self.block_pages[self.mode[block_id]])

    # --- page operations ------------------------------------------------------

    def _outside(self, block_id: int) -> PageStateError:
        """The error for a block id outside [0, total blocks), which every
        mutator raises: a negative id would index a block counted from the
        end."""
        return PageStateError(f"block {block_id} is outside the device's "
                              f"{len(self.mode)} blocks")

    def program_page(self, block_id: int, page_idx: int, lpn: int) -> float:
        """Append one page to a block. Returns the program latency in us."""
        if block_id < 0:
            raise self._outside(block_id)
        try:
            pages = self.pages[block_id]
        except IndexError:
            raise self._outside(block_id) from None
        if page_idx != len(pages):
            raise PageStateError(
                f"block {block_id}: program at {page_idx} but write pointer "
                f"is {len(pages)} (append-only)")
        mode = self.mode[block_id]
        capacity = self.block_pages[mode]
        if page_idx >= capacity:
            raise PageStateError(f"block {block_id} is full")
        if lpn in self.mapping:
            raise PageStateError(
                f"lpn {lpn} still mapped; invalidate before reprogramming")
        if page_idx:
            pages.append(lpn)
        else:
            self.pages[block_id] = [lpn]
        valid = self.valid_count[block_id] = self.valid_count[block_id] + 1
        self.mapping[lpn] = block_id << self.shift | page_idx
        self.device_pages_written += 1
        if valid <= page_idx and page_idx + 1 == capacity:
            self._index(block_id)
        return self.latency.write_us(mode)

    def program_run(self, block_id: int, lpns) -> None:
        """Append one page per lpn of a sequence to a block, in order:
        `program_page` in bulk, with the same checks."""
        if not 0 <= block_id < len(self.mode):
            raise self._outside(block_id)
        start = len(self.pages[block_id])
        end = start + len(lpns)
        capacity = self.block_pages[self.mode[block_id]]
        if end > capacity:
            raise PageStateError(
                f"block {block_id}: {len(lpns)} pages past its "
                f"{self.free_pages(block_id)} free ones")
        if any(map(self.mapping.__contains__, lpns)):
            raise PageStateError(
                f"an lpn of {lpns} still mapped; invalidate before "
                f"reprogramming")
        if start:
            pages = self.pages[block_id]
            pages.extend(lpns)
        else:           # an empty run keeps NO_PAGES
            pages = self.pages[block_id] = list(lpns) or NO_PAGES
        # key a new entry by the int object the page array holds: an int
        # from a second pass over `lpns` would double its memory
        base = block_id << self.shift
        self.mapping.update(zip(pages[start:], range(base + start,
                                                     base + end)))
        valid = self.valid_count[block_id] = (self.valid_count[block_id]
                                              + len(lpns))
        self.device_pages_written += len(lpns)
        if end == capacity and valid < end:
            self._index(block_id)

    def relocate(self, src: int, plan) -> float:
        """Move every valid page of block `src` by `plan`, a sequence of
        `(block_id, lpns)` appends applied in order, then erase `src`;
        returns the erase latency in us. GC's op: each lpn's entry is
        rewritten in place, so the mapping keeps its keys.

        Every check runs before any change. The plan must name each valid
        page of `src` once and no other page, and its appends must fit
        their blocks' free pages, none of them `src`. The source pages are
        never marked invalid one by one: `src` is filed at zero valid pages
        and `erase_block` clears them.
        """
        n_blocks = len(self.mode)
        if not 0 <= src < n_blocks:
            raise self._outside(src)
        pages, shift = self.pages, self.shift
        block_pages, modes = self.block_pages, self.mode
        room: dict[int, int] = {}   # free pages the plan leaves so far
        spans = []                  # the PPNs each append takes
        for block_id, lpns in plan:
            if not 0 <= block_id < n_blocks:
                raise self._outside(block_id)
            if block_id == src:
                raise PageStateError(f"block {src} relocated into itself")
            free = room.get(block_id)
            if free is None:
                free = self.free_pages(block_id)
            n = len(lpns)
            if n > free:
                raise PageStateError(
                    f"block {block_id}: {n} pages past its {free} free ones")
            room[block_id] = free - n
            start = block_id << shift | block_pages[modes[block_id]] - free
            spans.append(range(start, start + n))
        try:
            ppns = list(map(self.mapping.__getitem__,   # C-level
                            chain.from_iterable(lpns for _, lpns in plan)))
        except KeyError as exc:
            raise PageStateError(
                f"relocation of unmapped lpn {exc.args[0]}") from None
        # sorted in place, a repeat sits next to its twin: a set would
        # allocate a table per victim, enough to raise the peak RSS of a
        # GC-heavy run
        ppns.sort()
        written = len(pages[src])
        base = src << shift
        if ppns and (ppns[0] < base or ppns[-1] >= base + written):
            raise PageStateError(
                f"relocation of an lpn not mapped into block {src}")
        if any(map(eq, ppns, islice(ppns, 1, None))):
            raise PageStateError(f"relocation of an lpn twice out of {src}")
        # distinct lpns map to distinct pages, each valid: as many as the
        # block holds are all of them
        valid_count = self.valid_count
        moved, valid = len(ppns), valid_count[src]
        if moved != valid:
            raise PageStateError(
                f"relocation of {moved} of block {src}'s {valid} valid pages")
        del ppns        # each old PPN is freed as the update replaces it
        valid_count[src] = 0
        if written == block_pages[modes[src]]:
            if valid < written:
                self._unindex(src, valid)
            self._index(src)        # at zero valid, where erase_block looks
        for block_id, lpns in plan:
            if pages[block_id]:
                pages[block_id].extend(lpns)
            elif lpns:
                pages[block_id] = list(lpns)
            end = len(pages[block_id])
            count = valid_count[block_id] = valid_count[block_id] + len(lpns)
            if end == block_pages[modes[block_id]] and count < end:
                self._index(block_id)
        self.mapping.update(zip(chain.from_iterable(lpns for _, lpns in plan),
                                chain.from_iterable(spans)))
        self.device_pages_written += moved
        return self.erase_block(src)

    def read_page(self, block_id: int, page_idx: int) -> float:
        """Read one valid page. Returns the read latency in us."""
        try:
            # a negative index would wrap to the end of the list
            lpn = (self.pages[block_id][page_idx]
                   if block_id >= 0 and page_idx >= 0 else PAGE_FREE)
        except IndexError:      # at or past the write pointer or last block
            lpn = PAGE_FREE
        if lpn < 0:
            state = "free" if lpn == PAGE_FREE else "invalid"
            raise PageStateError(
                f"read of {state} page {block_id}/{page_idx}: mapping corrupt")
        return self.latency.read_us(self.mode[block_id])

    def invalidate_page(self, block_id: int, page_idx: int) -> None:
        """Drop a valid page from the mapping (data became stale)."""
        try:
            lpn = (self.pages[block_id][page_idx]
                   if block_id >= 0 and page_idx >= 0 else PAGE_FREE)
        except IndexError:
            lpn = PAGE_FREE
        if lpn < 0:
            raise PageStateError(
                f"invalidate of non-valid page {block_id}/{page_idx}")
        pages = self.pages[block_id]
        pages[page_idx] = PAGE_INVALID
        valid = self.valid_count[block_id] = self.valid_count[block_id] - 1
        del self.mapping[lpn]
        if len(pages) == self.block_pages[self.mode[block_id]]:
            # not its first invalid page: it is filed one valid page up
            if len(pages) - valid > 1:
                self._unindex(block_id, valid + 1)
            self._index(block_id)

    def erase_block(self, block_id: int) -> float:
        """Erase a block holding no valid data. Returns erase latency in us."""
        if not 0 <= block_id < len(self.mode):
            raise self._outside(block_id)
        valid = self.valid_count[block_id]
        if valid:
            raise PageStateError(
                f"erase of block {block_id} with {valid} valid pages")
        if self.is_full(block_id):  # with no valid page, all are invalid
            self._unindex(block_id, 0)
        self.pages[block_id] = NO_PAGES
        self.erase_count[block_id] += 1
        self.erase_ops += 1
        return self.latency.erase_us(self.mode[block_id])

    def convert_block_mode(self, block_id: int, new_mode: Mode) -> None:
        """Switch a fully-free block between SLC and QLC mode.

        Metadata-only: the erase that freed the block already paid the cost,
        so conversion itself charges no latency and no endurance.
        """
        if not 0 <= block_id < len(self.mode):
            raise self._outside(block_id)
        if self.pages[block_id]:
            raise PageStateError(
                f"convert of non-empty block {block_id} (erase it first)")
        old_mode = self.mode[block_id]
        if old_mode is new_mode:
            return
        self.block_tally[old_mode] -= 1
        self.block_tally[new_mode] += 1
        self.mode[block_id] = new_mode

    # --- victim index -------------------------------------------------------------

    def _index(self, block_id: int) -> None:
        self.reclaimable[self.mode[block_id]].setdefault(
            self.valid_count[block_id], set()).add(block_id)

    def _unindex(self, block_id: int, valid: int) -> None:
        buckets = self.reclaimable[self.mode[block_id]]
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
        total_blocks = self.geometry.total_blocks
        for name in ("mode", "erase_count", "valid_count", "pages"):
            if len(getattr(self, name)) != total_blocks:
                raise AuditError(
                    f"{name} has {len(getattr(self, name))} entries for "
                    f"{total_blocks} blocks")
        shift, mask = self.shift, self.mask
        for lpn, ppn in self.mapping.items():
            block_id, page_idx = ppn >> shift, ppn & mask
            if not 0 <= block_id < total_blocks:
                raise AuditError(
                    f"mapping says lpn {lpn} -> block {block_id}, outside "
                    f"the device's {total_blocks} blocks")
            pages = self.pages[block_id]
            if not 0 <= page_idx < len(pages):
                raise AuditError(
                    f"mapping says lpn {lpn} -> {block_id}/{page_idx}, "
                    f"past the block's {len(pages)} written pages")
            stored = pages[page_idx]
            if stored != lpn:
                raise AuditError(
                    f"mapping says lpn {lpn} -> {block_id}/{page_idx}, "
                    f"page stores {stored}")
        owned = [pages for pages in self.pages if pages is not NO_PAGES]
        if len(set(map(id, owned))) != len(owned):
            raise AuditError("two blocks share one page array")
        total_valid = 0
        for block_id, pages in enumerate(self.pages):
            capacity = self.block_pages[self.mode[block_id]]
            if len(pages) > capacity:
                raise AuditError(
                    f"block {block_id}: {len(pages)} pages written "
                    f"past its {capacity}")
            valid = sum(1 for p in pages if p >= 0)
            invalid = pages.count(PAGE_INVALID)
            if valid != self.valid_count[block_id]:
                raise AuditError(f"block {block_id}: counter drift")
            if valid + invalid != len(pages):
                raise AuditError(
                    f"block {block_id}: free page below the write pointer")
            total_valid += valid
        if total_valid != len(self.mapping):
            raise AuditError(
                f"{total_valid} valid pages vs {len(self.mapping)} mapped lpns")
        for mode, tally in self.block_tally.items():
            if tally != self.mode.count(mode):
                raise AuditError(f"{mode.value} block tally drift")
        recount: dict[Mode, dict[int, set[int]]] = {SLC: {}, QLC: {}}
        for block_id, valid in enumerate(self.valid_count):
            if self.is_full(block_id) and valid < len(self.pages[block_id]):
                recount[self.mode[block_id]].setdefault(
                    valid, set()).add(block_id)
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
