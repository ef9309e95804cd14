"""Flash translation layer: placement, space-management actions, WA counters.

Timing model: pages of one host request stripe round-robin across per-channel
active blocks and overlap (request cost = max over per-channel sums), while
GC work is a read->program dependency chain and charges a plain serial sum.
Foreground GC triggered by a request is billed to that request.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heappop, heappush

from .config import ConfigProfile, PlacementStrategy
from .errors import CapacityError
from .ssd import QLC, SLC, Mode, SsdState

# one request may trigger at most this many space-management actions before
# the engine gives up and raises a capacity-pressure warning counter instead
SAFETY_BOUND = 64


class ActionKind(enum.Enum):
    SLC_INTERNAL_GC = "slc_internal_gc"
    QLC_INTERNAL_GC = "qlc_internal_gc"
    SLC_TO_QLC_GC = "slc_to_qlc_gc"
    SLC_TO_QLC_MC = "slc_to_qlc_mc"
    IDLE = "idle"

    # identity hashing, as for Mode: Q-table and counter dicts key on kinds
    __hash__ = object.__hash__


# members bound once for the hot paths, as ssd.SLC/QLC are
IDLE, SLC_TO_QLC_MC = ActionKind.IDLE, ActionKind.SLC_TO_QLC_MC
SLC_FIRST = PlacementStrategy.SLC_FIRST


# fixed enumeration order; argmax tie-breaks and fuzz tables rely on it
ACTION_ORDER = tuple(ActionKind)

# GC action -> (victim mode, destination mode of its migrated pages)
GC_MODES = {
    ActionKind.SLC_INTERNAL_GC: (SLC, SLC),
    ActionKind.QLC_INTERNAL_GC: (QLC, QLC),
    ActionKind.SLC_TO_QLC_GC: (SLC, QLC),
}


@dataclass
class ActionOutcome:
    pages_migrated: int = 0
    blocks_reclaimed: int = 0    # equals erases performed during the action
    blocks_converted: int = 0
    latency_us: float = 0.0

    @property
    def effective(self) -> bool:
        return bool(self.pages_migrated or self.blocks_reclaimed
                    or self.blocks_converted)


@dataclass
class WaCounters:
    host_pages_written: int = 0
    device_pages_written: int = 0


def write_amplification(device_pages: int, host_pages: int) -> float | None:
    """Device pages programmed per host page written; None without host
    writes, where each caller picks its own stand-in."""
    return device_pages / host_pages if host_pages > 0 else None


def fallback_source(ftl: FtlEngine, skip, limit: int
                    ) -> tuple[ActionKind, int]:
    """The action source without an agent: the engine's fixed greedy
    order. It picks only kinds that act now, never an ineligible
    conversion, so no pick of it joins `skip` and it draws once."""
    kind = ftl._fallback_action()
    ftl.action_counts[kind] += 1
    return kind, 1


class FtlEngine:
    """Address translation plus the five space-management actions.

    `action_source` is any callable(ftl, skip, limit) -> (kind, draws): it
    draws up to `limit` kinds, counting each in `ftl.action_counts`, and
    stops at IDLE or at the first kind not in `skip`, which it returns,
    else returns None. The replay harness wires the RL agent in through
    it, tests pass scripted pickers. Without one, the engine uses
    `fallback_source`, a fixed greedy order.

    Space management calls the source once per executed action, and once
    for the IDLE or the limit that ends it. `skip` holds the kinds that
    would be zero outcomes: those whose last attempt changed nothing, and
    a conversion that is not eligible. A source must not change device
    state, so the device stays as it was across the draws of one call. The
    agent counts on it: its memo of the last observation serves every draw
    after the first, and only the intensity sample each draw pushes can
    move its state.

    An engine is built on a fresh device: no page written, no block
    erased, ids [0, n_slc) in SLC and the rest in QLC. It pools every
    block as free.
    """

    def __init__(self, ssd: SsdState, config: ConfigProfile,
                 action_source=None):
        n_blocks, n_slc = len(ssd.mode), ssd.block_tally[SLC]
        if (ssd.device_pages_written or ssd.erase_count.count(0) != n_blocks
                or ssd.mode[:n_slc].count(SLC) != n_slc):
            raise ValueError("an FtlEngine needs a fresh device: no page "
                             "written, no block erased or converted")
        self.ssd = ssd
        self.config = config
        self.action_source = action_source
        self.reset_counters()
        channels = ssd.geometry.channels
        # active = block currently taking appends, per mode per channel;
        # full blocks are retired from here immediately after programming
        self.active: dict[Mode, list[int | None]] = {
            SLC: [None] * channels, QLC: [None] * channels}
        # free pools: per mode per channel, a heap of the `_wear_key` of
        # each fully-free block. A key never goes stale: erase counts change
        # only in `erase_block`, which runs on GC victims, never on a pooled
        # block, so the key computed on push still holds on pop.
        # Channel ch holds ids ch, ch + channels, ...; on a fresh device
        # each key is its id, so a pool is a sorted range, a heap already
        self.free: dict[Mode, list[list[int]]] = {
            SLC: [list(range(ch, n_slc, channels)) for ch in range(channels)],
            QLC: [list(range(n_slc + (ch - n_slc) % channels, n_blocks,
                             channels)) for ch in range(channels)]}
        # blocks in each mode's pools, kept with every pool change
        self.free_count = {SLC: n_slc, QLC: n_blocks - n_slc}
        self.stripe_cursor = {SLC: 0, QLC: 0}

    def reset_counters(self) -> None:
        """Zero the run statistics; device state and placement stay."""
        self.wa = WaCounters()
        self.rejected_requests = 0
        self.unmapped_reads = 0
        self.capacity_pressure_warnings = 0
        self.ineffective_actions = 0
        self.action_counts = {kind: 0 for kind in ActionKind}

    # --- occupancy ---------------------------------------------------------

    def free_block_count(self, mode: Mode) -> int:
        return self.free_count[mode]

    def free_fraction(self, mode: Mode) -> float:
        total = self.ssd.block_count(mode)
        if total == 0:
            return 0.0
        return self.free_block_count(mode) / total

    def _free_pages(self, mode: Mode) -> int:
        pages = self.free_block_count(mode) * self.ssd.block_pages[mode]
        for block_id in self.active[mode]:
            if block_id is not None:
                pages += self.ssd.free_pages(block_id)
        return pages

    def _has_space(self, mode: Mode) -> bool:
        """Does `mode` hold an active or a free block to append to?"""
        return (self.free_count[mode] > 0
                or self.active[mode].count(None) < self.ssd.geometry.channels)

    def summary(self) -> dict:
        return {
            "slc_free_fraction": self.free_fraction(SLC),
            "qlc_free_fraction": self.free_fraction(QLC),
        }

    # --- allocation ----------------------------------------------------------

    def _wear_key(self, block_id: int) -> int:
        """Least worn first, then lowest id, as one int that orders like
        (erase_count, block_id) and decodes by `% total_blocks`: the free
        pools heap it and victim ties break on it. An int, not a tuple, so
        a pooled block costs one int. A block never erased keys on its id,
        which the engine's pool build relies on."""
        erase_count = self.ssd.erase_count
        return erase_count[block_id] * len(erase_count) + block_id

    def _pop_free(self, mode: Mode, channel: int) -> int:
        """Take the least worn block of a non-empty free pool."""
        self.free_count[mode] -= 1
        return heappop(self.free[mode][channel]) % len(self.ssd.mode)

    def _allocate_page(self, mode: Mode) -> int:
        """Block of the next append slot in `mode`, rotating the channel
        cursor: the cursor's channel or the next one with an active block
        or a free block to open. `mode` must have space (`_has_space`)."""
        channels = self.ssd.geometry.channels
        active = self.active[mode]
        start = self.stripe_cursor[mode]
        for i in range(channels):
            ch = (start + i) % channels
            block_id = active[ch]
            if block_id is None and self.free[mode][ch]:
                block_id = active[ch] = self._pop_free(mode, ch)
            if block_id is not None:
                self.stripe_cursor[mode] = (ch + 1) % channels
                return block_id

    def _placement_region(self, mode: Mode) -> Mode | None:
        """`mode` if it has room, else the other region if that has room."""
        if self._has_space(mode):
            return mode
        other = QLC if mode is SLC else SLC
        return other if self._has_space(other) else None

    def _preferred_mode(self, hot: bool | None) -> Mode:
        if self.config.placement_strategy is SLC_FIRST:
            return SLC
        return SLC if hot else QLC

    # --- host requests ---------------------------------------------------------

    def handle_write(self, lpn: int, n_pages: int = 1,
                     hot: bool | None = None) -> float:
        """Service a host write; returns its latency including foreground GC.

        Page by page: invalidate the old copy, then append to the slot
        `_allocate_page` hands out in the preferred region, else in the
        other one; with neither holding space, space management is forced.
        """
        ssd = self.ssd
        if lpn < 0 or n_pages < 1 or lpn + n_pages > ssd.logical_capacity_pages:
            self.rejected_requests += 1
            return 0.0
        lookup, invalidate = ssd.mapping.get, ssd.invalidate_page
        shift, mask = ssd.shift, ssd.mask
        program, pages, modes = ssd.program_page, ssd.pages, ssd.mode
        block_pages = ssd.block_pages
        channels = ssd.geometry.channels
        mode = self._preferred_mode(hot)
        active, cursor = self.active[mode], self.stripe_cursor
        # per channel, its pages' latencies summed in page order; as flash
        # costs are positive, the largest running sum is the largest total
        per_channel: dict[int, float] = {}
        base = gc_us = 0.0
        for i in range(lpn, lpn + n_pages):
            old = lookup(i)
            if old is not None:
                invalidate(old >> shift, old & mask)
            ch = cursor[mode]
            block_id = active[ch]
            if block_id is not None:
                # the slot `_allocate_page(mode)` hands out from here
                cursor[mode] = (ch + 1) % channels
            else:
                region = self._placement_region(mode)
                if region is None:
                    # both regions exhausted mid-request
                    gc_us += self._space_management(forced=True)
                    region = self._placement_region(mode)
                    if region is None:
                        # the pages programmed so far stay written
                        self.wa.device_pages_written += i - lpn
                        raise CapacityError(
                            "device full even after space management")
                block_id = self._allocate_page(region)
                ch = block_id % channels
            page_idx = len(pages[block_id])
            us = program(block_id, page_idx, i)
            if page_idx + 1 == block_pages[modes[block_id]]:
                # retire the full block from its region's active blocks
                self.active[modes[block_id]][ch] = None
            summed = per_channel[ch] = per_channel.get(ch, 0.0) + us
            if summed > base:
                base = summed
        self.wa.device_pages_written += n_pages
        self.wa.host_pages_written += n_pages
        gc_us += self._space_management()
        return base + gc_us

    def fill(self, n: int) -> None:
        """Write lpns 0 .. n-1 once each, in order, on a device with no
        mapped lpn, leaving the device and placement state that
        `handle_write(lpn)` per lpn leaves under the fallback policy; the
        run statistics end zeroed.

        Runs of pages are programmed per block in bulk. A run ends at the
        page whose free-block pop makes space management act, which then
        runs for that page as `handle_write` would run it; while it would
        act before any pop, a run is one page. No page of an unwritten
        device turns invalid here, so GC never finds a victim.
        """
        if not 0 <= n <= self.ssd.logical_capacity_pages:
            raise ValueError(f"fill needs a page count in [0, "
                             f"{self.ssd.logical_capacity_pages}], got {n}")
        if self.ssd.mapping:
            raise ValueError("fill needs a device with no mapped lpn")

        def acts() -> bool:
            # a fill invalidates nothing: an append frees no block and makes
            # no GC victim, so only a pop can change this answer
            return (self._regions_below_threshold()
                    and self._fallback_action() is not IDLE)

        source, self.action_source = self.action_source, None
        try:
            lpn = 0
            while lpn < n:
                # never None: every block that is not full is active or
                # pooled, and a fill writes fewer pages than the device holds
                mode = self._placement_region(self._preferred_mode(None))
                run = range(lpn, lpn + 1 if acts() else n)
                for block_id, lpns in self._plan(mode, run, acts):
                    self.ssd.program_run(block_id, lpns)
                    lpn += len(lpns)
                self._space_management()
        finally:
            self.action_source = source
        self.reset_counters()

    def _plan(self, mode: Mode, lpns, stop=None) -> list:
        """Where `lpns` go, in order: the slots `_allocate_page(mode)` hands
        out page by page, as `(block_id, run)` appends, one per block and
        stripe segment. The slots are taken now: the free blocks the stripe
        opens are popped, the cursor moves and each block the plan fills
        leaves the active blocks, so the caller applies every append.

        A channel without an active block takes a free block when the
        stripe reaches it with a page left. `stop`, if given, is asked
        after each such pop; when it answers true the plan ends with that
        block's first page.
        """
        ssd = self.ssd
        channels = ssd.geometry.channels
        active = self.active[mode]
        pools = self.free[mode]
        room: dict[int, int] = {}   # free pages of each target, as planned
        plan = []
        total = len(lpns)
        done = 0
        stopped = False
        while done < total:
            # one block per channel in stripe order from the cursor
            cursor = self.stripe_cursor[mode]
            targets = []
            for ch in (*range(cursor, channels), *range(cursor)):
                block_id = active[ch]
                if (block_id is None and pools[ch]
                        and len(targets) < total - done):
                    block_id = active[ch] = self._pop_free(mode, ch)
                    stopped = stop is not None and stop()
                if block_id is not None:
                    targets.append(block_id)
                    if block_id not in room:
                        room[block_id] = ssd.free_pages(block_id)
                    if stopped:
                        break
            if not targets:
                break
            # full stripes until the first target block fills
            rounds = 1 if stopped else min(map(room.__getitem__, targets))
            stride = len(targets)
            n = min(rounds * stride, total - done)
            for j, block_id in enumerate(targets[:n]):
                run = lpns[done + j:done + n:stride]
                plan.append((block_id, run))
                left = room[block_id] = room[block_id] - len(run)
                if not left:
                    active[block_id % channels] = None
            last = targets[(n - 1) % stride] % channels
            self.stripe_cursor[mode] = (last + 1) % channels
            done += n
            if stopped:
                break
        return plan

    def handle_read(self, lpn: int, n_pages: int = 1) -> float:
        """Service a host read; unmapped pages cost nothing but are counted."""
        ssd = self.ssd
        if lpn < 0 or n_pages < 1 or lpn + n_pages > ssd.logical_capacity_pages:
            self.rejected_requests += 1
            return 0.0
        lookup, read = ssd.mapping.get, ssd.read_page
        shift, mask = ssd.shift, ssd.mask
        channels = ssd.geometry.channels
        per_channel: dict[int, float] = {}     # as in handle_write
        base = 0.0
        for i in range(lpn, lpn + n_pages):
            ppn = lookup(i)
            if ppn is None:
                self.unmapped_reads += 1
                continue
            block_id = ppn >> shift
            us = read(block_id, ppn & mask)
            ch = block_id % channels
            summed = per_channel[ch] = per_channel.get(ch, 0.0) + us
            if summed > base:
                base = summed
        return base

    # --- space management ---------------------------------------------------------

    def _short_of_blocks(self, mode: Mode, percent: int) -> bool:
        """Are fewer than `percent`% of `mode`'s blocks free? Never for a
        mode with no blocks. The same answer as `free_fraction(mode) <
        percent / 100`: distinct fractions f/b and p/100 differ by at least
        1/(100 b), far more than rounding moves either, and equal ones
        round to one float."""
        return (self.free_count[mode] * 100
                < percent * self.ssd.block_tally[mode])

    def _regions_below_threshold(self) -> bool:
        percent = self.config.gc_trigger_threshold
        return (self._short_of_blocks(SLC, percent)
                or self._short_of_blocks(QLC, percent))

    def mc_eligible(self) -> bool:
        return self._short_of_blocks(
            SLC, self.config.conversion_trigger_threshold)

    def _fallback_action(self) -> ActionKind:
        # fixed greedy order keeps the engine usable without an agent; only
        # actions that can actually execute right now are considered
        for kind in ACTION_ORDER:
            if kind is SLC_TO_QLC_MC:
                if self.mc_eligible() and self.free_block_count(SLC) > 0:
                    return kind
            elif kind in GC_MODES:
                if self._gc_victim(*GC_MODES[kind]) is not None:
                    return kind
        return IDLE

    def _space_management(self, forced: bool = False) -> float:
        """Run space-management actions until the stop test passes: some
        region holds space (`forced`, called only when none does) or no
        region is below the trigger. Returns the actions' latency.

        A kind with a zero outcome changed nothing, so until an action
        acts it stays a zero outcome and the stop test keeps its answer:
        it joins `skip`, and the source draws past it."""
        if not forced and not self._regions_below_threshold():
            return 0.0
        total = 0.0
        # a full device is a survival situation, not a policy decision:
        # the forced path always uses the deterministic fallback
        source = (fallback_source if forced or self.action_source is None
                  else self.action_source)
        rounds = 0
        skip = None     # None: the last action acted (or none ran yet)
        while rounds < SAFETY_BOUND:
            if skip is None:
                # round 0 is past its stop test: the one above, or the
                # caller's
                if rounds and ((self._has_space(SLC) or self._has_space(QLC))
                               if forced
                               else not self._regions_below_threshold()):
                    return total
                skip = set() if self.mc_eligible() else {SLC_TO_QLC_MC}
            kind, draws = source(self, skip, SAFETY_BOUND - rounds)
            rounds += draws
            if kind is None:
                self.ineffective_actions += draws
                break
            # the draws before `kind` were skipped: zero outcomes that take
            # no time
            self.ineffective_actions += draws - 1
            if kind is IDLE:
                return total
            outcome = self.execute_action(kind)
            total += outcome.latency_us
            if outcome.effective:
                skip = None
            else:
                skip.add(kind)
                self.ineffective_actions += 1
        # SAFETY_BOUND draws and still short of space
        self.capacity_pressure_warnings += 1
        return total

    def select_victim(self, mode: Mode) -> int | None:
        """Full block in `mode` with >=1 invalid page (active blocks are never
        full, free ones hold no invalid page); fewest valid pages wins, ties
        broken by `_wear_key`: lowest erase count, then lowest id. The
        buckets are sets, so this scans the fewest-valid one."""
        buckets = self.ssd.reclaimable[mode]
        if not buckets:
            return None
        return min(buckets[min(buckets)], key=self._wear_key)

    def _gc_victim(self, src: Mode, dst: Mode) -> int | None:
        """`select_victim(src)` if its valid pages fit in `dst`, else None."""
        victim = self.select_victim(src)
        if (victim is None or self.ssd.valid_count[victim]
                > self._free_pages(dst)):
            return None
        return victim

    def execute_action(self, kind: ActionKind) -> ActionOutcome:
        """Apply one space-management action, repeated up to the config's
        granularity for its kind; never fatal on unmet preconditions, just a
        zero outcome (the agent may pick bad actions)."""
        out = ActionOutcome()
        if kind in GC_MODES:
            for _ in range(self.config.gc_granularity):
                if not self._gc_once(*GC_MODES[kind], out):
                    break
        elif kind is SLC_TO_QLC_MC:
            for _ in range(self.config.conversion_granularity):
                if not self._convert_once(out):
                    break
        return out

    def _gc_once(self, src: Mode, dst: Mode, out: ActionOutcome) -> bool:
        victim = self._gc_victim(src, dst)
        if victim is None:
            return False
        ssd = self.ssd
        lpns = [lpn for lpn in ssd.pages[victim] if lpn >= 0]
        # relocate refuses a plan that leaves a valid page behind
        erase_us = ssd.relocate(victim, self._plan(dst, lpns))
        self.wa.device_pages_written += len(lpns)
        # each page is a read then a program, summed in that order
        read_us, write_us = ssd.latency.read_us(src), ssd.latency.write_us(dst)
        latency = out.latency_us
        for _ in lpns:
            latency += read_us
            latency += write_us
        out.latency_us = latency + erase_us
        out.pages_migrated += len(lpns)
        out.blocks_reclaimed += 1
        heappush(self.free[src][ssd.geometry.channel_of(victim)],
                 self._wear_key(victim))
        self.free_count[src] += 1
        return True

    def _convert_once(self, out: ActionOutcome) -> bool:
        # cheapest free SLC block by the allocation key: the least head
        # among the channel heaps. Conversion is a metadata flip, so no
        # latency and no erase here, and the key moves unchanged to the
        # same channel's QLC heap
        key = min((pool[0] for pool in self.free[SLC] if pool), default=None)
        if key is None:
            return False
        block_id = key % len(self.ssd.mode)
        ch = self.ssd.geometry.channel_of(block_id)
        heappop(self.free[SLC][ch])
        self.ssd.convert_block_mode(block_id, QLC)
        heappush(self.free[QLC][ch], key)
        self.free_count[SLC] -= 1
        self.free_count[QLC] += 1
        out.blocks_converted += 1
        return True
