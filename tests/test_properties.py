"""Property-based invariants over randomized inputs."""
import math
import random
import statistics
import tempfile
from collections import deque
from heapq import heappush
from pathlib import Path
from functools import partial
from types import MethodType

import pytest
from hypothesis import example, given, settings, strategies as st

from hybridssd.config import (ConfigProfile, PlacementStrategy,
                              TUNABLE_PARAMS, default_param_bounds,
                              parse_scalar, validate_profile)
from hybridssd.errors import CapacityError, ConfigError, NoValidUpdate
from hybridssd.ftl import (ACTION_ORDER, SAFETY_BOUND, ActionKind,
                           ActionOutcome, FtlEngine, fallback_source)
from hybridssd.hotness import HotnessClassifier
from hybridssd.monitor import SlidingWindow
from hybridssd.replay import SimulatorStack
from hybridssd.rl import (INTENSITY_SAMPLES, N_QUARTILES, AgentState, QTable,
                          SpaceAgent, reward)
from hybridssd.ssd import (NO_PAGES, LatencyModel, Mode, SsdState,
                           desk_geometry)
from hybridssd.trace import (FORMATS, OpKind, TraceRecord, load_trace,
                             page_span)
from hybridssd.tuner import correct_mistakes

from conftest import StreakCases, make_stack
from oracles import (FlatQTable, PagePayloads, PerBlockDevice, PerPageHost,
                     ReferenceAgent, ReferenceClassifier, bucket_fraction,
                     free_ids, least_worn, per_draw,
                     per_round_space_management, reference_load_trace)

PAGE = 16384
BOUNDS = default_param_bounds(PAGE)


# --- device integrity under random workloads -----------------------------------------

op_strategy = st.tuples(
    st.sampled_from(["write", "read"]),
    st.integers(min_value=0, max_value=279),     # logical space of the stack
    st.integers(min_value=1, max_value=4),
)


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(op_strategy, min_size=1, max_size=120))
def test_mapping_stays_consistent_under_any_workload(ops):
    stack = make_stack(gc_trigger_threshold=13)
    payloads = PagePayloads(stack.ftl)
    logical = stack.ssd.logical_capacity_pages
    shadow = {}
    # a sequential 0.9 fill first, so the ops below overwrite live data on a
    # device short of space and GC has to migrate valid pages
    for lpn in range(int(0.9 * logical)):
        stack.ftl.handle_write(lpn, 1, tag=(lpn, "fill"))
        shadow[lpn] = (lpn, "fill")
    for i, (kind, lpn, n) in enumerate(ops):
        n = min(n, logical - lpn)
        if kind == "write":
            stack.ftl.handle_write(lpn, n, tag=(lpn, i))
            for j in range(n):
                shadow[lpn + j] = (lpn, i)
        else:
            stack.ftl.handle_read(lpn, n)
    stack.ssd.audit()
    # every live page still carries the tag of its last host write, through
    # any number of GC migrations
    for lpn, tag in shadow.items():
        assert payloads.payload_of(lpn) == tag
    assert stack.ssd.valid_pages() == len(shadow)


@settings(max_examples=20, deadline=None)
@given(ops=st.lists(op_strategy, min_size=1, max_size=80),
       fraction=st.floats(min_value=0.0, max_value=0.9))
def test_audit_holds_after_prefill_too(ops, fraction):
    stack = make_stack(gc_trigger_threshold=13)
    stack.prefill(fraction)
    logical = stack.ssd.logical_capacity_pages
    for kind, lpn, n in ops:
        n = min(n, logical - lpn)
        if kind == "write":
            stack.ftl.handle_write(lpn, n)
        else:
            stack.ftl.handle_read(lpn, n)
    stack.ssd.audit()


def reference_victim(ftl, mode):
    """select_victim's rule spelled out over explicit active ids."""
    active = {b for slots in ftl.active.values() for b in slots
              if b is not None}
    ssd = ftl.ssd
    keys = [(valid, ssd.erase_count[block_id], block_id)
            for block_id, valid in enumerate(ssd.valid_count)
            if ssd.mode[block_id] is mode
            and len(ssd.pages[block_id]) - valid and block_id not in active]
    return min(keys)[2] if keys else None


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(op_strategy, min_size=1, max_size=120),
       gc_granularity=st.integers(min_value=1, max_value=3),
       conversion_granularity=st.integers(min_value=1, max_value=3))
def test_only_active_blocks_are_partly_written(ops, gc_granularity,
                                               conversion_granularity):
    # the invariant select_victim relies on: a block that is neither free
    # nor active is full, and an active block never is
    stack = make_stack(gc_trigger_threshold=13, rl_exploration=0.5,
                       gc_granularity=gc_granularity,
                       conversion_granularity=conversion_granularity)
    ftl = stack.ftl
    logical = stack.ssd.logical_capacity_pages
    for kind, lpn, n in ops:
        n = min(n, logical - lpn)
        if kind == "write":
            ftl.handle_write(lpn, n)
        else:
            ftl.handle_read(lpn, n)
        active = {b for slots in ftl.active.values() for b in slots
                  if b is not None}
        free = {b for mode in (Mode.SLC, Mode.QLC)
                for ch in range(stack.ssd.geometry.channels)
                for b in free_ids(ftl, mode, ch)}
        for block_id in range(stack.ssd.geometry.total_blocks):
            if block_id in active:
                assert not stack.ssd.is_full(block_id), block_id
            elif block_id not in free:
                assert stack.ssd.is_full(block_id), block_id
        for mode in (Mode.SLC, Mode.QLC):
            assert ftl.select_victim(mode) == reference_victim(ftl, mode)


pool_op_strategy = st.one_of(
    st.tuples(st.just("write"), st.integers(min_value=0, max_value=10**6),
              st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("action"), st.sampled_from(ACTION_ORDER)))


def check_free_pools(ftl):
    """Each pool holds the current `_wear_key` of exactly the fully-free,
    non-active blocks of its mode and channel; `free_count` agrees."""
    ssd = ftl.ssd
    active = {b for slots in ftl.active.values() for b in slots
              if b is not None}
    for mode in (Mode.SLC, Mode.QLC):
        for ch, pool in enumerate(ftl.free[mode]):
            assert sorted(pool) == sorted(
                ftl._wear_key(b) for b in free_ids(ftl, mode, ch))
            assert free_ids(ftl, mode, ch) == {
                b for b, pages in enumerate(ssd.pages)
                if ssd.mode[b] is mode and ssd.geometry.channel_of(b) == ch
                and pages is NO_PAGES and b not in active}
        assert ftl.free_count[mode] == sum(len(p) for p in ftl.free[mode])


def run_pool_ops(ops, fraction, gc_granularity, conversion_granularity):
    """Fill a fresh device to `fraction`, then run `ops`, checking each free
    pool pick against a set scan and the pools against the device after
    every op. GC erases give blocks wear, so later picks weigh it. Returns
    how many picks took a block other than the lowest id on offer."""
    ssd = SsdState(desk_geometry(channels=2, blocks_per_channel=12,
                                 pages_per_block_slc=4),
                   LatencyModel(), initial_mode_split=0.5)
    ftl = FtlEngine(ssd, ConfigProfile(
        gc_trigger_threshold=13, gc_granularity=gc_granularity,
        conversion_granularity=conversion_granularity))
    pop_free, convert_once = ftl._pop_free, ftl._convert_once
    worn_picks = 0

    def checked_pop_free(mode, ch):
        nonlocal worn_picks
        ids = free_ids(ftl, mode, ch)
        expected = least_worn(ssd.erase_count, ids)
        worn_picks += expected != min(ids)
        assert pop_free(mode, ch) == expected
        return expected

    def checked_convert_once(out):
        nonlocal worn_picks
        slc = set().union(*(free_ids(ftl, Mode.SLC, ch) for ch in range(2)))
        expected = least_worn(ssd.erase_count, slc)
        converted = convert_once(out)
        left = slc - set().union(
            *(free_ids(ftl, Mode.SLC, ch) for ch in range(2)))
        assert left == ({expected} if converted else set())
        worn_picks += converted and expected != min(slc)
        return converted

    ftl._pop_free, ftl._convert_once = checked_pop_free, checked_convert_once
    logical = ssd.logical_capacity_pages
    check_free_pools(ftl)
    # a fill first, so that the ops below overwrite data and GC finds victims
    ftl.fill(int(logical * fraction))
    check_free_pools(ftl)
    for op in ops:
        if op[0] == "write":
            lpn = op[1] % logical
            ftl.handle_write(lpn, min(op[2], logical - lpn))
        else:
            ftl.execute_action(op[1])
        check_free_pools(ftl)
    ssd.audit()
    return worn_picks


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(pool_op_strategy, min_size=1, max_size=80),
       fraction=st.floats(min_value=0.0, max_value=0.9),
       gc_granularity=st.integers(min_value=1, max_value=3),
       conversion_granularity=st.integers(min_value=1, max_value=3))
def test_free_pools_pick_what_a_set_scan_picks(ops, fraction,
                                               gc_granularity,
                                               conversion_granularity):
    run_pool_ops(ops, fraction, gc_granularity, conversion_granularity)


def test_a_free_pool_pick_passes_over_a_worn_lower_id():
    # block 0 (channel 0) fills, loses half its pages and is collected:
    # erased once, it is pooled again below the unworn ids 4, 6, ...; the
    # writes after it pop channel 0's pool, then conversions take the rest
    ops = [("write", 0, 4), ("write", 4, 4), ("write", 0, 4),
           ("action", ActionKind.SLC_INTERNAL_GC), ("write", 8, 8),
           ("write", 16, 8), ("action", ActionKind.SLC_TO_QLC_MC)]
    assert run_pool_ops(ops, fraction=0.0, gc_granularity=1,
                        conversion_granularity=2) > 0


# --- bulk device build ---------------------------------------------------------------

def is_heap(pool):
    return all(pool[(i - 1) // 2] <= pool[i] for i in range(1, len(pool)))


@settings(max_examples=80, deadline=None)
@given(channels=st.integers(min_value=1, max_value=4),
       blocks=st.integers(min_value=1, max_value=12),
       ppb=st.integers(min_value=1, max_value=8),
       split=st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0)),
       wear=st.lists(st.integers(min_value=0, max_value=5), max_size=48),
       conversions=st.lists(st.tuples(st.integers(min_value=0,
                                                  max_value=47),
                                      st.sampled_from(list(Mode))),
                            max_size=12))
# worn SLC and QLC blocks on both channels, one block converted each way
@example(channels=2, blocks=3, ppb=2, split=0.5, wear=[3, 0, 2, 0, 1, 1],
         conversions=[(4, Mode.SLC), (1, Mode.QLC)])
def test_bulk_build_matches_the_per_block_build(channels, blocks, ppb, split,
                                                wear, conversions):
    geo = desk_geometry(channels=channels, blocks_per_channel=blocks,
                        pages_per_block_slc=ppb)
    ssd = SsdState(geo, LatencyModel(), split)
    oracle = PerBlockDevice(geo, split, Mode.SLC, Mode.QLC)

    def block_fields():
        return list(zip(ssd.mode, ssd.pages,
                        map(ssd.free_pages, range(geo.total_blocks)),
                        ssd.erase_count, ssd.valid_count))

    def check_engine_pools():
        ftl = FtlEngine(ssd, ConfigProfile())
        pools = {mode: [sorted(pool) for pool in by_channel]
                 for mode, by_channel in ftl.free.items()}
        assert pools == oracle.free_pools(ftl._wear_key)
        assert all(is_heap(pool) for by_channel in ftl.free.values()
                   for pool in by_channel)
        assert ftl.free_count == oracle.block_tally

    assert block_fields() == oracle.fields()
    assert ssd.block_tally == oracle.block_tally
    check_engine_pools()
    ssd.audit()
    # wear and modes set on the device; blocks past the end of `wear` stay
    # unworn
    for block_id, erases in zip(range(geo.total_blocks), wear):
        ssd.erase_count[block_id] = erases
        oracle.wear(block_id, erases)
    for block_id, mode in conversions:
        block_id %= geo.total_blocks
        ssd.convert_block_mode(block_id, mode)
        oracle.convert(block_id, mode)
    assert block_fields() == oracle.fields()
    assert ssd.block_tally == oracle.block_tally
    ssd.audit()
    # an engine pools only a device whose pools are ranges of ids: no block
    # worn, SLC ids from 0 and QLC ids after them
    n_slc = ssd.block_tally[Mode.SLC]
    if any(ssd.erase_count) or ssd.mode != (
            [Mode.SLC] * n_slc + [Mode.QLC] * (geo.total_blocks - n_slc)):
        with pytest.raises(ValueError, match="fresh device"):
            FtlEngine(ssd, ConfigProfile())
    else:
        check_engine_pools()


# --- bulk sequential fill ------------------------------------------------------------

def device_state(ftl):
    """Everything a fill leaves in the device and the FTL."""
    ssd = ftl.ssd
    return {
        "mode": ssd.mode, "pages": ssd.pages,
        "erase_count": ssd.erase_count, "valid_count": ssd.valid_count,
        "mapping": ssd.mapping, "block_tally": ssd.block_tally,
        "reclaimable": ssd.reclaimable,
        "device_pages_written": ssd.device_pages_written,
        "erase_ops": ssd.erase_ops,
        # the pooled keys; a heap's list order depends on its push history
        "free": {mode: [sorted(pool) for pool in pools]
                 for mode, pools in ftl.free.items()},
        "free_count": ftl.free_count, "active": ftl.active,
        "stripe_cursor": ftl.stripe_cursor, "wa": ftl.wa,
        "action_counts": ftl.action_counts,
        "ineffective_actions": ftl.ineffective_actions,
        "capacity_pressure_warnings": ftl.capacity_pressure_warnings,
        "rejected_requests": ftl.rejected_requests,
        "unmapped_reads": ftl.unmapped_reads,
    }


@settings(max_examples=80, deadline=None)
@given(channels=st.integers(min_value=1, max_value=4),
       blocks=st.integers(min_value=1, max_value=12),
       ppb=st.integers(min_value=1, max_value=12),
       op_ratio=st.floats(min_value=0.0, max_value=0.5),
       split=st.floats(min_value=0.0, max_value=1.0),
       strategy=st.sampled_from(list(PlacementStrategy)),
       gc_trigger=st.integers(min_value=1, max_value=50),
       conversion_trigger=st.integers(min_value=1, max_value=50),
       conversion_granularity=st.integers(min_value=1, max_value=4),
       fraction=st.floats(min_value=0.0, max_value=1.0))
# both cross SAFETY_BOUND mid-fill; on one channel the page after it is no
# block boundary, so only the space-management check makes it a one-page run
@example(channels=8, blocks=32, ppb=32, op_ratio=0.125, split=1.0,
         strategy=PlacementStrategy.SLC_FIRST, gc_trigger=50,
         conversion_trigger=50, conversion_granularity=1, fraction=0.9)
@example(channels=1, blocks=256, ppb=8, op_ratio=0.125, split=1.0,
         strategy=PlacementStrategy.SLC_FIRST, gc_trigger=50,
         conversion_trigger=50, conversion_granularity=1, fraction=0.9)
# a pop makes SLC short while the fallback idles: the run goes on past it
@example(channels=2, blocks=8, ppb=4, op_ratio=0.125, split=0.5,
         strategy=PlacementStrategy.SLC_FIRST, gc_trigger=40,
         conversion_trigger=1, conversion_granularity=1, fraction=1.0)
# a pop in the middle of a stripe makes conversion eligible, and the
# fallback converts SLC blocks on all four channels
@example(channels=4, blocks=8, ppb=4, op_ratio=0.125, split=1.0,
         strategy=PlacementStrategy.SLC_FIRST, gc_trigger=30,
         conversion_trigger=20, conversion_granularity=3, fraction=1.0)
# QLC first: a QLC pop makes it short, the fill spills to SLC, and an SLC
# pop there converts SLC blocks to QLC
@example(channels=3, blocks=8, ppb=4, op_ratio=0.125, split=0.75,
         strategy=PlacementStrategy.HOTNESS_BASED, gc_trigger=30,
         conversion_trigger=30, conversion_granularity=2, fraction=1.0)
def test_bulk_fill_matches_per_page_fill(channels, blocks, ppb, op_ratio,
                                         split, strategy, gc_trigger,
                                         conversion_trigger,
                                         conversion_granularity, fraction):
    def engine():
        geo = desk_geometry(channels=channels, blocks_per_channel=blocks,
                            pages_per_block_slc=ppb, op_ratio=op_ratio)
        return FtlEngine(SsdState(geo, LatencyModel(), split), ConfigProfile(
            placement_strategy=strategy, gc_trigger_threshold=gc_trigger,
            conversion_trigger_threshold=conversion_trigger,
            conversion_granularity=conversion_granularity))

    bulk, oracle = engine(), engine()
    n = int(oracle.ssd.logical_capacity_pages * fraction)
    for lpn in range(n):
        oracle.handle_write(lpn)
    # a fill keeps device and placement state only
    oracle.reset_counters()
    bulk.fill(n)
    assert device_state(bulk) == device_state(oracle)
    bulk.ssd.audit()


# --- bulk GC migration and the futile-kind rule -------------------------------------------

def per_page_host(ftl):
    """The engine's host path, one page at a time."""
    return PerPageHost(ftl, Mode.SLC, Mode.QLC, PlacementStrategy.SLC_FIRST)


def per_page_gc_once(ftl, src, dst, out):
    """`FtlEngine._gc_once` one page at a time: read, invalidate, allocate
    and program each valid page of the victim in page order, then erase."""
    victim = ftl._gc_victim(src, dst)
    if victim is None:
        return False
    host = per_page_host(ftl)
    pages = ftl.ssd.pages[victim]
    for idx in range(len(pages)):
        lpn = pages[idx]
        if lpn < 0:
            continue
        out.latency_us += ftl.ssd.read_page(victim, idx)
        ftl.ssd.invalidate_page(victim, idx)
        placed = host.allocate_page(dst)
        out.latency_us += host.program(placed, lpn)[0]
        out.pages_migrated += 1
    out.latency_us += ftl.ssd.erase_block(victim)
    out.blocks_reclaimed += 1
    heappush(ftl.free[src][ftl.ssd.geometry.channel_of(victim)],
             ftl._wear_key(victim))
    ftl.free_count[src] += 1
    return True


def every_pick_space_management(ftl, forced=False):
    """`FtlEngine._space_management` re-testing the stop condition and
    executing every pick, however futile."""
    total = 0.0
    rounds = 0
    while rounds < SAFETY_BOUND:
        if forced:
            if ftl._has_space(Mode.SLC) or ftl._has_space(Mode.QLC):
                break
        elif not ftl._regions_below_threshold():
            break
        source = (fallback_source if forced or ftl.action_source is None
                  else ftl.action_source)
        kind, _ = source(ftl, (), 1)
        if kind is ActionKind.IDLE:
            break
        if kind is ActionKind.SLC_TO_QLC_MC and not ftl.mc_eligible():
            outcome = ActionOutcome()
        else:
            outcome = ftl.execute_action(kind)
        if not outcome.effective:
            ftl.ineffective_actions += 1
        total += outcome.latency_us
        rounds += 1
    if rounds >= SAFETY_BOUND:
        ftl.capacity_pressure_warnings += 1
    return total


# flash costs that are not whole microseconds: a sum in another order
# differs in the last bits
FRACTIONAL = LatencyModel(read_slc=20.3, read_qlc=140.7, write_slc=200.1,
                          write_qlc=2000.9, erase_slc=3000.3, erase_qlc=3500.7)


def sticky_picker(seed, stay):
    """Scripted action source: a random kind, IDLE rarely, repeating the
    last pick with probability `stay` (so futile kinds come back to back)."""
    rng = random.Random(seed)
    kinds = [k for k in ACTION_ORDER if k is not ActionKind.IDLE] * 4
    kinds.append(ActionKind.IDLE)
    last = rng.choice(kinds)

    def pick(ftl):
        nonlocal last
        if rng.random() >= stay:
            last = rng.choice(kinds)
        return last
    return pick


# in a request's hot slot: the request is a read
READ = "read"


def run_twin_engines(make_engine, reference, writes, fill_fraction,
                     engines=None, clamp=True):
    """Run a reference and the real engine through the same fill and
    requests, asserting the same latency and state after every step.
    `writes` holds (lpn, n_pages, hot) requests, a read where hot is READ.
    With `clamp` each request is cut to fit the logical space; without,
    only a non-negative lpn wraps into it, so a negative lpn, a count
    below 1 or a span past the end is a rejected request.
    The real engine's GC must rewrite each moved lpn's map entry in place:
    it keeps the mapping's keys in their order, where a delete and
    re-insert would send the key to the end.
    Returns what the real engine's GC did: the (victim, destination) modes
    of migrations that moved pages, and "pop" if a destination popped a
    free block mid-migration."""
    real, ref = engines or (make_engine(), make_engine())
    reference(ref)
    seen = set()
    gc_once = real._gc_once

    def observed_gc_once(src, dst, out):
        free_before = real.free_count[dst]
        moved = out.pages_migrated
        keys = list(real.ssd.mapping)
        done = gc_once(src, dst, out)
        assert list(real.ssd.mapping) == keys
        if out.pages_migrated > moved:
            seen.add((src, dst))
            if real.free_count[dst] - (src is dst) < free_before:
                seen.add("pop")
        return done

    real._gc_once = observed_gc_once
    logical = real.ssd.logical_capacity_pages
    for ftl in (real, ref):
        ftl.fill(int(logical * fill_fraction))
    assert device_state(real) == device_state(ref)
    for lpn, n, hot in writes:
        if not logical:
            break
        if clamp:
            lpn %= logical
            n = min(n, logical - lpn)
        elif lpn >= 0:
            lpn %= logical
        results = []
        for ftl in (real, ref):
            try:
                results.append(ftl.handle_read(lpn, n) if hot is READ
                               else ftl.handle_write(lpn, n, hot=hot))
            except CapacityError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        assert device_state(real) == device_state(ref)
        if isinstance(results[0], str):
            break
    real.ssd.audit()
    return seen


twin_geometry = dict(
    channels=st.integers(min_value=1, max_value=4),
    blocks=st.integers(min_value=2, max_value=10),
    ppb=st.integers(min_value=1, max_value=8),
    op_ratio=st.floats(min_value=0.05, max_value=0.5),
    split=st.floats(min_value=0.0, max_value=1.0),
    strategy=st.sampled_from(list(PlacementStrategy)),
    gc_trigger=st.integers(min_value=5, max_value=50),
    gc_granularity=st.integers(min_value=1, max_value=3),
    picker_seed=st.one_of(st.none(), st.integers(min_value=0,
                                                 max_value=2**16)),
    fill_fraction=st.floats(min_value=0.0, max_value=0.95),
    writes=st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                              st.integers(min_value=1, max_value=6),
                              st.sampled_from([None, True, False])),
                    max_size=60),
)


def twin_engine_factory(channels, blocks, ppb, op_ratio, split, strategy,
                        gc_trigger, gc_granularity, picker_seed, stay=0.5):
    def make():
        geo = desk_geometry(channels=channels, blocks_per_channel=blocks,
                            pages_per_block_slc=ppb, op_ratio=op_ratio)
        source = (None if picker_seed is None
                  else per_draw(sticky_picker(picker_seed, stay)))
        return FtlEngine(SsdState(geo, FRACTIONAL, split), ConfigProfile(
            placement_strategy=strategy, gc_trigger_threshold=gc_trigger,
            conversion_trigger_threshold=gc_trigger,
            gc_granularity=gc_granularity), source)
    return make


def per_page_gc(ftl):
    ftl._gc_once = MethodType(per_page_gc_once, ftl)


def execute_every_pick(ftl):
    ftl._space_management = MethodType(every_pick_space_management, ftl)


# SLC->QLC and internal GC, granularity 3, destinations popping free blocks
PINNED_MIGRATION = dict(
    channels=3, blocks=6, ppb=4, op_ratio=0.2, split=0.5,
    strategy=PlacementStrategy.SLC_FIRST, gc_trigger=30,
    gc_granularity=3, picker_seed=3, fill_fraction=0.9,
    writes=[(lpn * 7, 1 + lpn % 3, lpn % 3 == 0 or None)
            for lpn in range(60)])


@settings(max_examples=60, deadline=None)
@given(**twin_geometry)
@example(**PINNED_MIGRATION)
def test_bulk_migration_matches_per_page_migration(
        channels, blocks, ppb, op_ratio, split, strategy, gc_trigger,
        gc_granularity, picker_seed, fill_fraction, writes):
    run_twin_engines(twin_engine_factory(
        channels, blocks, ppb, op_ratio, split, strategy, gc_trigger,
        gc_granularity, picker_seed), per_page_gc, writes, fill_fraction)


def test_pinned_migration_reaches_every_bulk_case():
    params = dict(PINNED_MIGRATION)
    writes, fill_fraction = params.pop("writes"), params.pop("fill_fraction")
    seen = run_twin_engines(twin_engine_factory(**params), per_page_gc,
                            writes, fill_fraction)
    assert {(Mode.SLC, Mode.QLC), (Mode.SLC, Mode.SLC), (Mode.QLC, Mode.QLC),
            "pop"} <= seen


def test_pinned_picks_reach_the_futile_cases():
    params = dict(PINNED_MIGRATION)
    writes, fill_fraction = params.pop("writes"), params.pop("fill_fraction")
    make = twin_engine_factory(stay=0.9, **params)
    real, ref = make(), make()
    executed = {}
    for name, ftl in (("real", real), ("ref", ref)):
        def counting(kind, execute=ftl.execute_action, name=name):
            executed[name] = executed.get(name, 0) + 1
            return execute(kind)
        ftl.execute_action = counting
    run_twin_engines(make, execute_every_pick, writes, fill_fraction,
                     engines=(real, ref))
    assert real.capacity_pressure_warnings > 0
    assert all(real.action_counts[kind] for kind in ACTION_ORDER)
    # the same ineffective count, with most repeats never executed
    assert executed["real"] < executed["ref"] - real.ineffective_actions // 2


@settings(max_examples=60, deadline=None)
@given(stay=st.sampled_from([0.0, 0.5, 0.9, 1.0]), **twin_geometry)
@example(stay=1.0, **PINNED_MIGRATION)
def test_skipping_futile_repeats_matches_executing_every_pick(
        stay, channels, blocks, ppb, op_ratio, split, strategy, gc_trigger,
        gc_granularity, picker_seed, fill_fraction, writes):
    # counts, warnings, latency and state are compared after every write
    run_twin_engines(twin_engine_factory(
        channels, blocks, ppb, op_ratio, split, strategy, gc_trigger,
        gc_granularity, picker_seed, stay), execute_every_pick, writes,
        fill_fraction)


# --- the host path per span -----------------------------------------------------------

def per_page_host_path(ftl):
    host = per_page_host(ftl)
    ftl.handle_write, ftl.handle_read = host.handle_write, host.handle_read


span_requests = st.lists(
    st.tuples(st.integers(min_value=-2, max_value=10**6),
              st.integers(min_value=0, max_value=8),
              st.sampled_from([None, True, False, READ])),
    max_size=60)


# eight blocks (40 raw pages), half full: spans switch region mid-span, one
# forces space management, a later one runs out of space mid-span; reads,
# unmapped reads and rejected requests (negative lpn, no page, past the
# end) between
PINNED_SPANS = dict(
    channels=2, blocks=4, ppb=2, op_ratio=0.2, split=0.5,
    strategy=PlacementStrategy.HOTNESS_BASED, gc_trigger=10,
    gc_granularity=1, picker_seed=3, fill_fraction=0.5,
    writes=[(i * 7 - 2 * (i % 17 == 5), i % 9, (None, True, False, READ)[i % 4])
            for i in range(80)])


@settings(max_examples=80, deadline=None)
@given(**{**twin_geometry, "writes": span_requests})
@example(**PINNED_SPANS)
def test_span_host_path_matches_the_per_page_path(
        channels, blocks, ppb, op_ratio, split, strategy, gc_trigger,
        gc_granularity, picker_seed, fill_fraction, writes):
    run_twin_engines(twin_engine_factory(
        channels, blocks, ppb, op_ratio, split, strategy, gc_trigger,
        gc_granularity, picker_seed), per_page_host_path, writes,
        fill_fraction, clamp=False)


def test_pinned_spans_reach_every_host_case():
    params = dict(PINNED_SPANS)
    writes, fill_fraction = params.pop("writes"), params.pop("fill_fraction")
    make = twin_engine_factory(**params)
    real, ref = make(), make()
    seen = set()
    span_modes = []
    program, space_management = real.ssd.program_page, real._space_management
    write, read = real.handle_write, real.handle_read

    def recording_program(block_id, page_idx, lpn):
        span_modes[-1].append(real.ssd.mode[block_id])
        return program(block_id, page_idx, lpn)

    def recording_space_management(forced=False):
        if forced:
            seen.add("forced")
        return space_management(forced)

    def recording_write(lpn, n_pages=1, hot=None):
        span_modes.append([])
        programmed = real.ssd.device_pages_written
        try:
            return write(lpn, n_pages, hot)
        except CapacityError:
            if real.ssd.device_pages_written > programmed:
                seen.add("full mid-span")
            raise
        finally:
            if len(set(span_modes[-1])) > 1:
                seen.add("switch")

    def recording_read(lpn, n_pages=1):
        us = read(lpn, n_pages)
        if us:
            seen.add("read")
        return us

    real.ssd.program_page = recording_program
    real._space_management = recording_space_management
    real.handle_write, real.handle_read = recording_write, recording_read
    run_twin_engines(make, per_page_host_path, writes, fill_fraction,
                     engines=(real, ref), clamp=False)
    assert seen == {"forced", "full mid-span", "switch", "read"}
    assert real.rejected_requests and real.unmapped_reads


@settings(max_examples=100, deadline=None)
@given(spans=st.lists(st.tuples(st.integers(min_value=0, max_value=200),
                                st.integers(min_value=1, max_value=8),
                                st.floats(min_value=0.0, max_value=1e4)),
                      min_size=1, max_size=40),
       pages_per_slice=st.integers(min_value=1, max_value=8))
def test_record_write_of_a_span_matches_per_page_calls(spans,
                                                       pages_per_slice):
    clf = HotnessClassifier(PAGE * pages_per_slice, PAGE)
    ref = ReferenceClassifier(PAGE * pages_per_slice, PAGE)
    now = 0.0
    for lpn, n, dt in spans:
        now += dt
        clf.record_write(lpn, now, n)
        for i in range(lpn, lpn + n):
            ref.record_write(i, now)
    assert clf.writes_since_classify == ref.writes_since_classify
    assert clf.slices == {
        idx: [s.update_count, s.last_time_us, s.mean_interval_us]
        for idx, s in ref.stats.slices.items()}


# --- page span -----------------------------------------------------------------------

@settings(max_examples=200)
@given(offset=st.integers(min_value=0, max_value=2**40),
       size=st.integers(min_value=0, max_value=PAGE * 64),
       logical=st.integers(min_value=2, max_value=4096))
def test_page_span_covers_exactly_the_addressed_pages(offset, size, logical):
    rec = TraceRecord(OpKind.WRITE, offset, size)
    spans = page_span(rec, PAGE, logical)
    assert 1 <= len(spans) <= 2
    for start, n in spans:
        assert 0 <= start < logical
        assert n >= 1
        assert start + n <= logical    # runs never cross the boundary
    first = (offset // PAGE) % logical
    total = sum(n for _, n in spans)
    expect = {(first + i) % logical for i in range(total)}
    covered = {start + i for start, n in spans for i in range(n)}
    assert covered == expect
    if len(spans) == 2:                # a wrap splits at the boundary
        assert spans[0][0] + spans[0][1] == logical
        assert spans[1][0] == 0


# --- trace ingest ----------------------------------------------------------------------

# per column read: tokens that parse, then tokens that make the line malformed
# (non-finite, overflowing, negative, zero-sized, not a number, unknown op)
TIMESTAMPS = ["0", "5", "5", "7", "1.5", "100"]        # repeats make ties
OPS = ["Read", "write", "R", " w ", "READ", "W"]
NUMBERS = ["0", "1", "512", "4096", "16384.0", "7e3"]
BAD = ["nan", "inf", "-inf", "1e999", "-5", "0", "x", "Scrub", "", "-0.5"]
SPECIAL_LINES = ["", "   ", "# a comment", "#", "garbage line", "1,2"]


@st.composite
def trace_lines(draw, fmt):
    spec = FORMATS[fmt]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(st.sampled_from(SPECIAL_LINES))
    cols = ["0"] * (max(spec.ts_col, spec.op_col, spec.offset_col,
                        spec.size_col) + 2)
    cols[spec.ts_col] = draw(st.sampled_from(TIMESTAMPS))
    cols[spec.op_col] = draw(st.sampled_from(OPS))
    cols[spec.offset_col] = draw(st.sampled_from(NUMBERS))
    cols[spec.size_col] = draw(st.sampled_from(NUMBERS[1:]))
    if draw(st.booleans()):
        col = draw(st.sampled_from([spec.ts_col, spec.op_col,
                                    spec.offset_col, spec.size_col]))
        cols[col] = draw(st.sampled_from(BAD))
    cols = cols[:draw(st.integers(min_value=len(cols) - 3,
                                  max_value=len(cols)))]
    return (spec.delimiter or " ").join(cols)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(FORMATS)).flatmap(
    lambda fmt: st.tuples(st.just(fmt),
                          st.lists(trace_lines(fmt), max_size=40))))
# a comment, a blank line, ties on 5 and 7, missing columns, an unknown op,
# a negative offset, non-finite numbers and an overflowing one
@example(case=("msr", ["# header", "7,hm,0,Write,0,512,1", "",
                       "5,hm,0,Read,512,512,1", "7,hm,0,Read,1024,512,1",
                       "5,hm,0,Write,1536,4096,1", "5,hm,0,Write,0",
                       "5,hm,0,Scrub,0,512,1", "5,hm,0,Read,-5,512,1",
                       "nan,hm,0,Read,0,512,1", "inf,hm,0,Read,0,512,1",
                       "1,hm,0,Read,1e999,512,1", "1,hm,0,Read,0,inf,1"]))
def test_load_trace_matches_the_per_line_parser(case):
    fmt, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"trace.{fmt}"
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        records, skipped = load_trace(path, fmt)
        expected, expected_skipped = reference_load_trace(
            path, FORMATS[fmt], OpKind.READ, OpKind.WRITE)
    assert all(type(record) is TraceRecord for record in records)
    assert [(r.op, r.offset, r.size) for r in records] == expected
    assert skipped == expected_skipped


# --- scalar parsing --------------------------------------------------------------------

@settings(max_examples=100)
@given(n=st.integers(min_value=0, max_value=10**9))
def test_parse_scalar_round_trips_integers(n):
    assert parse_scalar(str(n)) == n
    assert isinstance(parse_scalar(str(n)), int)
    assert parse_scalar(f"{n}%") == n
    assert parse_scalar(f"{n}us") == n
    assert parse_scalar(f"{n}KB") == n * 1024


@settings(max_examples=100)
@given(x=st.floats(min_value=0.0001, max_value=10**6,
                   allow_nan=False, allow_infinity=False))
def test_parse_scalar_reads_floats(x):
    got = parse_scalar(f"{x!r}")
    assert got == pytest.approx(x, rel=1e-12)


@settings(max_examples=100)
@given(ms=st.integers(min_value=1, max_value=10**6))
def test_parse_scalar_millisecond_suffix_scales(ms):
    assert parse_scalar(f"{ms}ms") == ms * 1000


# --- mistake correction -----------------------------------------------------------------

scalar_values = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e12, max_value=1e12),
    st.sampled_from(["slc_first", "hotness_based", "fast", "", "12 maybe"]),
    st.booleans(),
)

candidate_dicts = st.dictionaries(
    keys=st.one_of(st.sampled_from(sorted(TUNABLE_PARAMS)),
                   st.sampled_from(["bogus_knob", "latency", "turbo"])),
    values=scalar_values, max_size=8)


@settings(max_examples=300)
@given(candidates=candidate_dicts)
def test_corrected_profiles_always_land_in_bounds(candidates):
    current = ConfigProfile()
    try:
        profile, corrections = correct_mistakes(candidates, BOUNDS, current)
    except NoValidUpdate:
        return
    validate_profile(profile, BOUNDS)    # raises on any out-of-bounds field
    for name, spec in BOUNDS.items():
        value = getattr(profile, name)
        if spec.kind == "enum":
            continue
        assert spec.lo <= value <= spec.hi, name
        if spec.step:
            assert value % spec.step == 0, name
    # applying the corrected profile back through is a no-op
    again, notes = correct_mistakes(profile.as_dict(), BOUNDS, profile)
    assert again == profile
    assert notes == []


@settings(max_examples=100)
@given(candidates=candidate_dicts)
def test_unmentioned_fields_always_inherit(candidates):
    current = ConfigProfile(window_size=777)
    try:
        profile, _ = correct_mistakes(candidates, BOUNDS, current)
    except NoValidUpdate:
        return
    mentioned = set(candidates)
    for name in TUNABLE_PARAMS:
        if name not in mentioned:
            assert getattr(profile, name) == getattr(current, name)


# --- agent state bucketing ----------------------------------------------------------------

@settings(max_examples=200)
@given(f=st.floats(min_value=-2.0, max_value=3.0,
                   allow_nan=False), n=st.integers(min_value=1, max_value=16))
def test_bucket_fraction_stays_in_range(f, n):
    assert 0 <= bucket_fraction(f, n) <= n - 1


@settings(max_examples=100)
@given(a=st.floats(min_value=0.0, max_value=1.0),
       b=st.floats(min_value=0.0, max_value=1.0))
def test_bucket_fraction_is_monotone(a, b):
    lo, hi = sorted((a, b))
    assert bucket_fraction(lo, 10) <= bucket_fraction(hi, 10)


@settings(max_examples=100)
@given(avg=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
       threshold=st.floats(min_value=1.0, max_value=1e7, allow_nan=False))
def test_reward_is_two_piece(avg, threshold):
    r = reward(avg, threshold)
    assert r == (1.0 if avg <= threshold else -1.0)


# a few repeated rates (signed zeros, infinity) plus arbitrary ones
intensity_rates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, 1.5000000000000002, 250.0, 1e9,
                     float("inf")]),
    st.floats(min_value=0.0, max_value=1e6))


def assert_ranks_match_a_window_rescan(rates):
    agent = SpaceAgent(random.Random(0))
    window = deque(maxlen=INTENSITY_SAMPLES)
    for x in rates:
        window.append(x)
        below = sum(1 for s in window if s < x)
        equal = sum(1 for s in window if s == x)
        expect = bucket_fraction((below + 0.5 * equal) / len(window),
                                 N_QUARTILES)
        assert agent.intensity_bucket(x) == expect


@settings(max_examples=30, deadline=None)
@given(rates=st.lists(intensity_rates, min_size=INTENSITY_SAMPLES + 1,
                      max_size=2 * INTENSITY_SAMPLES))
def test_intensity_bucket_matches_a_window_rescan(rates):
    assert_ranks_match_a_window_rescan(rates)


# runs of one rate, as the agent sees them between training ticks; a run
# longer than the window evicts samples below, equal to and above its rate
@settings(max_examples=25, deadline=None)
@given(runs=st.lists(st.tuples(intensity_rates,
                               st.integers(min_value=1,
                                           max_value=INTENSITY_SAMPLES + 40)),
                     min_size=1, max_size=8))
@example(runs=[(250.0, 100), (1.5, 200), (1e9, 300)])
@example(runs=[(0.0, 300), (-0.0, 10), (float("inf"), 260), (0.0, 1)])
def test_intensity_bucket_over_runs_of_one_rate(runs):
    assert_ranks_match_a_window_rescan(
        [rate for rate, length in runs for _ in range(length)])


# --- the agent against the recompute-every-call reference -----------------------------------

# one step on the observed device or the agent: decisions on an unchanged
# device, one streak of them (a limit and the kinds to draw past), new free
# counts, new block tallies (free counts clamped to them), a conversion of
# free SLC blocks to QLC, a new hot fraction, a new write rate (0.0 before
# any summary) or a training tick
agent_ops = st.one_of(
    st.tuples(st.just("decide"), st.integers(min_value=1, max_value=300)),
    st.tuples(st.just("streak"), st.integers(min_value=1, max_value=80),
              st.sets(st.sampled_from(ACTION_ORDER[:-1]))),
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=40),
              st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("tally"), st.integers(min_value=0, max_value=40),
              st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("convert"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("hot"),
              st.one_of(st.sampled_from([0.0, 0.249, 0.25, 0.5, 1.0]),
                        st.floats(min_value=0.0, max_value=1.0))),
    st.tuples(st.just("rate"),
              st.one_of(st.sampled_from([0.0, 1.5, 250.0]),
                        st.floats(min_value=0.0, max_value=1e6))),
    st.tuples(st.just("train"), st.floats(min_value=0.0, max_value=5000.0)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       epsilon=st.sampled_from([0.0, 0.1, 1.0]),
       ops=st.lists(agent_ops, max_size=30))
# samples below a repeated rate: its rank is above the middle
@example(seed=0, epsilon=0.0, ops=[("rate", 1.5), ("decide", 5),
                                   ("rate", 250.0), ("decide", 3)])
# a new tally under unchanged free counts moves the free buckets
@example(seed=0, epsilon=0.0, ops=[("decide", 2), ("tally", 40, 30),
                                   ("decide", 2)])
# a training tick that moves the greedy kind of an unchanged observation
@example(seed=0, epsilon=0.0, ops=[("decide", 1), ("train", 5000.0),
                                   ("decide", 1)])
# a greedy streak to its limit in a full window of two rates: its bucket
# moves once the repeated rate has evicted the other
@example(seed=0, epsilon=0.0, ops=[("rate", 250.0), ("decide", 56),
                                   ("rate", 1.5), ("decide", 200),
                                   ("streak", 80, {ActionKind.SLC_INTERNAL_GC})])
def test_agent_matches_the_recomputing_reference(seed, epsilon, ops):
    agent = SpaceAgent(random.Random(seed))
    ref = ReferenceAgent(random.Random(seed), ACTION_ORDER, Mode.SLC,
                         Mode.QLC)
    config = ConfigProfile()
    free = {Mode.SLC: 3, Mode.QLC: 10}
    tally = {Mode.SLC: 8, Mode.QLC: 24}
    hot, rate = 0.0, 0.0

    def observe():
        state = agent.observe_state(free, tally, rate, hot)
        assert state == ref.observe_state(free, tally, rate, hot)
        return state

    for name, *args in ops:
        if name == "decide":
            for _ in range(args[0]):
                state = observe()
                assert (agent.choose_action(state, epsilon)
                        == (ref.choose_action(state, epsilon), 1))
        elif name == "streak":
            limit, skip = args
            counts = dict.fromkeys(ACTION_ORDER, 0)
            ref_counts = dict(counts)
            state = agent.observe_state(free, tally, rate, hot)
            streak = agent.choose_action(state, epsilon, skip, limit, counts)
            # the reference observes the device again for every draw
            for draws in range(1, limit + 1):
                kind = ref.choose_action(
                    ref.observe_state(free, tally, rate, hot), epsilon)
                ref_counts[kind] += 1
                if kind is ActionKind.IDLE or kind not in skip:
                    break
            else:
                kind = None
            assert streak == (kind, draws)
            assert counts == ref_counts
        elif name in ("free", "tally"):
            counts = free if name == "free" else tally
            counts[Mode.SLC], counts[Mode.QLC] = args
            for mode in free:
                free[mode] = min(free[mode], tally[mode])
        elif name == "convert":
            k = min(args[0], free[Mode.SLC])
            free[Mode.SLC] -= k
            tally[Mode.SLC] -= k
            free[Mode.QLC] += k
            tally[Mode.QLC] += k
        elif name == "hot":
            hot = args[0]
        elif name == "rate":
            rate = args[0]
        else:
            state = observe()
            assert (agent.train(args[0], state, config)
                    == ref.train(args[0], state, config))
        assert agent.pending == ref.pending
        assert list(agent.intensity_samples) == ref.intensity_samples
        assert agent.decisions == ref.decisions
        assert agent.trainings == ref.trainings
        assert agent.rng.getstate() == ref.rng.getstate()
        assert agent.qtable.to_json_dict() == ref.qtable.to_json_dict()


# --- agent streaks against the per-round loop -----------------------------------------------

def agent_twin_stacks(seed, epsilon, channels, blocks, ppb, split, gc_trigger,
                      mc_trigger, interval, classify):
    """A stack and its reference: the same device and config, the
    reference running one space-management round per draw with a
    ReferenceAgent that observes and decides on every draw. Without
    `classify` no write is hot, so the hot fraction never moves the
    agent's observation."""
    geo = desk_geometry(channels=channels, blocks_per_channel=blocks,
                        pages_per_block_slc=ppb)
    config = ConfigProfile(gc_trigger_threshold=gc_trigger,
                           conversion_trigger_threshold=mc_trigger,
                           rl_exploration=epsilon,
                           rl_training_interval=interval, window_size=16,
                           kmeans_trigger_threshold=100 if classify
                           else 10**8,
                           slice_size=geo.page_size * 4)
    real, ref = (SimulatorStack(geo, config, FRACTIONAL, seed, split)
                 for _ in range(2))
    ref.agent = ReferenceAgent(random.Random(seed), ACTION_ORDER, Mode.SLC,
                               Mode.QLC)

    def pick(ftl):
        state = ref.agent.observe_state(ftl.free_count, ftl.ssd.block_tally,
                                        ref.write_rate,
                                        ref.hot_write_fraction())
        return ref.agent.choose_action(state, ref.config.rl_exploration)

    ref.ftl._space_management = partial(per_round_space_management,
                                        ref.ftl, pick)
    return real, ref


def run_agent_twins(real, ref, fill_fraction, requests):
    """Prefill both stacks and service the same requests, (lpn, pages,
    write) each, asserting the same latency, device, counters and agent
    after every one."""
    logical = real.ssd.logical_capacity_pages
    page = real.geometry.page_size
    for stack in (real, ref):
        stack.prefill(fill_fraction)
    assert device_state(real.ftl) == device_state(ref.ftl)
    for lpn, n, write in requests:
        lpn %= logical
        record = TraceRecord(OpKind.WRITE if write else OpKind.READ,
                             lpn * page, min(n, logical - lpn) * page)
        results = []
        for stack in (real, ref):
            try:
                results.append(stack.service(record))
            except CapacityError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        assert device_state(real.ftl) == device_state(ref.ftl)
        assert real.agent.pending == ref.agent.pending
        assert real.agent.decisions == ref.agent.decisions
        assert real.agent.rng.getstate() == ref.agent.rng.getstate()
        assert list(real.agent.intensity_samples) == \
            ref.agent.intensity_samples
        real.ssd.audit()
        if isinstance(results[0], str):
            break
    assert real.agent.qtable.to_json_dict() == ref.agent.qtable.to_json_dict()


agent_twin_params = dict(
    seed=st.integers(min_value=0, max_value=2**16),
    epsilon=st.sampled_from([0.0, 0.1, 1.0]),
    channels=st.integers(min_value=1, max_value=3),
    blocks=st.integers(min_value=4, max_value=12),
    ppb=st.integers(min_value=2, max_value=8),
    split=st.floats(min_value=0.2, max_value=0.8),
    gc_trigger=st.integers(min_value=5, max_value=50),
    # a conversion trigger under the GC trigger makes conversions drawn
    # while short of space ineligible
    mc_trigger=st.integers(min_value=1, max_value=50),
    interval=st.integers(min_value=10, max_value=40),
    classify=st.booleans(),
    fill_fraction=st.floats(min_value=0.5, max_value=0.95),
    requests=st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                                st.integers(min_value=1, max_value=6),
                                st.booleans()),
                      max_size=150),
)

# streaks at the bound, a bucket moving mid-streak, ineligible conversions,
# a trained greedy kind other than the first and the forced path
PINNED_STREAKS = dict(
    seed=1, epsilon=0.1, channels=2, blocks=8, ppb=4, split=0.5,
    gc_trigger=30, mc_trigger=5, interval=10, classify=True,
    fill_fraction=0.9,
    requests=[(lpn * 7, 1 + lpn % 5, lpn % 4 != 0) for lpn in range(300)])


@settings(max_examples=40, deadline=None)
@given(**agent_twin_params)
@example(**PINNED_STREAKS)
def test_agent_streaks_match_one_round_per_draw(
        seed, epsilon, channels, blocks, ppb, split, gc_trigger, mc_trigger,
        interval, classify, fill_fraction, requests):
    real, ref = agent_twin_stacks(seed, epsilon, channels, blocks, ppb, split,
                                  gc_trigger, mc_trigger, interval, classify)
    run_agent_twins(real, ref, fill_fraction, requests)


def test_pinned_streaks_reach_every_streak_case(monkeypatch):
    params = dict(PINNED_STREAKS)
    fill_fraction, requests = params.pop("fill_fraction"), \
        params.pop("requests")
    cases = StreakCases()
    monkeypatch.setattr(SpaceAgent, "choose_action",
                        cases.wrap_choose_action(SpaceAgent.choose_action))
    monkeypatch.setattr(FtlEngine, "mc_eligible",
                        cases.wrap_mc_eligible(FtlEngine.mc_eligible))
    real, ref = agent_twin_stacks(**params)
    forced_calls = []
    space_management = real.ftl._space_management
    real.ftl._space_management = lambda forced=False: (
        forced_calls.append(forced) or space_management(forced))
    run_agent_twins(real, ref, fill_fraction, requests)
    assert cases.seen == {"bound", "bucket moved", "ineligible mc",
                          "trained greedy"}
    assert any(forced_calls)


# --- the Q-table against the flat (state, action) reference ---------------------------------

q_states = st.sampled_from([AgentState(0, 0, 0, 0), AgentState(9, 3, 1, 2),
                            AgentState(4, 4, 3, 3)])
q_actions = st.sampled_from(ACTION_ORDER)
q_ops = st.one_of(
    st.tuples(st.just("update"), q_states, q_actions,
              st.one_of(st.sampled_from([1.0, -1.0, 1e308, float("inf")]),
                        st.floats(min_value=-10.0, max_value=10.0)),
              q_states, st.floats(min_value=0.0, max_value=1.0),
              st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("best_action"), q_states),
    st.tuples(st.just("value"), q_states, q_actions),
    st.tuples(st.just("max_value"), q_states),
    st.tuples(st.just("to_json_dict")))


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(q_ops, max_size=60))
@example(ops=[("update", AgentState(0, 0, 0, 0), ActionKind.IDLE, 1e308,
               AgentState(0, 0, 0, 0), 1.0, 1.0)] * 3
         + [("best_action", AgentState(0, 0, 0, 0)), ("to_json_dict",)])
def test_qtable_rows_match_a_flat_table(ops):
    table, flat = QTable(), FlatQTable(ACTION_ORDER)
    for name, *args in ops:
        assert getattr(table, name)(*args) == getattr(flat, name)(*args)
    assert table.reset_warnings == flat.reset_warnings
    assert table.to_json_dict() == flat.to_json_dict()


# --- workload window vs the statistics module ------------------------------------------------

entries = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**40),   # lpn
              st.booleans(),                               # is_write
              st.integers(min_value=0, max_value=100)),    # us since last
    min_size=2, max_size=60)


@settings(max_examples=100)
@given(before=entries, now=entries, extra=st.integers(0, 30),
       threshold=st.floats(min_value=0.0, max_value=5000.0))
# std-devs past 2**54, where the square root scales the denominator
@example(before=[(0, True, 0), (2**70, False, 3)],
         now=[(2**71, True, 1), (5, True, 2), (2**69, False, 0)], extra=1,
         threshold=0.0)
def test_window_statistics_match_stdlib(before, now, extra, threshold):
    # the baseline summary sees the tail of `before` in a window `extra`
    # longer than `now`; halfway through `now` the window shrinks, so the
    # final summary sees exactly `now`
    prev_std = statistics.pstdev(
        [lpn for lpn, _, _ in before[-(len(now) + extra):]])
    now_std = statistics.pstdev([lpn for lpn, _, _ in now])
    delta = abs(now_std - prev_std)
    half = len(before) + len(now) // 2
    # at the stdlib delta itself no shift; one ulp below it, a shift: a
    # 1-ulp error in either std-dev fails one of the two
    for th in (threshold, delta, math.nextafter(delta, -math.inf)):
        window = SlidingWindow(len(now) + extra)
        t = 0.0
        stamps = []
        for lpn, is_write, gap in before + now:
            if len(stamps) == half:
                window.set_capacity(len(now))
            t += gap
            stamps.append(t)
            window.push(lpn, is_write, t)
            if len(stamps) == len(before):
                window.summarize(th)
        rate = window.summarize(th)
        assert window.shifts_detected == (delta > th)
        writes = sum(1 for _, w, _ in now if w)
        span_us = stamps[-1] - stamps[-len(now)]
        assert rate == writes / (max(span_us, 1.0) / 1e6)


# a push of (lpn, is_write), or a resize to a new capacity
window_ops = st.lists(
    st.one_of(st.tuples(st.integers(min_value=0, max_value=2**40),
                        st.booleans()),
              st.integers(min_value=2, max_value=12)),
    max_size=120)


@settings(max_examples=100)
@given(capacity=st.integers(min_value=2, max_value=12), ops=window_ops)
def test_window_running_counts_match_a_recount(capacity, ops):
    window = SlidingWindow(capacity)
    expect = deque()
    for t, op in enumerate(ops):
        if isinstance(op, int):
            window.set_capacity(op)
            capacity = op
        else:
            window.push(*op, float(t))
            expect.append((*op, float(t)))
        while len(expect) > capacity:
            expect.popleft()
        assert list(window.entries) == list(expect)
        assert window.writes == sum(1 for _, w, _ in expect if w)
        assert window.lpn_sum == sum(lpn for lpn, _, _ in expect)
        assert window.lpn_sq_sum == sum(lpn * lpn for lpn, _, _ in expect)


# --- hotness classifier against the per-lookup grid reference -------------------

# a write: lpn (often in a small hot region), then the time step in us; equal
# times and repeated lpns give identical feature points
hotness_writes = st.tuples(
    st.one_of(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=63)),
    st.sampled_from([0.0, 1.0, 7.5, 100.0]))
# write index -> new slice size in pages, set before that write; the
# fractions and 0 are not on the page grid
reslices = st.dictionaries(st.integers(min_value=0, max_value=99),
                           st.sampled_from([1, 2, 3, 4, 8, 0, 0.5, 1.5]),
                           max_size=3)


# at least 30 writes and a trigger of at most 20, so most examples classify
@settings(max_examples=80, deadline=None)
@given(writes=st.lists(hotness_writes, min_size=30, max_size=120),
       resliced=reslices,
       threshold=st.integers(min_value=1, max_value=20),
       iterations=st.integers(min_value=1, max_value=10))
def test_hotness_classifier_matches_the_grid_reference(writes, resliced,
                                                       threshold, iterations):
    config = ConfigProfile(kmeans_trigger_threshold=threshold,
                           kmeans_max_iterations=iterations)
    clf = HotnessClassifier(PAGE * 2, PAGE)
    ref = ReferenceClassifier(PAGE * 2, PAGE)
    now = 0.0
    written = []
    for i, (lpn, dt) in enumerate(writes):
        now += dt
        if i in resliced:
            slice_size = int(resliced[i] * PAGE)
            try:
                ref.reconfigure(slice_size, now)
            except ConfigError:
                with pytest.raises(ConfigError):
                    clf.reconfigure(slice_size, now)
            else:
                clf.reconfigure(slice_size, now)
        clf.record_write(lpn, now)
        ref.record_write(lpn, now)
        written.append(lpn)
        got = clf.maybe_classify(config, now)
        want = ref.maybe_classify(config, now)
        assert (got is None) == (want is None)
        assert clf.hot == ref.labels.hot_slices()
        assert [clf.is_hot(n) for n in written] == [
            ref.is_hot(n) for n in written]
        assert clf.generation == ref.generation
