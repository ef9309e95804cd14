"""Property-based invariants over randomized inputs."""
import copy
import json
import math
import random
import statistics
import tempfile
from collections import deque
from dataclasses import asdict, replace
from heapq import heappush
from importlib import import_module
from pathlib import Path
from functools import partial
from types import MethodType
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hybridssd.config import (ConfigProfile, PlacementStrategy,
                              TUNABLE_PARAMS, default_param_bounds,
                              parse_scalar, validate_profile)
from hybridssd.errors import CapacityError, ConfigError, NoValidUpdate
from hybridssd.ftl import (ACTION_ORDER, GC_MODES, SAFETY_BOUND, ActionKind,
                           ActionOutcome, FtlEngine, fallback_source)
import hybridssd.hotness as hotness_module
from hybridssd.hotness import HotnessClassifier
from hybridssd.monitor import SlidingWindow
from hybridssd.replay import SimulatorStack, _build_report, replay
from hybridssd.rl import (INTENSITY_SAMPLES, N_QUARTILES, AgentState, QTable,
                          SpaceAgent, reward)
from hybridssd.ssd import (NO_PAGES, LatencyModel, Mode, SsdState,
                           desk_geometry, initial_layout)
from hybridssd.trace import (FORMATS, OpKind, TraceRecord, load_trace,
                             page_span, synth_trace)
from hybridssd.tuner import ScriptedBackend, correct_mistakes
from hybridssd.verification import EpochSchedule, VerificationLoop

from conftest import StreakCases, make_stack
from oracles import (DequeWindow, FlatQTable, PagePayloads, PerBlockDevice,
                     PerPageHost, ReferenceAgent, ReferenceClassifier,
                     SwapTrace,
                     bucket_fraction, every_check_replay, free_ids,
                     least_worn, per_draw, per_round_space_management,
                     reference_load_trace)

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


# --- every executed action acts -------------------------------------------------------------

def gc_victim_by_definition(ftl, src, dst):
    """`_gc_victim`'s definition: `select_victim(src)` if its valid pages
    fit in the free pages of `dst`, else None."""
    victim = ftl.select_victim(src)
    if victim is None or ftl.ssd.valid_count[victim] > ftl._free_pages(dst):
        return None
    return victim


def assert_gc_victims_by_definition(ftl):
    for src, dst in GC_MODES.values():
        assert ftl._gc_victim(src, dst) == gc_victim_by_definition(
            ftl, src, dst)


def run_checked_rounds(agent, epsilon, stay, channels, blocks, ppb, op_ratio,
                       split, strategy, gc_trigger, gc_granularity,
                       picker_seed, fill_fraction, writes):
    """Fill an engine and service `writes` under the agent or a sticky
    scripted source, checking at each draw call that `skip` names exactly
    the kinds whose execution, tried on a copy of the engine, changes
    nothing, and an ineligible conversion, and that `_gc_victim` keeps its
    definition. Returns the skip sets seen and the executed outcomes."""
    seed = picker_seed or 0
    ftl = twin_engine_factory(channels, blocks, ppb, op_ratio, split,
                              strategy, gc_trigger, gc_granularity, seed,
                              stay)()
    if agent:
        ftl.config = replace(ftl.config, rl_exploration=epsilon)
        ftl.action_source = SpaceAgent(random.Random(seed)).act
    source, execute = ftl.action_source, ftl.execute_action
    skips, outcomes = [], []

    def checking_source(ftl, skip, limit):
        assert_gc_victims_by_definition(ftl)
        for kind in ACTION_ORDER:
            trial = copy.deepcopy(ftl)
            acted = (FtlEngine.execute_action(trial, kind).effective
                     and (kind is not ActionKind.SLC_TO_QLC_MC
                          or ftl.mc_eligible()))
            assert acted is (kind is not ActionKind.IDLE
                             and kind not in skip), kind
        skips.append(set(skip))
        return source(ftl, skip, limit)

    def recording(kind):
        outcomes.append(execute(kind))
        return outcomes[-1]

    ftl.action_source, ftl.execute_action = checking_source, recording
    logical = ftl.ssd.logical_capacity_pages
    ftl.fill(int(logical * fill_fraction))
    for lpn, n, hot in writes:
        if not logical:
            break
        lpn %= logical
        try:
            ftl.handle_write(lpn, min(n, logical - lpn), hot=hot)
        except CapacityError:
            break
        assert_gc_victims_by_definition(ftl)
    return skips, outcomes


@settings(max_examples=40, deadline=None)
@given(agent=st.booleans(), epsilon=st.sampled_from([0.1, 0.5, 1.0]),
       stay=st.sampled_from([0.0, 0.5, 0.9]), **twin_geometry)
@example(agent=True, epsilon=0.5, stay=0.0, **PINNED_MIGRATION)
@example(agent=False, epsilon=0.5, stay=0.9, **PINNED_MIGRATION)
def test_a_round_executes_only_kinds_that_act(
        agent, epsilon, stay, channels, blocks, ppb, op_ratio, split,
        strategy, gc_trigger, gc_granularity, picker_seed, fill_fraction,
        writes):
    _, outcomes = run_checked_rounds(
        agent, epsilon, stay, channels, blocks, ppb, op_ratio, split,
        strategy, gc_trigger, gc_granularity, picker_seed, fill_fraction,
        writes)
    # forced rounds included: the fallback picks only kinds that act
    assert all(outcome.effective for outcome in outcomes)


@pytest.mark.parametrize("agent", [True, False])
def test_pinned_rounds_skip_and_execute(agent):
    skips, outcomes = run_checked_rounds(agent, 0.5, 0.9, **PINNED_MIGRATION)
    # rounds with one kind skipped up to all four, and GC as well as
    # conversions executed
    assert {len(skip) for skip in skips} == {1, 2, 3, 4}
    assert any(out.pages_migrated for out in outcomes)
    assert any(out.blocks_converted for out in outcomes)


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


@settings(max_examples=100, deadline=None)
@given(spans=st.lists(st.tuples(st.integers(min_value=0, max_value=200),
                                st.integers(min_value=1, max_value=8),
                                st.floats(min_value=0.0, max_value=1e4),
                                st.booleans()),
                      min_size=1, max_size=40),
       pages_per_slice=st.integers(min_value=1, max_value=8),
       log_spans=st.integers(min_value=1, max_value=5))
def test_logged_spans_fold_to_the_per_page_statistics(spans, pages_per_slice,
                                                      log_spans):
    # a small log bound folds unasked between the drawn reads of `slices`
    clf = HotnessClassifier(PAGE * pages_per_slice, PAGE)
    ref = ReferenceClassifier(PAGE * pages_per_slice, PAGE)
    now = 0.0
    with mock.patch.object(hotness_module, "LOG_SPANS", log_spans):
        for lpn, n, dt, read in spans:
            now += dt
            clf.record_write(lpn, now, n)
            for i in range(lpn, lpn + n):
                ref.record_write(i, now)
            assert len(clf._lpns) < log_spans
            if read:
                assert clf.slices == {
                    idx: [s.update_count, s.last_time_us,
                          s.mean_interval_us]
                    for idx, s in ref.stats.slices.items()}
    assert clf.writes_since_classify == ref.writes_since_classify


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
# one junk op spelling, malformed on every line it appears on
@example(case=("msr", ["1,hm,0,Scrub,0,512,1", "2,hm,0,Read,512,512,1",
                       "3,hm,0,Scrub,1024,512,1", "4,hm,0,Scrub,0,512,1"]))
# three spellings of a write, each seen again after the others
@example(case=("msr", ["1,hm,0, w ,0,512,1", "2,hm,0,W,512,512,1",
                       "3,hm,0,write,1024,512,1", "4,hm,0,W,0,512,1",
                       "5,hm,0, w ,512,512,1", "6,hm,0,write,0,4096,1"]))
# timestamps that never decrease, ties included
@example(case=("oltp", ["0,0,512,R,1", "0,1,512,W,1", "0,2,512,R,2.5",
                        "0,3,512,W,2.5", "0,4,512,R,9"]))
# a last line earlier than every line before it
@example(case=("fiu", ["5 1 p 0 1 W", "7 1 p 1 1 R", "7 1 p 2 1 W",
                       "9 1 p 3 1 R", "1 1 p 4 1 W"]))
# integers past float precision, plain and with a decimal point, and
# numbers that are no integer spelling
@example(case=("msr", ["1,hm,0,Write,9007199254740993,4096,1",
                       "2,hm,0,Read,16384.0,7e3,1",
                       "3,hm,0,Read,9007199254740993.0,512,1",
                       "4,hm,0,Read,0,nan,1", "5,hm,0,Read,0x10,512,1"]))
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
        return ref.agent.choose_action(ref.agent.observe(ftl),
                                       ref.config.rl_exploration)

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


# a push, a resize, or a summary at one of three std-dev thresholds
folded_window_ops = st.lists(
    st.one_of(st.tuples(st.integers(min_value=0, max_value=2**40),
                        st.booleans()),
              st.integers(min_value=2, max_value=12),
              st.sampled_from([0.0, 100.0, 2.0**39])),
    max_size=150)


@settings(max_examples=100)
@given(capacity=st.integers(min_value=2, max_value=12),
       ops=folded_window_ops)
# a full window, one push it has not folded, then a resize that grows it:
# the push evicts under the old capacity
@example(capacity=2, ops=[(5, True), (6, False), (7, True), (8, False), 3])
def test_window_folds_only_on_reads_and_matches_the_deque(capacity, ops):
    # pushes between two summaries run past the capacity, so folds come
    # from pushes, resizes and summaries alike
    window = SlidingWindow(capacity)
    ref = DequeWindow(capacity)
    for t, op in enumerate(ops):
        if isinstance(op, tuple):
            window.push(*op, float(t))
            ref.push(*op, float(t))
        elif isinstance(op, int):
            window.set_capacity(op)
            ref.set_capacity(op)
            capacity = op
        else:
            assert window.summarize(op) == ref.summarize(op)
            assert window.shifts_detected == ref.shifts_detected
        assert len(window._lpns) <= 2 * capacity + 1
    assert window.entries == list(ref.entries)
    assert window.writes == sum(1 for _, w, _ in ref.entries if w)


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


# --- every flash op's cost from the device's model -------------------------------

# FRACTIONAL's costs written out, so a cost read from another field shows
FRACTIONAL_US = {"read": {Mode.SLC: 20.3, Mode.QLC: 140.7},
                 "write": {Mode.SLC: 200.1, Mode.QLC: 2000.9},
                 "erase": {Mode.SLC: 3000.3, Mode.QLC: 3500.7}}


def test_the_latency_model_keeps_its_six_costs():
    # the report's system info and the tuning prompt print asdict(model):
    # a seventh field would change every tuned report
    assert list(asdict(LatencyModel())) == [
        "read_slc", "read_qlc", "write_slc", "write_qlc", "erase_slc",
        "erase_qlc"]


@pytest.mark.parametrize("block_id", [0, 4])    # one block of each mode
def test_each_page_op_costs_the_models_value_for_its_mode(block_id):
    ssd = SsdState(desk_geometry(), FRACTIONAL, 0.5)
    mode = ssd.mode[block_id]
    assert mode is (Mode.SLC if block_id < 4 else Mode.QLC)
    read, write, erase = (FRACTIONAL_US[op][mode]
                          for op in ("read", "write", "erase"))
    capacity = ssd.block_pages[mode]
    lpns = range(100 * block_id, 100 * block_id + capacity)
    assert [ssd.program_page(block_id, idx, lpn)
            for idx, lpn in enumerate(lpns)] == [write] * capacity
    assert [ssd.read_page(block_id, idx)
            for idx in range(capacity)] == [read] * capacity
    ssd.invalidate_page(block_id, 0)
    # the erase inside relocate, into the next block of the same mode
    assert ssd.relocate(block_id, [(block_id + 1, list(lpns[1:]))]) == erase
    for idx in range(capacity - 1):
        ssd.invalidate_page(block_id + 1, idx)
    assert ssd.erase_block(block_id + 1) == erase
    ssd.audit()


@pytest.mark.parametrize("kind", list(GC_MODES))
def test_a_gc_migration_costs_the_models_values_for_its_modes(kind):
    src, dst = GC_MODES[kind]
    geo = desk_geometry(channels=1, blocks_per_channel=8,
                        pages_per_block_slc=8)
    strategy = (PlacementStrategy.SLC_FIRST if src is Mode.SLC
                else PlacementStrategy.HOTNESS_BASED)
    ftl = FtlEngine(SsdState(geo, FRACTIONAL, 0.5),
                    ConfigProfile(placement_strategy=strategy),
                    lambda ftl, skip, limit: (ActionKind.IDLE, 1))
    capacity = ftl.ssd.block_pages[src]
    for lpn in [*range(capacity), 0, 1, 2]:    # one full victim
        ftl.handle_write(lpn)
    outcome = ftl.execute_action(kind)
    assert outcome.pages_migrated == capacity - 3
    assert outcome.blocks_reclaimed == 1
    # each moved page is a read from src then a program into dst, in
    # that order, then the victim's erase
    want = 0.0
    for _ in range(capacity - 3):
        want += FRACTIONAL_US["read"][src]
        want += FRACTIONAL_US["write"][dst]
    assert outcome.latency_us == want + FRACTIONAL_US["erase"][src]
    ftl.ssd.audit()


# --- metamorphic relation: every cost in microseconds scaled at once ---------------

@settings(max_examples=8, deadline=None)
@given(exponent=st.integers(min_value=-3, max_value=4).filter(bool),
       trace_seed=st.integers(min_value=0, max_value=2**16),
       strategy=st.sampled_from(list(PlacementStrategy)))
def test_scaling_every_cost_by_a_power_of_two_scales_only_the_latency(
        exponent, trace_seed, strategy):
    # the six flash costs and the reward threshold are the only inputs in
    # microseconds; a power of two scales every float sum, rate and
    # comparison of them exactly, so the agent, the classifier and GC
    # decide as before and only the clock moves
    factor = 2.0 ** exponent
    geo = desk_geometry(channels=2, blocks_per_channel=8,
                        pages_per_block_slc=8)
    records = synth_trace(1200, initial_layout(geo, 0.5)[1], PAGE,
                          seed=trace_seed, size_pages=3)
    config = ConfigProfile(window_size=100, rl_training_interval=50,
                           kmeans_trigger_threshold=300, slice_size=PAGE * 8,
                           gc_trigger_threshold=13,
                           placement_strategy=strategy)
    reports = []
    for f in (1.0, factor):
        latency = LatencyModel(**{name: cost * f for name, cost
                                  in asdict(FRACTIONAL).items()})
        reports.append(replay(records, replace(
            config, rl_reward_threshold=config.rl_reward_threshold * f),
            geo, latency=latency, initial_mode_split=0.5))
    base, scaled = reports
    assert scaled.total_latency_us == base.total_latency_us * factor
    for name in ("wa", "erases", "action_counts", "ineffective_actions",
                 "classifications", "agent_decisions", "agent_trainings"):
        assert getattr(scaled, name) == getattr(base, name), name
    assert base.erases and base.classifications and base.agent_trainings


# --- metamorphic relation: the page size and every byte count doubled -------------

@settings(max_examples=8, deadline=None)
@given(trace_seed=st.integers(min_value=0, max_value=2**16),
       strategy=st.sampled_from(list(PlacementStrategy)))
def test_doubling_the_page_size_and_every_byte_count_moves_only_geometry(
        trace_seed, strategy):
    # a request maps to pages by byte offset over page size, and a slice
    # to pages by slice size over page size: doubling all three maps every
    # request and every slice onto the same pages, so only the page size
    # in the geometry (and the slice size in bytes) may differ
    geo = desk_geometry(channels=2, blocks_per_channel=8,
                        pages_per_block_slc=8)
    logical = initial_layout(geo, 0.5)[1]
    rng = random.Random(trace_seed)
    # byte offsets and sizes off the page grid, in the first third of the
    # device or past its end, wrapping into that third (random writes over
    # most of this device's logical space leave GC no room and fill it)
    requests = [(rng.choice([OpKind.WRITE, OpKind.READ]),
                 rng.randrange(logical // 3 * PAGE)
                 + rng.choice([0, logical * PAGE]), rng.randint(1, 4 * PAGE))
                for _ in range(1000)]
    config = ConfigProfile(window_size=100, rl_training_interval=50,
                           kmeans_trigger_threshold=200, slice_size=PAGE * 8,
                           gc_trigger_threshold=13,
                           placement_strategy=strategy)
    reports = []
    for k in (1, 2):
        report = replay([TraceRecord(op, k * offset, k * size)
                         for op, offset, size in requests],
                        replace(config, slice_size=k * config.slice_size),
                        replace(geo, page_size=k * geo.page_size),
                        latency=FRACTIONAL,
                        initial_mode_split=0.5).to_json_dict()
        assert report.pop("geometry")["page_size"] == k * PAGE
        for name in ("config_initial", "config_final"):
            report[name]["slice_size"] //= k
        reports.append(report)
    assert reports[1] == reports[0]
    assert reports[0]["erases"] and reports[0]["unmapped_reads"]


# --- metamorphic relation: reads of unmapped lpns added ----------------------------

@settings(max_examples=8, deadline=None)
@given(trace_seed=st.integers(min_value=0, max_value=2**16),
       strategy=st.sampled_from(list(PlacementStrategy)))
def test_reads_of_unmapped_lpns_leave_wa_and_erases_alone(trace_seed,
                                                           strategy):
    # under the fallback policy nothing reads the request count or the
    # workload window, and a read of an unmapped page costs nothing and
    # changes no device state
    geo = desk_geometry(channels=2, blocks_per_channel=8,
                        pages_per_block_slc=8)
    half = initial_layout(geo, 0.5)[1] // 2
    rng = random.Random(trace_seed)
    # the trace stays below `half`; the added reads stay above it
    records = [TraceRecord(rng.choice([OpKind.WRITE, OpKind.READ]),
                           rng.randrange(half - 4) * PAGE,
                           rng.randint(1, 4 * PAGE)) for _ in range(1000)]
    unmapped = list(records)
    for _ in range(500):
        unmapped.insert(rng.randrange(len(unmapped) + 1), TraceRecord(
            OpKind.READ, rng.randrange(half, 2 * half - 4) * PAGE,
            rng.randint(1, 4 * PAGE)))
    runs = []
    for trace in (records, unmapped):
        stack = SimulatorStack(geo, ConfigProfile(
            window_size=100, rl_training_interval=50,
            kmeans_trigger_threshold=200, slice_size=PAGE * 8,
            gc_trigger_threshold=13, placement_strategy=strategy),
            latency=FRACTIONAL, initial_mode_split=0.5)
        stack.ftl.action_source = None
        for record in trace:
            stack.service(record)
        runs.append(stack)
    base, added = runs
    assert added.ftl.wa == base.ftl.wa
    assert added.erases == base.erases > 0
    assert added.total_latency_us == base.total_latency_us
    assert added.ftl.unmapped_reads >= base.ftl.unmapped_reads + 500


# --- metamorphic relation: whole hotness slices of the lpn space permuted --------

def replay_slice_relabeling(trace_seed, strategy, agent, keep_order):
    """Replay a trace and the same trace with each written hotness slice
    moved whole to another slice id; returns both stacks and the slice map.
    The requests each lie inside one slice, so every span moves with its
    slice. With `keep_order` the written slices keep their relative order,
    otherwise they are shuffled."""
    geo = desk_geometry(channels=2, blocks_per_channel=8,
                        pages_per_block_slc=8)
    per_slice = 8
    slices = initial_layout(geo, 0.5)[1] // per_slice
    rng = random.Random(trace_seed)
    # a third of the slices, four of them hot (writes over most of this
    # device's logical space leave GC no room and fill it)
    used = rng.sample(range(slices), slices // 3)
    requests = []
    for _ in range(1500):
        first = rng.randrange(per_slice)
        requests.append((
            OpKind.WRITE if rng.random() < 0.7 else OpKind.READ,
            rng.choice(used[:4] if rng.random() < 0.8 else used), first,
            rng.randint(1, min(3, per_slice - first))))
    moved = rng.sample(range(slices), len(used))
    if keep_order:
        moved.sort()
        used.sort()
    relabel = dict(zip(used, moved))
    config = ConfigProfile(window_size=100, rl_training_interval=50,
                           kmeans_trigger_threshold=200,
                           slice_size=PAGE * per_slice,
                           gc_trigger_threshold=13,
                           placement_strategy=strategy)
    stacks = []
    for slice_of in (lambda s: s, relabel.__getitem__):
        stack = SimulatorStack(geo, config, latency=FRACTIONAL,
                               initial_mode_split=0.5)
        if not agent:
            stack.ftl.action_source = None
        for op, s, first, n in requests:
            stack.service(TraceRecord(
                op, (slice_of(s) * per_slice + first) * PAGE, n * PAGE))
        stacks.append(stack)
    return stacks, relabel


def report_but_shifts(stack):
    # the monitor's lpn std-dev, and so its shift count, reads lpn values
    report = _build_report(stack, "default", stack.requests, 0,
                           stack.config, None, None).to_json_dict()
    del report["shifts_detected"]
    return report


@settings(max_examples=8, deadline=None)
@given(trace_seed=st.integers(min_value=0, max_value=2**16),
       strategy=st.sampled_from(list(PlacementStrategy)),
       agent=st.booleans())
def test_relabeling_the_written_slices_in_order_moves_only_the_shifts(
        trace_seed, strategy, agent):
    # the classifier sees each slice's statistics under its new id, and in
    # the same order, since K-means seeds from the slice order and sums its
    # rows in that order: every classification picks the relabeled hot
    # slices, so each write's hot flag, hotness_based placement, the
    # agent's hot-write fraction and every decision are as before, and no
    # part of the FTL reads an lpn's value. Only the shift count may move.
    (base, moved), relabel = replay_slice_relabeling(trace_seed, strategy,
                                                     agent, keep_order=True)
    assert moved.classifier.hot == {relabel[s] for s in base.classifier.hot}
    assert report_but_shifts(moved) == report_but_shifts(base)
    assert base.erases and base.classifier.generation > 1
    assert bool(base.agent.decisions) is agent


@settings(max_examples=8, deadline=None)
@given(trace_seed=st.integers(min_value=0, max_value=2**16))
def test_any_slice_permutation_moves_only_the_shifts_of_the_fallback(
        trace_seed):
    # shuffled slices may change a classification: K-means breaks a tie
    # between rows, and rounds its sums, by slice order. Under the
    # fallback with SLC-first placement no decision reads a hot flag, so
    # every output but the shift count still holds; under hotness_based
    # placement or the agent the hot flags steer placement or the state,
    # and such a permutation may move the report
    (base, moved), _ = replay_slice_relabeling(
        trace_seed, PlacementStrategy.SLC_FIRST, agent=False,
        keep_order=False)
    assert report_but_shifts(moved) == report_but_shifts(base)
    assert base.erases and base.classifier.generation > 1


# --- next-event checks against every check on every request --------------------------

replay_module = import_module("hybridssd.replay")

CHECK_GEO = desk_geometry(channels=2, blocks_per_channel=8,
                          pages_per_block_slc=8)
CHECK_PAGES = 280       # CHECK_GEO's logical pages at a 0.5 split
# the settings a swap moves, each with the range it draws from; slice sizes
# are page multiples
SWAP_RANGES = {"rl_training_interval": (1, 80),
               "kmeans_trigger_threshold": (0, 300),
               "gc_trigger_threshold": (0, 60), "slice_size": (1, 16),
               "window_size": (2, 200)}
# a base profile's ranges and choices
CONFIG_RANGES = {"window_size": (2, 120), "rl_training_interval": (1, 60),
                 "kmeans_trigger_threshold": (0, 200),
                 "gc_trigger_threshold": (0, 40)}
CONFIG_CHOICES = {"conversion_trigger_threshold": [6, 50],
                  "std_dev_threshold": [1, 20, 10000],
                  "rl_exploration": [0.1, 0.5],
                  "placement_strategy": list(PlacementStrategy)}
# replies a tuning backend gives: each moves some of the swapped settings
CHECK_REPLIES = [
    "Retrain and collect later.\n```\n1. Training interval: 10\n"
    "2. GC trigger threshold: 5\n```",
    "Finer slices.\n```\n1. Slice size: 32KB\n2. K-means trigger threshold: "
    "100\n3. Windows size: 40\n```",
    "Collect early.\n```\n1. GC trigger threshold: 40\n2. Training "
    "interval: 30\n```",
]


def swap_value(name, value):
    return PAGE * value if name == "slice_size" else value


def swapped_profiles(config, script):
    """{record index: the profile applied before it}, each swap on top of
    the ones before it."""
    profiles = {}
    for index, (name, value) in sorted(script, key=lambda swap: swap[0]):
        config = replace(config, **{name: swap_value(name, value)})
        profiles[index] = config
    return profiles


def in_bounds(profile):
    """`profile` with each numeric tunable clamped into its declared range:
    a tuning run refuses any other."""
    return replace(profile, **{
        name: min(max(getattr(profile, name), spec.lo), spec.hi)
        for name, spec in BOUNDS.items() if spec.kind != "enum"})


def replay_with_swaps(trace, config, **settings):
    """`replay` of a SwapTrace, which learns the stack replay builds."""
    class Attached(SimulatorStack):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trace.stack = self

    with mock.patch.object(replay_module, "SimulatorStack", Attached):
        return replay(trace, config, CHECK_GEO, **settings)


def check_replays_agree(requests, script, config, tuned, prefill, seed):
    """Replay the requests with the swaps on `replay` and on
    `every_check_replay`; the reports (or the errors) must be equal.
    Returns the real report, None if the device filled."""
    records = [TraceRecord(OpKind.WRITE if write else OpKind.READ, offset,
                           size) for write, offset, size in requests]
    config = ConfigProfile(slice_size=PAGE * 8, **config)
    profiles = swapped_profiles(config, script)
    settings = dict(seed=seed, initial_mode_split=0.5,
                    prefill_fraction=prefill, latency=FRACTIONAL)
    if tuned:
        config = in_bounds(config)
        profiles = {i: in_bounds(p) for i, p in profiles.items()}
        settings.update(mode="tuned", schedule=EpochSchedule(
            tuning_interval_writes=40, investigation_ops=25, max_epochs=3))
    outcomes = []
    for side in ("next event", "every check"):
        trace = SwapTrace(records, profiles)
        if tuned:
            settings["backend"] = ScriptedBackend(CHECK_REPLIES)
        try:
            if side == "next event":
                report = replay_with_swaps(trace, config, **settings)
            else:
                stack, loop = every_check_replay(trace, config, CHECK_GEO,
                                                 **settings)
                report = replay_module._build_report(
                    stack, settings.get("mode", "default"), len(records), 0,
                    config, loop, None)
        except CapacityError as exc:
            outcomes.append((None, str(exc)))
        else:
            outcomes.append((report, json.dumps(report.to_json_dict(),
                                                sort_keys=True)))
    assert outcomes[0][1] == outcomes[1][1]
    return outcomes[0][0]


def drawn_case(seed, tuned):
    """`check_replays_agree`'s inputs drawn from `random.Random(seed)`:
    longer traces and scripts than most hypothesis draws, which shrink
    toward small ones."""
    rng = random.Random(seed)
    requests = [(rng.random() < 0.5,
                 rng.randrange(40 * PAGE if rng.random() < 0.5
                               else 2 * CHECK_PAGES * PAGE),
                 rng.randint(1, 4 * PAGE))
                for _ in range(rng.randint(50, 300))]
    script = [(rng.randrange(300), (name, rng.randint(*SWAP_RANGES[name])))
              for name in rng.choices(list(SWAP_RANGES), k=rng.randint(0, 8))]
    config = {**{name: rng.randint(*bounds)
                 for name, bounds in CONFIG_RANGES.items()},
              **{name: rng.choice(options)
                 for name, options in CONFIG_CHOICES.items()}}
    return dict(requests=requests, script=script, config=config, tuned=tuned,
                prefill=rng.choice([0.0, 0.5, 0.85]), seed=rng.randrange(4))


# each reaches one of the events the checks wait for; see the test below
PINNED_NEXT_EVENTS = {"conversion moves the trigger": (2, False),
                      "read after a swap classifies": (23, False),
                      "shift in a probe, then a read": (6, True)}


@settings(max_examples=40, deadline=None)
@given(requests=st.lists(st.tuples(
           st.booleans(),
           st.integers(min_value=0, max_value=2 * CHECK_PAGES * PAGE),
           st.integers(min_value=1, max_value=4 * PAGE)),
           min_size=1, max_size=300),
       script=st.lists(st.tuples(
           st.integers(min_value=0, max_value=300),
           st.one_of(*(st.tuples(st.just(name), st.integers(*bounds))
                       for name, bounds in SWAP_RANGES.items()))),
           max_size=8),
       config=st.fixed_dictionaries({
           **{name: st.integers(*bounds)
              for name, bounds in CONFIG_RANGES.items()},
           **{name: st.sampled_from(options)
              for name, options in CONFIG_CHOICES.items()}}),
       tuned=st.booleans(), prefill=st.sampled_from([0.0, 0.5, 0.85]),
       seed=st.integers(min_value=0, max_value=3))
@example(**drawn_case(*PINNED_NEXT_EVENTS["conversion moves the trigger"]))
@example(**drawn_case(*PINNED_NEXT_EVENTS["read after a swap classifies"]))
@example(**drawn_case(*PINNED_NEXT_EVENTS["shift in a probe, then a read"]))
def test_next_event_checks_match_every_check_on_every_request(
        requests, script, config, tuned, prefill, seed):
    check_replays_agree(requests, script, config, tuned, prefill, seed)


def reached_next_events(case):
    """The events of PINNED_NEXT_EVENTS that the next-event path of
    `check_replays_agree` reaches on `case`."""
    seen = set()
    now = {"stack": None, "op": None}   # the request being serviced
    service = SimulatorStack.service
    convert_once = FtlEngine._convert_once
    maybe_classify = HotnessClassifier.maybe_classify
    run_epoch = VerificationLoop.run_epoch
    wants_epoch = VerificationLoop.wants_epoch
    after_probe = []        # requests serviced when a probe's shift waits

    def recording_service(stack, record):
        now["stack"], now["op"] = stack, record.op
        return service(stack, record)

    def recording_convert(ftl, out):
        before = dict(ftl.gc_trigger_blocks)
        converted = convert_once(ftl, out)
        if (now["stack"] is not None and ftl is now["stack"].ftl
                and ftl.gc_trigger_blocks != before):
            seen.add("conversion moves the trigger")
        return converted

    def recording_classify(clf, config, now_us):
        hot = maybe_classify(clf, config, now_us)
        if (hot is not None and now["op"] is OpKind.READ
                and clf is now["stack"].classifier):
            seen.add("read after a swap classifies")
        return hot

    def recording_run_epoch(loop, stack, ops, trigger):
        shifts = stack.monitor.shifts_detected
        record = run_epoch(loop, stack, ops, trigger)
        if stack is now["stack"] and stack.monitor.shifts_detected > shifts:
            after_probe.append(stack.requests)
        return record

    def recording_wants_epoch(loop, stack):
        trigger = wants_epoch(loop, stack)
        if (trigger == "shift" and stack is now["stack"]
                and now["op"] is OpKind.READ
                and stack.requests - 1 in after_probe):
            seen.add("shift in a probe, then a read")
        return trigger

    with mock.patch.multiple(SimulatorStack, service=recording_service), \
            mock.patch.multiple(FtlEngine, _convert_once=recording_convert), \
            mock.patch.multiple(HotnessClassifier,
                                maybe_classify=recording_classify), \
            mock.patch.multiple(VerificationLoop,
                                run_epoch=recording_run_epoch,
                                wants_epoch=recording_wants_epoch):
        assert check_replays_agree(**case)
    return seen


def test_pinned_next_events_are_reached():
    for event, (seed, tuned) in PINNED_NEXT_EVENTS.items():
        assert event in reached_next_events(drawn_case(seed, tuned)), event
