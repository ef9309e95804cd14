import dataclasses
import gc
import random
import sys
import tracemalloc

import pytest

from hybridssd import (ACTION_ORDER, ActionKind, CapacityError, ConfigProfile,
                       FlashGeometry, FtlEngine, LatencyModel, Mode,
                       PlacementStrategy, SAFETY_BOUND, SimulatorStack,
                       SsdState, desk_geometry, synth_trace)
from hybridssd.ftl import GC_MODES, WaCounters, write_amplification
from hybridssd.ssd import NO_PAGES
from conftest import make_stack
from oracles import (FlashOpLog, free_ids, per_draw,
                     recompute_request_latency, recompute_total_latency)


def make_ftl(channels=1, blocks=4, ppb=4, split=1.0, **config_over):
    geo = desk_geometry(channels=channels, blocks_per_channel=blocks,
                        pages_per_block_slc=ppb)
    ssd = SsdState(geo, LatencyModel(), initial_mode_split=split)
    cfg = ConfigProfile(**config_over)
    return FtlEngine(ssd, cfg)


class TestActionOrder:
    def test_fixed_tie_break_order(self):
        assert [k.value for k in ACTION_ORDER] == [
            "slc_internal_gc", "qlc_internal_gc", "slc_to_qlc_gc",
            "slc_to_qlc_mc", "idle"]


class TestActionFacts:
    def test_every_kind_is_gc_conversion_or_idle(self):
        assert (set(GC_MODES) | {ActionKind.SLC_TO_QLC_MC, ActionKind.IDLE}
                == set(ActionKind))

    def test_execute_action_takes_granularity_from_config(self):
        ftl = make_ftl(gc_granularity=3, conversion_granularity=2)
        steps = []
        ftl._gc_once = lambda src, dst, out: steps.append((src, dst)) or True
        ftl._convert_once = lambda out: steps.append("convert") or True
        for kind in ActionKind:
            steps.clear()
            ftl.execute_action(kind)
            if kind in GC_MODES:
                assert steps == [GC_MODES[kind]] * 3
            elif kind is ActionKind.SLC_TO_QLC_MC:
                assert steps == ["convert"] * 2
            else:
                assert steps == []

    def test_pick_action_returns_the_agent_kind(self):
        stack = make_stack()
        for kind in ActionKind:
            stack.agent.choose_action = (
                lambda state, eps, skip, limit, counts, kind=kind: (kind, 1))
            assert stack.agent.act(stack.ftl, set(), 1) == (kind, 1)
        assert stack.ftl.action_source == stack.agent.act


class TestPlacement:
    def test_slc_first_fills_slc_then_spills(self):
        ftl = make_ftl(blocks=4, ppb=4, split=0.5)   # 2 SLC + 2 QLC blocks
        for lpn in range(8):                          # SLC region = 8 pages
            ftl.handle_write(lpn)
        assert all(ftl.ssd.is_full(b) for b in (0, 1))
        ftl.handle_write(8)
        block, _ = ftl.ssd.locate(8)
        assert ftl.ssd.mode[block] is Mode.QLC

    def test_hotness_based_routes_by_label(self):
        ftl = make_ftl(blocks=4, ppb=4, split=0.5,
                       placement_strategy=PlacementStrategy.HOTNESS_BASED)
        ftl.handle_write(0, hot=True)
        ftl.handle_write(1, hot=False)
        assert ftl.ssd.mode[ftl.ssd.locate(0)[0]] is Mode.SLC
        assert ftl.ssd.mode[ftl.ssd.locate(1)[0]] is Mode.QLC

    @pytest.mark.parametrize("name, mode", [("slc_first", Mode.SLC),
                                            ("hotness_based", Mode.QLC)])
    def test_a_strategy_given_by_name_places_by_it(self, name, mode):
        ftl = make_ftl(blocks=4, ppb=4, split=0.5, placement_strategy=name)
        ftl.handle_write(0, hot=False)
        assert ftl.ssd.mode[ftl.ssd.locate(0)[0]] is mode

    def test_cold_spills_to_slc_when_qlc_full(self):
        # QLC region: 1 block * 16 pages
        ftl = make_ftl(blocks=4, ppb=4, split=0.75,
                       placement_strategy=PlacementStrategy.HOTNESS_BASED)
        for lpn in range(16):
            ftl.handle_write(lpn, hot=False)
        ftl.handle_write(16, hot=False)
        assert ftl.ssd.mode[ftl.ssd.locate(16)[0]] is Mode.SLC


class TestStriping:
    def test_pages_stripe_round_robin_across_channels(self):
        ftl = make_ftl(channels=4, blocks=2, ppb=4, split=1.0)
        us = ftl.handle_write(0, n_pages=4)
        chans = [ftl.ssd.geometry.channel_of(ftl.ssd.locate(l)[0])
                 for l in range(4)]
        assert sorted(chans) == [0, 1, 2, 3]
        # 4 programs overlap perfectly: one SLC write's worth of time
        assert us == 200.0

    def test_sequential_requests_continue_the_stripe(self):
        ftl = make_ftl(channels=2, blocks=2, ppb=4, split=1.0)
        ftl.handle_write(0)                 # channel 0
        ftl.handle_write(1)                 # channel 1
        assert ftl.ssd.geometry.channel_of(ftl.ssd.locate(0)[0]) == 0
        assert ftl.ssd.geometry.channel_of(ftl.ssd.locate(1)[0]) == 1

    def test_same_channel_pages_serialize(self):
        ftl = make_ftl(channels=1, blocks=4, ppb=8)
        assert ftl.handle_write(0, n_pages=3) == 600.0


class TestWaAccounting:
    def test_fresh_writes_have_unit_wa(self):
        ftl = make_ftl(blocks=4, ppb=8)
        for lpn in range(8):
            ftl.handle_write(lpn)
        assert ftl.wa.host_pages_written == 8
        assert ftl.wa.device_pages_written == 8
        assert write_amplification(ftl.wa.device_pages_written,
                                   ftl.wa.host_pages_written) == 1.0

    def test_wa_undefined_before_any_write(self):
        wa = make_ftl().wa
        assert write_amplification(wa.device_pages_written,
                                   wa.host_pages_written) is None

    def test_migration_inflates_device_writes_only(self):
        ftl = make_ftl(blocks=4, ppb=4, gc_trigger_threshold=30)
        host = 0
        for lpn in list(range(12)) + [0, 1, 2, 3, 4, 5]:
            ftl.handle_write(lpn)
            host += 1
        assert ftl.wa.host_pages_written == host
        assert ftl.wa.device_pages_written > host
        assert write_amplification(ftl.wa.device_pages_written,
                                   ftl.wa.host_pages_written) > 1.0

    def test_reads_do_not_touch_wa(self):
        ftl = make_ftl(blocks=4, ppb=8)
        ftl.handle_write(0)
        ftl.handle_read(0)
        assert ftl.wa.device_pages_written == 1


class TestRejectionAndReads:
    def test_out_of_range_write_rejected(self):
        ftl = make_ftl(blocks=4, ppb=8)   # logical = 28 pages
        assert ftl.handle_write(27, n_pages=2) == 0.0
        assert ftl.handle_write(-1) == 0.0
        assert ftl.handle_write(0, n_pages=0) == 0.0
        assert ftl.rejected_requests == 3
        assert ftl.wa.host_pages_written == 0

    def test_unmapped_read_counts_and_costs_nothing(self):
        ftl = make_ftl(blocks=4, ppb=8)
        assert ftl.handle_read(5) == 0.0
        assert ftl.unmapped_reads == 1

    def test_read_latency_by_mode(self):
        ftl = make_ftl(blocks=4, ppb=4, split=0.5)
        ftl.handle_write(0)                       # lands in SLC
        assert ftl.handle_read(0) == 20.0
        for lpn in range(8):                      # fill SLC, spill
            ftl.handle_write(lpn)
        ftl.handle_write(9)
        assert ftl.handle_read(9) == 140.0


class TestVictimSelection:
    def test_fewest_valid_pages_wins(self):
        ftl = make_ftl(blocks=4, ppb=4)
        for lpn in range(8):
            ftl.handle_write(lpn)        # block 0: lpns 0-3, block 1: 4-7
        ftl.handle_write(0)
        ftl.handle_write(1)              # block 0 down to 2 valid
        ftl.handle_write(4)              # block 1 at 3 valid
        assert ftl.select_victim(Mode.SLC) == 0

    def test_erase_count_then_id_break_ties(self):
        ftl = make_ftl(blocks=4, ppb=4)
        for lpn in range(8):
            ftl.handle_write(lpn)
        ftl.handle_write(0)
        ftl.handle_write(4)              # blocks 0 and 1 both at 3 valid
        ftl.ssd.erase_count[0] = 5
        assert ftl.select_victim(Mode.SLC) == 1
        ftl.ssd.erase_count[0] = 0
        assert ftl.select_victim(Mode.SLC) == 0   # id breaks the tie

    def test_active_blocks_never_picked(self):
        ftl = make_ftl(blocks=4, ppb=4)
        for lpn in range(4):
            ftl.handle_write(lpn)
        ftl.handle_write(0)              # block 1 is now active with 1 page
        # only block 0 holds invalid pages; block 1 is active anyway
        assert ftl.select_victim(Mode.SLC) == 0

    def test_no_invalid_pages_means_no_victim(self):
        ftl = make_ftl(blocks=4, ppb=4)
        for lpn in range(6):
            ftl.handle_write(lpn)
        assert ftl.select_victim(Mode.SLC) is None


class TestActions:
    def test_gc_migrates_and_erases(self):
        ftl = make_ftl(blocks=4, ppb=4)
        for lpn in range(8):
            ftl.handle_write(lpn)
        ftl.handle_write(0)
        ftl.handle_write(1)
        out = ftl.execute_action(ActionKind.SLC_INTERNAL_GC)
        assert out.blocks_reclaimed == 1
        assert out.pages_migrated == 2            # lpns 2, 3 move
        # 2 reads + 2 programs + 1 erase, all SLC
        assert out.latency_us == 2 * 20.0 + 2 * 200.0 + 3000.0
        assert ftl.ssd.pages[0] is NO_PAGES
        assert 0 in free_ids(ftl, Mode.SLC, 0)
        # migrated data still readable
        assert ftl.ssd.locate(2) is not None
        ftl.ssd.audit()

    def test_slc_to_qlc_gc_moves_data_to_qlc(self):
        # plenty of free SLC left so the engine's own trigger stays quiet
        ftl = make_ftl(blocks=8, ppb=4, split=0.5, gc_trigger_threshold=1)
        for lpn in range(4):
            ftl.handle_write(lpn)        # block 0 full
        ftl.handle_write(0)              # invalidates one page in block 0
        out = ftl.execute_action(ActionKind.SLC_TO_QLC_GC)
        assert out.blocks_reclaimed == 1
        assert out.pages_migrated == 3
        for lpn in (1, 2, 3):
            block, _ = ftl.ssd.locate(lpn)
            assert ftl.ssd.mode[block] is Mode.QLC
        # erased victim stays an SLC block, back in the SLC pool
        assert 0 in free_ids(ftl, Mode.SLC, 0)
        ftl.ssd.audit()

    def test_gc_without_victim_is_zero_outcome(self):
        ftl = make_ftl(blocks=4, ppb=4)
        out = ftl.execute_action(ActionKind.SLC_INTERNAL_GC)
        assert not out.effective
        assert out.latency_us == 0.0

    def test_gc_that_does_not_fit_is_zero_outcome(self):
        ftl = make_ftl(blocks=2, ppb=4, gc_trigger_threshold=1)
        for lpn in range(7):
            ftl.handle_write(lpn)        # 7 of 8 raw pages used
        ftl.handle_write(0)              # full device, 1 invalid page
        out = ftl.execute_action(ActionKind.SLC_INTERNAL_GC)
        assert not out.effective         # 3 valid pages, 0 free to move into

    def test_conversion_picks_cheapest_free_slc_block(self):
        ftl = make_ftl(blocks=4, ppb=4, split=1.0)
        for lpn in range(4):
            ftl.handle_write(lpn)        # block 0 full
        ftl.handle_write(0)              # block 1 active, block 0 a victim
        assert ftl.execute_action(ActionKind.SLC_INTERNAL_GC).blocks_reclaimed
        assert ftl.ssd.erase_count[0] == 1
        assert free_ids(ftl, Mode.SLC, 0) == {0, 2, 3}
        out = ftl.execute_action(ActionKind.SLC_TO_QLC_MC)
        assert out.blocks_converted == 1
        assert out.latency_us == 0.0                 # metadata flip only
        assert ftl.ssd.mode[2] is Mode.QLC    # id 2: erase 0 beats worn id 0
        assert ftl.ssd.free_pages(2) == 16
        assert ftl.ssd.free_pages(2) == 16
        assert 2 in free_ids(ftl, Mode.QLC, 0)
        assert free_ids(ftl, Mode.SLC, 0) == {0, 3}

    def test_conversion_with_no_free_slc_is_zero_outcome(self):
        ftl = make_ftl(blocks=2, ppb=4, split=1.0)
        for lpn in range(7):
            ftl.handle_write(lpn)        # both blocks taken (1 active)
        out = ftl.execute_action(ActionKind.SLC_TO_QLC_MC)
        assert not out.effective

    def test_granularity_repeats_the_action(self):
        ftl = make_ftl(blocks=8, ppb=4, split=1.0, gc_trigger_threshold=1,
                       gc_granularity=2)
        for lpn in range(20):
            ftl.handle_write(lpn)        # blocks 0-4 filled
        for lpn in range(8):
            ftl.handle_write(lpn)        # blocks 0 and 1 fully invalid
        out = ftl.execute_action(ActionKind.SLC_INTERNAL_GC)
        assert out.blocks_reclaimed == 2

    def test_gc_granularity_caps_the_blocks_reclaimed(self):
        ftl = make_ftl(blocks=16, ppb=4, split=1.0, gc_trigger_threshold=1,
                       gc_granularity=3)
        for lpn in range(24):
            ftl.handle_write(lpn)        # blocks 0-5 filled
        for lpn in range(16):
            ftl.handle_write(lpn)        # blocks 0-3 fully invalid
        out = ftl.execute_action(ActionKind.SLC_INTERNAL_GC)
        assert out.blocks_reclaimed == 3
        assert ftl.select_victim(Mode.SLC) == 3    # the fourth one is left
        ftl.ssd.audit()

    def test_conversion_granularity_caps_the_blocks_converted(self):
        ftl = make_ftl(blocks=8, ppb=4, split=1.0, conversion_granularity=2)
        out = ftl.execute_action(ActionKind.SLC_TO_QLC_MC)
        assert out.blocks_converted == 2
        assert ftl.ssd.block_count(Mode.QLC) == 2
        ftl.ssd.audit()

    def test_idle_does_nothing(self):
        ftl = make_ftl()
        out = ftl.execute_action(ActionKind.IDLE)
        assert not out.effective
        assert out.latency_us == 0.0


class TestSpaceManagementLoop:
    def test_threshold_triggers_gc_after_write(self):
        # 25% quantum region; threshold 30% keeps one block free
        ftl = make_ftl(blocks=4, ppb=4, gc_trigger_threshold=30)
        for lpn in range(12):
            ftl.handle_write(lpn)
        for lpn in range(4):
            us = ftl.handle_write(lpn)
        assert ftl.ssd.erase_ops > 0
        assert ftl.action_counts[ActionKind.SLC_INTERNAL_GC] > 0

    def test_safety_bound_emits_warning(self):
        # agent insists on QLC GC on an all-SLC device: 64 futile rounds
        source = per_draw(lambda ftl: ActionKind.QLC_INTERNAL_GC)
        geo = desk_geometry(channels=1, blocks_per_channel=4,
                            pages_per_block_slc=4)
        ssd = SsdState(geo, LatencyModel(), 1.0)
        ftl = FtlEngine(ssd, ConfigProfile(gc_trigger_threshold=50), source)
        for lpn in range(10):
            ftl.handle_write(lpn)
        assert ftl.capacity_pressure_warnings >= 1
        assert ftl.ineffective_actions >= SAFETY_BOUND

    def test_futile_repeats_are_counted_not_executed(self):
        # QLC GC on an all-SLC device never acts: each loop skips it from
        # its first draw, so all 64 draws are counted and none runs
        source = per_draw(lambda ftl: ActionKind.QLC_INTERNAL_GC)
        geo = desk_geometry(channels=1, blocks_per_channel=4,
                            pages_per_block_slc=4)
        ftl = FtlEngine(SsdState(geo, LatencyModel(), 1.0),
                        ConfigProfile(gc_trigger_threshold=50), source)
        executed = []
        execute = ftl.execute_action
        ftl.execute_action = lambda kind: executed.append(kind) or \
            execute(kind)
        for lpn in range(10):
            ftl.handle_write(lpn)
        loops = ftl.capacity_pressure_warnings
        assert loops >= 1
        assert ftl.ineffective_actions == loops * SAFETY_BOUND
        assert executed == []

    def test_an_effective_action_makes_futile_kinds_run_again(self):
        picks = iter([ActionKind.QLC_INTERNAL_GC, ActionKind.QLC_INTERNAL_GC,
                      ActionKind.SLC_INTERNAL_GC, ActionKind.QLC_INTERNAL_GC,
                      ActionKind.IDLE])
        ftl = make_ftl(blocks=4, ppb=4, gc_trigger_threshold=1)
        for lpn in range(11):
            ftl.handle_write(lpn)
        ftl.handle_write(0)                  # block 0 holds an invalid page
        assert ftl.select_victim(Mode.SLC) == 0
        ftl.action_source = per_draw(lambda ftl: next(picks))
        # below the trigger with one block free, too
        ftl.config = ConfigProfile(gc_trigger_threshold=90)
        executed = []
        execute = ftl.execute_action
        ftl.execute_action = lambda kind: executed.append(kind) or \
            execute(kind)
        ftl._space_management()
        # QLC GC has no victim: skipped twice, then again in the round
        # the SLC GC starts, and only the kind that acts runs
        assert executed == [ActionKind.SLC_INTERNAL_GC]
        assert ftl.ineffective_actions == 3

    def test_mc_ineligible_attempt_is_harmless(self):
        # conversion wanted while free SLC is still above the trigger
        source = per_draw(lambda ftl: ActionKind.SLC_TO_QLC_MC)
        geo = desk_geometry(channels=1, blocks_per_channel=4,
                            pages_per_block_slc=4)
        ssd = SsdState(geo, LatencyModel(), 1.0)
        ftl = FtlEngine(ssd, ConfigProfile(gc_trigger_threshold=50,
                                           conversion_trigger_threshold=1),
                        source)
        slc_before = ssd.block_count(Mode.SLC)
        for lpn in range(10):
            ftl.handle_write(lpn)
        assert ssd.block_count(Mode.SLC) == slc_before
        assert ftl.ineffective_actions > 0

    def test_forced_gc_rescues_full_device(self):
        # one 8-page request exhausts every free page mid-flight; the forced
        # path must find the fully-invalid block and erase it in place
        ftl = make_ftl(blocks=4, ppb=4, gc_trigger_threshold=1)
        for lpn in range(12):
            ftl.handle_write(lpn)
        ftl.handle_write(0, n_pages=8)
        ftl.ssd.audit()
        assert ftl.ssd.erase_ops >= 1
        for lpn in range(12):
            assert lpn in ftl.ssd.mapping

    def test_true_capacity_exhaustion_raises(self):
        # 7 logical pages of purely valid data in 8 raw pages: after the
        # eighth program nothing can ever be reclaimed into
        ftl = make_ftl(blocks=2, ppb=4, gc_trigger_threshold=1)
        for lpn in range(7):
            ftl.handle_write(lpn)
        ftl.handle_write(0)
        with pytest.raises(CapacityError):
            for lpn in range(1, 7):
                ftl.handle_write(lpn)


class TestTrigger:
    def test_integer_rule_matches_the_float_fraction(self):
        # both sides rise with the free count, so where they agree around
        # the percent's boundary they agree for every free count; both
        # triggers take the percent here
        ftl = make_ftl()
        tally = SsdState(FlashGeometry(), LatencyModel()).block_tally
        block_counts = [*range(1001), *tally.values(), sum(tally.values())]
        mismatches = []
        for percent in range(101):
            config = dataclasses.replace(
                ftl.config, gc_trigger_threshold=percent,
                conversion_trigger_threshold=percent)
            for blocks in block_counts:
                ftl.ssd.block_tally[Mode.SLC] = blocks
                ftl.config = config         # renews the triggers
                edge = percent * blocks // 100
                for free in range(max(edge - 1, 0), min(edge + 2, blocks + 1)):
                    ftl.free_count[Mode.SLC] = free
                    as_float = blocks > 0 and free / blocks < percent / 100.0
                    gc_short = free < ftl.gc_trigger_blocks[Mode.SLC]
                    if (ftl.mc_eligible(), gc_short) != (as_float, as_float):
                        mismatches.append((free, blocks, percent))
        assert mismatches == []

    def test_a_mode_with_no_blocks_is_never_short(self):
        slc_only = make_ftl(split=1.0, gc_trigger_threshold=50)
        assert slc_only.ssd.block_count(Mode.QLC) == 0
        assert slc_only.gc_trigger_blocks[Mode.QLC] == 0
        assert slc_only.free_fraction(Mode.QLC) == 0.0
        assert not slc_only._regions_below_threshold()
        slc_only.free_count[Mode.SLC] = 1           # 1 of 4 blocks free
        assert slc_only._regions_below_threshold()
        qlc_only = make_ftl(split=0.0, conversion_trigger_threshold=50)
        assert qlc_only.ssd.block_count(Mode.SLC) == 0
        assert not qlc_only.mc_eligible()
        assert qlc_only.free_fraction(Mode.SLC) == 0.0
        assert not qlc_only._regions_below_threshold()


class TestFreeCount:
    def test_free_count_matches_the_pools(self):
        # random agent actions reach GC of both kinds and conversions
        stack = make_stack(channels=2, gc_trigger_threshold=13,
                           rl_exploration=0.5)
        ftl = stack.ftl
        logical = stack.ssd.logical_capacity_pages
        for i in range(1500):
            lpn = (i * 37) % logical
            ftl.handle_write(lpn, min(1 + i % 3, logical - lpn))
            for mode in Mode:
                assert ftl.free_block_count(mode) == sum(
                    len(free_ids(ftl, mode, ch)) for ch in range(2))
        assert ftl.ssd.block_count(Mode.SLC) < 16      # conversions ran
        assert stack.ssd.erase_ops > 0

    def test_the_default_geometry_builds_no_object_per_block(self):
        # 16,384 blocks: per-block objects would add tens of thousands of
        # objects for the cyclic collector to track and traverse
        gc.collect()
        before = len(gc.get_objects())
        ssd = SsdState(FlashGeometry(), LatencyModel())
        ftl = FtlEngine(ssd, ConfigProfile())
        added = len(gc.get_objects()) - before
        assert added < 1000, added
        assert ftl.free_count == ssd.block_tally

    def test_an_engine_refuses_a_written_device(self):
        # every block of a written device is fully free again and no lpn is
        # mapped, but it was written, so a new engine refuses it all the same
        ftl = make_ftl(blocks=2, ppb=4)
        for lpn in range(4):
            ftl.handle_write(lpn)
        for idx in range(4):
            ftl.ssd.invalidate_page(0, idx)
        ftl.ssd.erase_block(0)
        assert not ftl.ssd.mapping
        assert all(pages is NO_PAGES for pages in ftl.ssd.pages)
        with pytest.raises(ValueError, match="no page written"):
            FtlEngine(ftl.ssd, ConfigProfile())


    def test_an_engine_refuses_a_device_with_an_erased_block(self):
        ssd = SsdState(desk_geometry(), LatencyModel())
        ssd.erase_block(3)           # never written, erased all the same
        assert ssd.device_pages_written == 0
        with pytest.raises(ValueError, match="erased"):
            FtlEngine(ssd, ConfigProfile())

    def test_an_engine_refuses_a_device_with_a_converted_block(self):
        ssd = SsdState(desk_geometry(), LatencyModel(), initial_mode_split=0.5)
        ssd.convert_block_mode(0, Mode.QLC)
        ssd.convert_block_mode(5, Mode.SLC)     # the tally is back at 4
        with pytest.raises(ValueError, match="converted"):
            FtlEngine(ssd, ConfigProfile())
        # SLC ids 1-3: one run again, but not from id 0
        ssd.convert_block_mode(5, Mode.QLC)
        with pytest.raises(ValueError, match="converted"):
            FtlEngine(ssd, ConfigProfile())

    @pytest.mark.parametrize("split, slc, qlc", [
        (0.0, [[], [], [], []], [[0, 4, 8], [1, 5, 9], [2, 6, 10],
                                 [3, 7, 11]]),
        (1.0, [[0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7, 11]],
         [[], [], [], []]),
        # 6 SLC blocks on 4 channels: channels 2 and 3 hold one SLC block
        # less, and their QLC pools start a stripe early
        (0.5, [[0, 4], [1, 5], [2], [3]], [[8], [9], [6, 10], [7, 11]])])
    def test_a_fresh_device_pools_each_channels_ids_in_order(self, split,
                                                             slc, qlc):
        ftl = make_ftl(channels=4, blocks=3, split=split)
        assert ftl.free == {Mode.SLC: slc, Mode.QLC: qlc}
        assert ftl.free_count == ftl.ssd.block_tally

class TestFill:
    @pytest.mark.parametrize("split, config, conversions", [
        (0.25, {}, 3),
        # both triggers at 50%: the fill converts SLC blocks 64 at a time
        # and crosses SAFETY_BOUND once, so one run after it is one page
        (1.0, dict(gc_trigger_threshold=50, conversion_trigger_threshold=50),
         126)])
    def test_fill_never_calls_handle_write(self, monkeypatch, split, config,
                                           conversions):
        ftl = make_ftl(channels=8, blocks=32, ppb=32, split=split, **config)
        n_slc = ftl.ssd.block_tally[Mode.SLC]

        def refused(*args, **kwargs):
            raise AssertionError("fill called handle_write")

        monkeypatch.setattr(ftl, "handle_write", refused)
        n = int(0.9 * ftl.ssd.logical_capacity_pages)
        ftl.fill(n)
        assert len(ftl.ssd.mapping) == ftl.ssd.device_pages_written == n
        assert n_slc - ftl.ssd.block_tally[Mode.SLC] == conversions
        ftl.ssd.audit()

    def test_fill_leaves_zeroed_run_statistics(self):
        # the fill converts blocks and crosses SAFETY_BOUND, yet counts
        # none of it
        ftl = make_ftl(channels=8, blocks=32, ppb=32, split=1.0,
                       gc_trigger_threshold=50,
                       conversion_trigger_threshold=50)
        ftl.fill(int(0.9 * ftl.ssd.logical_capacity_pages))
        assert ftl.ssd.block_tally[Mode.QLC] == 126
        assert ftl.wa == WaCounters()
        assert (ftl.rejected_requests, ftl.unmapped_reads,
                ftl.capacity_pressure_warnings,
                ftl.ineffective_actions) == (0, 0, 0, 0)
        assert ftl.action_counts == dict.fromkeys(ActionKind, 0)

    def test_a_stopped_plan_ends_with_the_popped_blocks_first_page(self):
        # 4 channels of 4-page SLC blocks. Pages 0-1 open blocks 0-1; the
        # plan pops blocks 2-3 (the stop says no), fills 0-1 by page 13,
        # and stops at block 4, popped for page 16
        bulk, per_page = (make_ftl(channels=4, blocks=3, ppb=4)
                          for _ in range(2))
        for ftl in (bulk, per_page):
            ftl.handle_write(0)
            ftl.handle_write(1)
        answers = iter([False, False, True])
        plan = bulk._plan(Mode.SLC, range(2, 40), stop=answers.__next__)
        assert next(answers, None) is None
        assert plan[-1] == (4, range(16, 17))
        assert sorted(lpn for _, run in plan for lpn in run) == list(
            range(2, 17))
        for block_id, run in plan:
            bulk.ssd.program_run(block_id, run)
        for lpn in range(2, 17):
            per_page.handle_write(lpn)
        assert bulk.ssd.pages == per_page.ssd.pages
        assert bulk.stripe_cursor == per_page.stripe_cursor
        assert bulk.active == per_page.active == {
            Mode.SLC: [4, None, None, None], Mode.QLC: [None] * 4}
        assert bulk.free == per_page.free

    def test_fill_rejects_a_written_device(self):
        ftl = make_ftl(channels=2, blocks=8, ppb=4)
        ftl.handle_write(12)          # past the fill's range, still refused
        with pytest.raises(ValueError, match="mapped"):
            ftl.fill(12)
        assert ftl.wa.host_pages_written == 1
        assert list(ftl.ssd.mapping) == [12]

    @pytest.mark.parametrize("n", [-1, 15, 10**6])
    def test_fill_takes_a_page_count_within_the_logical_space(self, n):
        ftl = make_ftl()
        assert ftl.ssd.logical_capacity_pages == 14
        with pytest.raises(ValueError, match="page count"):
            ftl.fill(n)
        assert not ftl.ssd.mapping


class TestMappingEncoding:
    @pytest.mark.parametrize("ppb", [8, 3])
    def test_host_paths_decode_every_page(self, ppb):
        # one channel, so a one-page read costs exactly its page's read;
        # 400 blocks put ids above 255, and ppb 3 gives 12-page QLC blocks
        ftl = make_ftl(blocks=400, ppb=ppb, split=0.5)
        ssd = ftl.ssd
        n = ssd.logical_capacity_pages
        ftl.fill(n)
        for lpn in range(n):
            block_id, page_idx = ssd.locate(lpn)
            assert ssd.pages[block_id][page_idx] == lpn
            assert ftl.handle_read(lpn) == ssd.read_us[ssd.mode[block_id]]
        assert max(ssd.locate(lpn)[0] for lpn in range(n)) > 255
        for lpn in range(n - 200, n):
            ftl.handle_write(lpn)
        ssd.audit()

    def test_bytes_per_mapped_page_after_a_fill(self):
        # a fill's new memory, per mapped page: the page array slot and its
        # lpn int, the dict entry and the PPN. Measured at 103.5 B on
        # Python 3.11; a (block_id, page_idx) tuple in place of the int PPN
        # measured 127.4 B. The bound is that plus 8.5 B of margin. It
        # holds after GC too: 300 scattered overwrites then move ~35,700
        # pages (104.3 B), where a delete and re-insert of each moved
        # page's entry doubled the map (135.5 B).
        ftl = make_ftl(channels=8, blocks=64, ppb=32, split=0.25)
        n = int(0.9 * ftl.ssd.logical_capacity_pages)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ftl.fill(n)
            grown = [tracemalloc.get_traced_memory()[0] - before]
            for lpn in random.Random(0).sample(range(n), 300):
                ftl.handle_write(lpn)
            grown.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        assert len(ftl.ssd.mapping) == n
        assert ftl.wa.device_pages_written - ftl.wa.host_pages_written > n // 2
        assert [size / n < 112 for size in grown] == [True, True], grown

    def test_gc_does_not_grow_the_map(self):
        # the gc_steady benchmark's device and episode length: the fill
        # leaves 20,966 entries against 21,845 usable slots, and the
        # episode's 29,034 GC moves would use those up were each an unmap
        # and a remap
        geo = FlashGeometry(channels=8, blocks_per_channel=32,
                            pages_per_block_slc=32)
        stack = SimulatorStack(geo, ConfigProfile(), initial_mode_split=0.25)
        stack.prefill(0.9)
        size = sys.getsizeof(stack.ssd.mapping)
        for record in synth_trace(500, stack.ssd.logical_capacity_pages,
                                  geo.page_size, seed=4, size_pages=1):
            stack.service(record)
        wa = stack.ftl.wa
        assert wa.device_pages_written - wa.host_pages_written > 20_000
        assert sys.getsizeof(stack.ssd.mapping) == size
        stack.ssd.audit()

    def test_every_gc_erase_goes_through_erase_block(self, monkeypatch):
        # the per-layer erase count wraps SsdState.erase_block on the
        # class: a GC victim erased any other way would escape it
        calls = []
        erase_block = SsdState.erase_block

        def counted(ssd, block_id):
            calls.append(block_id)
            return erase_block(ssd, block_id)

        monkeypatch.setattr(SsdState, "erase_block", counted)
        geo = FlashGeometry(channels=8, blocks_per_channel=32,
                            pages_per_block_slc=32)
        stack = SimulatorStack(geo, ConfigProfile(), initial_mode_split=0.25)
        stack.prefill(0.9)
        assert calls == []
        for record in synth_trace(300, stack.ssd.logical_capacity_pages,
                                  geo.page_size, seed=4, size_pages=1):
            stack.service(record)
        assert stack.erases > 100
        assert len(calls) == stack.erases
        stack.ssd.audit()


class TestOpLog:
    def test_one_entry_per_request(self):
        ftl = make_ftl(blocks=4, ppb=4, gc_trigger_threshold=30)
        log = FlashOpLog(ftl)
        n = 0
        for lpn in list(range(12)) + [0, 1, 2, 3, 0, 1]:
            ftl.handle_write(lpn)
            n += 1
        ftl.handle_read(2)
        ftl.handle_read(1000)            # rejected, still logged
        n += 2
        assert len(log.entries) == n
        assert log.entries[-1] == {"parallel": [], "serial": []}
        assert any(entry["serial"] for entry in log.entries)

    def test_recompute_matches_returned_latency(self):
        ftl = make_ftl(channels=2, blocks=4, ppb=4, split=0.5,
                       gc_trigger_threshold=30)
        log = FlashOpLog(ftl)
        returned = []
        for lpn in list(range(10)) + [0, 1, 2, 0, 1, 4, 5]:
            returned.append(ftl.handle_write(lpn, n_pages=2))
        lat = ftl.ssd.latency
        assert len(log.entries) == len(returned)
        assert any(entry["serial"] for entry in log.entries)
        for entry, us in zip(log.entries, returned):
            assert recompute_request_latency(entry, lat) == us
        assert recompute_total_latency(log.entries, lat) == sum(returned)
