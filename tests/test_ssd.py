import math

import pytest

from hybridssd import (AuditError, FlashGeometry, GeometryError, LatencyModel,
                       Mode, PageStateError, SsdState, desk_geometry)
from hybridssd.ssd import NO_PAGES, PAGE_FREE, PAGE_INVALID, initial_layout


def located(ssd):
    """The mapping as lpn -> (block_id, page_idx)."""
    return {lpn: ssd.locate(lpn) for lpn in ssd.mapping}


def ppn(ssd, block_id, page_idx):
    """The mapping entry of a page, by the shift the device publishes."""
    return block_id << ssd.shift | page_idx


class TestGeometry:
    def test_defaults(self):
        g = FlashGeometry()
        assert g.channels == 32
        assert g.blocks_per_channel == 512
        assert g.pages_per_block_slc == 256
        assert g.pages_per_block_qlc == 1024   # 4x density
        assert g.page_size == 16384
        assert g.op_ratio == 0.125

    @pytest.mark.parametrize("kw", [
        dict(channels=0), dict(blocks_per_channel=0),
        dict(pages_per_block_slc=0), dict(page_size=0),
        dict(op_ratio=-0.1), dict(op_ratio=1.0),
        # sizes must be ints: a config file can carry a fraction
        dict(channels=2.5), dict(blocks_per_channel=8.0),
        dict(pages_per_block_slc=True), dict(page_size=1000.5),
    ])
    def test_invalid_geometry_rejected(self, kw):
        with pytest.raises(GeometryError):
            desk_geometry(**kw)

    def test_channel_of_round_robin(self):
        g = desk_geometry(channels=4, blocks_per_channel=2)
        assert [g.channel_of(b) for b in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


class TestLatencyModel:
    def test_default_flash_costs(self):
        lat = LatencyModel()
        assert lat.write_slc == 200.0
        assert lat.write_qlc == 2000.0
        assert lat.read_slc == 20.0
        assert lat.read_qlc == 140.0
        assert lat.erase_slc == 3000.0
        assert lat.erase_qlc == 3500.0

    def test_mode_lookup(self):
        # a device looks each op's cost up per mode in a table of its own
        ssd = SsdState(desk_geometry(), LatencyModel())
        assert ssd.write_us == {Mode.SLC: 200.0, Mode.QLC: 2000.0}
        assert ssd.read_us == {Mode.SLC: 20.0, Mode.QLC: 140.0}
        assert ssd.erase_us == {Mode.SLC: 3000.0, Mode.QLC: 3500.0}

    def test_qlc_must_cost_more_than_slc(self):
        with pytest.raises(GeometryError):
            LatencyModel(write_slc=2000.0, write_qlc=200.0)

    @pytest.mark.parametrize("field", ["read_slc", "write_qlc", "erase_slc"])
    def test_a_nan_cost_is_rejected(self, field):
        with pytest.raises(GeometryError):
            LatencyModel(**{field: math.nan})


class TestConstruction:
    def test_mode_split_rounds_to_nearest(self):
        g = desk_geometry()   # 8 blocks
        assert SsdState(g, LatencyModel(), 0.25).block_count(Mode.SLC) == 2
        assert SsdState(g, LatencyModel(), 0.5).block_count(Mode.SLC) == 4
        # 0.3 * 8 = 2.4 -> 2; 0.35 * 8 = 2.8 -> 3
        assert SsdState(g, LatencyModel(), 0.3).block_count(Mode.SLC) == 2
        assert SsdState(g, LatencyModel(), 0.35).block_count(Mode.SLC) == 3

    def test_slc_blocks_take_lowest_ids(self):
        ssd = SsdState(desk_geometry(), LatencyModel(), 0.5)
        modes = ssd.mode
        assert modes[:4] == [Mode.SLC] * 4
        assert modes[4:] == [Mode.QLC] * 4

    def test_logical_capacity_excludes_op(self):
        # 4 SLC * 8 + 4 QLC * 32 = 160 raw pages; 160 * 0.875 = 140
        ssd = SsdState(desk_geometry(), LatencyModel(), 0.5)
        assert ssd.logical_capacity_pages == 140

    @pytest.mark.parametrize("split", [0.0, 0.25, 0.3, 0.35, 0.5, 1.0])
    def test_initial_layout_matches_constructed_device(self, split):
        g = desk_geometry(channels=2, blocks_per_channel=5)
        ssd = SsdState(g, LatencyModel(), split)
        raw = sum(ssd.block_pages[mode] for mode in ssd.mode)
        assert initial_layout(g, split) == (ssd.block_count(Mode.SLC),
                                            int(raw * (1.0 - g.op_ratio)))
        assert ssd.logical_capacity_pages == initial_layout(g, split)[1]

    @pytest.mark.parametrize("split", [-0.1, 1.5, math.nan])
    def test_a_split_outside_zero_to_one_is_rejected(self, split):
        with pytest.raises(GeometryError, match="initial_mode_split"):
            SsdState(desk_geometry(), LatencyModel(), split)

    def test_logical_capacity_frozen_across_conversion(self):
        ssd = SsdState(desk_geometry(), LatencyModel(), 0.5)
        before = ssd.logical_capacity_pages
        ssd.convert_block_mode(0, Mode.QLC)
        assert ssd.logical_capacity_pages == before


class TestPageOps:
    def test_program_read_roundtrip(self, desk_ssd):
        us = desk_ssd.program_page(0, 0, lpn=7)
        assert us == 200.0
        assert desk_ssd.locate(7) == (0, 0)
        assert desk_ssd.read_page(0, 0) == 20.0

    def test_program_enforces_append_order(self, desk_ssd):
        with pytest.raises(PageStateError):
            desk_ssd.program_page(0, 3, lpn=1)   # write pointer is at 0

    def test_program_rejects_double_mapping(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=1)
        with pytest.raises(PageStateError):
            desk_ssd.program_page(0, 1, lpn=1)   # lpn 1 already mapped

    def test_read_free_or_invalid_page_raises(self, desk_ssd):
        with pytest.raises(PageStateError):
            desk_ssd.read_page(0, 0)
        desk_ssd.program_page(0, 0, lpn=1)
        desk_ssd.invalidate_page(0, 0)
        with pytest.raises(PageStateError):
            desk_ssd.read_page(0, 0)

    def test_invalidate_clears_mapping(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=9)
        desk_ssd.invalidate_page(0, 0)
        assert 9 not in desk_ssd.mapping
        assert desk_ssd.pages[0] == [PAGE_INVALID]
        assert desk_ssd.valid_count[0] == 0

    def test_erase_requires_no_valid_pages(self, desk_ssd):
        desk_ssd.program_run(0, range(8))
        with pytest.raises(PageStateError):
            desk_ssd.erase_block(0)
        for idx in range(8):
            desk_ssd.invalidate_page(0, idx)
        # full with no valid page: the cheapest GC victim until erased
        assert desk_ssd.reclaimable[Mode.SLC] == {0: {0}}
        us = desk_ssd.erase_block(0)
        assert us == 3000.0
        assert desk_ssd.pages[0] is NO_PAGES
        assert desk_ssd.erase_count[0] == 1
        assert desk_ssd.free_pages(0) == 8
        with pytest.raises(PageStateError):
            desk_ssd.read_page(0, 0)
        assert not any(0 in ids for buckets in desk_ssd.reclaimable.values()
                       for ids in buckets.values())

    def test_device_write_counter(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=1)
        desk_ssd.program_page(0, 1, lpn=2)
        assert desk_ssd.device_pages_written == 2


    def test_invalidate_past_the_write_pointer_raises(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=1)
        with pytest.raises(PageStateError):
            desk_ssd.invalidate_page(0, 1)
        with pytest.raises(PageStateError):
            desk_ssd.read_page(0, 1)

    @pytest.mark.parametrize("block_id,page_idx", [
        (0, -1), (0, -2),       # would wrap to the block's last pages
        (-1, 0),                # would wrap to the last block
        (8, 0), (99, 0),        # past the last block
    ])
    def test_an_address_outside_the_device_raises(self, desk_ssd, block_id,
                                                  page_idx):
        desk_ssd.program_page(0, 0, lpn=5)
        desk_ssd.program_page(0, 1, lpn=6)
        desk_ssd.program_page(7, 0, lpn=7)
        with pytest.raises(PageStateError):
            desk_ssd.invalidate_page(block_id, page_idx)
        with pytest.raises(PageStateError):
            desk_ssd.read_page(block_id, page_idx)
        assert located(desk_ssd) == {5: (0, 0), 6: (0, 1), 7: (7, 0)}
        desk_ssd.audit()

    @pytest.mark.parametrize("block_id", [-1, -8, 8])
    @pytest.mark.parametrize("mutate", [
        lambda ssd, b: ssd.program_page(b, 0, 5),
        lambda ssd, b: ssd.program_run(b, [5, 6]),
        lambda ssd, b: ssd.relocate(b, [(1, [7])]),
        lambda ssd, b: ssd.relocate(0, [(b, [7])]),
        lambda ssd, b: ssd.erase_block(b),
        lambda ssd, b: ssd.convert_block_mode(b, Mode.SLC),
    ], ids=["program_page", "program_run", "relocate", "relocate_into",
            "erase_block", "convert_block_mode"])
    def test_a_mutator_refuses_a_block_outside_the_device(
            self, desk_ssd, mutate, block_id):
        # a negative id would act on a block counted from the end: -1 on
        # the unwritten last block, -8 on the written first one
        desk_ssd.program_page(0, 0, lpn=7)
        with pytest.raises(PageStateError):
            mutate(desk_ssd, block_id)
        assert located(desk_ssd) == {7: (0, 0)}
        assert desk_ssd.mode.count(Mode.SLC) == 4
        assert desk_ssd.erase_ops == 0
        desk_ssd.audit()

    def test_program_into_a_full_block_raises(self, desk_ssd):
        for idx in range(8):
            desk_ssd.program_page(0, idx, lpn=idx)
        with pytest.raises(PageStateError):
            desk_ssd.program_page(0, 8, lpn=8)


class TestPpnEncoding:
    # 264 blocks, so ids above 255; QLC blocks of 32 pages and of 12 and
    # 20, which are not powers of two
    @pytest.mark.parametrize("ppb", [8, 3, 5])
    def test_locate_round_trips_on_every_page(self, ppb):
        ssd = SsdState(desk_geometry(channels=4, blocks_per_channel=66,
                                     pages_per_block_slc=ppb),
                       LatencyModel())
        n = 0
        for block_id in range(len(ssd.mode)):
            capacity = ssd.block_pages[ssd.mode[block_id]]
            # all but the last page in bulk, the last one alone
            ssd.program_run(block_id, range(n, n + capacity - 1))
            ssd.program_page(block_id, capacity - 1, n + capacity - 1)
            n += capacity
        last = len(ssd.mode) - 1
        assert ssd.locate(n - 1) == (last, len(ssd.pages[last]) - 1)
        assert ssd.locate(n) is None
        for lpn, (block_id, page_idx) in located(ssd).items():
            assert ssd.pages[block_id][page_idx] == lpn
        assert len(set(ssd.mapping.values())) == len(ssd.mapping) == n
        ssd.audit()
        # a block id above 255 keeps its pages apart from block id & 255's
        assert {ssd.locate(lpn)[0] for lpn in ssd.pages[256]} == {256}
        # the last page of the last block, its only valid one, moves to the
        # first page of block 0, erased for it
        for idx in range(len(ssd.pages[0])):
            ssd.invalidate_page(0, idx)
        ssd.erase_block(0)
        for idx in range(len(ssd.pages[last]) - 1):
            ssd.invalidate_page(last, idx)
        ssd.relocate(last, [(0, [n - 1])])
        assert ssd.locate(n - 1) == (0, 0)
        assert ssd.pages[last] is NO_PAGES
        ssd.audit()


class TestPageArrays:
    def test_unwritten_blocks_share_an_immutable_placeholder(self, desk_ssd):
        assert all(pages is NO_PAGES for pages in desk_ssd.pages)
        with pytest.raises(AttributeError):
            desk_ssd.pages[3].append(1)

    def test_no_operation_touches_another_blocks_pages(self, desk_ssd):
        ssd = desk_ssd                          # blocks 0-3 SLC, 4-7 QLC
        steps = [("program", 0, idx, idx) for idx in range(8)]
        steps += [("run", 1, range(10, 14)), ("invalidate", 0, 3),
                  ("relocate", 0, [(1, [0, 1, 2, 4]), (2, [5, 6, 7])]),
                  ("erase", 3), ("run", 0, [20]), ("program", 0, 1, 21),
                  ("relocate", 1, [(5, [10, 11, 12, 13, 0, 1, 2, 4])]),
                  ("convert", 1, Mode.QLC),
                  ("program", 1, 0, 30), ("run", 4, range(40, 72)),
                  ("invalidate", 4, 0), ("relocate", 4, [(6, range(41, 72))]),
                  ("program", 4, 0, 80)]
        ops = {"program": ssd.program_page, "run": ssd.program_run,
               "invalidate": ssd.invalidate_page, "relocate": ssd.relocate,
               "erase": ssd.erase_block, "convert": ssd.convert_block_mode}
        for op, *args in steps:
            # a relocation writes its victim and its destinations
            touched = ([args[0], *(b for b, _ in args[1])]
                       if op == "relocate" else args[:1])
            before = [list(pages) for b, pages in enumerate(ssd.pages)
                      if b not in touched]
            ops[op](*args)
            after = [list(pages) for b, pages in enumerate(ssd.pages)
                     if b not in touched]
            assert after == before, (op, args)
            ssd.audit()
        assert ssd.pages[:5] == [[20, 21], [30], [5, 6, 7], NO_PAGES, [80]]
        assert ssd.pages[5] == [10, 11, 12, 13, 0, 1, 2, 4]
        assert ssd.pages[6] == list(range(41, 72))

    def test_an_erased_block_reprograms_into_a_list_of_its_own(self,
                                                               desk_ssd):
        desk_ssd.program_run(0, range(8))
        first = desk_ssd.pages[0]
        desk_ssd.relocate(0, [(4, range(8))])
        assert desk_ssd.pages[0] is NO_PAGES
        desk_ssd.program_page(0, 0, lpn=9)
        desk_ssd.program_page(1, 0, lpn=10)
        assert desk_ssd.pages[0] == [9] and desk_ssd.pages[1] == [10]
        assert desk_ssd.pages[0] is not first
        assert desk_ssd.pages[0] is not desk_ssd.pages[1]


class TestProgramRun:
    def test_matches_program_page_one_by_one(self, desk_geo):
        bulk = SsdState(desk_geo, LatencyModel(), initial_mode_split=0.5)
        single = SsdState(desk_geo, LatencyModel(), initial_mode_split=0.5)
        for ssd in (bulk, single):
            ssd.program_page(0, 0, lpn=100)
            ssd.invalidate_page(0, 0)
        bulk.program_run(0, range(3, 17, 2))
        bulk.program_run(4, range(20, 52))
        for idx, lpn in enumerate(range(3, 17, 2), start=1):
            single.program_page(0, idx, lpn)
        for idx, lpn in enumerate(range(20, 52)):
            single.program_page(4, idx, lpn)
        assert bulk.pages == single.pages
        assert bulk.valid_count == single.valid_count
        assert bulk.mapping == single.mapping
        assert bulk.reclaimable == single.reclaimable == {
            Mode.SLC: {7: {0}}, Mode.QLC: {}}
        assert bulk.device_pages_written == single.device_pages_written == 40
        bulk.audit()

    def test_rejects_a_run_past_the_block(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=1)
        with pytest.raises(PageStateError):
            desk_ssd.program_run(0, range(10, 18))
        assert desk_ssd.pages[0] == [1]

    def test_rejects_a_mapped_lpn(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=5)
        with pytest.raises(PageStateError):
            desk_ssd.program_run(1, range(3, 7))
        assert desk_ssd.pages[1] is NO_PAGES
        assert located(desk_ssd) == {5: (0, 0)}

    @pytest.mark.parametrize("lpns", [[5, 5], [1, 2, 3, 1]])
    def test_rejects_a_repeated_lpn(self, desk_ssd, lpns):
        # one program_page per page refuses the second copy, as the first
        # maps the lpn; a run is refused whole, before any change
        desk_ssd.program_page(0, 0, lpn=9)
        with pytest.raises(PageStateError, match="repeats"):
            desk_ssd.program_run(0, lpns)
        assert desk_ssd.pages[0] == [9]
        assert desk_ssd.valid_count[0] == 1
        assert desk_ssd.device_pages_written == 1
        assert located(desk_ssd) == {9: (0, 0)}
        desk_ssd.audit()

    def test_takes_any_lpn_sequence(self, desk_geo):
        bulk = SsdState(desk_geo, LatencyModel(), initial_mode_split=0.5)
        single = SsdState(desk_geo, LatencyModel(), initial_mode_split=0.5)
        lpns = [9, 2, 30, 4]
        bulk.program_run(1, lpns)
        for idx, lpn in enumerate(lpns):
            single.program_page(1, idx, lpn)
        assert bulk.pages[1] == single.pages[1] == lpns
        assert bulk.mapping == single.mapping
        with pytest.raises(PageStateError):
            bulk.program_run(2, [5, 30])
        assert bulk.pages[2] is NO_PAGES


class TestEvacuate:
    """Evacuating a GC victim: one `relocate` of its valid pages, in two
    strided runs as the FTL's stripe splits them, against `invalidate_page`
    and `program_page` per page, then `erase_block`."""

    # written lpns of block 0 (8 pages), then the indices invalidated first
    @pytest.mark.parametrize("written,stale", [
        (range(8), [1, 6]),          # full, indexed
        (range(8), []),              # full, no invalid page yet
        (range(8), list(range(8))),  # full, nothing valid
        (range(5), [0, 3]),          # partly written: never indexed
    ])
    def test_matches_invalidate_page_per_valid_page(self, desk_geo,
                                                    written, stale):
        bulk = SsdState(desk_geo, LatencyModel(), initial_mode_split=0.5)
        single = SsdState(desk_geo, LatencyModel(), initial_mode_split=0.5)
        for ssd in (bulk, single):
            ssd.program_run(0, [lpn + 10 for lpn in written])
            for idx in stale:
                ssd.invalidate_page(0, idx)
        valid = [idx for idx in range(len(written)) if idx not in stale]
        lpns = [lpn for lpn in bulk.pages[0] if lpn >= 0]
        assert lpns == [written[idx] + 10 for idx in valid]
        keys = list(bulk.mapping)
        plan = [(block_id, [bulk.pages[0][idx] for idx in run])
                for block_id, run in ((1, valid[0::2]), (2, valid[1::2]))]
        us = bulk.relocate(0, plan)
        for block_id, run in ((1, valid[0::2]), (2, valid[1::2])):
            for idx in run:
                lpn = single.pages[0][idx]
                single.invalidate_page(0, idx)
                single.program_page(block_id, len(single.pages[block_id]),
                                    lpn)
        assert us == single.erase_block(0) == 3000.0
        assert bulk.pages == single.pages
        assert bulk.valid_count == single.valid_count
        assert bulk.mapping == single.mapping
        # each entry rewritten in place: no key left and came back
        assert list(bulk.mapping) == keys
        assert bulk.reclaimable == single.reclaimable
        assert bulk.device_pages_written == single.device_pages_written
        assert bulk.erase_count == single.erase_count
        assert bulk.erase_ops == single.erase_ops == 1
        assert bulk.reclaimable == {Mode.SLC: {}, Mode.QLC: {}}
        bulk.audit()


class TestRelocate:
    # block 0 holds lpns 0-7 with page 2 invalid, block 1 lpns 8-11. The
    # "duplicate" plan names as many lpns as block 0 holds valid pages,
    # all inside it: only the repeat gives it away, and taking it would
    # map lpn 6 twice, leave lpn 7 behind and drift block 0's counter
    @pytest.mark.parametrize("src,plan", [
        (0, [(4, [0, 1, 3, 4, 5, 6, 99])]),
        (0, [(4, [0, 1, 2, 3, 4, 5, 6])]),
        (0, [(4, [0, 1, 3, 4, 5, 6, 9])]),
        (1, [(4, [8, 9, 10, 0])]),
        (2, [(4, [5])]),
        (0, [(4, [0, 1, 3, 4, 5, 6, 6])]),
        (0, [(4, [0, 0])]),
        (0, [(1, [0, 1, 3, 4, 5]), (4, [6, 7])]),
        (0, [(1, [0, 1, 3]), (1, [4, 5]), (4, [6, 7])]),
        (0, [(4, [0, 1, 3, 4, 5, 6])]),
        (0, [(4, [0, 1, 3]), (5, [])]),
        (1, [(1, [8, 9, 10, 11])]),
        (8, [(4, [0, 1, 3, 4, 5, 6, 7])]),
        (-8, [(4, [0, 1, 3, 4, 5, 6, 7])]),
        (0, [(8, [0, 1, 3, 4, 5, 6, 7])]),
        (0, [(4, [0, 1, 3]), (-1, [4, 5, 6, 7])]),
    ], ids=["unmapped", "invalid_page", "mapped_past_src",
            "mapped_before_src", "unwritten_src", "duplicate",
            "duplicate_pair", "past_free_pages",
            "past_free_pages_in_two_appends", "valid_page_left",
            "valid_pages_left", "into_itself", "src_outside",
            "src_outside_negative", "dst_outside", "dst_outside_negative"])
    def test_refuses_what_it_must_not_overwrite(self, desk_ssd, src, plan):
        ssd = desk_ssd
        ssd.program_run(0, range(8))
        ssd.program_run(1, range(8, 12))
        ssd.invalidate_page(0, 2)
        state = self.snapshot(ssd)
        with pytest.raises(PageStateError):
            ssd.relocate(src, plan)
        assert self.snapshot(ssd) == state
        ssd.audit()

    @staticmethod
    def snapshot(ssd):
        return ([list(pages) for pages in ssd.pages], list(ssd.valid_count),
                list(ssd.mapping.items()),
                {mode: {valid: set(ids) for valid, ids in buckets.items()}
                 for mode, buckets in ssd.reclaimable.items()},
                ssd.device_pages_written, list(ssd.erase_count))

class TestConversion:
    def test_convert_resizes_page_array(self, desk_ssd):
        assert desk_ssd.free_pages(0) == 8
        desk_ssd.convert_block_mode(0, Mode.QLC)
        assert desk_ssd.mode[0] is Mode.QLC
        assert desk_ssd.free_pages(0) == 32
        assert desk_ssd.block_tally == {Mode.SLC: 3, Mode.QLC: 5}
        desk_ssd.convert_block_mode(0, Mode.SLC)
        assert desk_ssd.free_pages(0) == 8
        assert desk_ssd.block_tally == {Mode.SLC: 4, Mode.QLC: 4}

    def test_convert_only_fully_free_blocks(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=1)
        with pytest.raises(PageStateError):
            desk_ssd.convert_block_mode(0, Mode.QLC)
        desk_ssd.invalidate_page(0, 0)
        with pytest.raises(PageStateError):
            desk_ssd.convert_block_mode(0, Mode.QLC)  # invalid != free

    def test_convert_costs_nothing(self, desk_ssd):
        erases = desk_ssd.erase_ops
        writes = desk_ssd.device_pages_written
        desk_ssd.convert_block_mode(0, Mode.QLC)
        assert desk_ssd.erase_ops == erases
        assert desk_ssd.device_pages_written == writes
        assert desk_ssd.erase_count[0] == 0

    def test_block_tally_follows_conversions(self, desk_ssd):
        recount = desk_ssd.mode.count
        for block_id, mode in ((0, Mode.QLC), (1, Mode.QLC), (0, Mode.SLC),
                               (7, Mode.SLC), (2, Mode.SLC)):
            desk_ssd.convert_block_mode(block_id, mode)
            for m in Mode:
                assert desk_ssd.block_count(m) == recount(m)
        assert desk_ssd.block_count(Mode.SLC) == 4
        desk_ssd.audit()


class TestReclaimableIndex:
    @staticmethod
    def recount(ssd):
        index = {Mode.SLC: {}, Mode.QLC: {}}
        for block_id, pages in enumerate(ssd.pages):
            valid = ssd.valid_count[block_id]
            if ssd.is_full(block_id) and len(pages) - valid:
                index[ssd.mode[block_id]].setdefault(valid,
                                                     set()).add(block_id)
        return index

    def test_index_follows_every_page_operation(self, desk_ssd):
        ssd = desk_ssd                          # blocks 0-3 SLC, 4-7 QLC
        steps = []
        for idx in range(8):
            steps.append(("program", 0, idx, idx))       # block 0 fills
        steps += [("invalidate", 0, 2), ("invalidate", 0, 5)]
        steps += [("program", 1, idx, 100 + idx) for idx in range(4)]
        steps += [("invalidate", 1, 0)]                  # not full: no entry
        steps += [("program", 1, idx, 100 + idx) for idx in range(4, 8)]
        steps += [("invalidate", 0, idx) for idx in (0, 1, 3, 4, 6, 7)]
        steps += [("erase", 0), ("convert", 0, Mode.QLC),
                  ("convert", 2, Mode.QLC)]
        steps += [("program", 0, idx, 200 + idx) for idx in range(32)]
        steps += [("invalidate", 0, 31), ("invalidate", 1, 7)]
        # a full victim holding invalid pages: refiled at 0, then erased
        steps += [("relocate", 1, [(3, list(range(101, 107)))])]
        # a victim that is not full, into a block it fills with an invalid
        # page, which joins the index
        steps += [("program", 2, idx, 300 + idx) for idx in range(3)]
        steps += [("invalidate", 2, 1), ("invalidate", 3, 0),
                  ("relocate", 2, [(3, [300, 302])])]
        # a full victim with every page valid: filed at 0, then erased
        steps += [("program", 1, idx, 400 + idx) for idx in range(8)]
        steps += [("relocate", 1, [(2, list(range(400, 408)))])]
        for op, block_id, *rest in steps:
            if op == "program":
                ssd.program_page(block_id, *rest)
            elif op == "invalidate":
                ssd.invalidate_page(block_id, *rest)
            elif op == "erase":
                ssd.erase_block(block_id)
            elif op == "relocate":
                ssd.relocate(block_id, *rest)
            else:
                ssd.convert_block_mode(block_id, *rest)
            assert ssd.reclaimable == self.recount(ssd), (op, block_id, rest)
            if (op, block_id, *rest) == ("invalidate", 1, 7):
                assert ssd.reclaimable == {Mode.SLC: {6: {1}},
                                           Mode.QLC: {31: {0}}}
        assert ssd.reclaimable == {Mode.SLC: {7: {3}}, Mode.QLC: {31: {0}}}
        assert ssd.erase_count[1] == 2 and ssd.erase_count[2] == 1
        ssd.audit()

    def test_buckets_hold_blocks_by_valid_count(self, desk_ssd):
        for block_id in (0, 1):
            for idx in range(8):
                desk_ssd.program_page(block_id, idx, 8 * block_id + idx)
        desk_ssd.invalidate_page(0, 0)
        desk_ssd.invalidate_page(1, 0)
        assert desk_ssd.reclaimable[Mode.SLC] == {7: {0, 1}}
        desk_ssd.invalidate_page(0, 1)
        assert desk_ssd.reclaimable[Mode.SLC] == {6: {0}, 7: {1}}


class TestAudit:
    def test_clean_state_passes(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=1)
        desk_ssd.program_page(0, 1, lpn=2)
        desk_ssd.invalidate_page(0, 0)
        desk_ssd.audit()

    def test_mapping_corruption_detected(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=1)
        desk_ssd.mapping[99] = ppn(desk_ssd, 0, 5)     # a free page
        with pytest.raises(AuditError):
            desk_ssd.audit()

    @pytest.mark.parametrize("block_id", [-1, 8])
    def test_mapping_outside_the_device_detected(self, desk_ssd, block_id):
        desk_ssd.program_page(7, 0, lpn=1)
        desk_ssd.mapping[1] = ppn(desk_ssd, block_id, 0)  # -1: block 7's page
        with pytest.raises(AuditError, match="outside"):
            desk_ssd.audit()

    @pytest.mark.parametrize("corruption, match", [
        ("another lpn", "lpn 2 -> 0/0, page stores 1"),
        ("free marker", "free page below the write pointer"),
        # what a GC that copies a page but keeps the old one valid leaves
        ("second copy", "3 valid pages vs 2 mapped lpns"),
    ])
    def test_page_corruption_detected(self, desk_ssd, corruption, match):
        desk_ssd.program_page(0, 0, lpn=1)
        desk_ssd.program_page(0, 1, lpn=2)
        if corruption == "another lpn":
            desk_ssd.mapping[2] = ppn(desk_ssd, 0, 0)
        elif corruption == "free marker":
            desk_ssd.pages[0][0] = PAGE_FREE
            desk_ssd.valid_count[0] -= 1
            del desk_ssd.mapping[1]
        else:
            desk_ssd.pages[1] = [1]
            desk_ssd.valid_count[1] = 1
        with pytest.raises(AuditError, match=match):
            desk_ssd.audit()

    def test_counter_corruption_detected(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=1)
        desk_ssd.valid_count[0] = 7
        with pytest.raises(AuditError):
            desk_ssd.audit()

    @pytest.mark.parametrize("name", ["mode", "erase_count", "valid_count",
                                      "pages"])
    def test_block_list_of_the_wrong_length_detected(self, desk_ssd, name):
        getattr(desk_ssd, name).pop()
        with pytest.raises(AuditError, match=f"{name} has 7 entries"):
            desk_ssd.audit()

    def test_shared_page_array_detected(self, desk_ssd):
        desk_ssd.program_page(0, 0, lpn=1)
        desk_ssd.invalidate_page(0, 0)
        desk_ssd.pages[1] = desk_ssd.pages[0]  # both read as one invalid page
        with pytest.raises(AuditError, match="share"):
            desk_ssd.audit()

    def test_page_array_longer_than_its_block_detected(self, desk_ssd):
        for idx in range(8):
            desk_ssd.program_page(0, idx, lpn=idx)
        desk_ssd.pages[0].append(42)    # a ninth page in an 8-page block
        desk_ssd.valid_count[0] += 1
        desk_ssd.mapping[42] = ppn(desk_ssd, 0, 8)
        with pytest.raises(AuditError, match="past its 8"):
            desk_ssd.audit()

    def test_block_tally_drift_detected(self, desk_ssd):
        desk_ssd.block_tally[Mode.SLC] += 1
        with pytest.raises(AuditError, match="tally"):
            desk_ssd.audit()

    def test_reclaimable_index_drift_detected(self, desk_ssd):
        desk_ssd.reclaimable[Mode.SLC][3] = {0}   # block 0 is free
        with pytest.raises(AuditError, match="reclaimable"):
            desk_ssd.audit()
