import dataclasses
import logging

import pytest

from hybridssd import OpKind, load_trace, page_span, synth_trace
from hybridssd.trace import TraceRecord
from oracles import reference_synth_trace

PAGE = 16384


def read_lines(tmp_path, fmt, *lines):
    """`lines` written as a `fmt` trace file and read back with
    `load_trace`: (records, skipped line count)."""
    path = tmp_path / f"trace.{fmt}"
    path.write_text("".join(line + "\n" for line in lines))
    return load_trace(path, fmt)


class TestMsrFormat:
    # timestamp,hostname,disknum,type,offset,size,responsetime
    LINE = "128166372003061629,hm,0,Write,328192,4096,419"

    def test_parses_columns(self, tmp_path):
        assert read_lines(tmp_path, "msr", self.LINE) == (
            [TraceRecord(OpKind.WRITE, 328192, 4096)], 0)
        # the first column orders the records
        records, _ = read_lines(tmp_path, "msr", self.LINE,
                                "128166372000000000,hm,0,Read,0,512,1")
        assert [r.offset for r in records] == [0, 328192]

    def test_read_op(self, tmp_path):
        records, _ = read_lines(tmp_path, "msr", "1,hm,0,Read,0,512,10")
        assert records[0].op is OpKind.READ

    @pytest.mark.parametrize("line", [
        "",                                   # empty
        "1,hm,0,Write,328192",                # missing columns
        "x,hm,0,Write,328192,4096,419",       # bad timestamp
        "1,hm,0,Scrub,328192,4096,419",       # unknown op
        "1,hm,0,Write,-5,4096,419",           # negative offset
        "1,hm,0,Write,328192,0,419",          # zero size
    ])
    def test_malformed_lines_return_none(self, tmp_path, line):
        # no record; a blank line is no skip either
        assert read_lines(tmp_path, "msr", line) == ([], 1 if line else 0)


class TestFiuFormat:
    # ts(s) pid process lba(512) size(512) op major minor md5
    LINE = "0.025 4892 cp 1203934 8 W 8 16 abcd"

    def test_parses_columns(self, tmp_path):
        assert read_lines(tmp_path, "fiu", self.LINE) == (
            [TraceRecord(OpKind.WRITE, 1203934 * 512, 8 * 512)], 0)
        # seconds scale to us: 1e303 s is no finite number of us
        assert read_lines(tmp_path, "fiu",
                          "1e303 4892 cp 1203934 8 W 8 16 abcd") == ([], 1)

    def test_read_op(self, tmp_path):
        records, _ = read_lines(tmp_path, "fiu", "1.5 1 x 100 8 R 8 16 md5")
        assert records[0].op is OpKind.READ


class TestOltpFormat:
    # appid,lba(512),size(bytes),op,ts(s)
    LINE = "0,12345,8192,W,1.75"

    def test_parses_columns(self, tmp_path):
        assert read_lines(tmp_path, "oltp", self.LINE) == (
            [TraceRecord(OpKind.WRITE, 12345 * 512, 8192)], 0)
        # the last column orders the records
        records, _ = read_lines(tmp_path, "oltp", self.LINE, "0,1,512,R,1.5")
        assert [r.offset for r in records] == [512, 12345 * 512]


class TestTraceRecord:
    def test_equal_by_value_hashable_and_immutable(self):
        a = TraceRecord(OpKind.READ, 512, 4096)
        b = TraceRecord(op=OpKind.READ, offset=512, size=4096)
        assert a == b and hash(a) == hash(b)
        assert a != TraceRecord(OpKind.READ, 512, 8192)
        assert (a.op, a.offset, a.size) == (OpKind.READ, 512, 4096)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.size = 1
        assert a.size == 4096


class TestLoadTrace:
    def test_skips_malformed_and_sorts_by_time(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "200,hm,0,Write,16384,4096,1\n"
            "garbage line\n"
            "100,hm,0,Read,0,4096,1\n"
            "50,hm,0,Wobble,0,4096,1\n")
        records, skipped = load_trace(p, "msr")
        assert skipped == 2
        assert records == [TraceRecord(OpKind.READ, 0, 4096),
                           TraceRecord(OpKind.WRITE, 16384, 4096)]

    def test_equal_timestamps_keep_file_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "7,hm,0,Write,300,4096,1\n"
            "5,hm,0,Write,100,4096,1\n"
            "7,hm,0,Read,200,4096,1\n"
            "5,hm,0,Read,400,4096,1\n"
            "7,hm,0,Write,0,4096,1\n")
        records, _ = load_trace(p, "msr")
        assert [r.offset for r in records] == [100, 400, 300, 200, 0]

    def test_non_finite_fields_are_malformed(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "300,hm,0,Write,16384,4096,1\n"
            "nan,hm,0,Write,0,4096,1\n"
            "200,hm,0,Write,1e999,4096,1\n"
            "100,hm,0,Read,0,4096,1\n"
            "150,hm,0,Read,0,1e999,1\n"
            "inf,hm,0,Read,0,4096,1\n")
        records, skipped = load_trace(p, "msr")
        assert skipped == 4
        assert records == [TraceRecord(OpKind.READ, 0, 4096),
                           TraceRecord(OpKind.WRITE, 16384, 4096)]

    def test_integer_fields_are_exact_past_float_precision(self, tmp_path):
        # 2**53 + 1 has no float: through float it would read 2**53
        big = 2**53 + 1
        p = tmp_path / "t.csv"
        p.write_text(f"1,hm,0,Write,{big},4096,1\n"
                     f"2,hm,0,Read,0,{big},1\n"
                     f"3,hm,0,Read,16384.0,7e3,1\n"
                     f"4,hm,0,Read,{big}.0,512,1\n")
        records, skipped = load_trace(p, "msr")
        assert skipped == 0
        assert records == [TraceRecord(OpKind.WRITE, big, 4096),
                           TraceRecord(OpKind.READ, 0, big),
                           TraceRecord(OpKind.READ, 16384, 7000),
                           TraceRecord(OpKind.READ, 2**53, 512)]
        # a sector count scales after it is read
        assert read_lines(tmp_path, "fiu", f"1 1 p {big} 8 W") == (
            [TraceRecord(OpKind.WRITE, big * 512, 8 * 512)], 0)

    def test_a_byte_order_mark_is_no_part_of_the_first_line(self, tmp_path):
        # a BOM before the first timestamp would make it no number
        p = tmp_path / "t.csv"
        p.write_text("128,hm,0,Write,0,4096,1\n"
                     "256,hm,0,Read,4096,4096,1\n", encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        records, skipped = load_trace(p, "msr")
        assert skipped == 0
        assert records == [TraceRecord(OpKind.WRITE, 0, 4096),
                           TraceRecord(OpKind.READ, 4096, 4096)]

    def test_warns_for_the_first_five_malformed_lines(self, tmp_path,
                                                       caplog):
        # line numbers count from 1 and count the BOM'd first line, blank
        # lines and comments
        p = tmp_path / "t.csv"
        p.write_text("\n".join([
            "# timestamp,hostname,disk,type,offset,size,response",  # 1
            "1,hm,0,Write,0,4096,1",
            "garbage line",                                         # 3
            "",
            "2,hm,0,Scrub,0,4096,1",                                # 5
            "# a comment",
            "   ",
            "x,hm,0,Read,0,4096,1",                                 # 8
            "3,hm,0,Read,0,4096,1",
            "4,hm,0,Read,-5,4096,1",                                # 10
            "5,hm,0,Read,0",                                        # 11
            "6,hm,0,Read,0,0,1",                                    # 12
            "nan,hm,0,Read,0,4096,1",                               # 13
        ]) + "\n", encoding="utf-8-sig")
        with caplog.at_level(logging.WARNING, logger="hybridssd.trace"):
            records, skipped = load_trace(p, "msr")
        assert (len(records), skipped) == (2, 7)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, f"{p}:{n}: skipping malformed line")
            for n in (3, 5, 8, 10, 11)]

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1\n")
        with pytest.raises(ValueError):
            load_trace(p, "nope")


class TestSynthTrace:
    def test_deterministic_per_seed(self):
        a = synth_trace(200, 1000, PAGE, seed=5)
        b = synth_trace(200, 1000, PAGE, seed=5)
        c = synth_trace(200, 1000, PAGE, seed=6)
        assert a == b
        assert a != c

    def test_write_ratio_roughly_honored(self):
        recs = synth_trace(4000, 1000, PAGE, write_ratio=0.7, seed=1)
        writes = sum(1 for r in recs if r.op is OpKind.WRITE)
        assert 0.65 < writes / len(recs) < 0.75

    def test_hot_traffic_hits_hot_region(self):
        recs = synth_trace(4000, 1000, PAGE, hot_fraction=0.9,
                           hot_region_fraction=0.1, seed=2)
        writes = [r for r in recs if r.op is OpKind.WRITE]
        hot_limit = 100 * PAGE            # first 10% of pages
        in_hot = sum(1 for r in writes if r.offset < hot_limit)
        assert in_hot / len(writes) > 0.8

    # 2 pages: one-page hot and cold regions, each drawing 1 bit and
    # redrawing a 1. With half the space hot, 64, 1024 and 2**20 + 1 hold
    # a power-of-two wide region: its bit length spans twice its width, so
    # about half its draws are redrawn, where a draw of (width - 1)'s bit
    # length would take fewer bits and other records
    @pytest.mark.parametrize("logical_pages", [2, 3, 7, 64, 100, 1024, 1000,
                                               2**20 + 1])
    @pytest.mark.parametrize("seed", [0, 1, 11])
    def test_each_lpn_draws_as_randrange_does(self, logical_pages, seed):
        for ops, kwargs in ((0, {}), (1, {}), (500, {}),
                            (300, {"hot_fraction": 0.5,
                                   "hot_region_fraction": 0.5,
                                   "write_ratio": 0.3, "size_pages": 4})):
            records = synth_trace(ops, logical_pages, PAGE, seed=seed,
                                  **kwargs)
            assert [(r.op, r.offset, r.size) for r in records] == \
                reference_synth_trace(ops, logical_pages, PAGE, OpKind.READ,
                                      OpKind.WRITE, seed=seed, **kwargs)

    @pytest.mark.parametrize("size_pages", [0, -2])
    def test_a_request_size_below_one_page_is_refused(self, size_pages):
        # it would yield records of size 0 or less, which load_trace
        # counts as malformed
        with pytest.raises(ValueError, match="size_pages"):
            synth_trace(3, 100, PAGE, size_pages=size_pages)

    @pytest.mark.parametrize("page_size", [0, -4096, 4096.5, "4096"])
    def test_a_page_size_that_is_no_positive_integer_is_refused(
            self, page_size):
        # 0 yielded size-0 records, -4096 negative offsets and sizes,
        # 4096.5 float offsets
        with pytest.raises(ValueError, match="page_size"):
            synth_trace(3, 100, page_size)


class TestPageSpan:
    def rec(self, offset, size):
        return TraceRecord(op=OpKind.WRITE, offset=offset, size=size)

    def test_aligned_single_page(self):
        assert page_span(self.rec(0, PAGE), PAGE, 1000) == [(0, 1)]

    def test_offset_rounds_down_end_rounds_up(self):
        # bytes [PAGE+1, PAGE+2): still page 1 entirely
        assert page_span(self.rec(PAGE + 1, 1), PAGE, 1000) == [(1, 1)]
        # bytes [PAGE-1, PAGE+1): straddles pages 0 and 1
        assert page_span(self.rec(PAGE - 1, 2), PAGE, 1000) == [(0, 2)]

    def test_multi_page(self):
        assert page_span(self.rec(PAGE * 2, PAGE * 3), PAGE, 1000) == [(2, 3)]

    def test_wraps_modulo_logical_space(self):
        # pages 8 and 9 of a 10-page device, then wraps to page 0
        spans = page_span(self.rec(PAGE * 8, PAGE * 3), PAGE, 10)
        assert spans == [(8, 2), (0, 1)]

    def test_end_rounds_up_past_float_precision(self):
        # offset + size = 2**60 + 4097 is not a float: through a float
        # division the end rounded down to the start's page
        spans = page_span(TraceRecord(OpKind.WRITE, 2**60, 4097), 4096,
                          10**6)
        assert spans == [(2**60 // 4096 % 10**6, 2)]

    def test_huge_request_clamped_to_device(self):
        spans = page_span(self.rec(0, PAGE * 100), PAGE, 10)
        assert sum(n for _, n in spans) == 10
