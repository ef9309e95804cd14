"""Pinned report bytes: refactors must leave every report byte-identical.

Each scenario replays a small deterministic trace, writes the report with
`emit_report` and compares the sha256 of the written bytes (plus the epoch
history file in tuned mode) against a digest recorded before the refactor.
A change that moves a digest on purpose must say so and record the new one.
"""
import hashlib
import random
import tempfile
from pathlib import Path

import pytest

from hybridssd import (ActionKind, ConfigProfile, EpochSchedule, FtlEngine,
                       HotnessClassifier, LatencyModel, ScriptedBackend,
                       SpaceAgent, SsdState, desk_geometry, emit_report,
                       load_trace, replay, synth_trace)

from conftest import StreakCases

FIXTURE = Path(__file__).parent / "fixtures" / "tuning_reply.txt"

DIGESTS = {
    "fresh_default":
        "e77c6a48e976cf31d473013e5fd237445d2159333c898907266f45c815525da3",
    "msr_spans":
        "4df35ed66026afa0db7249a920d47511cb011c09b08bb9daec693a9c06bc7166",
    "gc_agent_prefill":
        "0b50053a7b0130120ec14ff2b2b154efd0741275ee0a3c39fbf0bf5a760ea303",
    "gc_granularity_prefill":
        "9d61c397e26b4792f327248348ee843257090f7812f055718a25738eba2fc2e1",
    "slc_to_qlc_fractional":
        "8a4619ddbe7b5837e0b171fe4bf9a797a60e3dc4bc1c20b60b908f911aa6ff2a",
    "tuned_fixture":
        "36ca28476d9659e2ec997d0cdc04ca4dcff18bfc0afacf66fe655e14b6529071",
    "tuned_reslice":
        "2f3b565a3262c94866c7d9a2f764b2445d103f71efc1b708005dbf1cd095ff1e",
    "tuned_shift":
        "4635a0c293225cb302dd1abb10bf4595dea790311c63a7a49b307013890b992b",
    "tuned_retrain":
        "60ca2801014a90ad9e5a0e22887007c980acd75cb9d7318afde62f53055ecddb",
    "tuned_explore":
        "0bfd00d0f5067e0682b20b250bce0583517a4534565c285c16996682be38d141",
}


# two channels of 16 blocks, half SLC: small enough that GC runs within
# a few hundred requests
GEO = desk_geometry(channels=2, blocks_per_channel=16, pages_per_block_slc=8)
SPLIT = 0.5


# four channels, and flash costs that are not whole microseconds so the
# pinned totals carry the rounding of every sum (a reordered sum can still
# round to the same totals: the bulk-migration property test compares the
# latency of each write instead)
WIDE_GEO = desk_geometry(channels=4, blocks_per_channel=8,
                         pages_per_block_slc=8)
FRACTIONAL = LatencyModel(read_slc=20.3, read_qlc=140.7, write_slc=200.1,
                          write_qlc=2000.9, erase_slc=3000.3,
                          erase_qlc=3500.7)


def _run(ops, seed, config_over=None, geometry=GEO, latency=None, **kw):
    pages = SsdState(geometry, latency or LatencyModel(),
                     SPLIT).logical_capacity_pages
    records = synth_trace(ops, pages, geometry.page_size, seed=seed)
    config = ConfigProfile(gc_trigger_threshold=13, window_size=100,
                           rl_training_interval=50,
                           kmeans_trigger_threshold=400,
                           slice_size=geometry.page_size * 8,
                           **(config_over or {}))
    return replay(records, config, geometry, latency=latency, seed=seed,
                  initial_mode_split=SPLIT, **kw)


def fresh_default():
    return _run(1500, seed=3)


def gc_agent_prefill():
    # the fill uses the fallback order; every later GC decision is the agent's
    return _run(500, seed=5, prefill_fraction=0.9)


def gc_granularity_prefill():
    # GC and conversion granularity above 1, for the fill and the agent run
    return _run(500, seed=5, prefill_fraction=0.9,
                config_over={"gc_granularity": 3,
                             "conversion_granularity": 2})


def slc_to_qlc_fractional():
    # agent GC after a fill, with SLC->QLC migrations and GC granularity 3
    return _run(500, seed=5, prefill_fraction=0.9, geometry=WIDE_GEO,
                latency=FRACTIONAL, config_over={"gc_granularity": 3})


def tuned_fixture():
    schedule = EpochSchedule(tuning_interval_writes=300,
                             investigation_ops=100, max_epochs=3)
    return _run(2000, seed=7, mode="tuned",
                backend=ScriptedBackend.from_file(FIXTURE), schedule=schedule)


# moves slice_size off the starting 128 KiB, so the classifier restarts
# mid-run, and turns on hotness-based placement with a short trigger so the
# restarted classifier labels slices hot within the probe
RESLICE_REPLY = ("Hot slices should keep SLC to themselves.\n```\n"
                 "1. Placement strategy: hotness_based\n"
                 "2. Slice size: 64KB\n"
                 "3. K-means trigger threshold: 100\n```")


def tuned_reslice():
    schedule = EpochSchedule(tuning_interval_writes=300,
                             investigation_ops=100, max_epochs=3)
    return _run(2000, seed=7, mode="tuned",
                backend=ScriptedBackend([RESLICE_REPLY]), schedule=schedule)


def tuned_shift():
    # a low std-dev threshold makes the monitor report shifts between
    # scheduled epochs: some start shift epochs, others meet the
    # one-per-interval limit
    schedule = EpochSchedule(tuning_interval_writes=600,
                             investigation_ops=100, max_epochs=6)
    return _run(2000, seed=7, mode="tuned",
                backend=ScriptedBackend.from_file(FIXTURE), schedule=schedule,
                config_over={"std_dev_threshold": 5})


# lowers the agent's training interval and the GC trigger mid-run, so
# training ticks and space-management triggers move between requests
RETRAIN_REPLY = ("Train the agent more often and collect later.\n```\n"
                 "1. Training interval: 10\n"
                 "2. GC trigger threshold: 5\n```")


def tuned_retrain():
    schedule = EpochSchedule(tuning_interval_writes=300,
                             investigation_ops=100, max_epochs=3)
    return _run(2000, seed=7, mode="tuned",
                backend=ScriptedBackend([RETRAIN_REPLY]), schedule=schedule)


# raises the exploration rate for the probe, while the agent decides on
# every few writes of a prefilled device
EXPLORE_REPLY = ("Explore more while the workload settles.\n```\n"
                 "1. RL exploration rate: 0.6\n```")


def tuned_explore():
    schedule = EpochSchedule(tuning_interval_writes=100,
                             investigation_ops=50, max_epochs=3)
    return _run(500, seed=5, prefill_fraction=0.9, mode="tuned",
                backend=ScriptedBackend([EXPLORE_REPLY]), schedule=schedule)


def write_msr_spans(path, requests, logical_pages, page_size, seed):
    """An MSR-Cambridge-format CSV of 80% writes, each request covering
    1-8 whole pages from an offset and to an end inside a page; 90% of
    them start in the first 2% of the logical space."""
    rng = random.Random(seed)
    hot_pages = max(1, int(logical_pages * 0.02))
    ticks = 128166372000000000      # 100 ns ticks, as in the MSR traces
    lines = []
    for _ in range(requests):
        ticks += rng.randrange(1, 20000)
        n = rng.randint(1, 8)
        lpn = (rng.randrange(hot_pages) if rng.random() < 0.9
               else rng.randrange(logical_pages))
        # skip `head` bytes of the first page and `tail` of the last
        head = rng.randrange(page_size)
        tail = rng.randrange(page_size - head if n == 1 else page_size)
        op = "Write" if rng.random() < 0.8 else "Read"
        lines.append(f"{ticks},host,0,{op},{lpn * page_size + head},"
                     f"{n * page_size - head - tail},100\n")
    path.write_text("".join(lines))


def msr_spans():
    # 1-8 page spans after a half fill, hot spans placed in SLC from the
    # first classification on: spans switch region mid-request and fill
    # the device until a span needs forced space management
    pages = SsdState(WIDE_GEO, FRACTIONAL, SPLIT).logical_capacity_pages
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spans.csv"
        write_msr_spans(path, 600, pages, WIDE_GEO.page_size, seed=3)
        records, skipped = load_trace(path, "msr")
    config = ConfigProfile(window_size=100, rl_training_interval=50,
                           kmeans_trigger_threshold=50,
                           slice_size=WIDE_GEO.page_size * 8,
                           placement_strategy="hotness_based")
    return replay(records, config, WIDE_GEO, latency=FRACTIONAL, seed=3,
                  initial_mode_split=SPLIT, prefill_fraction=0.5,
                  skipped_lines=skipped)


SCENARIOS = {
    "fresh_default": fresh_default,
    "msr_spans": msr_spans,
    "gc_agent_prefill": gc_agent_prefill,
    "gc_granularity_prefill": gc_granularity_prefill,
    "slc_to_qlc_fractional": slc_to_qlc_fractional,
    "tuned_fixture": tuned_fixture,
    "tuned_reslice": tuned_reslice,
    "tuned_shift": tuned_shift,
    "tuned_retrain": tuned_retrain,
    "tuned_explore": tuned_explore,
}


def report_digest(report, tmp_path) -> str:
    path = tmp_path / "report.json"
    emit_report(report, path, "json")
    h = hashlib.sha256(path.read_bytes())
    history = tmp_path / "report.history.jsonl"
    if history.exists():
        h.update(history.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_bytes_are_pinned(name, tmp_path):
    report = SCENARIOS[name]()
    assert report_digest(report, tmp_path) == DIGESTS[name]


def test_scenarios_reach_the_layers_they_pin(monkeypatch):
    fresh = fresh_default()
    assert fresh.requests == 1500 and fresh.qtable
    # gc_agent_prefill's agent draws streaks past skipped kinds in every
    # case the streak loop has
    cases = StreakCases()
    monkeypatch.setattr(SpaceAgent, "choose_action",
                        cases.wrap_choose_action(SpaceAgent.choose_action))
    monkeypatch.setattr(FtlEngine, "mc_eligible",
                        cases.wrap_mc_eligible(FtlEngine.mc_eligible))
    gc = gc_agent_prefill()
    assert gc.erases > 0 and gc.agent_decisions > 0
    assert cases.seen == {"bound", "bucket moved", "ineligible mc",
                          "trained greedy"}
    monkeypatch.undo()
    outcomes = []
    execute = FtlEngine.execute_action

    def recording(ftl, kind):
        out = execute(ftl, kind)
        outcomes.append((kind, out))
        return out

    monkeypatch.setattr(FtlEngine, "execute_action", recording)
    gc_granularity_prefill()
    assert max(o.blocks_reclaimed + o.blocks_converted
               for _, o in outcomes) > 1
    outcomes.clear()
    slc_to_qlc_fractional()
    assert any(kind is ActionKind.SLC_TO_QLC_GC and o.pages_migrated
               for kind, o in outcomes)
    assert max(o.blocks_reclaimed for _, o in outcomes) > 1
    tuned = tuned_fixture()
    assert tuned.epochs_run >= 1
    assert all(e["prompt"] for e in tuned.epochs)
    shifted = tuned_shift()
    shift_epochs = [e for e in shifted.epochs if e["trigger"] == "shift"]
    assert shift_epochs
    assert shifted.shifts_detected > len(shift_epochs)
    retrain = tuned_retrain()
    assert retrain.epochs[0]["verdict"] == "accepted"
    assert set(retrain.epochs[0]["changed"]) == {"gc_trigger_threshold",
                                                  "rl_training_interval"}
    # each probe of tuned_explore decides at the raised exploration rate
    explore = tuned_explore()
    assert explore.epochs_run >= 1 and explore.agent_decisions > 0
    assert all(e["changed"] == {"rl_exploration": [0.1, 0.6]}
               for e in explore.epochs)
    slice_sizes, hot_flags = [], []
    reconfigure = HotnessClassifier.reconfigure
    handle_write = FtlEngine.handle_write

    def recording_reconfigure(clf, slice_size, now_us):
        slice_sizes.append(slice_size)
        reconfigure(clf, slice_size, now_us)

    def recording_write(ftl, lpn, n, hot=None):
        hot_flags.append(hot)
        return handle_write(ftl, lpn, n, hot=hot)

    monkeypatch.setattr(HotnessClassifier, "reconfigure",
                        recording_reconfigure)
    monkeypatch.setattr(FtlEngine, "handle_write", recording_write)
    tuned_reslice()
    assert GEO.page_size * 4 in slice_sizes
    assert any(hot_flags)
    monkeypatch.undo()
    # msr_spans: the modes of each write's host pages (GC programs its
    # pages through program_run), and the forced space-management calls
    span_modes, forced_calls = [], []
    program_page = SsdState.program_page
    space_management = FtlEngine._space_management

    def recording_span(ftl, lpn, n=1, hot=None):
        span_modes.append([])
        return handle_write(ftl, lpn, n, hot=hot)

    def recording_program(ssd, block_id, page_idx, lpn):
        span_modes[-1].append(ssd.mode[block_id])
        return program_page(ssd, block_id, page_idx, lpn)

    def recording_space_management(ftl, forced=False):
        forced_calls.append(forced)
        return space_management(ftl, forced)

    monkeypatch.setattr(FtlEngine, "handle_write", recording_span)
    monkeypatch.setattr(SsdState, "program_page", recording_program)
    monkeypatch.setattr(FtlEngine, "_space_management",
                        recording_space_management)
    spans = msr_spans()
    assert spans.requests == 600
    assert any(len(set(modes)) > 1 for modes in span_modes)
    assert any(forced_calls)
