"""End-to-end acceptance suite.

Eleven checks, one per release criterion, each printing a single
verdict line (run with -s to see them on success).  They lean on the
independent reference implementations in oracles.py and on frozen
values measured once during calibration; nothing here talks to a
network.  Desk-scale geometries keep every run under its stated
runtime budget.
"""
import json
import random
import time
from dataclasses import replace
from itertools import islice
from pathlib import Path

from hybridssd.config import (ConfigProfile, PlacementStrategy,
                              default_param_bounds, validate_profile)
from hybridssd.errors import NoValidUpdate, ParseFailure
from hybridssd.ftl import ActionKind, FtlEngine, write_amplification
from hybridssd.hotness import HotnessClassifier, classify
from hybridssd.replay import SimulatorStack, replay, run_sweep
from hybridssd.rl import AgentState, SpaceAgent
from hybridssd.ssd import LatencyModel, SsdState, desk_geometry
from hybridssd.trace import synth_trace
from hybridssd.tuner import (ScriptedBackend, Verdict, TuningRecord,
                             correct_mistakes, parse_config)
from hybridssd.verification import EpochSchedule, VerificationLoop, accuracy

from conftest import make_stack
from oracles import (FlashOpLog, MiniSlcFtl, PagePayloads,
                     recompute_total_latency)
from test_verification import PROBE_OPS, ScriptedStack, epoch_markers

PAGE = 16384
FIXTURE = Path(__file__).parent / "fixtures" / "tuning_reply.txt"


def check(num, label, ok, detail=""):
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# --- 1. FTL integrity ------------------------------------------------------------

def test_criterion_01_ftl_integrity():
    # hybrid split on the book-keeping-in-your-head geometry; writes kept to
    # 110 of 140 logical pages so GC always has a victim that fits (at the
    # full logical span this geometry genuinely wedges: one block of
    # over-provisioning is not enough slack for arbitrary overwrite orders)
    geo = desk_geometry()            # 1 channel x 8 blocks x 8 pages
    ssd = SsdState(geo, LatencyModel(), initial_mode_split=0.5)
    ftl = FtlEngine(ssd, ConfigProfile(gc_trigger_threshold=30))
    payloads = PagePayloads(ftl)
    logical = ssd.logical_capacity_pages
    span = 110
    rng = random.Random(0xACCE55)
    shadow = {}
    verified = 0
    t0 = time.time()
    for i in range(10000):
        if rng.random() < 0.7:
            lpn = rng.randrange(span)
            n = min(rng.randint(1, 3), span - lpn)
            ftl.handle_write(lpn, n, tag=i)
            for j in range(lpn, lpn + n):
                shadow[j] = i
        else:
            lpn = rng.randrange(logical)
            n = min(rng.randint(1, 3), logical - lpn)
            ftl.handle_read(lpn, n)
            for j in range(lpn, lpn + n):
                if j in shadow:
                    assert payloads.payload_of(j) == shadow[j], (
                        f"stale read lpn={j} at op {i}")
                    verified += 1
        ssd.audit()                  # bijectivity after every operation
    elapsed = time.time() - t0
    ok = (verified > 1000
          and ssd.valid_pages() == len(shadow)
          and elapsed < 10.0)
    assert check(1, "ftl integrity", ok,
                 f"({verified} reads verified, {elapsed:.1f}s)")


# --- 2. WA oracle equivalence ------------------------------------------------------

def test_criterion_02_wa_oracle():
    # fixed hand-traceable overwrite pattern on the 4-block desk geometry
    pattern = ([(i, 1) for i in range(10)]            # fill 0..9
               + [(0, 2), (2, 2), (4, 2)] * 3          # churn the cold front
               + [(8, 2), (6, 1), (0, 1), (9, 1)] * 2  # stragglers
               + [(1, 2), (5, 1), (3, 2)])             # tail
    geo = desk_geometry(channels=1, blocks_per_channel=4,
                        pages_per_block_slc=4)
    ssd = SsdState(geo, LatencyModel(), initial_mode_split=1.0)
    ftl = FtlEngine(ssd, ConfigProfile(gc_trigger_threshold=30))
    oracle = MiniSlcFtl(4, 4, ssd.logical_capacity_pages, 30)
    t0 = time.time()
    for lpn, n in pattern:
        ftl.handle_write(lpn, n)
        oracle.write(lpn, n)
    elapsed = time.time() - t0
    wa = write_amplification(ftl.wa.device_pages_written,
                             ftl.wa.host_pages_written)
    ok = (ftl.wa.host_pages_written == oracle.host == 43
          and ftl.wa.device_pages_written == oracle.device == 94
          and ssd.erase_ops == oracle.erases == 21
          and wa == oracle.wa == 94 / 43
          and elapsed < 1.0)
    assert check(2, "wa oracle equivalence", ok,
                 f"(wa={wa:.4f}, erases={ssd.erase_ops})")


# --- 3. latency accounting ---------------------------------------------------------

def test_criterion_03_latency_accounting():
    geo = desk_geometry(channels=1, blocks_per_channel=16,
                        pages_per_block_slc=8)
    config = ConfigProfile(window_size=100, rl_training_interval=50,
                           kmeans_trigger_threshold=400, slice_size=PAGE * 8,
                           gc_trigger_threshold=13)
    records = synth_trace(3000, logical_pages=280, page_size=PAGE,
                          hot_fraction=0.9, hot_region_fraction=0.1,
                          write_ratio=0.7, seed=5)
    t0 = time.time()
    stack = SimulatorStack(geo, config, LatencyModel(), seed=0,
                           initial_mode_split=0.5)
    ops = FlashOpLog(stack.ftl)
    for r in records:
        stack.service(r)
    elapsed = time.time() - t0
    recomputed = recompute_total_latency(ops.entries, stack.ssd.latency)
    ok = (len(ops.entries) == 3000
          and recomputed == stack.total_latency_us
          and elapsed < 5.0)
    assert check(3, "latency accounting", ok,
                 f"(total={stack.total_latency_us}us recomputed={recomputed}us)")


# --- 4. k-means recall --------------------------------------------------------------

def test_criterion_04_kmeans_recall():
    # 40 slices of 8 pages; the hot region is the first 10% = slices 0..3
    slice_size = PAGE * 8
    logical = 320
    truth = {0, 1, 2, 3}
    agg_tp = agg_fp = agg_fn = 0
    t0 = time.time()
    for seed in range(10):
        records = synth_trace(2000, logical_pages=logical, page_size=PAGE,
                              hot_fraction=0.9, hot_region_fraction=0.1,
                              write_ratio=1.0, seed=seed)
        clf = HotnessClassifier(slice_size, PAGE)
        now = 0.0
        for r in records:
            now += 100.0
            clf.record_write(r.offset // PAGE, now)
        found = classify(clf.slices, clf.window_start_us, now,
                         max_iterations=10, tol=1e-4)
        agg_tp += len(found & truth)
        agg_fp += len(found - truth)
        agg_fn += len(truth - found)
    elapsed = time.time() - t0
    recall = agg_tp / (agg_tp + agg_fn)
    precision = agg_tp / (agg_tp + agg_fp) if (agg_tp + agg_fp) else 0.0
    ok = recall >= 0.95 and precision >= 0.90 and elapsed < 10.0
    assert check(4, "k-means recall", ok,
                 f"(recall={recall:.3f} precision={precision:.3f} over 10 seeds)")


# --- 5. q-learning sanity -----------------------------------------------------------

def test_criterion_05_q_learning_sanity():
    # stationary environment: one action pays, everything else costs
    state = AgentState(5, 5, 2, 1)
    target = ActionKind.SLC_TO_QLC_GC
    agent = SpaceAgent(random.Random(0))
    chosen = []
    t0 = time.time()
    for _ in range(5000):
        kind, _ = agent.choose_action(state, 0.1)
        chosen.append(kind)
        reward = 1.0 if kind is target else -1.0
        agent.qtable.update(state, kind, reward, state, 0.1, 0.9)
        agent.pending.clear()
    elapsed = time.time() - t0
    final = chosen[-1000:]
    frac = sum(1 for k in final if k is target) / 1000
    greedy = agent.qtable.best_action(state)
    ok = frac >= 0.90 and greedy is target and elapsed < 10.0
    assert check(5, "q-learning sanity", ok,
                 f"(final-1000 fraction={frac:.3f}, greedy={greedy.value})")


# --- 6. rollback guarantee ----------------------------------------------------------

def test_criterion_06_rollback_guarantee():
    t0 = time.time()
    reply = "Window looks cramped. `1.Windows size: 1500`"
    sched = EpochSchedule(tuning_interval_writes=400, investigation_ops=100,
                          degradation_threshold=0.05, max_epochs=30)

    # 5% rule bracketing: 1.00ms -> 1.04ms accepted, 1.00ms -> 1.06ms rolled back
    stack = ScriptedStack(epoch_markers([(1000.0, 1040.0)]))
    rec_ok = VerificationLoop(ScriptedBackend([reply]), sched).run_epoch(
        stack, PROBE_OPS, "scheduled")
    stack = ScriptedStack(epoch_markers([(1000.0, 1060.0)]))
    rec_bad = VerificationLoop(ScriptedBackend([reply]), sched).run_epoch(
        stack, PROBE_OPS, "scheduled")

    # a config known to thrash GC, injected into a live device
    live = make_stack(gc_trigger_threshold=13)
    records = synth_trace(1200, logical_pages=live.ssd.logical_capacity_pages,
                          page_size=PAGE, seed=11)
    ops = iter(records)
    for record in islice(ops, 600):
        live.service(record)
    before = live.config
    thrash = ("hold on `1.GC trigger threshold: 50; 2.GC granularity: 64; "
              "3.Placement strategy: hotness_based`")
    rec_live = VerificationLoop(ScriptedBackend([thrash]), sched).run_epoch(
        live, ops, "scheduled")
    elapsed = time.time() - t0
    ok = (rec_ok.verdict is Verdict.ACCEPTED
          and rec_bad.verdict is Verdict.ROLLED_BACK
          and rec_live.verdict is Verdict.ROLLED_BACK
          and live.config == before          # field-identical restore
          and live.config.as_dict() == before.as_dict()
          and elapsed < 10.0)
    assert check(6, "rollback guarantee", ok,
                 f"(probe ratio {rec_live.latency_after_us / rec_live.latency_before_us:.2f}x)")


# --- 7. mistake-correction fuzz ----------------------------------------------------

def test_criterion_07_mistake_correction_fuzz():
    bounds = default_param_bounds(PAGE)
    current = ConfigProfile()
    names = (["Windows size", "GC trigger threshold", "Slice size",
              "RL learning rate", "Placement strategy", "K-means trigger",
              "window_size", "rl_discount", "conversion granularity",
              "Flux capacitor", "quantum", ""]
             + list(bounds))
    values = ["0", "1", "6", "-3", "99999999", "0.5", "2.5", "1e9", "8%",
              "200MB", "128KB", "1.6ms", "true", "false", "slc_first",
              "hotness_based", "sideways", "NaN", "ten", "", "  "]
    rng = random.Random(7)
    parsed = corrected = 0
    t0 = time.time()
    for _ in range(10000):
        entries = [f"{rng.randrange(1, 9)}.{rng.choice(names)}: "
                   f"{rng.choice(values)}"
                   for _ in range(rng.randrange(0, 5))]
        body = rng.choice(["; ", "\n"]).join(entries)
        fence = rng.choice(["`{}`", "```{}```", "```\n{}\n```", "{}"])
        raw = rng.choice(["", "Given the workload shift, ",
                          "Reasoning: latency is GC bound. "]) + fence.format(body)
        try:
            _, cand = parse_config(raw)
        except ParseFailure:
            continue
        parsed += 1
        try:
            profile, _ = correct_mistakes(cand, bounds, current)
        except NoValidUpdate:
            continue
        corrected += 1
        validate_profile(profile, bounds)   # raises on any out-of-bounds field
    elapsed = time.time() - t0

    # the documented example reply parses to exactly two updates
    _, cand = parse_config("New configuration: `1.K-means trigger threshold: "
                           "1000; 2.Windows size: 1500; ...`")
    ok = (cand == {"kmeans_trigger_threshold": 1000, "window_size": 1500}
          and parsed > 2000 and corrected > 500 and elapsed < 10.0)
    assert check(7, "mistake-correction fuzz", ok,
                 f"({parsed} parsed, {corrected} profiles validated, {elapsed:.1f}s)")


# --- 8. tuning direction check ------------------------------------------------------

def test_criterion_08_tuning_direction():
    geo = desk_geometry(channels=1, blocks_per_channel=64,
                        pages_per_block_slc=8)
    records = synth_trace(20000, logical_pages=1120, page_size=PAGE,
                          hot_fraction=0.9, hot_region_fraction=0.1,
                          write_ratio=0.7, seed=42)
    t0 = time.time()
    base = replay(records, ConfigProfile(), geo, mode="default", seed=0,
                  initial_mode_split=0.5)
    sched = EpochSchedule(tuning_interval_writes=1000, investigation_ops=1000,
                          degradation_threshold=0.05, max_epochs=1)
    tuned = replay(records, ConfigProfile(), geo, mode="tuned",
                   backend=ScriptedBackend.from_file(FIXTURE), schedule=sched,
                   seed=0, initial_mode_split=0.5,
                   baseline_total_us=base.total_latency_us)
    elapsed = time.time() - t0
    improvement = 1.0 - tuned.total_latency_us / base.total_latency_us
    ok = (improvement >= 0.05
          and tuned.wa < base.wa
          and tuned.epochs[0]["verdict"] == "accepted"
          and elapsed < 30.0)
    assert check(8, "tuning direction", ok,
                 f"(latency -{improvement * 100:.1f}%, wa {base.wa:.3f} -> {tuned.wa:.3f})")


# --- 9. sensitivity sweep shape -----------------------------------------------------

def test_criterion_09_sweep_shape():
    geo = desk_geometry(channels=1, blocks_per_channel=128,
                        pages_per_block_slc=8)
    base = ConfigProfile(window_size=200, rl_training_interval=100,
                         kmeans_trigger_threshold=500, slice_size=PAGE * 8,
                         placement_strategy=PlacementStrategy.HOTNESS_BASED,
                         gc_trigger_threshold=6)
    records = synth_trace(4000, logical_pages=2240, page_size=PAGE,
                          hot_fraction=0.9, hot_region_fraction=0.1,
                          write_ratio=0.7, seed=21)
    mults = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    # hand-computed scaled values (round-half-even on ints, page-grid snap)
    expected_values = {
        "gc_trigger_threshold": [2, 3, 6, 12, 24, 48, 96],
        "slice_size": [PAGE * 2, PAGE * 4, PAGE * 8, PAGE * 16,
                       PAGE * 32, PAGE * 64, PAGE * 128],
        "kmeans_tol": [1e-4 * m for m in mults],
    }
    t0 = time.time()
    spreads = {}
    for param, values in expected_values.items():
        report = run_sweep(records, base, geo, param, mults, seed=0,
                           initial_mode_split=0.5)
        rows = report.sweep
        assert [r["value"] for r in rows] == values, param
        # every sweep point must equal a fresh single run of the same knob
        for row, value in zip(rows, values):
            if param == "kmeans_tol":
                cfg, tol = base, value
            else:
                cfg, tol = replace(base, **{param: value}), 1e-4
            single = replay(records, cfg, geo, mode="default", seed=0,
                            initial_mode_split=0.5, kmeans_tol=tol)
            assert row["total_latency_us"] == single.total_latency_us, (param, value)
            assert row["wa"] == single.wa, (param, value)
            assert row["erases"] == single.erases, (param, value)
        totals = [r["total_latency_us"] for r in rows]
        anchor = totals[mults.index(1.0)]
        spreads[param] = (max(totals) - min(totals)) / anchor
    elapsed = time.time() - t0
    ok = (spreads["gc_trigger_threshold"] > 0.01
          and spreads["slice_size"] > 0.01
          and spreads["kmeans_tol"] < 0.01
          and elapsed < 120.0)
    assert check(9, "sensitivity sweep shape", ok,
                 "(spreads gc={:.1%} slice={:.1%} tol={:.3%}, {:.0f}s)".format(
                     spreads["gc_trigger_threshold"], spreads["slice_size"],
                     spreads["kmeans_tol"], elapsed))


# --- 10. determinism ----------------------------------------------------------------

def test_criterion_10_determinism():
    geo = desk_geometry(channels=1, blocks_per_channel=16,
                        pages_per_block_slc=8)
    config = ConfigProfile(window_size=100, rl_training_interval=50,
                           kmeans_trigger_threshold=400, slice_size=PAGE * 8,
                           gc_trigger_threshold=13)
    records = synth_trace(800, logical_pages=280, page_size=PAGE,
                          hot_fraction=0.9, hot_region_fraction=0.1,
                          write_ratio=0.7, seed=5)
    sched = EpochSchedule(tuning_interval_writes=300, investigation_ops=100,
                          degradation_threshold=0.05, max_epochs=3)
    reply = "Window looks cramped. `1.Windows size: 1500`"

    def run():
        return replay(records, config, geo, mode="tuned",
                      backend=ScriptedBackend([reply]), schedule=sched,
                      seed=3, initial_mode_split=0.5)

    t0 = time.time()
    a, b = run(), run()
    elapsed = time.time() - t0
    dump_a = json.dumps(a.to_json_dict(), sort_keys=True)
    dump_b = json.dumps(b.to_json_dict(), sort_keys=True)
    ok = dump_a == dump_b and a.epochs and elapsed < 10.0
    assert check(10, "determinism", ok,
                 f"({len(dump_a)} byte reports, {len(a.epochs)} epochs)")


# --- 11. accuracy formula -----------------------------------------------------------

def test_criterion_11_accuracy_formula():
    def rec(epoch, verdict, improved):
        return TuningRecord(epoch=epoch, trigger="scheduled", verdict=verdict,
                            reason="", corrections=(), changed={},
                            latency_before_us=100.0, latency_after_us=90.0,
                            wa_before=2.0, wa_after=1.9,
                            improved_over_default=improved)

    history = ([rec(i, Verdict.ACCEPTED, True) for i in range(25)]
               + [rec(25 + i, Verdict.CORRECTED, True) for i in range(2)]
               + [rec(27 + i, Verdict.ROLLED_BACK, False) for i in range(3)])
    got = accuracy(history)
    ok = got == 0.9
    assert check(11, "accuracy formula", ok,
                 f"(27 improvements / 30 epochs = {got})")
