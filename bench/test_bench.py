"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import json

import pytest

import harness
import run
import workloads
from hybridssd.errors import CapacityError
from hybridssd.ftl import FtlEngine
from hybridssd.ssd import FlashGeometry

TINY_GEOMETRY = FlashGeometry(channels=2, blocks_per_channel=16,
                              pages_per_block_slc=8)
TINY_REQUESTS = {"fresh_default": 60, "gc_steady": 60, "msr_tuned": 300}


def contract() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    for name, n in TINY_REQUESTS.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(
            workloads.WORKLOADS[name], geometry=TINY_GEOMETRY, requests=n))
    return workloads.WORKLOADS


def run_bench(capsys, *args) -> tuple[int, list[str], dict]:
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(TINY_REQUESTS))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, name, trace):
    code, lines, result = run_bench(capsys, "--workload", name, "--seed", "3",
                                    "--seconds", "0", "--trace", trace)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], [ln for ln in lines if "CHECK FAILED" in ln]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    expected = contract()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert f"  {metric['name']} = " in "\n".join(lines)


def test_same_seed_gives_same_report_digest(tiny, capsys):
    digests = []
    for _ in range(2):
        _, lines, _ = run_bench(capsys, "--workload", "gc_steady", "--seconds",
                                "0")
        digests.append(lines[1].rsplit("reports_sha256=", 1)[1])
    assert digests[0] == digests[1]


def test_tampered_total_latency_fails_the_output_check(tiny):
    w = tiny["fresh_default"]
    records, _ = w.inputs(5, harness.WORKDIR)[0]()
    recorder = harness.Recorder()
    recorder.install()
    try:
        report = harness.replay_mod.replay(records, harness.ConfigProfile(),
                                           w.geometry, **w.replay_kwargs())
    finally:
        recorder.uninstall()
    stack = recorder.stack

    def failures():
        return harness.report_failures(report, recorder.latencies,
                                       len(records), stack.ftl.wa,
                                       stack.erases)

    assert failures() == []
    report.total_latency_us += 0.5
    assert any("total_latency_us" in f for f in failures())


def test_error_mid_replay_is_counted_as_failed(tiny, capsys, monkeypatch):
    original = FtlEngine.handle_write
    calls = {"n": 0}

    def failing_write(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 20:
            calls["n"] = 0
            raise CapacityError("device full even after space management")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FtlEngine, "handle_write", failing_write)
    code, lines, result = run_bench(capsys, "--workload", "fresh_default",
                                    "--seconds", "0")
    assert code == 0
    assert "CapacityError" in lines[0]
    assert 0 < result["failed"] < result["attempted"]
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"]
                                      for m in contract()["end_to_end"]}
