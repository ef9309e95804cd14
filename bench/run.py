"""Run one hybridssd benchmark workload and print its metrics.

    python3 bench/run.py --workload gc_steady --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
untraced and traced episodes in turn and reports the per-layer metrics and
the tracing overhead. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when a result was printed.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 11  # inputs kept apart for re-checking claimed gains


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import harness
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    harness.WORKDIR.mkdir(exist_ok=True)
    try:
        loads = workload.inputs(args.seed, harness.WORKDIR)
        run = harness.measure_traced if args.trace else harness.measure
        episodes, sim, metrics = run(workload, loads, args.seconds)
    finally:
        shutil.rmtree(harness.WORKDIR, ignore_errors=True)

    failures = [f for ep in episodes for f in ep.failures]
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    errors = sorted({ep.error for ep in episodes if ep.error})
    print(f"workload={workload.name} start={workload.start} seed={args.seed} "
          f"variants={len(loads)}x{workload.requests} requests "
          f"episodes={len(episodes)} failed_frac={failed / attempted!r} "
          f"errors={errors or None}")
    print(f"sim (pooled over variants): mean={sim['mean_latency_us']!r}us "
          f"p99={sim['p99_latency_us']!r}us (n={sim['samples']}) "
          f"wa={sim['wa']!r} erases={sim['erases']} "
          f"reports_sha256={sim['digest']}")
    measured_rate = statistics.median(ep.req_per_s for ep in episodes)
    measured_setup = statistics.median(ep.setup_s for ep in episodes)
    scale = statistics.median(ep.scale for ep in episodes)
    print(f"measured (not scaled to reference speed): "
          f"req_per_s={measured_rate!r} setup_s={measured_setup!r} "
          f"probe_s={harness.PROBE_REF_S / scale!r}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for failure in sorted(set(failures)):
        print(f"CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
