"""Command line front end: replay traces, tune, sweep, report."""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict, fields

from .config import ConfigProfile, load_config_file
from .errors import ConfigError, SimulatorError
from .hotness import KMEANS_TOL
from .replay import check_report_path, emit_report, replay, run_sweep
from .ssd import INITIAL_MODE_SPLIT, FlashGeometry, initial_layout
from .trace import FORMATS, load_trace, synth_trace
from .tuner import DEFAULT_MAX_TOKENS, RemoteBackend, ScriptedBackend
from .verification import EpochSchedule

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridssd",
        description="Trace-driven hybrid SLC/QLC SSD simulator with "
                    "K-means hotness classification, Q-learning space "
                    "management, and LLM-backed config tuning.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a trace and write a report")
    run.add_argument("--trace", help="trace file (omit with --format synth)")
    run.add_argument("--format", default="synth",
                     choices=sorted(FORMATS) + ["synth"],
                     help="trace format (default: synth)")
    run.add_argument("--mode", default="default",
                     choices=["default", "tuned", "sweep"])
    run.add_argument("--config", help="overrides file (key = value lines)")
    run.add_argument("--report", default="report.json",
                     help="output path (default: report.json)")
    run.add_argument("--report-format", default=None, choices=["json", "csv"],
                     help="default: by --report extension, else json")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--prefill", type=float, default=0.0,
                     help="fraction of logical space written before metrics "
                          "start (default: 0)")
    run.add_argument("--normalize", action="store_true",
                     help="also run the default config and report execution "
                          "time normalized against it")

    synth = run.add_argument_group("synthetic trace")
    synth.add_argument("--ops", type=int, default=100000)
    synth.add_argument("--hot-fraction", type=float, default=0.9,
                       help="share of writes landing in the hot region")
    synth.add_argument("--hot-region", type=float, default=0.1,
                       help="hot region size as a fraction of logical space")
    synth.add_argument("--write-ratio", type=float, default=0.7)

    geo = run.add_argument_group("device geometry")
    geo.add_argument("--channels", type=int)
    geo.add_argument("--blocks-per-channel", type=int)
    geo.add_argument("--pages-per-block", type=int, dest="pages_per_block_slc",
                     metavar="PAGES_PER_BLOCK",
                     help="SLC pages per block (QLC holds 4x)")
    geo.add_argument("--page-size", type=int)
    geo.add_argument("--op-ratio", type=float)
    geo.add_argument("--mode-split", type=float, default=INITIAL_MODE_SPLIT,
                     help="fraction of blocks starting in SLC mode")

    tune = run.add_argument_group("tuned mode")
    tune.add_argument("--backend",
                      help="scripted:FILE or remote:URL (required for tuned)")
    tune.add_argument("--model", default="gpt-4")
    tune.add_argument("--temperature", type=float, default=0.0)
    tune.add_argument("--auth-env", default="LLM_API_KEY",
                      help="env var holding the API token (never pass the "
                           "token itself)")
    tune.add_argument("--tuning-interval", type=int,
                      dest="tuning_interval_writes",
                      metavar="TUNING_INTERVAL",
                      help="host writes between scheduled epochs")
    tune.add_argument("--investigation-ops", type=int)
    tune.add_argument("--max-epochs", type=int)
    tune.add_argument("--degradation-threshold", type=float)
    tune.add_argument("--max-tokens", type=int, default=DEFAULT_MAX_TOKENS,
                      help="prompt budget; older history is dropped to fit")
    tune.add_argument("--target-note", default="",
                      help="extra requirement text appended to the prompt")

    sweep = run.add_argument_group("sweep mode")
    sweep.add_argument("--sweep-param", default="gc_trigger_threshold")
    sweep.add_argument("--sweep-multipliers", default="0.25,0.5,1,2,4,8,16",
                       help="comma separated multipliers of the base value")
    # geometry and schedule flags store under their dataclass field names
    # and default to the dataclasses' own defaults
    run.set_defaults(**asdict(FlashGeometry()), **asdict(EpochSchedule()))
    return parser


def _make_backend(spec: str | None, args):
    if not spec:
        raise ConfigError("tuned mode needs --backend scripted:FILE "
                          "or remote:URL")
    kind, _, rest = spec.partition(":")
    if kind == "scripted":
        if not rest:
            raise ConfigError("scripted backend needs a response file")
        try:
            return ScriptedBackend.from_file(rest)
        except OSError as exc:
            raise ConfigError(f"scripted backend: {exc}") from exc
    if kind == "remote":
        if not rest:
            raise ConfigError("remote backend needs an endpoint URL")
        return RemoteBackend(rest, model=args.model,
                             temperature=args.temperature,
                             auth_env=args.auth_env)
    raise ConfigError(f"unknown backend kind {kind!r}")


def _load_records(args, geometry: FlashGeometry, logical_pages: int):
    if args.format == "synth":
        try:
            records = synth_trace(args.ops, logical_pages, geometry.page_size,
                                  hot_fraction=args.hot_fraction,
                                  hot_region_fraction=args.hot_region,
                                  write_ratio=args.write_ratio,
                                  seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"synthetic trace: {exc}") from exc
        return records, 0
    if not args.trace:
        raise ConfigError(f"--format {args.format} needs --trace FILE")
    try:
        return load_trace(args.trace, args.format)
    except OSError as exc:
        raise ConfigError(f"trace: {exc}") from exc


def cmd_run(args) -> int:
    try:
        check_report_path(args.report)
    except OSError as exc:
        raise ConfigError(f"report: {exc}") from exc
    fmt = args.report_format
    if fmt is None:
        fmt = "csv" if args.report.endswith(".csv") else "json"
    if fmt == "csv" and args.mode == "default":
        raise ConfigError("a csv report holds tuning epochs or sweep rows; "
                          "default mode has neither, so write json")
    config = ConfigProfile()
    settings = {}
    if args.config:
        try:
            config, settings = load_config_file(args.config, args.page_size)
        except OSError as exc:
            raise ConfigError(f"config: {exc}") from exc
    # geometry keys in the config file override the CLI flags
    geometry = FlashGeometry(**{f.name: settings.get(f.name,
                                                     getattr(args, f.name))
                                for f in fields(FlashGeometry)})
    mode_split = settings.get("initial_mode_split", args.mode_split)
    tuned = {}
    if args.mode == "tuned":
        schedule = EpochSchedule(**{f.name: getattr(args, f.name)
                                    for f in fields(EpochSchedule)})
        if fmt == "csv" and schedule.max_epochs == 0:
            raise ConfigError("a csv report holds tuning epochs; "
                              "--max-epochs 0 runs none, so write json")
        tuned = dict(mode="tuned", backend=_make_backend(args.backend, args),
                     schedule=schedule, max_tokens=args.max_tokens,
                     target_note=args.target_note)
    # the synthetic LPN space spans the device's logical capacity
    _, logical_pages = initial_layout(geometry, mode_split)
    records, skipped = _load_records(args, geometry, logical_pages)
    if not records:
        raise ConfigError("trace produced no usable records")
    # what every replay of this run shares
    run = dict(seed=args.seed, initial_mode_split=mode_split,
               kmeans_tol=settings.get("kmeans_tol", KMEANS_TOL),
               prefill_fraction=args.prefill, skipped_lines=skipped)

    baseline_total = None
    if args.normalize and args.mode != "sweep":
        base = replay(records, ConfigProfile(), geometry, **run)
        baseline_total = base.total_latency_us

    if args.mode == "sweep":
        try:
            multipliers = [float(tok) for tok in
                           args.sweep_multipliers.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"--sweep-multipliers: {exc}") from exc
        report = run_sweep(records, config, geometry, args.sweep_param,
                           multipliers, **run)
    else:
        report = replay(records, config, geometry,
                        baseline_total_us=baseline_total, **tuned, **run)

    try:
        emit_report(report, args.report, fmt)
    except OSError as exc:
        raise ConfigError(f"report: {exc}") from exc

    mean = report.mean_latency_us
    print(f"requests={report.requests} writes={report.writes} "
          f"mean_latency_us={mean if mean is None else round(mean, 3)} "
          f"wa={report.wa if report.wa is None else round(report.wa, 4)} "
          f"erases={report.erases}")
    if report.epochs_run:
        print(f"epochs={report.epochs_run} accuracy={report.accuracy}")
    print(f"report written to {args.report}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "run":
            return cmd_run(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except SimulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
