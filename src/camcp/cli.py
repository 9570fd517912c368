"""Command line front end: run one scenario, sweep a benchmark, replay a trace."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import compute_metrics, replay, run_bench
from .runtime import MalformedTraceError, run, write_trace
from .scenarios import (
    MODE_CA,
    MODE_TRADITIONAL,
    ScenarioParseError,
    ScenarioValidationError,
    WindowConfig,
    resolve_scenario,
)

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camcp",
        description="Context-aware multi-tool runs against a centrally orchestrated baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario run and print its metrics")
    run_p.add_argument("--scenario", required=True, help="builtin name or path to a scenario JSON file")
    run_p.add_argument("--mode", required=True, choices=["ca", "traditional"])
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--trace", help="write the run trace (JSON lines) to this path")

    bench_p = sub.add_parser("bench", help="run both modes across seeds and write CSV + summary")
    bench_p.add_argument("--scenario", required=True)
    bench_p.add_argument("--n", type=int, required=True, help="number of seeds (0..n-1)")
    bench_p.add_argument("--out", required=True, help="CSV output path; summary JSON lands beside it")
    bench_p.add_argument(
        "--window", type=int, help="enable the traditional-mode window with this entry budget"
    )

    replay_p = sub.add_parser("replay", help="recompute metrics from a serialized trace")
    replay_p.add_argument("--trace", required=True)
    return parser


def _print_metrics(metrics) -> None:
    print(json.dumps(dataclasses.asdict(metrics), sort_keys=True))


def _cmd_run(args) -> int:
    scenario = resolve_scenario(args.scenario)
    mode = MODE_CA if args.mode == "ca" else MODE_TRADITIONAL
    trace = run(scenario, mode, args.seed)
    if args.trace:
        write_trace(trace, args.trace)
    _print_metrics(compute_metrics(trace, scenario))
    return EXIT_OK


def _cmd_bench(args) -> int:
    scenario = resolve_scenario(args.scenario)
    if args.window is not None:
        if args.window < 1:
            raise ScenarioValidationError("window", "budget must be >= 1")
        window = WindowConfig(enabled=True, budget_entries=args.window)
        scenario = dataclasses.replace(scenario, window=window)
    summary_path = _summary_path(args.out)
    report = run_bench(scenario, args.n, out_csv=args.out, out_summary=summary_path)
    print(json.dumps(report.summary, sort_keys=True))
    if report.errors:
        for line in report.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    return EXIT_OK


def _summary_path(csv_path: str) -> str:
    if csv_path.endswith(".csv"):
        return csv_path[: -len(".csv")] + "_summary.json"
    return csv_path + "_summary.json"


def _cmd_replay(args) -> int:
    _print_metrics(replay(args.trace))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_replay(args)
    except (ScenarioParseError, ScenarioValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedTraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
