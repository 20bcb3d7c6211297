"""Experiment runner.

Subcommands: `run <config>` executes scenarios from a JSON config, `list`
prints the built-in replication catalog, `replicate [id]` runs one or all
built-in scenarios.  Exit codes: 0 success, 1 at least one scenario failed,
2 config or usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .scenarios import (ConfigError, SCENARIOS, ScenarioOutcome, list_catalog,
                        parse_config, run_scenario, write_outcome)
from .serialize import json_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstarlab",
        description="Numerical probes for extending *-representations by closure")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized probe families (default 0)")
    parser.add_argument("--out-dir", default="out",
                        help="directory for result files (default ./out)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="emit tables as CSV files or embed them in JSON")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored: scenarios run serially; "
                        "kept until the benchmark argvs stop passing it")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run scenarios from a JSON config")
    run_p.add_argument("config", help="path to the config file")

    list_p = sub.add_parser("list", help="print the built-in catalog")
    list_p.add_argument("--module", default=None,
                        help="only scenarios of this module")
    list_p.add_argument("--machine", action="store_true",
                        help="JSON catalog instead of text")

    rep_p = sub.add_parser("replicate",
                           help="run built-in replication scenarios")
    rep_p.add_argument("example", nargs="?", default=None,
                       help="scenario id (default: all)")
    return parser


def _run_one(scenario, seed: int) -> ScenarioOutcome:
    """run_scenario, except that an exception raised inside the scenario
    becomes a FAIL outcome recording it."""
    try:
        return run_scenario(scenario, seed)
    except Exception as exc:
        print(f"error: scenario {scenario.scenario_id} raised:",
              file=sys.stderr)
        traceback.print_exc()
        return ScenarioOutcome(
            passed=False, details={"error": {"type": type(exc).__name__,
                                             "message": str(exc)}},
            tables={})


def _run_all(scenarios, seed: int, out_dir: str, fmt: str) -> int:
    """Create out_dir, run every scenario in turn, then write the outcomes
    in id order.  An out_dir that cannot be created is a usage error (2)
    before any scenario runs; an outcome that cannot be written fails its
    own scenario and no other."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use --out-dir {out_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    runs = [(sc, _run_one(sc, seed)) for sc in scenarios]
    failed = 0
    for scenario, outcome in sorted(runs, key=lambda r: r[0].scenario_id):
        passed = outcome.passed
        try:
            write_outcome(scenario, outcome, out_dir, fmt)
        except OSError as exc:
            print(f"error: cannot write scenario {scenario.scenario_id}: "
                  f"{exc}", file=sys.stderr)
            passed = False
        print(f"{scenario.scenario_id}: {'pass' if passed else 'FAIL'}")
        failed += not passed
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        items = list_catalog(args.module)
        if args.machine:
            payload = [{"id": s.scenario_id, "module": s.module,
                        "operation": s.operation, "parameters": s.parameters,
                        "description": s.description} for s in items]
            print(json_text(payload), end="")
        else:
            for s in items:
                print(f"{s.scenario_id:10s} {s.module:15s} {s.operation}")
                print(f"{'':10s} {s.description}")
        return 0

    if args.command == "run":
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return 2
        try:
            scenarios = parse_config(data)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _run_all(scenarios, args.seed, args.out_dir, args.format)

    if args.command == "replicate":
        if args.example is not None:
            if args.example not in SCENARIOS:
                print(f"error: unknown example {args.example!r}; "
                      f"known: {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
                return 2
            picked = [SCENARIOS[args.example]]
        else:
            picked = list_catalog()
        return _run_all(picked, args.seed, args.out_dir, args.format)

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
