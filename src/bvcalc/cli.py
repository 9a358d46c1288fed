"""Command-line entry point.

    bvcalc list
    bvcalc run --scenario <id> [--resolution R] [--jmax J]
               [--tolerance T] [--seed S] [--output DIR]
    bvcalc oracle --case <file.json>

``run`` exits 0 iff every expected-outcome clause of the scenario holds.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

from .oracle import oracle_case
from .scenarios import RunConfig, ScenarioError, run, scenario_catalog

USAGE_EXIT = 2


@functools.cache  # parse_args leaves the parser as it is
def build_parser():
    parser = argparse.ArgumentParser(prog="bvcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list scenario ids")

    default = {f.name: f.default for f in fields(RunConfig)}
    runp = sub.add_parser("run", help="run one scenario")
    runp.add_argument("--scenario", required=True)
    runp.add_argument("--resolution", type=int, default=default["resolution"])
    runp.add_argument("--jmax", type=int, default=default["jmax"])
    runp.add_argument("--tolerance", type=float, default=default["tolerance"])
    runp.add_argument("--seed", type=int, default=default["seed"])
    runp.add_argument("--output", default=default["output"])

    oraclep = sub.add_parser("oracle", help="evaluate a 1D case description")
    oraclep.add_argument("--case", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for s in scenario_catalog():
            print(f"{s.sid:28s} {s.summary}")
        return 0
    if args.command == "run":
        try:
            config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
            code, result = run(config)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_EXIT
        for clause in result.clauses:
            mark = "ok  " if clause.passed else "FAIL"
            print(f"[{mark}] {config.scenario}: {clause.name} (target {clause.target})")
        return code
    if args.command == "oracle":
        try:
            with open(args.case) as fh:
                value = oracle_case(json.load(fh))
        # a ValueError: OracleError, JSONDecodeError, a file that is not
        # text, or an int of more digits than json reads
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_EXIT
        print(json.dumps({"value": value}))
        return 0
    parser.print_help()
    return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
