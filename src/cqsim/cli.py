"""Command line interface: run scenarios, audit couplings, compare artifacts.

    cqsim run <scenario.yaml> --out DIR [--seed N]
    cqsim check <scenario.yaml>
    cqsim compare <a> <b> --metric l1

One scenario per invocation; scenarios are files, never prompts.  ``run``
passes the scenario through the same audit as ``check`` before it starts,
so both reject a model with the same exit status and message, and a
rejected run creates no output directory.  The exit status is nonzero
whenever parsing fails or a run breaches an invariant (trace drift,
negativity, CP violation).
"""

from __future__ import annotations

import argparse
import json
import sys

from .runner import RunFailure, check_scenario, compare_artifacts, run_scenario
from .scenario import ScenarioError, parse_scenario_file

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_USAGE = 2


def _fmt_float(x: float) -> str:
    return "{:.17g}".format(x)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cqsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", required=True, help="output directory for artifacts")
    p_run.add_argument(
        "--seed", type=int, default=None,
        help="override the master seed (unravel and sample_paths; other run types have none)",
    )

    p_check = sub.add_parser("check", help="parse a scenario and audit its couplings")
    p_check.add_argument("scenario")

    p_cmp = sub.add_parser("compare", help="distance between two state artifacts")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--metric", choices=("l1", "linf"), default="l1")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            scenario = parse_scenario_file(args.scenario)
            summary = run_scenario(scenario, args.out, seed=args.seed)
            print(json.dumps(summary, sort_keys=True, default=str))
            return EXIT_OK
        if args.command == "check":
            scenario = parse_scenario_file(args.scenario)
            print(json.dumps(check_scenario(scenario), sort_keys=True, default=str))
            return EXIT_OK
        if args.command == "compare":
            print(_fmt_float(compare_artifacts(args.a, args.b, metric=args.metric)))
            return EXIT_OK
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"scenario error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RunFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
