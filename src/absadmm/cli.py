"""Command-line entry points.

    absadmm run --config exp.yaml --out runs/exp1 [--seed-override 7]
    absadmm advise --config exp.yaml
    absadmm --list-methods

Exit codes: 0 success, 2 bad config or usage, 3 bad data, 4 every run diverged.
"""

import argparse
import dataclasses
import sys

import yaml

from .errors import ConfigError, ParseError
from .experiment import describe_run, load_config, run_experiment
from .solvers import METHODS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="absadmm",
        description="Stochastic linearized ADMM with adaptive batch sizes.",
    )
    parser.add_argument(
        "--list-methods", action="store_true", help="print the method names and exit"
    )
    sub = parser.add_subparsers(dest="command")

    runp = sub.add_parser("run", help="run an experiment grid from a config file")
    runp.add_argument("--config", required=True, help="YAML experiment config")
    runp.add_argument("--out", required=True, help="output directory for traces and summary")
    runp.add_argument("--seed-override", type=int, default=None, help="replace the config seed")

    advp = sub.add_parser(
        "advise", help="describe the run a config sets up, beside the analysis's conditions"
    )
    advp.add_argument("--config", required=True, help="YAML experiment config")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed_override)
    summary = run_experiment(cfg, args.out)
    total = len(summary.rows)
    bad = sum(1 for r in summary.rows if r.diverged)
    print(f"{total - bad}/{total} runs finished; summary in {args.out}/summary.yaml")
    if total and bad == total:
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_advise(args) -> int:
    print(yaml.safe_dump(describe_run(load_config(args.config)), sort_keys=False), end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_methods:
        for name in METHODS:
            print(name)
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        return _cmd_run(args) if args.command == "run" else _cmd_advise(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
