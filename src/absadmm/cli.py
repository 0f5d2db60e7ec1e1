"""Command-line entry points.

    absadmm run --config exp.yaml --out runs/exp1 [--seed-override 7]
    absadmm advise --dataset data.txt --problem fused_logistic [--beta B --eta E]
    absadmm --list-methods

Exit codes: 0 success, 2 bad config or usage, 3 bad data, 4 every run diverged.
"""

import argparse
import dataclasses
import math
import sys

import yaml

from .advisor import advise
from .datasets import d_hint_fault, load_libsvm
from .errors import ConfigError, ParseError
from .experiment import load_config, run_experiment
from .problems import build_fused_logistic, build_graph_guided
from .solvers import METHODS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _d_hint(text):
    """An argparse type: an integer that can be a feature count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    fault = d_hint_fault(value)
    if fault:
        raise argparse.ArgumentTypeError(fault)
    return value


def _real(rule, ok):
    """An argparse type: a float for which ``ok`` holds; ``rule`` says which."""

    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


# NaN fails every comparison, so each range below also refuses nan
_NONNEGATIVE = _real("nonnegative and finite", lambda v: 0.0 <= v < math.inf)
_POSITIVE = _real("positive and finite", lambda v: 0.0 < v < math.inf)


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

    advp = sub.add_parser("advise", help="report theory-driven parameter estimates")
    advp.add_argument("--dataset", required=True, help="LIBSVM data file (.gz ok)")
    advp.add_argument(
        "--problem", required=True, choices=["fused_logistic", "graph_guided"]
    )
    advp.add_argument("--d-hint", type=_d_hint, default=None)
    advp.add_argument("--l1", type=_NONNEGATIVE, default=1e-3, help="nonsmooth penalty weight")
    advp.add_argument("--l2", type=_NONNEGATIVE, default=0.0, help="ridge weight (graph_guided)")
    advp.add_argument(
        "--corr-threshold", type=_real("in (0, 1]", lambda v: 0.0 < v <= 1.0), default=0.7
    )
    advp.add_argument("--beta", type=_POSITIVE, default=None)
    advp.add_argument("--eta", type=_POSITIVE, default=None)
    advp.add_argument("--c-tau", type=_POSITIVE, default=1.0)
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
    ds = load_libsvm(args.dataset, d_hint=args.d_hint)
    if args.problem == "fused_logistic":
        p = build_fused_logistic(ds, args.l1)
    else:
        p = build_graph_guided(ds, args.l1, args.l2, args.corr_threshold)
    report = advise(p, beta=args.beta, eta=args.eta, c_tau=args.c_tau)
    print(yaml.safe_dump(dataclasses.asdict(report), sort_keys=False), end="")
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
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_advise(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
