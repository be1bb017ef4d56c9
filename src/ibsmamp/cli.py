"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments plus the
built-in selftest.  Exit codes: 0 success, 1 invariant failure, 2 bad
configuration or arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigurationError
from .harness import CONFIG_TYPES, load_config, run_experiment
from .selftest import run_selftest


def _add_common(parser: argparse.ArgumentParser, monte_carlo: bool) -> None:
    parser.add_argument("--config", help="JSON config file")
    if monte_carlo:
        parser.add_argument("--seed", type=int, help="master seed override")
        parser.add_argument("--trials", type=int, help="trial count override")
        parser.add_argument("--threads", type=int, help="worker processes, at most one per trial")
    parser.add_argument("--out", default="results", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibsmamp",
        description="Block-sparse unitary transforms and memory-AMP recovery.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cls in CONFIG_TYPES.items():
        monte_carlo = any(f.name == "seed" for f in dataclasses.fields(cls))
        _add_common(sub.add_parser(name, help=cls.__doc__), monte_carlo)
    sub.add_parser("selftest", help="run built-in invariant checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return 0 if run_selftest() else 1
    # complexity has no --seed/--trials/--threads: None overrides nothing.
    overrides = {key: getattr(args, key, None) for key in ("seed", "trials", "threads")}
    try:
        cfg = load_config(args.command, args.config, overrides)
        written = run_experiment(args.command, cfg, args.out)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
