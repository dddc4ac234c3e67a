"""Command line entry point: `daqec <experiment> [--config PATH] [...]`.

Exit codes: 0 on success, 2 on configuration errors, 3 when a verify-mode
experiment finds a failing check.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENTS, ConfigError, execute, load_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daqec",
        description="Distributed approximate QEC simulation and analytics workbench.")
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="YAML config file (defaults reproduce the standard settings)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per parameter point override")
    parser.add_argument("--out", metavar="DIR", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None, help="worker thread count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return execute(load_config(
            experiment=args.experiment,
            path=args.config,
            overrides={"seed": args.seed, "trials": args.trials,
                       "out": args.out, "threads": args.threads},
        ))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
