"""Command line entry point.

Subcommands mirror the pipeline stages so each can run on its own against
the previous stage's CSV artifacts:

    footprints pipeline  --config run.yaml --out results/
    footprints solve     --config run.yaml --out results/
    footprints validate  --config run.yaml

Exit codes: 0 success, 1 configuration error or unusable --out, 2 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import load_config, validate
from .errors import ConfigurationError
from .pipeline import STAGES, Pipeline, StageFailure

DEFAULT_OUT_ENV = "FOOTPRINTS_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="footprints",
        description="algorithm instance footprints over a benchmark suite",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=True):
        p.add_argument("--config", required=True, help="path to the YAML run config")
        if with_out:
            p.add_argument(
                "--out",
                default=os.environ.get(DEFAULT_OUT_ENV, "footprint_run"),
                help=f"artifact directory (default: ${DEFAULT_OUT_ENV} or ./footprint_run)",
            )
            p.add_argument("--force", action="store_true",
                           help="ignore cached stage digests and recompute")
            p.add_argument("--threads", type=int, default=1,
                           help="parallel workers for solve/features")

    add_common(sub.add_parser("pipeline", help="run all stages"))
    for stage in STAGES:
        p_stage = sub.add_parser(stage, help=f"run the {stage} stage")
        add_common(p_stage)
    p_val = sub.add_parser("validate", help="list config violations without running")
    add_common(p_val, with_out=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
    except (ConfigurationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        issues = validate(cfg)
        if issues:
            for issue in issues:
                print(f"violation: {issue}")
            return 1
        print("config OK")
        return 0

    stages = None if args.command == "pipeline" else [args.command]
    try:
        pipe = Pipeline(cfg, args.out, force=args.force, threads=args.threads)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot use --out {args.out}: {exc}", file=sys.stderr)
        return 1
    try:
        pipe.run(stages)
    except StageFailure as exc:
        print(f"{exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
