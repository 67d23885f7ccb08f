"""Command-line entry point.

``lexevo <subcommand> --config FILE [--out DIR] [--seed N]`` where the
subcommand is ``run`` (everything) or one stage of the pipeline:
``ingest``, ``stats``, ``ca``, ``periods``, ``figures``. A stage
subcommand reads the artifacts earlier stages wrote into the output
directory, so stages can be re-run individually; ``run`` hands each
stage's outputs to the next in memory. Both produce identical artifacts.

All diagnostics go to stderr. Exit codes: 0 success, 1 invalid
configuration, command line or input shape, 2 data prevents the
computation, 3 unexpected internal error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Sequence

from . import pipeline
from .config import load_config
from .errors import DataError, ValidationError

logger = logging.getLogger("lexevo")

_COMMANDS = {
    "run": pipeline.run_pipeline,
    "ingest": pipeline.stage_ingest,
    "stats": pipeline.stage_stats,
    "ca": pipeline.stage_ca,
    "periods": pipeline.stage_periods,
    "figures": pipeline.stage_figures,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexevo",
        description="Corpus statistics, correspondence maps and period "
        "profiles for bibliographic CSV exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "run the whole pipeline and write a manifest"),
        ("ingest", "parse, filter and tokenize; write corpus and matrices"),
        ("stats", "descriptive tables and the fitted growth trend"),
        ("ca", "correspondence model and year trajectory"),
        ("periods", "per-period characteristic terms and pioneer documents"),
        ("figures", "render all SVG figures from the tabular artifacts"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument(
            "-v", "--verbose", action="store_true", help="debug-level logging"
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse wrote the help, or the usage error
        return 1 if exc.code else 0  # a usage error is a configuration error
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,  # rebind the handler on every invocation
    )
    try:
        cfg = load_config(args.config).with_overrides(out=args.out, seed=args.seed)
        _COMMANDS[args.command](cfg)
    except ValidationError as exc:
        logger.error("%s", exc)
        return 1
    except DataError as exc:
        logger.error("%s", exc)
        return 2
    except Exception:  # noqa: BLE001 - last-resort guard for exit code 3
        logger.exception("internal error")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
