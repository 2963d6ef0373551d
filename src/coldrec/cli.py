"""Command-line entry point.

Subcommands mirror the pipeline stages (each consumes the previous stage's
persisted outputs), plus `run` for the single-shot pipeline, `report` for the
summary table, and `fixture` for the synthetic MIND-format generator.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline
from .config import FEATURE_KINDS, load_config
from .errors import PipelineError
from .fixture import generate_fixture
from .metrics import format_summary, load_curves
from .models import MODEL_KINDS


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--model",
        choices=MODEL_KINDS + ("all",),
        default=None,
        help="override the configured model kind",
    )
    parser.add_argument(
        "--features",
        choices=FEATURE_KINDS,
        default=None,
        help="override the configured feature kind",
    )
    parser.add_argument(
        "--out", default=None, help="override the output directory (relative to the working directory)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldrec",
        description="Next-article recommendation pipeline: ingest, triplets, splits, "
        "features, factorization models, and top-K ranking evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", *(stage for stage, _ in pipeline._STAGES), "report"):
        stage_parser = sub.add_parser(name, help="%s stage" % name if name != "run" else "run all stages")
        _add_common_flags(stage_parser)
    fixture_parser = sub.add_parser("fixture", help="generate a synthetic MIND-format dataset")
    fixture_parser.add_argument("--users", type=int, default=50)
    fixture_parser.add_argument("--articles", type=int, default=200)
    fixture_parser.add_argument(
        "--signal", type=float, default=0.8, help="probability a next click shares the last category"
    )
    fixture_parser.add_argument("--seed", type=int, default=7)
    fixture_parser.add_argument("--out", required=True, help="directory for news.tsv / behaviors.tsv")
    return parser


def _print_counters(counters: dict) -> None:
    for key, value in counters.items():
        print("%s = %s" % (key, value))


def _dispatch(args) -> int:
    if args.command == "fixture":
        news_path, behaviors_path = generate_fixture(
            args.users, args.articles, args.signal, args.seed, args.out
        )
        print("wrote %s" % news_path)
        print("wrote %s" % behaviors_path)
        return 0

    cfg = load_config(
        args.config,
        seed=args.seed,
        model=args.model,
        features=args.features,
        # a relative --out is taken from the working directory; config paths from the config's
        out_dir=None if args.out is None else os.path.abspath(args.out),
    )
    if args.command == "run":
        pipeline.run_pipeline(cfg)
        print(format_summary(load_curves(pipeline.metrics_path(cfg))), end="")
        print("metrics written to %s" % pipeline.metrics_path(cfg))
        return 0
    if args.command == "report":
        print(format_summary(load_curves(pipeline.metrics_path(cfg))), end="")
        return 0
    counters = dict(pipeline._STAGES)[args.command](cfg)
    _print_counters(counters)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (PipelineError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
