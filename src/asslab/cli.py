"""Command line entry points: run a sweep, re-analyze a run."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import read_json
from .errors import AsslabError
from .harness import ExperimentConfig, analyze_dir, run_and_emit


def load_config_file(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_json(path, "config file"))


def _print_progress(report) -> None:
    print(
        f"seed {report.seed} {report.strategy} round {report.round_index}: "
        f"accuracy {report.test_accuracy:.4f}, "
        f"labeled {report.n_labeled_after}",
        flush=True,
    )


def _cmd_run(args) -> int:
    cfg = load_config_file(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=[args.seed])
    out_dir = args.out if args.out is not None else cfg.out_dir
    result = run_and_emit(cfg, out_dir=out_dir, progress=_print_progress)
    print(f"wrote {out_dir}")
    if result.errors:
        for err in result.errors:
            print(
                f"training diverged: seed {err['seed']} {err['strategy']} "
                f"round {err['round']} ({err['message']})",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_analyze(args) -> int:
    analyze_dir(args.in_dir)
    print(f"rebuilt analysis under {args.in_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asslab",
        description="Active semi-supervised learning laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment sweep")
    run_p.add_argument("--config", required=True, help="path to a JSON config file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="replace the config's seed list with this single seed")
    run_p.add_argument("--out", default=None,
                       help="output directory (defaults to the config's out_dir)")
    run_p.set_defaults(func=_cmd_run)

    analyze_p = sub.add_parser("analyze", help="rebuild analysis CSVs from run logs")
    analyze_p.add_argument("--in", dest="in_dir", required=True,
                           help="an emitted run directory")
    analyze_p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AsslabError, OSError, MemoryError) as e:  # unwritable tree, unallocatable arrays
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
