"""Command-line entry point.

    feddistill run <config.json>            full pipeline
    feddistill validate <config.json>       config checks only
    feddistill distill <config.json>        standalone per-client distillation
    feddistill unlearn <config.json> --requests <file>
    feddistill report <dir>                 summarize report JSONs

Exit codes: 0 ok, 2 validation failure (including unservable requests: an
unknown class or client, or a request line that cannot be parsed), 3 numeric
abort, 4 I/O or format error.
"""
from __future__ import annotations

import argparse
import logging
import sys

from .errors import ConfigError, DataFormatError, NumericError, ShapeError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feddistill",
        description="Federated training with in-situ dataset distillation and "
                    "distilled-data unlearning")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline for a config")
    run.add_argument("config")

    val = sub.add_parser("validate", help="validate a config file")
    val.add_argument("config")

    dis = sub.add_parser("distill", help="standalone distillation only")
    dis.add_argument("config")

    unl = sub.add_parser("unlearn", help="apply a request file to the saved checkpoints; each "
                         "run restarts from model.qdmd and overwrites model_final.qdmd")
    unl.add_argument("config")
    unl.add_argument("--requests", required=True, help="line-delimited request file")

    rep = sub.add_parser("report", help="summarize report files in a directory")
    rep.add_argument("directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "validate":
            from .config import validate_config

            problems = validate_config(args.config)
            if problems:
                raise ConfigError(problems)
            print("ok")
            return EXIT_OK

        if args.command == "run":
            from .runner import run_experiment

            artifacts = run_experiment(args.config)
            for method, report in sorted(artifacts.reports.items()):
                for stage in report.stages:
                    f_acc = stage.f_set_accuracy()
                    r_acc = stage.r_set_accuracy()
                    print(f"{method:<18} {stage.stage:<10} "
                          f"F-Set={'--' if f_acc is None else f'{100 * f_acc:6.2f}%'} "
                          f"R-Set={'--' if r_acc is None else f'{100 * r_acc:6.2f}%'} "
                          f"samples={stage.samples}")
            print(f"artifacts written to {artifacts.output_dir}")
            return EXIT_OK

        if args.command == "distill":
            from .runner import run_distill_only

            artifacts = run_distill_only(args.config)
            for path in artifacts.paths:
                print(path)
            return EXIT_OK

        if args.command == "unlearn":
            from .runner import run_unlearn_only

            artifacts = run_unlearn_only(args.config, args.requests)
            print(f"artifacts written to {artifacts.output_dir}")
            return EXIT_OK

        if args.command == "report":
            from .runner import summarize_reports

            print(summarize_reports(args.directory))
            return EXIT_OK
    except ConfigError as e:
        for p in e.problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    except ShapeError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
