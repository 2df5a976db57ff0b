"""Command line front end: run scenario files, verify the built-in suite,
explain individual checks.

Each subcommand takes only the flags it reads: `run` takes --field,
--window and --format; `verify` takes --field, --seed, --format and
--filter; `explain` takes --field, --seed and --format.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 at least one
check was indeterminate (a scan window or resolution bound ran out), 3 bad
input, usage errors included.
"""
import argparse
import sys
import time
from typing import List, Optional

from . import __version__
from .checks import check_ids, describe_check, run_check, verify_builtin_suite
from .core import field_from_tag
from .report import VerificationReport, emit_report
from .scenario import ScenarioError, load_scenario, run_scenario


def _window(text: str) -> List[int]:
    try:
        lo, hi = text.split(":")
        return [int(lo), int(hi)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "window must look like <lo>:<hi>, e.g. -4:6"
        )


def _field_tag(text: str) -> str:
    """The tag of the field that text names; a bad tag or modulus is a
    usage error, so no subcommand starts on a field it cannot build."""
    try:
        return field_from_tag(text).tag
    except ValueError as exc:
        raise argparse.ArgumentTypeError("field must be Q or Fp:<p>: %s" % exc)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (bad input): exit code 2 means indeterminate."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the randomized suites (default 0)")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--field", type=_field_tag, default=None,
                        help="coefficient field, Q or Fp:<p>")
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="report format (default text)")

    parser = _Parser(
        prog="dgdim",
        description="derived homological dimensions of non-positive "
                    "commutative DG-rings, in exact arithmetic",
    )
    parser.add_argument("--version", action="version",
                        version="dgdim " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common],
                           help="run the queries of a scenario file")
    p_run.add_argument("scenario", help="path to a dgdim-scenario/1 JSON file")
    p_run.add_argument("--window", type=_window, default=None,
                       help="cohomology window <lo>:<hi>")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the built-in verification suite")
    p_verify.add_argument("--filter", default="",
                          help="only run checks whose id contains this "
                               "substring (others are reported as skipped)")
    _add_seed(p_verify)

    p_explain = sub.add_parser("explain", parents=[common],
                               help="state one check's claim, run it, and "
                                    "print its certificate")
    p_explain.add_argument("check", nargs="?", default=None,
                           help="check id; omit to list all ids")
    _add_seed(p_explain)
    return parser


def _given(args, *keys: str) -> dict:
    """The options among keys that were set on the command line."""
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _emit(report: VerificationReport, fmt: str) -> int:
    sys.stdout.buffer.write(emit_report(report, fmt))
    sys.stdout.buffer.flush()
    return report.exit_code()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "run":
        t0 = time.time()
        try:
            scn = load_scenario(args.scenario,
                                overrides=_given(args, "field", "window"))
        except ScenarioError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 3
        report = run_scenario(scn)
        report.wall_time = time.time() - t0
        return _emit(report, args.format)

    if args.command == "verify":
        report = verify_builtin_suite(args.filter,
                                      options=_given(args, "field", "seed"))
        return _emit(report, args.format)

    if args.command == "explain":
        if args.check is None:
            for cid in check_ids():
                print("%s\n    %s" % (cid, describe_check(cid)))
            return 0
        try:
            describe_check(args.check)
        except KeyError:
            print("error: unknown check %r; run `dgdim explain` for the "
                  "list" % args.check, file=sys.stderr)
            return 3
        t0 = time.time()
        opts = _given(args, "field", "seed")
        result = run_check(args.check, opts)
        report = VerificationReport(
            "explain " + args.check, options=opts, results=[result],
            wall_time=time.time() - t0,
        )
        return _emit(report, args.format)

    return 3  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
