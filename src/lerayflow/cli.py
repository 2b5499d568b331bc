"""Command-line interface.

Subcommands::

    run <cfg>                          integrate and write energy.csv etc.
    sweep-alpha <cfg> --alphas ...     filter-convergence sweep, sweep.csv
    sweep-n <cfg> --orders ...         deconvolution-convergence sweep
    multiplier-table <cfg>             dump the diagonal operator symbols
    validate                           run the full acceptance suite

Exit codes: 0 success; 2 config syntax; 3 unknown key/section; 4 invariant
violation; 5 non-finite solution; 6 sweep or validation failure; 7 file
system error; 1 any other internal error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import parse_config_file
from .errors import (ConfigSyntaxError, CriticalityViolation,
                     InvariantViolation, LerayflowError, NonFinite,
                     UnknownKeyError)
from .output import atomic_write
from .runner import (execute_run, execute_sweep_alpha, execute_sweep_n,
                     multiplier_table_text)
from .validate import FAULTS, format_table, format_timings, run_all

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_SYNTAX = 2
EXIT_UNKNOWN_KEY = 3
EXIT_INVARIANT = 4
EXIT_NONFINITE = 5
EXIT_CHECK_FAILED = 6
EXIT_IO = 7

# (exception types, stderr label, exit code) in the order they are matched;
# any other exception is an internal error.
_ERRORS = (
    (ConfigSyntaxError, "config syntax error", EXIT_SYNTAX),
    (UnknownKeyError, "unknown key", EXIT_UNKNOWN_KEY),
    ((InvariantViolation, CriticalityViolation), "invalid configuration",
     EXIT_INVARIANT),
    (NonFinite, "numerical failure", EXIT_NONFINITE),
    (OSError, "io error", EXIT_IO),
    (LerayflowError, "error", EXIT_INTERNAL),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lerayflow",
        description="Pseudo-spectral Leray-alpha / deconvolution solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured simulation")
    p_run.add_argument("config")

    p_sa = sub.add_parser("sweep-alpha", help="filter convergence sweep")
    p_sa.add_argument("config")
    p_sa.add_argument("--alphas", required=True,
                      help="comma-separated decreasing filter scales")
    p_sa.add_argument("--s-norm", type=float, default=0.0)
    p_sa.add_argument("--target-slope", type=float, default=None)

    p_sn = sub.add_parser("sweep-n", help="deconvolution convergence sweep")
    p_sn.add_argument("config")
    p_sn.add_argument("--orders", required=True,
                      help="comma-separated increasing deconvolution orders")
    p_sn.add_argument("--s-norm", type=float, default=0.0)

    p_mt = sub.add_parser("multiplier-table",
                          help="dump filter/deconvolution symbols as CSV")
    p_mt.add_argument("config")
    p_mt.add_argument("--output", default=None)

    p_val = sub.add_parser("validate", help="run the acceptance suite")
    p_val.add_argument("--inject-fault", default=None, choices=FAULTS,
                       help=argparse.SUPPRESS)
    return parser


def _number_list(text: str, convert, option: str) -> list:
    """The comma-separated values of a list option, or InvariantViolation."""
    try:
        return [convert(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise InvariantViolation(
            f"{option}: expected comma-separated {convert.__name__} values, "
            f"got {text!r}") from None


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "validate":
        results = run_all(fault=args.inject_fault)
        print(format_table(results))
        print(format_timings(results), file=sys.stderr)
        return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED

    rc = parse_config_file(args.config)
    if args.command == "run":
        final, records = execute_run(rc)
        print(f"run finished at t = {final.t:.6g} with {len(records)} samples; "
              f"outputs in {rc.directory!r}")
        return EXIT_OK

    if args.command == "multiplier-table":
        text = multiplier_table_text(rc)
        if args.output:
            atomic_write(args.output, text.encode())
        else:
            sys.stdout.write(text)
        return EXIT_OK

    if args.command == "sweep-alpha":
        alphas = _number_list(args.alphas, float, "--alphas")
        report = execute_sweep_alpha(rc, alphas, args.s_norm,
                                     args.target_slope)
        slope = "exact" if report.slope is None else f"{report.slope:.4f}"
        print(f"alpha sweep slope {slope} target {report.target_slope} "
              f"pass={report.passed}")
    else:  # sweep-n, the last subcommand
        orders = _number_list(args.orders, int, "--orders")
        report = execute_sweep_n(rc, orders, args.s_norm)
        ratio = "exact" if report.ratio is None else f"{report.ratio:.6f}"
        print(f"n sweep ratio {ratio} bound {report.ratio_bound} "
              f"pass={report.passed}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Overflow is reported by the finite checks, as one line.
        with np.errstate(all="ignore"):
            return _dispatch(args)
    except Exception as exc:
        for kinds, label, code in _ERRORS:  # the first match wins
            if isinstance(exc, kinds):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
