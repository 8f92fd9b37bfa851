"""Command line front end.

Usage::

    strongconn INSTANCE.json [--stages validate,cointegral,...]
               [--format text|json] [--out PATH]
               [--dim-cap N] [--oracle-cap N]

Exit codes: 0 = every check passed, 1 = at least one FAIL entry (a zero
divisor met in the Galois check fails ``galois``), 2 = usage, parse or
dependency error, a zero divisor met elsewhere in a reducible quotient
ring, or an internal error (reported on one stderr line, without a
traceback).
"""

from __future__ import annotations

import argparse
import sys

from .connection import ORACLE_CAP
from .errors import (
    DependencyError,
    NotInvertible,
    ParseError,
    StrongConnError,
    TooLarge,
)
from .fileformat import DIM_CAP, parse_instance
from .pipeline import STAGE_ORDER, emit_report, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="strongconn",
        description="Verify entwined coalgebra extensions and construct "
                    "strong connection forms, exactly.")
    p.add_argument("instance", help="path to a JSON instance file")
    p.add_argument("--stages",
                   help="comma-separated subset of: " + ", ".join(STAGE_ORDER))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--dim-cap", type=int, default=DIM_CAP,
                   help="maximum dimension per base space and maximum "
                        "field degree (default %(default)s)")
    p.add_argument("--oracle-cap", type=int, default=ORACLE_CAP,
                   help="maximum unknown count for the brute-force oracle "
                        "(default %(default)s)")
    return p


def _usage_error(args, stages: list[str] | None) -> str | None:
    """What is wrong with option values that argparse accepts, if anything."""
    if args.dim_cap < 1:
        return f"--dim-cap must be at least 1, got {args.dim_cap}"
    if args.oracle_cap < 0:
        return f"--oracle-cap must not be negative, got {args.oracle_cap}"
    if stages == []:
        return f"--stages {args.stages!r} names no stage"
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    stages = None
    if args.stages is not None:
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    usage = _usage_error(args, stages)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return 2
    try:
        inst = parse_instance(args.instance, dim_cap=args.dim_cap)
        rep = run_pipeline(inst, stages, oracle_cap=args.oracle_cap)
        emit_report(rep, args.format, args.out)
    except (ParseError, TooLarge, DependencyError, NotInvertible, OSError) as exc:
        # NotInvertible: a zero divisor exists only when the file's
        # min_poly is reducible, so it is an input error (the Galois
        # check records its own as a failed check)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StrongConnError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a program fault: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
