"""Command line front end.

Usage:

    strongconn INSTANCE.json [--stages validate,cointegral,...]
               [--format text|json] [--out PATH]
               [--dim-cap N] [--oracle-cap N]
    strongconn --help

Options:

    --stages LIST   comma-separated stages to run, in any order
    --format F      text or json report
    --out PATH      write the report here instead of stdout
    --dim-cap N     maximum dimension per base space and maximum field degree
    --oracle-cap N  maximum unknown count for the brute-force oracle
    -h, --help      print this text and the defaults, and exit 0

An option is written ``--opt value`` or ``--opt=value``, and its name
may be cut to a prefix that no other option shares (``--dim 8``,
``--f json``).  The word after an option that takes a value is that
value, even when it begins with a dash; ``--`` ends the options.

Exit codes: 0 = every check passed, 1 = at least one FAIL entry (a zero
divisor met in the Galois check fails ``galois``), 2 = usage, parse or
dependency error, a zero divisor met elsewhere in a reducible quotient
ring, or an internal error.  Each exit-2 case prints one ``error: ...``
or ``internal error: ...`` line on stderr, without a traceback.  A
usage error is an unknown or ambiguous option, a missing value, a cap
that is not an integer (or is below 1 for --dim-cap, negative for
--oracle-cap), a format other than text or json, a stage list that names
no stage, or a count of instance files other than one.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

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


class Options(NamedTuple):
    """One command line, read: the instance path, then each option
    (``dim_cap`` is set by ``--dim-cap``) with its default."""

    instance: str
    stages: list[str] | None = None  # None: the file's default stages
    format: str = "text"
    out: str | None = None
    dim_cap: int = DIM_CAP
    oracle_cap: int = ORACLE_CAP


FORMATS = ("text", "json")
# option name -> Options field; every option but --help takes a value
OPTIONS = {"--" + f.replace("_", "-"): f for f in Options._fields[1:]}
NAMES = (*OPTIONS, "--help")


class UsageError(Exception):
    """A command line that names no run; main prints it as one line."""


def _option(word: str) -> str:
    """The option word names, in full or by a prefix no other shares."""
    if word in NAMES:
        return word
    found = [name for name in NAMES if name.startswith(word)]
    if len(found) == 1:
        return found[0]
    if found:
        raise UsageError(f"ambiguous option {word}: could be {', '.join(found)}")
    raise UsageError(f"unknown option {word}")


def _value(name: str, value: str):
    """The value of option name, checked against its type or choices."""
    field = OPTIONS[name]
    if isinstance(Options._field_defaults[field], int):  # the caps
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"{name} needs an integer, got {value!r}") from None
    if field == "format" and value not in FORMATS:
        raise UsageError(f"{name} must be one of {', '.join(FORMATS)}, got {value!r}")
    return value


def read_options(argv: list[str]) -> Options | None:
    """argv read as one command line, or None when it asks for help.

    Raises UsageError for the first word or value that names no run.
    """
    values, instances = {}, []
    words = iter(argv)
    for word in words:
        if word == "--":
            instances.extend(words)
        elif word == "-h":
            return None
        elif word.startswith("--"):
            word, eq, value = word.partition("=")
            name = _option(word)
            if name == "--help":
                if eq:
                    raise UsageError("--help takes no value")
                return None
            if not eq:
                value = next(words, None)
                if value is None:
                    raise UsageError(f"{name} needs a value")
            values[OPTIONS[name]] = _value(name, value)
        elif word.startswith("-") and word != "-":
            raise UsageError(f"unknown option {word}")
        else:
            instances.append(word)
    if len(instances) != 1:
        raise UsageError("no instance file given" if not instances else
                         f"one instance file expected, got {len(instances)}: "
                         + " ".join(instances))
    listed = values.get("stages")
    if listed is not None:
        values["stages"] = [s.strip() for s in listed.split(",") if s.strip()]
    opts = Options(instances[0], **values)
    if opts.dim_cap < 1:
        raise UsageError(f"--dim-cap must be at least 1, got {opts.dim_cap}")
    if opts.oracle_cap < 0:
        raise UsageError(f"--oracle-cap must not be negative, got {opts.oracle_cap}")
    if opts.stages == []:
        raise UsageError(f"--stages {listed!r} names no stage")
    return opts


def help_text() -> str:
    """The docstring from its usage block on, and the defaults."""
    usage = (__doc__ or "").partition("\n\n")[2]  # None under python -OO
    d = Options._field_defaults
    return (f"{usage}\nDefaults: --format {d['format']}, --dim-cap {d['dim_cap']}, "
            f"--oracle-cap {d['oracle_cap']}, and --stages\n"
            f"{','.join(STAGE_ORDER)}\n"
            "(homogeneous only on a file with a coinvariant_subalgebra).\n")


def main(argv: list[str] | None = None) -> int:
    try:
        opts = read_options(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if opts is None:
        sys.stdout.write(help_text())
        return 0
    try:
        inst = parse_instance(opts.instance, dim_cap=opts.dim_cap)
        rep = run_pipeline(inst, opts.stages, oracle_cap=opts.oracle_cap)
        emit_report(rep, opts.format, opts.out)
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
