"""Structured verification reports shared by every validator.

A report is an ordered list of named checks, each pass/fail/skipped or
not-applicable, with an optional JSON-serializable witness.  Check order
is fixed by construction, so reports built from the same inputs are
identical; independent checks may be evaluated in any order internally
as long as they are appended deterministically.  Every law a validator
checks is a row of a table that check_conditions evaluates.
"""

from __future__ import annotations

from typing import NamedTuple

from .linmaps import LinMap, SpaceLabel, compose_legs, map_kron


PASS = "pass"
FAIL = "fail"
SKIP = "skipped"
NA = "not-applicable"


class Check(NamedTuple):
    name: str
    status: str
    witness: dict | None = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class VerificationReport:
    __slots__ = ("checks",)

    def __init__(self):
        self.checks: list[Check] = []

    def add(self, name: str, ok: bool, witness: dict | None = None,
            keep: bool = False) -> bool:
        """Record a check; the witness is kept on failure (or always,
        with keep=True, for informational payloads like dimensions)."""
        self.checks.append(Check(name, PASS if ok else FAIL,
                                 witness if (not ok or keep) else None))
        return ok

    def add_na(self, name: str, reason: str) -> None:
        self.checks.append(Check(name, NA, {"reason": reason}))

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    @property
    def passed(self) -> bool:
        return not self.failures

    def named(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __repr__(self):
        n = len(self.checks)
        bad = len(self.failures)
        return f"VerificationReport({n} checks, {bad} failures)"


def first_column_mismatch(lhs, rhs) -> dict | None:
    """Witness for a failed matrix identity: first differing column,
    the first column of lhs - rhs that holds a nonzero (a - b is zero
    exactly when a == b, in a reducible Q[x]/(p) too).

    Returns None when the maps agree.  The witness records the domain
    basis multi-index, so e.g. associativity failures name a triple.
    """
    if lhs == rhs:
        return None
    c = min(c for (_, c), _ in (lhs - rhs).items())
    return {"basis": list(lhs.domain.unflatten(c)), "column": c}


def check_map_equal(report: VerificationReport, name: str, lhs, rhs) -> bool:
    """Append an exact matrix-equality check with a basis witness."""
    if lhs.domain != rhs.domain or lhs.codomain != rhs.codomain:
        return report.add(name, False, {"reason": "shape mismatch",
                                        "lhs": repr(lhs), "rhs": repr(rhs)})
    ok = lhs == rhs
    return report.add(name, ok, None if ok else first_column_mismatch(lhs, rhs))


# -- tables of laws --------------------------------------------------------
#
# A table lists laws as rows (name, domain, lhs, rhs).  A side is a
# fixed map or a chain of leg steps (f, at) out of domain, in
# compose_legs' format, whose slots (None, at) take an unknown map X.


def _side(domain, side, X) -> LinMap:
    if isinstance(side, LinMap):
        return side
    if X is not None:
        side = [(X if f is None else f, at) for f, at in side]
    return compose_legs(domain, *side)


def evaluate_conditions(table, X: LinMap | None = None) -> tuple:
    """(name, lhs, rhs) of each row of table, with X in its slots."""
    return tuple((name, _side(domain, lhs, X), _side(domain, rhs, X))
                 for name, domain, lhs, rhs in table)


def check_conditions(table, X: LinMap | None = None) -> VerificationReport:
    """The table's rows, with X in their slots, as exact map-equality
    checks, one row's two sides built and compared at a time."""
    rep = VerificationReport()
    for name, domain, lhs, rhs in table:
        check_map_equal(rep, name, _side(domain, lhs, X), _side(domain, rhs, X))
    return rep


def check_laws(rep: VerificationReport, table, implied: dict,
               generated: dict, generator: LinMap | None,
               given=frozenset()) -> None:
    """Append table's rows to rep as check_conditions would, taking two
    kinds of lemma from the rows that passed in rep or in table, and
    from given: the names of premises known to hold outside both.  A
    premise from another report takes a name of its own (such as "C:"
    and its row's name), so it never reads rep's row of the same name.

    A row of implied passes unbuilt once its premises passed.  A row of
    generated, when a generator k -> X of the algebra on its last leg is
    given and its premises passed, is first evaluated with that leg cut
    to the generator's line, by a last step I (x) generator at position
    0 (so the chain is folded from that small end), and passes when the
    cut row passes.  Every other row, and a cut row that fails, is
    evaluated in full, so its witness is the full row's.  A premise that
    sits later in table is evaluated before the row that needs it; the
    checks are appended in table order.
    """
    rows = {row[0]: row for row in table}
    passed = {c.name for c in rep.checks if c.status == PASS}.union(given)
    done = {}

    def holds(premises) -> bool:
        return all(p in passed or p in rows and check(p).status == PASS
                   for p in premises)

    def check(name) -> Check:
        if name not in done:
            done[name] = evaluate(*rows[name])
        return done[name]

    def evaluate(name, domain, lhs, rhs) -> Check:
        if name in implied and holds(implied[name]):
            return Check(name, PASS)
        if generator is not None and name in generated and holds(generated[name]):
            rest = SpaceLabel(domain.factors[:-1])
            cut = ((map_kron(LinMap.identity(generator.field, rest), generator), 0),)
            if check_conditions(((name, rest, (*lhs, *cut), (*rhs, *cut)),)).passed:
                return Check(name, PASS)
        return check_conditions((rows[name],)).checks[0]

    rep.checks.extend(map(check, rows))
