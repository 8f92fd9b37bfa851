"""Exact scalar arithmetic over the rationals and simple number fields.

A field is either Q itself or a quotient Q[x]/(p) for a monic integer
polynomial p of degree >= 1, given low-to-high as ``[p0, p1, ..., 1]``.
Elements are coefficient vectors over Q in the power basis
1, x, ..., x^(deg-1), kept reduced modulo p with every rational in lowest
terms, so the representation of a value is unique.  Scalars are immutable
and all operations are pure; concurrent reads are safe.

Irreducibility of p is deliberately not checked: a reducible p yields a
ring, and inverting a zero divisor raises NotInvertible.

Scalar text grammar (used verbatim by the instance file format)::

    scalar   := rational | "[" rational ("," rational)* "]"
    rational := ["+"|"-"] digits ["/" digits]

A bare rational is the constant c0 in any field; a bracketed list gives
coefficients c0, c1, ... and must not exceed the extension degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegreeOverflow,
    DivisionByZero,
    FieldMismatch,
    MalformedField,
    NotInvertible,
    ParseError,
)


@dataclass(frozen=True)
class FieldDescriptor:
    kind: str  # "rationals" | "number_field"
    min_poly: tuple[int, ...] | None = None


class Field:
    """Arithmetic context shared by all scalars of one ground field."""

    __slots__ = ("kind", "min_poly", "degree", "zero", "one", "_zero_frac")

    def __init__(self, kind: str, min_poly: tuple[int, ...] | None = None):
        if kind == "rationals":
            if min_poly is not None:
                raise MalformedField("a rationals descriptor carries no polynomial")
            degree = 1
        elif kind == "number_field":
            if min_poly is None or len(min_poly) < 2:
                raise MalformedField("min_poly must have degree >= 1")
            if any(not isinstance(c, int) or isinstance(c, bool) for c in min_poly):
                raise MalformedField("min_poly coefficients must be integers")
            if min_poly[-1] != 1:
                raise MalformedField("min_poly must be monic")
            degree = len(min_poly) - 1
        else:
            raise MalformedField(f"unknown field kind {kind!r}")
        self.kind = kind
        self.min_poly = tuple(min_poly) if min_poly is not None else None
        self.degree = degree
        self._zero_frac = Fraction(0)
        self.zero = Scalar(self, (self._zero_frac,) * degree)
        one = [self._zero_frac] * degree
        one[0] = Fraction(1)
        self.one = Scalar(self, tuple(one))

    @staticmethod
    def rationals() -> "Field":
        return Field("rationals")

    @staticmethod
    def number_field(min_poly) -> "Field":
        return Field("number_field", tuple(min_poly))

    def descriptor(self) -> FieldDescriptor:
        return FieldDescriptor(self.kind, self.min_poly)

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return self.kind == other.kind and self.min_poly == other.min_poly

    def __hash__(self):
        return hash((self.kind, self.min_poly))

    def __repr__(self):
        if self.kind == "rationals":
            return "Field(Q)"
        return f"Field(Q[x]/{list(self.min_poly)})"

    def scalar(self, coeffs) -> "Scalar":
        """Build a scalar from rationals/ints, reducing modulo min_poly."""
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            cs = self._reduce(cs)
        elif len(cs) < self.degree:
            cs.extend([self._zero_frac] * (self.degree - len(cs)))
        return Scalar(self, tuple(cs))

    def generator(self) -> "Scalar":
        """The class of x; in a degree-1 quotient this reduces to -p0."""
        if self.degree == 1:
            if self.kind == "rationals":
                raise MalformedField("Q has no extension generator")
            return self.scalar([-self.min_poly[0]])
        return self.scalar([0, 1])

    def _reduce(self, cs: list[Fraction]) -> list[Fraction]:
        d = self.degree
        p = self.min_poly
        for i in range(len(cs) - 1, d - 1, -1):
            c = cs[i]
            if c:
                for j in range(d):
                    if p[j]:
                        cs[i - d + j] -= c * p[j]
        del cs[d:]
        while len(cs) < d:
            cs.append(self._zero_frac)
        return cs


class Scalar:
    """An exact field element in canonical reduced form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other: "Scalar") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if f.degree == 1:
            return Scalar(f, (a[0] * b[0],))
        prod = [f._zero_frac] * (2 * f.degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return Scalar(f, tuple(f._reduce(prod)))

    def inv(self) -> "Scalar":
        if not self:
            raise DivisionByZero("inversion of zero")
        f = self.field
        if f.degree == 1:
            return Scalar(f, (1 / self.coeffs[0],))
        g, u = _invert_mod(list(self.coeffs), [Fraction(c) for c in f.min_poly])
        if g is None:
            raise NotInvertible("zero divisor in a reducible quotient")
        return f.scalar(u)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    def __str__(self):
        if self.field.degree == 1:
            return str(self.coeffs[0])
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"Scalar({self})"


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of a by b over Q; b need not be monic."""
    a = a[:]
    db = len(b) - 1
    while db >= 0 and not b[db]:
        db -= 1
    q = [Fraction(0)] * max(len(a) - db, 1)
    lead = b[db]
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = a[i] / lead
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    while len(a) > 1 and not a[-1]:
        a.pop()
    return q, a


def _invert_mod(a: list[Fraction], p: list[Fraction]):
    """Extended Euclid: find u with u*a = 1 mod p, or (None, None)."""
    r0, r1 = p[:], a[:]
    while len(r1) > 1 and not r1[-1]:
        r1.pop()
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        if len(r1) == 1:
            c = r1[0]
            return r1, [x / c for x in s1]
        q, r = _poly_divmod(r0, r1)
        # s = s0 - q*s1
        s = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    if sj:
                        s[i + j] -= qi * sj
        r0, r1, s0, s1 = r1, r, s1, s
    return None, None


_RAT_CHARS = set("0123456789/+- ")


def _parse_rational(text: str) -> Fraction:
    t = text.strip()
    if not t or not set(t) <= _RAT_CHARS:
        raise ParseError(f"malformed rational {text!r}")
    try:
        return Fraction(t.replace(" ", ""))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational {text!r}") from exc


def parse_scalar(text: str, field: Field) -> Scalar:
    """Parse the shared scalar grammar in the given field."""
    if not isinstance(text, str):
        raise ParseError(f"scalar text must be a string, got {type(text).__name__}")
    t = text.strip()
    if t.startswith("["):
        if not t.endswith("]"):
            raise ParseError(f"unterminated coefficient list {text!r}")
        inner = t[1:-1].strip()
        if not inner:
            raise ParseError("empty coefficient list")
        parts = inner.split(",")
        if len(parts) > field.degree:
            raise DegreeOverflow(
                f"{len(parts)} coefficients in a degree-{field.degree} field"
            )
        return field.scalar([_parse_rational(p) for p in parts])
    return field.scalar([_parse_rational(t)])


def make_field(desc: FieldDescriptor) -> Field:
    return Field(desc.kind, desc.min_poly)
