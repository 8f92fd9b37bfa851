"""Exact scalar arithmetic over the rationals and simple number fields.

A field is either Q itself or a quotient Q[x]/(p) for a monic integer
polynomial p of degree d >= 1, given low-to-high as ``[p0, p1, ..., 1]``.
An element is a polynomial of degree < d in the power basis
1, x, ..., x^(d-1), stored as integer numerators over one common
denominator: ``num``, a tuple of d ints, and ``den``, a positive int.

The form is canonical: ``gcd(den, *num) == 1``, so zero is
``(0, ..., 0) / 1`` and two scalars are equal exactly when their ``num``
and ``den`` are; ``==`` and ``hash`` compare them directly.  Addition
cross-multiplies the numerators by the other denominator; multiplication
convolves the numerators and folds the terms of degree d .. 2d-2 back
through a table of x^d .. x^(2d-2) mod p that the field builds once,
whose entries are integers because p is monic with integer coefficients.
Each result is normalised with one gcd.  Every field, Q included, runs
this same integer code.  ``inv`` of a degree-1 value swaps numerator and
denominator; in higher degree it solves a*u = 1 on the d x d matrix of
multiplication by a, whose columns x^j*a are a shifted up j times, each
overflow folded back by the table's x^d.  ``coeffs`` reads the value as
a tuple of reduced Fractions.  Scalars are immutable and all operations
are pure.

There is one ``Field`` object per field: ``Field(kind, min_poly)`` looks
its descriptor up in a module table, so two fields built separately from
equal descriptors are the same object.

Shared values.  Each field keeps a table with one shared scalar per
value, filled by ``Field.scalar``, ``parse_scalar``, arithmetic and
copies, up to VALUE_CAP values.  Once it is full, a value outside it is
a new unshared scalar, so an input with too many distinct values runs at
about the uncached speed.  The table is never cleared, so a shared
scalar lives as long as its field and carries a serial number
(``shared``, 0 when unshared) that no other object of the field gets.
``+``, ``-``, ``*`` and negation of shared operands look their result
up by the operation and the serials in a per-field cache of at most
RESULT_CAP results, so each distinct operation of a run is computed
once; any other operand skips the cache after one attribute test.  ``inv`` and ``/`` are not cached: a failing
inversion raises every time.  ``==`` and ``hash`` stay value-based.  At
the caps a field's tables hold about 2 MiB, whatever the input.
Concurrent use is safe: a value is added with ``setdefault``, so threads
that make one value get one object, and serials come from one atomic
counter.

Zero, one and minus one are always shared: each field holds ``zero``,
``one`` and ``minus_one`` as the first three objects of its table, and
every producer above returns them for those values (a product of zero
divisors in a reducible Q[x]/(p) included), even past the caps, so ``x
is field.zero`` decides whether x is zero, with no call to ``__bool__``,
and likewise for one and minus one.  A product with a side that ``is``
one returns the other side, and with a side that ``is`` minus one, its
negation, without arithmetic; the structure maps are mostly such
entries.  The trusting ``Scalar(field, num, den)`` constructor does not
share: a value built that way is still equal to the table's, but a zero
built so would pass an ``is zero`` test as nonzero, so it must not reach
a map.

Irreducibility of p is deliberately not checked: a reducible p yields a
ring, where the multiplication matrix of a zero divisor is singular and
inverting it raises NotInvertible.

Scalar text grammar (used verbatim by the instance file format)::

    scalar   := rational | "[" rational ("," rational)* "]"
    rational := ["+"|"-"] digits ["/" digits]

A bare rational is the constant c0 in any field; a bracketed list gives
coefficients c0, c1, ... and must not exceed the extension degree.
Digits are ASCII.  Whitespace may surround a rational, never sit inside
one: "1 2" is a ParseError, not 12.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .errors import (
    DegreeOverflow,
    DivisionByZero,
    FieldMismatch,
    MalformedField,
    NotInvertible,
    ParseError,
)


_FIELDS: dict = {}  # (kind, min_poly) -> the Field of that descriptor

# Per-field caps of the shared-value table and of the result cache.  The
# densest measured run (graded_n12 over Q in a filled-in basis) meets 78
# values and 966 distinct results.
VALUE_CAP = 1024
RESULT_CAP = 8192
# a result's key: (a.shared * _SPAN + b.shared) * 4 + op, with op 0 for
# +, 1 for -, 2 for * and 3 for negation (b.shared = 0)
_SPAN = VALUE_CAP + 1


class Field:
    """Arithmetic context shared by all scalars of one ground field.

    There is one Field object per descriptor: ``Field(kind, min_poly)``
    returns the object made by the first call with equal arguments, so
    fields compare and hash by identity.
    """

    __slots__ = ("kind", "min_poly", "degree", "zero", "one", "minus_one",
                 "_powers", "_values", "_serials", "_full", "_results")

    def __new__(cls, kind: str, min_poly: tuple[int, ...] | None = None):
        """The one Field object of this descriptor; validated before the
        table lookup, so a malformed descriptor is never cached."""
        if kind == "rationals":
            if min_poly is not None:
                raise MalformedField("a rationals descriptor carries no polynomial")
            degree = 1
        elif kind == "number_field":
            if min_poly is None or len(min_poly) < 2:
                raise MalformedField("min_poly must have degree >= 1")
            # True == 1, so a bool must not reach the table key
            if any(not isinstance(c, int) or isinstance(c, bool) for c in min_poly):
                raise MalformedField("min_poly coefficients must be integers")
            if min_poly[-1] != 1:
                raise MalformedField("min_poly must be monic")
            degree = len(min_poly) - 1
            min_poly = tuple(min_poly)
        else:
            raise MalformedField(f"unknown field kind {kind!r}")
        key = (kind, min_poly)
        self = _FIELDS.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.kind = kind
        self.min_poly = min_poly
        self.degree = degree
        # _powers[k] = x^(d+k) mod p for k = 0 .. d-2, as d integers:
        # x^d = -(p0 + ... + p_{d-1} x^(d-1)), and each next power is the
        # previous one shifted up once, its overflow folded back by x^d.
        powers = []
        if degree > 1:
            top = [-c for c in min_poly[:-1]]
            row = top
            for _ in range(degree - 1):
                powers.append(tuple(row))
                row = _times_x(row, top)
        self._powers = tuple(powers)
        self._values = {}   # (*num, den) -> the shared scalar of that value
        self._serials = count(1)
        self._full = False  # set once every serial is taken
        self._results = {}  # result key (see _SPAN) -> result
        self.zero = _shared(self, (0,) * degree + (1,))
        self.one = _shared(self, (1,) + (0,) * (degree - 1) + (1,))
        self.minus_one = _shared(self, (-1,) + (0,) * (degree - 1) + (1,))
        # setdefault: of two threads building one field, both get the first
        return _FIELDS.setdefault(key, self)

    def __reduce__(self):
        # copies and unpickled fields are the table's object
        return Field, (self.kind, self.min_poly)

    @staticmethod
    def rationals() -> "Field":
        return Field("rationals")

    @staticmethod
    def number_field(min_poly) -> "Field":
        return Field("number_field", tuple(min_poly))

    def __repr__(self):
        if self.kind == "rationals":
            return "Field(Q)"
        return f"Field(Q[x]/{list(self.min_poly)})"

    def scalar(self, coeffs) -> "Scalar":
        """Build a scalar from rationals/ints c0, c1, ..., reducing
        modulo min_poly."""
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        d, p = self.degree, self.min_poly
        while len(num) > d:  # long division by p, top term first
            c = num.pop()
            if c:
                if p is None:
                    raise DegreeOverflow(f"{len(cs)} coefficients in Q")
                i = len(num) - d
                for j in range(d):
                    num[i + j] -= c * p[j]
        num.extend([0] * (d - len(num)))
        return _canonical(self, num, den)

    def generator(self) -> "Scalar":
        """The class of x; in a degree-1 quotient this reduces to -p0."""
        if self.degree == 1:
            if self.kind == "rationals":
                raise MalformedField("Q has no extension generator")
            return self.scalar([-self.min_poly[0]])
        return self.scalar([0, 1])


def _canonical(field: Field, num, den: int) -> "Scalar":
    """The scalar num/den (den > 0) with the common factor divided out,
    as the field's shared object of that value where there is one."""
    g = gcd(den, *num)
    if g != 1:
        return _shared(field, tuple([n // g for n in num]) + (den // g,))
    return _shared(field, (*num, den))


def _times_x(v: list[int], top) -> list[int]:
    """x * v for v of degree < d, its x^d term folded back by top = x^d
    mod p."""
    c = v[-1]
    v = [0] + v[:-1]
    return [r + c * t for r, t in zip(v, top)] if c else v


def _shared(field: Field, key: tuple) -> "Scalar":
    """The scalar of canonical value key = (*num, den): the table's object,
    made and given the next serial number while serials up to VALUE_CAP
    are left; past the cap, a new unshared scalar."""
    s = field._values.get(key)
    if s is None:
        s = Scalar(field, key[:-1], key[-1])
        if not field._full:
            serial = next(field._serials)  # atomic: no two objects get one
            if serial <= VALUE_CAP:
                s.shared = serial
                # setdefault: of two threads making one value, both get the first
                s = field._values.setdefault(key, s)
            else:
                field._full = True
    return s


class Scalar:
    """An exact field element: integer numerators ``num`` (c0 .. c_{d-1})
    over one positive denominator ``den``, in canonical form.

    The constructor trusts its arguments and does not share; build
    scalars with ``Field.scalar``, ``parse_scalar`` or arithmetic.  A
    zero built by the constructor must not reach a map: the map kernels
    drop zeros by testing ``is field.zero``.
    """

    __slots__ = ("field", "num", "den", "shared")

    def __init__(self, field: Field, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den
        self.shared = 0  # the serial number of a table object, 0 otherwise

    def __reduce__(self):
        # copies and unpickled scalars are the table's object of the value
        return _canonical, (self.field, self.num, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients c0 .. c_{d-1} as reduced Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def _check(self, other: "Scalar") -> None:
        if self.field is not other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field is not self.field:
            self._check(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "Scalar") -> "Scalar":
        f = self.field
        if other.field is not f:
            self._check(other)
        key = self.shared and other.shared and (self.shared * _SPAN + other.shared) * 4
        if key:
            r = f._results.get(key)
            if r is not None:
                return r
        da, db = self.den, other.den
        r = _canonical(f, [a * db + b * da for a, b in zip(self.num, other.num)],
                       da * db)
        if key and len(f._results) < RESULT_CAP:
            f._results[key] = r
        return r

    def __sub__(self, other: "Scalar") -> "Scalar":
        f = self.field
        if other.field is not f:
            self._check(other)
        key = self.shared and other.shared and (self.shared * _SPAN + other.shared) * 4 + 1
        if key:
            r = f._results.get(key)
            if r is not None:
                return r
        da, db = self.den, other.den
        r = _canonical(f, [a * db - b * da for a, b in zip(self.num, other.num)],
                       da * db)
        if key and len(f._results) < RESULT_CAP:
            f._results[key] = r
        return r

    def __neg__(self) -> "Scalar":
        f = self.field
        if not self.shared:
            return Scalar(f, tuple([-a for a in self.num]), self.den)
        key = self.shared * _SPAN * 4 + 3
        r = f._results.get(key)
        if r is None:
            r = _shared(f, (*[-a for a in self.num], self.den))
            if len(f._results) < RESULT_CAP:
                f._results[key] = r
        return r

    def __mul__(self, other: "Scalar") -> "Scalar":
        f = self.field
        if other.field is not f:
            self._check(other)
        if self is f.one:
            return other
        if other is f.one:
            return self
        if self is f.minus_one:
            return -other
        if other is f.minus_one:
            return -self
        key = self.shared and other.shared and (self.shared * _SPAN + other.shared) * 4 + 2
        if key:
            r = f._results.get(key)
            if r is not None:
                return r
        d, b = f.degree, other.num
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(self.num):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
        out = prod[:d]
        for c, row in zip(prod[d:], f._powers):
            if c:
                for j, t in enumerate(row):
                    out[j] += c * t
        r = _canonical(f, out, self.den * other.den)
        if key and len(f._results) < RESULT_CAP:
            f._results[key] = r
        return r

    def inv(self) -> "Scalar":
        if not self:
            raise DivisionByZero("inversion of zero")
        f = self.field
        if self is f.one or self is f.minus_one:
            return self
        n, den, d = self.num, self.den, f.degree
        if d == 1:  # den/n, the sign moved to the numerator
            sign = -1 if n[0] < 0 else 1
            return _canonical(f, (sign * den,), sign * n[0])
        # a = n/den, so a*u = 1 is n*u = den: the columns are x^j * n
        cols = [list(n)]
        for _ in range(d - 1):
            cols.append(_times_x(cols[-1], f._powers[0]))
        rows = [[Fraction(col[i]) for col in cols] + [Fraction(den if i == 0 else 0)]
                for i in range(d)]
        for k in range(d):
            p = next((i for i in range(k, d) if rows[i][k]), None)
            if p is None:
                raise NotInvertible("zero divisor in a reducible quotient")
            rows[k], rows[p] = rows[p], rows[k]
            pivot = rows[k]
            for i, row in enumerate(rows):
                if i != k and row[k]:
                    c = row[k] / pivot[k]
                    rows[i] = [x - c * y for x, y in zip(row, pivot)]
        return f.scalar([row[d] / row[k] for k, row in enumerate(rows)])

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    def __str__(self):
        if self.field.degree == 1:
            return str(self.coeffs[0])
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"Scalar({self})"


# the grammar's rational, ASCII digits only; no space inside
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(text: str) -> Fraction:
    t = text.strip()
    why = ""
    if _RATIONAL.fullmatch(t):
        try:
            return Fraction(t)
        except ZeroDivisionError:
            pass
        except ValueError:  # past int's digit limit
            why = f": a numeral has more than {sys.get_int_max_str_digits()} digits"
    quoted = repr(text) if len(text) <= 20 else f"{text[:20]!r}…"
    raise ParseError(f"malformed rational {quoted}{why}")


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
