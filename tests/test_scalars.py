import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from strongconn.errors import (
    DegreeOverflow,
    DivisionByZero,
    FieldMismatch,
    MalformedField,
    NotInvertible,
    ParseError,
)
from strongconn.scalars import Field, Scalar, parse_scalar


QQ = Field.rationals()


def test_make_rationals():
    f = Field("rationals")
    assert f.degree == 1
    assert f == QQ


def test_degenerate_degree_one_extension_is_rationals_like():
    f = Field.number_field([-1, 1])  # x - 1
    assert f.degree == 1
    # the generator class x reduces to 1
    assert f.generator() == f.one


def test_cyclotomic_third_root():
    f = Field.number_field([1, 1, 1])  # x^2 + x + 1
    z = f.generator()
    assert f.degree == 2
    # oracle: compute z^3 by repeated reduction
    assert z * z * z == f.one
    assert z != f.one


def test_malformed_fields():
    with pytest.raises(MalformedField):
        Field.number_field([2, 3])  # not monic
    with pytest.raises(MalformedField):
        Field.number_field([1])  # degree 0
    with pytest.raises(MalformedField):
        Field.number_field([])
    with pytest.raises(MalformedField):
        Field("rationals", (0, 1))


def test_rational_add():
    a = QQ.scalar(Fraction(1, 2))
    b = QQ.scalar(Fraction(1, 3))
    assert a + b == QQ.scalar(Fraction(5, 6))


def test_inverse_of_cyclotomic_generator():
    f = Field.number_field([1, 1, 1])
    z = f.generator()
    inv = z.inv()
    # oracle: the product must reduce to 1
    assert z * inv == f.one
    assert inv == f.scalar([-1, -1])


def test_canonical_equality():
    assert QQ.scalar(Fraction(2, 4)) == QQ.scalar(Fraction(1, 2))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.zero.inv()


def test_zero_divisor_not_invertible():
    ring = Field.number_field([-1, 0, 1])  # x^2 - 1, reducible
    x = ring.generator()
    zero_divisor = x - ring.one
    assert zero_divisor * (x + ring.one) == ring.zero
    with pytest.raises(NotInvertible):
        zero_divisor.inv()


def test_field_mismatch():
    f = Field.number_field([1, 1, 1])
    with pytest.raises(FieldMismatch):
        QQ.one + f.one


def test_parse_rational():
    assert parse_scalar("-3/6", QQ) == QQ.scalar(Fraction(-1, 2))
    assert parse_scalar(" 7 ", QQ) == QQ.scalar(7)


def test_parse_basis_element():
    f = Field.number_field([1, 1, 1])
    assert parse_scalar("[0,1]", f) == f.generator()
    assert parse_scalar("[1/2, -2/3]", f) == f.scalar([Fraction(1, 2), Fraction(-2, 3)])


def test_parse_degree_overflow():
    f = Field.number_field([1, 1, 1])
    with pytest.raises(DegreeOverflow):
        parse_scalar("[1,0,0]", f)
    with pytest.raises(DegreeOverflow):
        QQ.scalar([1, 2])
    assert QQ.scalar([3, 0]) == QQ.scalar(3)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_scalar("1/0", QQ)
    with pytest.raises(ParseError):
        parse_scalar("x+1", QQ)
    with pytest.raises(ParseError):
        parse_scalar("[", QQ)
    with pytest.raises(ParseError):
        parse_scalar("[]", QQ)
    with pytest.raises(ParseError):
        parse_scalar("1.5", QQ)


@pytest.mark.parametrize("text", ["1 2", "1/2 0", "- 1", "1 / 2", "+ 3", "1_0",
                                  "\u0661", "1e3", "/2", "1/", "--1", ""])
def test_parse_rejects_text_outside_the_grammar(text):
    # with the space dropped, "1 2" would silently read as 12
    with pytest.raises(ParseError, match="malformed rational"):
        parse_scalar(text, QQ)


def test_parse_rejects_a_numeral_past_the_digit_limit():
    with pytest.raises(ParseError, match="malformed rational") as err:
        parse_scalar("1" * 5000, QQ)
    assert len(str(err.value)) < 100
    assert str(sys.get_int_max_str_digits()) in str(err.value)


def test_parse_rejects_a_space_inside_a_coefficient():
    f = Field.number_field([1, 1, 1])
    with pytest.raises(ParseError, match="malformed rational '1 2'"):
        parse_scalar("[1 2, 3]", f)
    with pytest.raises(ParseError, match="malformed rational"):
        parse_scalar("[1, ]", f)
    assert parse_scalar(" [ 1/2 ,-2/3 ] ", f) == \
        f.scalar([Fraction(1, 2), Fraction(-2, 3)])
    assert parse_scalar("+3/6", QQ) == QQ.scalar(Fraction(1, 2))


def test_print_parse_roundtrip():
    f = Field.number_field([1, 1, 1])
    for s in [QQ.scalar(Fraction(-5, 3)), QQ.zero, f.generator(),
              f.scalar([Fraction(1, 2), Fraction(-7, 4)])]:
        assert parse_scalar(str(s), s.field) == s


def test_degree_one_number_field_reduction_in_products():
    f = Field.number_field([-2, 1])  # x - 2; x reduces to 2
    x = f.generator()
    assert x == f.scalar(2)
    assert x * x == f.scalar(4)


def test_truediv():
    a = QQ.scalar(Fraction(3, 4))
    b = QQ.scalar(Fraction(2, 5))
    assert a / b == QQ.scalar(Fraction(15, 8))


# -- the integer-numerator form against a plain Fraction-tuple reference --
#
# The reference holds an element as its d coefficients, each a reduced
# Fraction, and multiplies by convolution and long division by p.

REF_FIELDS = {
    "Q": None,
    "Q(zeta3)": (1, 1, 1),          # x^2 + x + 1
    "Q(cbrt2)": (-2, 0, 0, 1),      # x^3 - 2
    "Q[x]/(x-1)": (-1, 1),          # degree 1: x reduces to 1
    "Q[x]/(x^2-1)": (-1, 0, 1),     # reducible: 1 + x, 1 - x divide zero
}


def ref_field(name):
    poly = REF_FIELDS[name]
    return (QQ, (0, 1)) if poly is None else (Field.number_field(poly), poly)


def ref_reduce(cs, p):
    cs, d = list(cs), len(p) - 1
    for i in range(len(cs) - 1, d - 1, -1):
        for j in range(d):
            cs[i - d + j] -= cs[i] * p[j]
    return tuple(cs[:d]) + (Fraction(0),) * (d - len(cs))


def ref_mul(a, b, p):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(prod, p)


def ref_inv(a, p):
    """Solve a * u = 1 as a d x d system over Q; None when singular."""
    d = len(a)
    basis = [tuple(Fraction(int(i == j)) for i in range(d)) for j in range(d)]
    cols = [ref_mul(a, e, p) for e in basis]
    rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))]
            for i in range(d)]
    for c in range(d):
        piv = next((r for r in range(c, d) if rows[r][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[d] for row in rows)


def ref_str(cs):
    if len(cs) == 1:
        return str(cs[0])
    return "[" + ", ".join(str(c) for c in cs) + "]"


def random_coeffs(rng, name, d):
    """Reduced coefficient tuples: zero, sparse and dense values, and in
    Q[x]/(x^2-1) multiples of the zero divisors 1 + x and 1 - x."""
    kind = rng.randrange(6)
    if kind == 0:
        return (Fraction(0),) * d
    if kind == 1 and name == "Q[x]/(x^2-1)":
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        return (c, rng.choice([c, -c]))
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                 if rng.random() < 0.7 else Fraction(0) for _ in range(d))


def assert_canonical(s):
    assert len(s.num) == s.field.degree
    assert all(type(n) is int for n in s.num) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.num) == 1
    if not any(s.num):
        assert s.den == 1


@pytest.mark.parametrize("name", REF_FIELDS)
def test_arithmetic_matches_fraction_reference(name):
    f, p = ref_field(name)
    rng = random.Random(f"arith {name}")
    for _ in range(300):
        ar, br = random_coeffs(rng, name, f.degree), random_coeffs(rng, name, f.degree)
        a, b = f.scalar(ar), f.scalar(br)
        assert a.coeffs == ar and b.coeffs == br
        assert (a + b).coeffs == tuple(x + y for x, y in zip(ar, br))
        assert (a - b).coeffs == tuple(x - y for x, y in zip(ar, br))
        assert (-a).coeffs == tuple(-x for x in ar)
        assert (a * b).coeffs == ref_mul(ar, br, p)
        assert (a == b) == (ar == br)
        assert str(a) == ref_str(ar)
        inv = ref_inv(br, p)
        if not any(br):
            with pytest.raises(DivisionByZero):
                a / b
        elif inv is None:
            with pytest.raises(NotInvertible):
                b.inv()
        else:
            assert b.inv().coeffs == inv
            assert (a / b).coeffs == ref_mul(ar, inv, p)
            assert_canonical(b.inv())
            assert_canonical(a / b)
        for s in (a, b, a + b, a - b, -a, a * b):
            assert_canonical(s)


@pytest.mark.parametrize("name", REF_FIELDS)
def test_results_are_canonical_and_equal_values_agree(name):
    f, _ = ref_field(name)
    rng = random.Random(f"canonical {name}")
    for _ in range(200):
        a, b, c = (f.scalar(random_coeffs(rng, name, f.degree)) for _ in range(3))
        pairs = [(a + b - b, a), (a * b, b * a), ((a * b) * c, a * (b * c)),
                 (a * (b + c), a * b + a * c), (-(a - b), b - a)]
        for x, y in pairs:
            assert_canonical(x)
            assert_canonical(y)
            assert x == y
            assert (x.num, x.den, hash(x)) == (y.num, y.den, hash(y))
        zero = a - a
        assert (zero.num, zero.den) == ((0,) * f.degree, 1)
        assert zero == f.zero and hash(zero) == hash(f.zero) and not zero


def test_zero_divisor_products_are_canonical_zero():
    ring = Field.number_field([-1, 0, 1])
    rng = random.Random("zero divisors")
    for _ in range(50):
        c = ring.scalar(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        u = c * ring.scalar([1, 1])
        v = ring.scalar(Fraction(rng.randint(-9, -1), rng.randint(1, 9))) * \
            ring.scalar([1, -1])
        assert u and v
        prod = u * v
        assert (prod.num, prod.den) == ((0, 0), 1)
        assert not prod and prod == ring.zero and hash(prod) == hash(ring.zero)
        with pytest.raises(NotInvertible):
            u.inv()
        with pytest.raises(NotInvertible):
            v.inv()


@pytest.mark.parametrize("name", REF_FIELDS)
def test_str_roundtrip_and_fraction_coeffs(name):
    f, _ = ref_field(name)
    rng = random.Random(f"roundtrip {name}")
    for _ in range(200):
        s = f.scalar(random_coeffs(rng, name, f.degree))
        assert parse_scalar(str(s), f) == s
        assert isinstance(s.coeffs, tuple)
        assert all(type(c) is Fraction for c in s.coeffs)


@pytest.mark.parametrize("name", [n for n, p in REF_FIELDS.items() if p])
def test_long_coefficient_lists_reduce_modulo_p(name):
    f, p = ref_field(name)
    rng = random.Random(f"long {name}")
    for length in range(1, 4 * f.degree + 2):
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(length)]
        s = f.scalar(cs)
        assert s.coeffs == ref_reduce(cs, p)
        assert_canonical(s)


def test_one_and_zero_are_canonical_singletons():
    for name in REF_FIELDS:
        f, _ = ref_field(name)
        assert f.scalar(1) is f.one and f.scalar(-1) is f.minus_one
        assert (f.one.num, f.one.den) == ((1,) + (0,) * (f.degree - 1), 1)
        assert (f.minus_one.num, f.minus_one.den) == \
            ((-1,) + (0,) * (f.degree - 1), 1)
        assert (f.zero.num, f.zero.den) == ((0,) * f.degree, 1)
        assert f.one is not f.minus_one and f.minus_one == -f.one
        assert f.scalar(0) is f.zero and -f.zero is f.zero
        assert f.zero is not f.one and f.zero is not f.minus_one
        # a field built again from its descriptor is the same object, so
        # its zero, one and minus one are these
        assert Field(f.kind, f.min_poly) is f


def as_list(f, c0):
    """The bracketed text of the constant c0 with every coefficient."""
    return "[" + ", ".join([c0] + ["0"] * (f.degree - 1)) + "]"


@pytest.mark.parametrize("name", REF_FIELDS)
def test_every_producer_returns_the_unit_singletons(name):
    f, _ = ref_field(name)
    one, m1 = f.one, f.minus_one
    two = f.scalar([2])
    made = {
        "scalar(1)": (f.scalar(1), one),
        "scalar([1, 0, ...])": (f.scalar([1] + [0] * f.degree), one),
        "scalar([-3/3])": (f.scalar([Fraction(-3, 3)]), m1),
        "[2] / [2]": (two / two, one),
        "-[2] / [2]": (-two / two, m1),
        'parse "1"': (parse_scalar("1", f), one),
        'parse "[1, 0]"': (parse_scalar(as_list(f, "1"), f), one),
        'parse "-2/2"': (parse_scalar("-2/2", f), m1),
        'parse "[-2/2, 0]"': (parse_scalar(as_list(f, "-2/2"), f), m1),
        "3 - 2": (f.scalar(3) - two, one),
        "1/2 + 1/2": (f.scalar(Fraction(1, 2)) + f.scalar(Fraction(1, 2)), one),
        "-1/3 - 2/3": (f.scalar(Fraction(-1, 3)) - f.scalar(Fraction(2, 3)), m1),
        "-3 + 2": (f.scalar(-3) + two, m1),
        "2 * 1/2": (two * f.scalar(Fraction(1, 2)), one),
        "-2 * 1/2": (f.scalar(-2) * f.scalar(Fraction(1, 2)), m1),
        "neg one": (-one, m1),
        "neg minus_one": (-m1, one),
        "neg of 3 - 4": (-(f.scalar(3) - f.scalar(4)), one),
        "inv one": (one.inv(), one),
        "inv minus_one": (m1.inv(), m1),
        "inv of 3 - 2": ((f.scalar(3) - two).inv(), one),
        "one / minus_one": (one / m1, m1),
    }
    if f.degree > 1:
        # a degree >= 2 product through the convolution and the power table
        g = f.generator()
        made["x * x^-1"] = (g * g.inv(), one)
        made["x^-1 * -x"] = (g.inv() * -g, m1)
    for what, (got, want) in made.items():
        assert got is want, what
    rng = random.Random(f"units {name}")
    for _ in range(100):
        a = f.scalar(random_coeffs(rng, name, f.degree))
        assert one * a is a and a * one is a
        for x in (m1 * a, a * m1):
            assert x == -a
            assert_canonical(x)


def test_unit_singletons_in_special_quotients():
    ring = Field.number_field([-1, 0, 1])  # x * x = 1 in Q[x]/(x^2 - 1)
    x = ring.generator()
    assert x * x is ring.one and x * -x is ring.minus_one
    assert x.inv() == x and x / x is ring.one
    assert (ring.one + x) * (ring.one - x) == ring.zero
    plus = Field.number_field([-1, 1])  # Q[x]/(x - 1): x reduces to 1
    assert plus.generator() is plus.one
    minus = Field.number_field([1, 1])  # Q[x]/(x + 1): x reduces to -1
    assert minus.generator() is minus.minus_one


# -- text ----------------------------------------------------------------------

STR_FIELDS = {
    "Q": None,
    "Q(zeta3)": (1, 1, 1),
    "Q[x]/(x^2-1)": (-1, 0, 1),
    "Q[x]/(x^2)": (0, 0, 1),      # x is nilpotent
}


def fraction_text(s):
    """s printed through reduced Fractions, one per coefficient."""
    return ref_str([Fraction(n, s.den) for n in s.num])


@pytest.mark.parametrize("name", STR_FIELDS)
def test_str_equals_the_fraction_rendering(name):
    poly = STR_FIELDS[name]
    f = QQ if poly is None else Field.number_field(poly)
    d = f.degree
    rng = random.Random(f"text {name}")
    values = [f.zero, f.one, f.minus_one,
              f.scalar([Fraction(-11, 2), -1][:d]),
              f.scalar([Fraction(3, 4), Fraction(-5, 6)][:d])]
    values += [f.scalar(random_coeffs(rng, "Q", d)) for _ in range(200)]
    # unshared values, as every new value is once the field's table holds
    # VALUE_CAP values: numerators past the machine word, and a
    # denominator that some coefficients share a factor with
    # and others do not
    big = 2 ** 61 - 1
    den = 6 * big
    values += [Scalar(f, num[:d], den) for num in
               [(5, -3 * big), (-(10 ** 40) - 1, 2 * big), (big + 6, 0)]]
    values.append(Scalar(f, (10 ** 30 + 7, -1)[:d], 1))
    for v in values[-4:]:
        assert_canonical(v)
        assert not v.shared
    for s in values:
        assert str(s) == fraction_text(s)
        assert str(s) == ref_str(s.coeffs)
    if d == 2:
        x = f.scalar([Fraction(-11, 2), -1])
        assert (x.num, x.den) == ((-11, -2), 2)
        assert str(x) == "[-11/2, -1]"
        assert str(f.zero) == "[0, 0]" and str(f.minus_one) == "[-1, 0]"
    else:
        assert str(f.zero) == "0" and str(f.minus_one) == "-1"
        assert str(f.scalar(Fraction(-11, 2))) == "-11/2"
