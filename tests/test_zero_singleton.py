"""Zero is a singleton, and there is one Field object per field.

The map kernels drop a zero by testing ``is field.zero``, hoisted once
per call from one of the maps' fields.  That is sound only if every
producer returns the field's own zero for the value zero, and if two
fields built separately from one descriptor are the same object, so the
zero of one map's field is the zero of the other's.  A zero that missed
the singleton would be stored in a map row, and the rows would no longer
be a canonical form.
"""

import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from strongconn import scalars
from strongconn.errors import MalformedField
from strongconn.fileformat import parse_instance, write_instance
from strongconn.golden import instance_from_extension
from strongconn.instances import build_graded_extension, cyclic_group_hopf
from strongconn.linmaps import LinMap, SpaceLabel
from strongconn.pipeline import STAGE_ORDER, run_pipeline
from strongconn.scalars import Field, Scalar, parse_scalar
from test_scalars import REF_FIELDS, as_list, ref_field
from test_unit_singletons import dense_conjugate

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


# -- the field table ----------------------------------------------------


def test_equal_descriptors_give_one_field():
    assert Field.rationals() is Field("rationals")
    assert Field.number_field([1, 1, 1]) is Field("number_field", (1, 1, 1))
    assert Field.number_field((1, 1, 1)) is Field("number_field", [1, 1, 1])
    assert Field.number_field([1, 1, 1]) is not Field.number_field([-1, 0, 1])
    assert Field.rationals() is not Field.number_field([0, 1])


def test_copies_and_pickles_are_the_table_field():
    f = Field.number_field([1, 1, 1])
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


@pytest.mark.parametrize("kind,min_poly", [
    ("number_field", (True, True, 1)),   # True == 1: would key as Q(zeta3)
    ("number_field", (1, True)),
    ("number_field", (1, 1, 2)),         # not monic
    ("number_field", (1,)),              # degree 0
    ("number_field", None),
    ("number_field", (1, Fraction(1, 2), 1)),
    ("rationals", (0, 1)),
    ("padic", None),
])
def test_malformed_descriptors_raise_and_are_never_cached(kind, min_poly):
    zeta3 = Field.number_field([1, 1, 1])
    before = dict(scalars._FIELDS)
    with pytest.raises(MalformedField):
        Field(kind, min_poly)
    assert scalars._FIELDS == before
    assert all(type(c) is int for _, p in scalars._FIELDS for c in p or ())
    assert zeta3.min_poly == (1, 1, 1)
    assert all(type(c) is int for c in zeta3.min_poly)


# -- every producer returns the zero singleton --------------------------


@pytest.mark.parametrize("name", REF_FIELDS)
def test_every_producer_returns_the_zero_singleton(name):
    f, _ = ref_field(name)
    zero, one, m1 = f.zero, f.one, f.minus_one
    a = f.scalar([Fraction(3, 2)] + [-2] * (f.degree - 1))
    made = {
        "scalar(0)": f.scalar(0),
        "scalar(Fraction(0))": f.scalar(Fraction(0)),
        "scalar([0, ..., 0])": f.scalar([0] * (f.degree + 2)),
        'parse "0"': parse_scalar("0", f),
        'parse "-0/5"': parse_scalar("-0/5", f),
        'parse "[0, 0]"': parse_scalar(as_list(f, "0"), f),
        "a - a": a - a,
        "a + (-a)": a + (-a),
        "1 + -1": one + m1,
        "1 - 1": one - one,
        "-zero": -zero,
        "zero * a": zero * a,
        "a * zero": a * zero,
        "zero / a": zero / a,
        "1/2 - 1/2": f.scalar(Fraction(1, 2)) - f.scalar(Fraction(1, 2)),
        "1/2 + -1/2": f.scalar(Fraction(1, 2)) + f.scalar(Fraction(-1, 2)),
        "a/2 - a/3 - a/6": a / f.scalar(2) - a / f.scalar(3) - a / f.scalar(6),
    }
    if f.min_poly is not None:
        # p itself reduces to zero modulo p
        made["scalar(min_poly)"] = f.scalar(list(f.min_poly))
    for label, value in made.items():
        assert value is zero, label


def test_zero_divisor_products_are_the_zero_singleton():
    ring = Field.number_field([-1, 0, 1])
    for c in (1, 2, Fraction(-3, 4)):
        u = ring.scalar([c, c])           # c (1 + x)
        v = ring.scalar([1, -1])          # 1 - x
        assert u and v
        assert u * v is ring.zero and v * u is ring.zero
        assert u * v * u is ring.zero


# -- whole pipeline runs --------------------------------------------------


@pytest.fixture
def stray_zeros(monkeypatch):
    """Each +, -, * or negation whose result is zero but not the
    singleton, and each map built with a zero in a row."""
    stray = []
    for attr in ("__add__", "__sub__", "__mul__"):
        op = getattr(Scalar, attr)

        def checked(a, b, op=op, attr=attr):
            out = op(a, b)
            if out == out.field.zero and out is not out.field.zero:
                stray.append(f"{a} {attr} {b}")
            return out
        monkeypatch.setattr(Scalar, attr, checked)
    neg = Scalar.__neg__

    def checked_neg(a):
        out = neg(a)
        if out == out.field.zero and out is not out.field.zero:
            stray.append(f"-{a}")
        return out
    monkeypatch.setattr(Scalar, "__neg__", checked_neg)
    from_rows = LinMap._from_rows.__func__

    def checked_rows(cls, field, domain, codomain, rows):
        m = from_rows(cls, field, domain, codomain, rows)
        if any(v == field.zero for row in m.rows.values() for v in row.values()):
            stray.append(f"stored zero in {m!r}")
        if not all(row and 0 <= r < m.nrows for r, row in m.rows.items()):
            stray.append(f"empty or out-of-range row in {m!r}")
        return m
    monkeypatch.setattr(LinMap, "_from_rows", classmethod(checked_rows))
    return stray


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_DIR.glob("*.json")))
def test_golden_runs_make_only_singleton_zeros(name, stray_zeros):
    run_pipeline(parse_instance(str(GOLDEN_DIR / f"{name}.json")))
    assert stray_zeros == []


def test_dense_cyclotomic_run_makes_only_singleton_zeros(tmp_path, stray_zeros):
    field = Field.number_field([1, 1, 1])
    ext = build_graded_extension(3, 2, field)
    inst = dense_conjugate(instance_from_extension(
        "graded_n3_t2_dense", ext, c_hopf=cyclic_group_hopf(3, field)))
    path = tmp_path / "dense.json"
    write_instance(inst, str(path))
    stray_zeros.clear()  # only parsing and the pipeline are under test
    rep = run_pipeline(parse_instance(str(path)), STAGE_ORDER[1:])
    assert rep.exit_code == 0
    assert stray_zeros == []


def test_the_checks_see_a_stray_zero(stray_zeros):
    """A zero from the trusting constructor, negated or stored in a map
    row, is caught, and so is a stored empty row or a row key out of
    range."""
    f = Field.rationals()
    k = SpaceLabel.base("K", 1)
    stray = Scalar(f, (0,), 1)
    -stray
    LinMap._from_rows(f, k, k, {0: {0: stray}})
    assert len(stray_zeros) == 2
    LinMap._from_rows(f, k, k, {0: {}})
    LinMap._from_rows(f, k, k, {1: {0: f.one}})
    LinMap._from_rows(f, k, k, {-1: {0: f.one}})
    assert len(stray_zeros) == 5
