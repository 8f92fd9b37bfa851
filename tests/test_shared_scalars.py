"""Shared scalar values and the result cache.

Each field keeps one shared scalar per value, up to VALUE_CAP, and caches
the results of +, -, * and negation on shared operands, up to
RESULT_CAP.  These tests pin that a cached result is the exact value,
that failures are never cached, that the tables stop at their caps with
0 and +-1 still the singletons, that the map kernels stay exact past the
caps, and that copies and threads meet the table's objects.

Field tables live as long as the process, so a test that needs empty
tables uses a field no other test builds (``fresh_field``) or runs in a
new interpreter (``in_fresh_interpreter``).
"""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from strongconn import scalars
from strongconn.errors import DivisionByZero, FieldMismatch, NotInvertible
from strongconn.fileformat import InstanceFile, parse_instance, write_instance
from strongconn.golden import instance_from_extension
from strongconn.instances import build_graded_extension, cyclic_group_hopf
from strongconn.linmaps import (
    LinMap,
    SpaceLabel,
    apply_at,
    map_kron,
    precompose_at,
    rref_solve,
    try_inverse,
)
from strongconn.pipeline import run_pipeline
from strongconn.scalars import RESULT_CAP, VALUE_CAP, Field, Scalar, parse_scalar
import test_sparse_core as sc
from basis_change import transport
from test_scalars import REF_FIELDS, random_coeffs, ref_field, ref_mul

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

_fresh = itertools.count(7919)


def fresh_field(degree: int) -> Field:
    """A field with empty tables: Q[x]/(x - c) for degree 1, else
    Q[x]/(x^d + x + c), for a c that no other call uses."""
    c = next(_fresh)
    if degree == 1:
        return Field.number_field([-c, 1])
    return Field.number_field([c, 1] + [0] * (degree - 2) + [1])


def unshared(s: Scalar) -> Scalar:
    """An equal scalar outside the table, whose arithmetic skips the cache."""
    return Scalar(s.field, s.num, s.den)


def in_fresh_interpreter(check: str, *args) -> None:
    """Run check(*args), a function of this module, in a new interpreter,
    where every field's tables start empty."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    code = f"import test_shared_scalars as t; t.{check}(*{args!r})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- one object per value ---------------------------------------------------


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_parsed_and_computed_values_are_one_object(degree):
    f = fresh_field(degree)
    pad = [0] * (degree - 1)
    half = parse_scalar("1/2", f)
    assert half.shared
    assert half is f.scalar(Fraction(1, 2)) is f.scalar([Fraction(2, 4)] + pad)
    assert half + half is f.one
    assert half * half is parse_scalar("1/4", f)
    assert parse_scalar("3/4", f) is half + parse_scalar("1/4", f)
    assert -half is parse_scalar("-1/2", f) is f.zero - half
    if degree > 1:
        x = f.generator()
        third = f.scalar(Fraction(1, 3))
        assert x is parse_scalar("[0, 1]", f) is f.scalar([third.coeffs[0], 1]) - third
        assert x * x is f.scalar([0, 0, 1])
    assert all(s.shared for s in f._values.values())
    assert len({s.shared for s in f._values.values()}) == len(f._values)


def test_copies_and_pickles_are_the_table_object():
    f = fresh_field(2)
    a = f.scalar([Fraction(5, 3), -2])
    for s in (f.zero, f.one, f.minus_one, a):
        assert copy.copy(s) is s and copy.deepcopy(s) is s
        assert pickle.loads(pickle.dumps(s)) is s
        assert copy.copy(unshared(s)) is s
        assert pickle.loads(pickle.dumps(unshared(s))) is s
    m = LinMap(f, SpaceLabel.base("V", 2), SpaceLabel.base("V", 2),
               [[f.one, f.minus_one], [a, f.zero]])
    back = pickle.loads(pickle.dumps(m))
    assert back == m and back.rows[0][0] is f.one and back.rows[0][1] is f.minus_one


def test_a_copy_past_the_cap_is_not_marked_shared():
    f = fresh_field(1)
    for k in range(VALUE_CAP + 1):
        f.scalar(Fraction(k, 7))
    late = f.scalar(Fraction(-1, 11))
    assert not late.shared
    for c in (copy.copy(late), copy.deepcopy(late), pickle.loads(pickle.dumps(late))):
        assert c == late and not c.shared
    assert len(f._values) == VALUE_CAP


# -- the cache agrees with plain arithmetic ---------------------------------


def check_cached_arithmetic(name: str) -> None:
    """Every +, -, * and negation of shared operands, computed, cached and
    read back, equals the uncached arithmetic of unshared copies."""
    f, p = ref_field(name)
    assert not f._results, "the field's tables must start empty"
    rng = random.Random(f"cache {name}")
    vals = [f.scalar(random_coeffs(rng, name, f.degree)) for _ in range(40)]
    vals += [f.zero, f.one, f.minus_one]
    assert all(v.shared for v in vals)
    ops = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
           lambda a, b: -a]
    for _ in range(2):  # the second pass reads the cache
        for a in vals:
            for b in vals:
                for op in ops:
                    got, want = op(a, b), op(unshared(a), unshared(b))
                    assert got == want
                    if want == f.zero:
                        assert got is f.zero
                assert (a * b).coeffs == ref_mul(a.coeffs, b.coeffs, p)
    assert 0 < len(f._results) <= RESULT_CAP
    if name == "Q[x]/(x^2-1)":
        for c in (1, 2, Fraction(-3, 4)):
            u, v = f.scalar([c, c]), f.scalar([1, -1])  # c (1 + x), 1 - x
            for _ in range(2):
                assert u * v is f.zero and v * u is f.zero
                assert u * v * u is f.zero


@pytest.mark.parametrize("name", REF_FIELDS)
def test_cached_results_equal_uncached_arithmetic(name):
    in_fresh_interpreter("check_cached_arithmetic", name)


def test_operands_of_two_fields_raise_even_when_their_serials_are_cached():
    f, g = fresh_field(2), fresh_field(2)
    a, b = f.scalar([2, 3]), f.scalar([5, 7])
    a2, b2 = g.scalar([2, 3]), g.scalar([5, 7])
    assert (a.shared, b.shared) == (a2.shared, b2.shared)
    a + b, a - b, a * b
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(FieldMismatch):
            op(a, b2)
        with pytest.raises(FieldMismatch):
            op(a2, b)


def test_inverses_and_quotients_raise_every_time_and_are_never_cached():
    c = next(_fresh)
    ring = Field.number_field([-c * c, 0, 1])  # x^2 - c^2 = (x - c)(x + c)
    u = ring.scalar([c, 1])                    # a zero divisor
    a = ring.scalar([1, 1])
    assert u.shared and a.shared
    for _ in range(3):
        before = len(ring._results)
        with pytest.raises(NotInvertible):
            u.inv()
        with pytest.raises(NotInvertible):
            a / u
        with pytest.raises(DivisionByZero):
            ring.zero.inv()
        with pytest.raises(DivisionByZero):
            a / ring.zero
        assert len(ring._results) == before
    inv = a.inv()
    for k in range(2):
        before = len(ring._results)
        assert a.inv() is inv and a * inv is ring.one
        assert len(ring._results) == before + (k == 0)  # a * inv, once


# -- the caps -----------------------------------------------------------------


@pytest.mark.parametrize("degree", [1, 2])
def test_past_both_caps_results_stay_exact_and_units_stay_singletons(degree):
    f = fresh_field(degree)
    rng = random.Random(degree)
    coeffs = [[Fraction(rng.randint(-999, 999), rng.randint(1, 999))
               for _ in range(degree)] for _ in range(VALUE_CAP + 200)]
    vals = [f.scalar(c) for c in coeffs]
    assert len(f._values) == VALUE_CAP and f._full
    assert not vals[-1].shared
    shared = [v for v in vals if v.shared]
    n = len(shared)
    for k in range(RESULT_CAP + 500):  # distinct pairs
        a, b = shared[k % n], shared[k // n]
        a * b, a + b
    assert len(f._results) == RESULT_CAP
    p = f.min_poly
    for _ in range(300):
        a, b = rng.choice(vals), rng.choice(vals)
        assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
        assert (a * b).coeffs == ref_mul(a.coeffs, b.coeffs, p)
        assert a - a is f.zero and a + (-a) is f.zero and a * f.zero is f.zero
        assert a / a is f.one and -(a / a) is f.minus_one
        assert (-a) / a is f.minus_one and f.zero - f.one is f.minus_one
    assert len(f._values) == VALUE_CAP and len(f._results) == RESULT_CAP


def check_kernels_past_the_cap(name: str) -> None:
    """map_kron, apply_at, precompose_at and rref_solve agree with the
    dense reference of test_sparse_core on maps whose entries other than
    0 and +-1 are unshared, because the field's value table is full."""
    field = sc.FIELDS[name]
    pad = [0] * (field.degree - 1)
    for k in range(VALUE_CAP + 1):  # 9973 is prime: k/9973 is no entry below
        field.scalar([Fraction(k, 9973)] + pad)
    assert field._full and len(field._values) == VALUE_CAP
    rng = random.Random(f"kernels past the cap {name}")
    units = (field.zero, field.one, field.minus_one)

    def entry():
        k = rng.randrange(6)
        if k < 3:
            return units[k]
        s = field.scalar([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(field.degree)])
        assert s in units or not s.shared
        return s

    def entries(m, n):
        return [[entry() for _ in range(n)] for _ in range(m)]

    def check(sparse, dense):
        sc.assert_canonical(sparse)
        assert all(v is not field.zero for row in sparse.rows.values()
                   for v in row.values())
        assert sc.grid(sparse) == dense

    space, solved = sc.space, 0
    for seed in range(12):
        m, n, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, h = entries(m, n), entries(p, m)
        check(map_kron(LinMap(field, space("X", n), space("Y", m), a),
                       LinMap(field, space("Z", m), space("W", p), h)),
              sc.d_kron(a, h))
        lft, dy, dz, rgt = sc.LEG_SHAPES[seed % len(sc.LEG_SHAPES)]
        L, R, N = space("L", lft), space("R", rgt), space("N", n)
        f = entries(dz, dy)
        Y, Z = space("Y", dy), space("Z", dz)
        F = LinMap(field, Y, Z, f)
        padded = sc.d_kron(sc.d_kron(sc.d_identity(field, lft), f),
                           sc.d_identity(field, rgt))
        g, h = entries(lft * dy * rgt, n), entries(n, lft * dz * rgt)
        check(apply_at(F, LinMap(field, N, L.tensor(Y).tensor(R), g), 1),
              sc.d_mul(padded, g, field.zero))
        check(precompose_at(LinMap(field, L.tensor(Z).tensor(R), N, h), F, 1),
              sc.d_mul(h, padded, field.zero))
        mg, t = entries(m, n), entries(m, p)
        if seed % 2 == 0:  # a target in the image
            t = sc.d_mul(mg, entries(n, p), field.zero)
        got = rref_solve(LinMap(field, space("X", n), space("Y", m), mg),
                         LinMap(field, space("T", p), space("Y", m), t))
        particular, rank, kernel = sc.d_solve(field, mg, t)
        assert (got.rank, got.kernel.basis) == (rank, tuple(kernel))
        if isinstance(particular, sc.Infeasible):
            assert got.particular == particular
        else:
            check(got.particular, particular)
            solved += 1
    assert solved
    assert len(field._values) == VALUE_CAP


@pytest.mark.parametrize("name", ["Q", "Q(zeta3)"])
def test_map_kernels_past_the_value_cap_match_dense(name):
    in_fresh_interpreter("check_kernels_past_the_cap", name)


# -- threads ----------------------------------------------------------------


def test_threads_making_one_value_get_one_object(monkeypatch):
    f = fresh_field(2)
    init = Scalar.__init__

    def yielding_init(s, *args):
        init(s, *args)
        time.sleep(0)  # let another thread reach the same table miss

    monkeypatch.setattr(Scalar, "__init__", yielding_init)
    texts = [f"[{k}/13, -{k}/17]" for k in range(1, 60)]
    n_threads = 6  # more than the cores the tests run on
    barrier = threading.Barrier(n_threads)
    got = [None] * n_threads

    def work(i):
        barrier.wait(timeout=60)
        vals = [parse_scalar(t, f) for t in texts]
        got[i] = (vals, [a * b + a for a in vals for b in vals[:9]])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    vals = got[0][0]
    want = [(unshared(a) * unshared(b) + unshared(a)).coeffs
            for a in vals for b in vals[:9]]
    for objs, results in got:
        assert all(x is y and x.shared for x, y in zip(objs, vals))
        assert [r.coeffs for r in results] == want
    assert len({s.shared for s in f._values.values()}) == len(f._values)


# -- a whole run in a rational basis ----------------------------------------


def rational_conjugate(inst: InstanceFile, seed: int) -> InstanceFile:
    """inst transported along seeded invertible maps whose entries are
    p/q with |p|, q <= 9, so the files hold many distinct values."""
    rng = random.Random(seed)
    field = inst.field
    fwd = {}
    for name, dim in sorted(inst.spaces.items()):
        space = SpaceLabel.base(name, dim)
        while name not in fwd:
            p = LinMap(field, space, space, [
                [field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                 for _ in range(dim)] for _ in range(dim)])
            if try_inverse(p) is not None:
                fwd[name] = p
    return transport(inst, fwd)


def test_graded_n3_in_a_rational_basis_passes_within_the_caps(tmp_path):
    q = Field.rationals()
    inst = rational_conjugate(instance_from_extension(
        "graded_n3_t2_rational", build_graded_extension(3, 2, q),
        c_hopf=cyclic_group_hopf(3, q)), 5)
    path = tmp_path / "rational.json"
    write_instance(inst, str(path))
    rep = run_pipeline(parse_instance(str(path)))
    assert rep.exit_code == 0
    statuses = {c.name: c.status for _, c in rep.checks}
    assert "fail" not in statuses.values()
    assert statuses["connection-right-colinear"] == "pass"
    assert statuses["oracle-contains-formula-output"] == "pass"
    for f in scalars._FIELDS.values():
        assert len(f._values) <= VALUE_CAP and len(f._results) <= RESULT_CAP
