"""Property tests: field axioms, solver laws, functoriality, exactness."""

from hypothesis import given, settings
from hypothesis import strategies as st

from strongconn.golden import GOLDEN_BUILDERS, build_golden
from strongconn.linmaps import (
    Infeasible,
    LinMap,
    SpaceLabel,
    Subspace,
    kernel_basis,
    map_kron,
    rref_solve,
)
from strongconn.scalars import Field, parse_scalar

QQ = Field.rationals()
CYC = Field.number_field([1, 1, 1])

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def rational_scalars():
    return small_fractions.map(QQ.scalar)


def cyclotomic_scalars():
    return st.lists(small_fractions, min_size=2, max_size=2).map(CYC.scalar)


@given(rational_scalars(), rational_scalars(), rational_scalars())
def test_field_axioms_rationals(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QQ.zero
    if a:
        assert a * a.inv() == QQ.one


@given(cyclotomic_scalars(), cyclotomic_scalars(), cyclotomic_scalars())
def test_field_axioms_cyclotomic(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inv() == CYC.one


@given(st.one_of(rational_scalars(), cyclotomic_scalars()))
def test_parse_print_identity(a):
    assert parse_scalar(str(a), a.field) == a


def small_matrices(rows, cols):
    return st.lists(
        st.lists(small_fractions, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_rref_solve_solves_or_certifies(m, n, t, data):
    rows = data.draw(small_matrices(m, n))
    tgt = data.draw(small_matrices(m, t))
    dom = SpaceLabel.base("X", n)
    cod = SpaceLabel.base("Y", m)
    tdom = SpaceLabel.base("T", t)
    M = LinMap(QQ, dom, cod, [[QQ.scalar(e) for e in r] for r in rows])
    T = LinMap(QQ, tdom, cod, [[QQ.scalar(e) for e in r] for r in tgt])
    out = rref_solve(M, T).particular
    if isinstance(out, Infeasible):
        # certify: re-solve after appending the target as extra columns
        # must stay infeasible for at least one target column
        assert any(
            isinstance(rref_solve(M, LinMap(QQ, SpaceLabel.base("T1", 1), cod,
                                            [[r[j]] for r in T.entries])).particular,
                       Infeasible)
            for j in range(t))
    else:
        assert M @ out == T


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_and_rank_nullity(m, n, data):
    rows = data.draw(small_matrices(m, n))
    M = LinMap(QQ, SpaceLabel.base("X", n), SpaceLabel.base("Y", m),
               [[QQ.scalar(e) for e in r] for r in rows])
    ker = kernel_basis(M)
    assert M.rank() + ker.dim == n
    for v in ker.basis:
        img = [sum((row[j] * v[j] for j in range(n) if v[j]), QQ.zero)
               for row in M.entries]
        assert not any(img)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_kron_functoriality_random(data):
    def draw_map(m, n):
        rows = data.draw(small_matrices(m, n))
        return LinMap(QQ, SpaceLabel.base("X", n), SpaceLabel.base("X", m),
                      [[QQ.scalar(e) for e in r] for r in rows])
    f = draw_map(2, 2)
    fp = draw_map(2, 2)
    g = draw_map(2, 2)
    gp = draw_map(2, 2)
    assert map_kron(f, g) @ map_kron(fp, gp) == map_kron(f @ fp, g @ gp)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_subspace_dimension_formula(data):
    amb = SpaceLabel.base("X", 4)
    vecs_u = data.draw(st.lists(st.lists(small_fractions, min_size=4, max_size=4),
                                min_size=0, max_size=3))
    vecs_v = data.draw(st.lists(st.lists(small_fractions, min_size=4, max_size=4),
                                min_size=0, max_size=3))
    U = Subspace.from_vectors(QQ, amb, vecs_u)
    V = Subspace.from_vectors(QQ, amb, vecs_v)
    s = U.sum(V)
    i = U.intersection(V)
    assert s.dim + i.dim == U.dim + V.dim
    assert s.contains(U) and s.contains(V)
    assert U.contains(i) and V.contains(i)


def test_rank_nullity_on_instance_library_maps():
    for name in GOLDEN_BUILDERS:
        inst = build_golden(name)
        for tensor in inst.tensors.values():
            assert tensor.rank() + kernel_basis(tensor).dim == tensor.ncols
