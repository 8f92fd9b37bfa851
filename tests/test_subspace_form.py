"""Subspaces keep their reduced echelon rows with pivots at the right.

Each row's last nonzero coordinate is a 1 that no other row holds, and
the rows are in ascending order of those pivots.  A kernel read off a
solve is already in this form, the quotient by a subspace is read off
its rows, and ``intersection`` is one kernel and one image.  Membership
in X (x) S (x) Y is the zero test of I (x) pi (x) I, ``first_outside(f,
at)``; it is checked against ranks of [I (x) incl (x) I | column], which
do not use pi, and A5 (x) S + S (x) A5 against ker(pi (x) pi).  The
dense LinMap constructor converts entries that are not Scalars.  All on
seeded subspaces of a 5-dimensional space over Q and Q(zeta3).
"""

import random
from fractions import Fraction

import pytest

from strongconn.errors import ShapeError
from strongconn.linmaps import (
    LinMap,
    SpaceLabel,
    Subspace,
    kernel_basis,
    kron_all,
    map_kron,
)
from strongconn.scalars import Field, Scalar

FIELDS = {"Q": Field.rationals(), "Q(zeta3)": Field.number_field([1, 1, 1])}
A5 = SpaceLabel.base("A", 5)
SEEDS = range(8)


def seeded_map(field, dom, cod, seed, density=0.6):
    rng = random.Random(seed)

    def entry():
        if rng.random() > density:
            return field.zero
        return field.scalar([rng.randint(-2, 2) for _ in range(field.degree)])

    return LinMap(field, dom, cod,
                  [[entry() for _ in range(dom.dim)] for _ in range(cod.dim)])


def seeded_subspace(field, seed):
    """The span of 0 to 5 seeded vectors of A5."""
    k = random.Random(seed).randint(0, 5)
    f = seeded_map(field, SpaceLabel.base("K", max(k, 1)), A5, seed + 500)
    return Subspace.from_vectors(field, A5, [f.column(c) for c in range(k)])


def pivots_at_the_right(sub) -> list:
    """The pivots of sub's rows, after checking the form."""
    pivots = [max(row) for row in sub.rows]
    assert pivots == sorted(set(pivots))
    for row, p in zip(sub.rows, pivots):
        assert row[p] == sub.field.one
        assert not any(p in other for other in sub.rows if other is not row)
    return pivots


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_spans_and_kernels_keep_pivots_at_the_right(name, seed):
    field = FIELDS[name]
    sub = seeded_subspace(field, seed)
    pivots_at_the_right(sub)
    kernel = kernel_basis(seeded_map(field, A5, SpaceLabel.base("Y", 3), seed))
    pivots_at_the_right(kernel)
    assert Subspace.from_vectors(field, A5, kernel.basis) == kernel


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_quotient_is_read_off_the_basis(name, seed):
    field = FIELDS[name]
    sub = seeded_subspace(field, seed)
    pi, section = sub.quotient("Q")
    reps = [j for j in range(A5.dim) if j not in pivots_at_the_right(sub)]
    space = SpaceLabel.base("Q", max(len(reps), 1))
    assert (pi.domain, pi.codomain) == (A5, space)
    assert (section.domain, section.codomain) == (space, A5)
    # the section sends each representative, lowest first, to itself
    assert section == LinMap.from_rules(
        field, space, A5, lambda idx: [((reps[idx[0]],), 1)] if reps else [])
    assert kernel_basis(pi) == sub
    if reps:
        assert pi @ section == LinMap.identity(field, space)
    # every coordinate and its class's representative differ inside sub
    assert sub.first_outside(LinMap.identity(field, A5) - section @ pi) is None


@pytest.mark.parametrize("name", FIELDS)
def test_quotient_by_zero_and_by_everything(name):
    field = FIELDS[name]
    q5 = SpaceLabel.base("Q", 5)
    pi, section = Subspace.zero(field, A5).quotient("Q")
    assert pi == LinMap.identity(field, A5).relabel(codomain=q5)
    assert section == LinMap.identity(field, A5).relabel(domain=q5)
    pi, section = Subspace.full(field, A5).quotient()
    assert (pi.nrows, section.ncols) == (1, 1)
    assert pi.is_zero() and section.is_zero()


def first_outside_by_rank(K, f):
    """The first column of f outside the image of K, by ranks: column c
    is outside when [K | column c] has a larger rank than K."""
    rank = K.rank()
    dom = SpaceLabel.base("K", K.ncols + 1)
    for c in range(f.ncols):
        col = f.column(c)
        joined = LinMap(K.field, dom, K.codomain,
                        [row + (x,) for row, x in zip(K.entries, col)])
        if joined.rank() > rank:
            return c
    return None


X2, Y2 = SpaceLabel.base("X", 2), SpaceLabel.base("Y", 2)
# the legs around S: none, X on the left, Y on the right, both
LEGS = {"S": ([], []), "X(x)S": ([X2], []), "S(x)Y": ([], [Y2]),
        "X(x)S(x)Y": ([X2], [Y2])}


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("legs", LEGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_first_outside_over_tensor_legs_matches_ranks(name, legs, seed):
    """S.first_outside(f, at) against the ranks of K = I (x) incl (x) I,
    on maps whose columns are drawn from K's image or from anywhere."""
    field = FIELDS[name]
    left, right = LEGS[legs]
    sub = seeded_subspace(field, seed)
    K = kron_all(*[LinMap.identity(field, x) for x in left], sub.inclusion(),
                 *[LinMap.identity(field, y) for y in right])
    cols = SpaceLabel.base("N", 6)
    inside = K @ seeded_map(field, cols, K.domain, seed + 100)
    anywhere = seeded_map(field, cols, K.codomain, seed + 200, density=0.3)
    rng = random.Random(seed + 300)
    picks = [(inside if rng.random() < 0.6 else anywhere).entries
             for _ in range(cols.dim)]
    f = LinMap(field, cols, K.codomain,
               [[m[r][c] for c, m in enumerate(picks)] for r in range(K.nrows)])
    at = len(left)
    assert sub.first_outside(f, at) == first_outside_by_rank(K, f)
    assert sub.first_outside(inside, at) is None


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_two_sided_sum_is_the_kernel_of_pi_tensor_pi(name, seed):
    """A5 (x) S + S (x) A5 = ker(pi (x) pi), which lets a coideal check
    test (pi (x) pi) o Delta for zero."""
    field = FIELDS[name]
    sub = seeded_subspace(field, seed)
    ia, incl = LinMap.identity(field, A5), sub.inclusion()
    pi = sub.quotient()[0]
    assert Subspace.image(map_kron(ia, incl)).sum(
        Subspace.image(map_kron(incl, ia))) == kernel_basis(map_kron(pi, pi))


def test_first_outside_needs_the_subspace_at_its_position():
    field = FIELDS["Q"]
    sub = Subspace.zero(field, A5)
    f = LinMap.zero(field, X2, X2.tensor(A5))
    assert sub.first_outside(f, 1) is None
    for g, at in ((f, 0), (f, 2), (f, -1), (LinMap.zero(field, X2, Y2), 0),
                  (LinMap.zero(field, X2, A5.tensor(X2)), 1)):
        with pytest.raises(ShapeError):
            sub.first_outside(g, at)


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_intersection_is_inside_both_and_has_the_counted_dimension(name, seed):
    field = FIELDS[name]
    u, v = seeded_subspace(field, seed), seeded_subspace(field, seed + 40)
    w = u.intersection(v)
    pivots_at_the_right(w)
    assert u.contains(w) and v.contains(w)
    assert w.dim == u.dim + v.dim - u.sum(v).dim
    assert w == v.intersection(u)


@pytest.mark.parametrize("name", FIELDS)
def test_dense_constructor_converts_entries_in_the_field(name):
    field = FIELDS[name]
    a2 = SpaceLabel.base("A", 2)
    for one, zero in ((1, 0), (Fraction(1), Fraction(0))):
        m = LinMap(field, a2, a2, [[one, zero], [zero, one]])
        assert m == LinMap.identity(field, a2)
        assert hash(m) == hash(LinMap.identity(field, a2))
    m = LinMap(field, a2, a2, [[Fraction(1, 2), 0], [0, -3]])
    assert m.rows == {0: {0: field.scalar(Fraction(1, 2))}, 1: {1: field.scalar(-3)}}
    square = m @ m
    assert all(isinstance(x, Scalar) for row in square.rows.values() for x in row.values())
    assert square.rows == {0: {0: field.scalar(Fraction(1, 4))}, 1: {1: field.scalar(9)}}
