"""Subspaces keep their reduced echelon basis with pivots at the right.

Each basis vector's last nonzero coordinate is a 1 that no other basis
vector holds, and the rows are in ascending order of those pivots.  A
kernel read off a solve is already in this form, the quotient by a
subspace is read off its basis, ``image`` spans several maps in one
elimination, and ``intersection`` is one kernel and one image.  The
dense LinMap constructor converts entries that are not Scalars.  All on
seeded subspaces of a 5-dimensional space over Q and Q(zeta3).
"""

import random
from fractions import Fraction

import pytest

from strongconn.errors import ShapeError
from strongconn.linmaps import LinMap, SpaceLabel, Subspace, kernel_basis
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


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_image_of_several_maps_is_the_sum_of_their_images(name, seed):
    field = FIELDS[name]
    f = seeded_map(field, SpaceLabel.base("X", 2), A5, seed, density=0.4)
    g = seeded_map(field, SpaceLabel.base("Y", 1), A5, seed + 100)
    h = seeded_map(field, SpaceLabel.base("Z", 3), A5, seed + 200, density=0.3)
    assert Subspace.image(f, g) == Subspace.image(f).sum(Subspace.image(g))
    both = Subspace.image(f, g, h)
    assert both == Subspace.image(f, g).sum(Subspace.image(h))
    pivots_at_the_right(both)
    with pytest.raises(ShapeError):
        Subspace.image(f, LinMap.zero(field, A5, SpaceLabel.base("B", 4)))


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
    assert m.rows == ({0: field.scalar(Fraction(1, 2))}, {1: field.scalar(-3)})
    square = m @ m
    assert all(isinstance(x, Scalar) for row in square.rows for x in row.values())
    assert square.rows == ({0: field.scalar(Fraction(1, 4))}, {1: field.scalar(9)})
