import random

import pytest

from strongconn import linmaps
from strongconn.errors import ShapeError
from strongconn.linmaps import (
    Infeasible,
    LinMap,
    SpaceLabel,
    Subspace,
    apply_at,
    basis_vector,
    compose_legs,
    flip_map,
    kernel_basis,
    kron_all,
    map_kron,
    precompose_at,
    rref_solve,
    stacked_kernel,
    try_inverse,
    vector,
)
from strongconn.scalars import Field

from dense import column, contains, contains_vector, from_vector, full, vectorize
from test_subspace_form import first_outside_by_rank


QQ = Field.rationals()
A2 = SpaceLabel.base("A", 2)
C3 = SpaceLabel.base("C", 3)


def mat(entries, dom, cod, field=QQ):
    return LinMap(field, dom, cod,
                  [[field.scalar(e) for e in row] for row in entries])


def test_tensor_index_row_major():
    space = A2.tensor(C3)
    assert space.flatten((1, 0)) == 3
    assert space.flatten((0, 0)) == 0
    assert space.flatten((1, 2)) == 5
    assert space.unflatten(5) == (1, 2)


def test_tensor_index_out_of_range():
    with pytest.raises(IndexError):
        A2.tensor(C3).flatten((2, 0))
    with pytest.raises(IndexError):
        A2.tensor(C3).flatten((0,))


def test_compose_identity():
    f = mat([[1, 2, 3], [4, 5, 6]], C3, A2)
    assert LinMap.identity(QQ, A2) @ f == f
    assert f @ LinMap.identity(QQ, C3) == f


def test_compose_label_mismatch():
    f = mat([[1, 0], [0, 1]], A2, A2)
    g = mat([[1, 0, 0], [0, 1, 0]], C3, A2)
    with pytest.raises(ShapeError):
        g @ f  # inner labels A vs A are fine; try mismatched one
    # mismatch: f expects domain A, g produces codomain A... build real mismatch
    h = mat([[1], [0], [0]], SpaceLabel.base("B", 1), C3)
    with pytest.raises(ShapeError):
        f @ h


def test_kron_of_identities():
    assert map_kron(LinMap.identity(QQ, A2), LinMap.identity(QQ, C3)) == \
        LinMap.identity(QQ, A2.tensor(C3))


def test_kron_functoriality_spot_check():
    f = mat([[1, 2], [3, 4]], A2, A2)
    fp = mat([[0, 1], [1, 1]], A2, A2)
    g = mat([[2, 0], [1, 1]], A2, A2)
    gp = mat([[1, 1], [0, 2]], A2, A2)
    lhs = map_kron(f, g) @ map_kron(fp, gp)
    rhs = map_kron(f @ fp, g @ gp)
    assert lhs == rhs


def test_kron_on_basis_vectors():
    u = basis_vector(QQ, A2, 1)
    v = basis_vector(QQ, C3, 2)
    w = map_kron(u, v)
    assert w.codomain == A2.tensor(C3)
    assert column(w, 0)[A2.tensor(C3).flatten((1, 2))] == QQ.one


@pytest.mark.parametrize("flat", [-1, 3, 5])
def test_basis_vector_rejects_a_position_outside_the_space(flat):
    """As SpaceLabel.unflatten does, instead of a silent zero vector."""
    a3 = SpaceLabel.base("A", 3)
    with pytest.raises(IndexError, match="out of range"):
        basis_vector(QQ, a3, flat)
    assert column(basis_vector(QQ, a3, 2), 0) == (QQ.zero, QQ.zero, QQ.one)


def test_scalar_space_label_absorbed_by_kron():
    eps = mat([[1, 1]], A2, SpaceLabel.scalar())  # a functional on A
    m = map_kron(LinMap.identity(QQ, A2), eps)
    assert m.codomain == A2
    assert m.domain == A2.tensor(A2)


def test_rref_solve_identity():
    t = mat([[1, 2], [3, 4]], A2, A2)
    x = rref_solve(LinMap.identity(QQ, A2), t).particular
    assert x == t


def test_rref_solve_free_variable_zeroed():
    B1 = SpaceLabel.base("B", 1)
    M = mat([[1, 1]], A2, B1)
    t = mat([[1]], B1, B1)
    x = rref_solve(M, t).particular
    assert column(x.relabel(domain=SpaceLabel.scalar()), 0) == \
        (QQ.one, QQ.zero)


def test_rref_solve_infeasible_with_witness():
    B1 = SpaceLabel.base("B", 1)
    M = LinMap.zero(QQ, A2, B1)
    t = mat([[1]], B1, B1)
    out = rref_solve(M, t).particular
    assert isinstance(out, Infeasible)
    assert out.row == 0


def test_rref_solve_deterministic():
    M = mat([[1, 1, 0], [0, 0, 1]], C3, A2)
    t = mat([[2], [5]], SpaceLabel.base("T", 1), A2)
    x1 = rref_solve(M, t).particular
    x2 = rref_solve(M, t).particular
    assert x1 == x2
    assert M @ x1 == t


def test_kernel_of_identity_and_zero():
    assert kernel_basis(LinMap.identity(QQ, C3)).dim == 0
    assert kernel_basis(LinMap.zero(QQ, C3, A2)).dim == 3


def test_kernel_simple():
    B1 = SpaceLabel.base("B", 1)
    M = mat([[1, -1]], A2, B1)
    k = kernel_basis(M)
    assert k.dim == 1
    assert contains_vector(k, [QQ.one, QQ.one])


def test_rank_nullity_on_random_shape():
    M = mat([[1, 2, 3], [2, 4, 6]], C3, A2)
    assert M.rank() + kernel_basis(M).dim == 3


def test_subspace_ops():
    e1 = [QQ.one, QQ.zero]
    e2 = [QQ.zero, QQ.one]
    U = Subspace.from_vectors(QQ, A2, [e1])
    V = Subspace.from_vectors(QQ, A2, [e2])
    Z = Subspace.zero(QQ, A2)
    assert U == U
    assert U.sum(Z) == U
    assert U.intersection(V) == Z
    assert contains(U.sum(V), U)
    assert not contains(U, V)


def test_subspace_canonical_basis_unique():
    U1 = Subspace.from_vectors(QQ, A2, [[2, 2]])
    U2 = Subspace.from_vectors(QQ, A2, [[5, 5]])
    assert U1 == U2
    assert U1.basis[0] == (QQ.one, QQ.one)


def test_subspace_ambient_mismatch():
    U = Subspace.from_vectors(QQ, A2, [[1, 0]])
    V = Subspace.from_vectors(QQ, C3, [[1, 0, 0]])
    with pytest.raises(ShapeError):
        U.sum(V)


def test_flip_map_swaps():
    fl = flip_map(QQ, A2, C3)
    v = map_kron(basis_vector(QQ, A2, 1), basis_vector(QQ, C3, 2))
    w = fl @ v
    assert column(w, 0)[C3.tensor(A2).flatten((2, 1))] == QQ.one
    assert sum(1 for c in column(w, 0) if c) == 1


def test_try_inverse():
    M = mat([[1, 1], [0, 1]], A2, A2)
    Minv = try_inverse(M)
    assert Minv @ M == LinMap.identity(QQ, A2)
    assert try_inverse(mat([[1, 1], [1, 1]], A2, A2)) is None
    with pytest.raises(ShapeError):
        try_inverse(mat([[1, 0, 0], [0, 1, 0]], C3, A2))


def test_vectorize_roundtrip():
    M = mat([[1, 2, 3], [4, 5, 6]], C3, A2)
    v = vectorize(M)
    assert from_vector(QQ, C3, A2, v) == M


def test_stacked_kernel():
    B1 = SpaceLabel.base("B", 1)
    M1 = mat([[1, -1, 0]], C3, B1)
    M2 = mat([[0, 1, -1]], C3, B1)
    k = stacked_kernel([M1, M2])
    assert k.dim == 1
    assert contains_vector(k, [QQ.one, QQ.one, QQ.one])


def test_vector_helpers():
    v = vector(QQ, C3, [1, 2, 3])
    assert column(v, 0) == (QQ.one, QQ.scalar(2), QQ.scalar(3))
    with pytest.raises(ShapeError):
        vector(QQ, C3, [1, 2])


def test_kron_all():
    i2 = LinMap.identity(QQ, A2)
    assert kron_all(i2, i2, i2).domain.dim == 8


# -- subspaces as maps -------------------------------------------------

ZETA3 = Field.number_field([1, 1, 1])
A4 = SpaceLabel.base("A", 4)


def seeded_map(field, dom, cod, seed, density=0.5):
    """A seeded map whose entries are small integers and, over Q(zeta3),
    two-coefficient scalars."""
    rng = random.Random(seed)

    def entry():
        if rng.random() > density:
            return field.zero
        return field.scalar([rng.randint(-2, 2) for _ in range(field.degree)])

    return LinMap(field, dom, cod,
                  [[entry() for _ in range(dom.dim)] for _ in range(cod.dim)])


def seeded_subspace(field, seed):
    """The span of two seeded vectors in A4: dimension 1 or 2."""
    cols = seeded_map(field, A2, A4, seed, density=1.0)
    return Subspace.from_vectors(field, A4, [column(cols, c) for c in range(2)])


@pytest.mark.parametrize("field", [QQ, ZETA3], ids=["Q", "Q(zeta3)"])
@pytest.mark.parametrize("seed", range(4))
def test_image_is_the_span_of_the_columns(field, seed):
    f = seeded_map(field, C3, A4, seed)
    assert Subspace.image(f) == Subspace.from_vectors(
        field, A4, [column(f, c) for c in range(f.ncols)])


@pytest.mark.parametrize("field", [QQ, ZETA3], ids=["Q", "Q(zeta3)"])
@pytest.mark.parametrize("which", ["seeded", "full", "zero"])
def test_image_of_inclusion_is_the_subspace(field, which):
    sub = {"seeded": lambda: seeded_subspace(field, 3),
           "full": lambda: full(field, A4),
           "zero": lambda: Subspace.zero(field, A4)}[which]()
    incl = sub.inclusion()
    assert incl.codomain == A4
    assert incl.ncols == max(sub.dim, 1)
    assert Subspace.image(incl) == sub
    assert incl.is_zero() == (sub.dim == 0)


@pytest.mark.parametrize("field", [QQ, ZETA3], ids=["Q", "Q(zeta3)"])
@pytest.mark.parametrize("seed", range(6))
def test_first_outside_agrees_with_contains_vector(field, seed):
    sub = seeded_subspace(field, seed)
    # columns drawn alternately from the subspace and from all of A4
    inside = sub.inclusion() @ seeded_map(field, C3, sub.inclusion().domain,
                                           seed + 100)
    anywhere = seeded_map(field, C3, A4, seed + 200)
    f = LinMap(field, C3.tensor(A2), A4,
               [[x for pair in zip(ri, ra) for x in pair]
                for ri, ra in zip(inside.entries, anywhere.entries)])
    # the reference is rank, since contains_vector is first_outside
    expected = first_outside_by_rank(sub.inclusion(), f)
    assert sub.first_outside(f) == expected
    assert next((c for c in range(f.ncols)
                 if not contains_vector(sub, column(f, c))), None) == expected
    assert sub.first_outside(inside) is None
    assert full(field, A4).first_outside(f) is None


def test_first_outside_needs_the_ambient_codomain():
    with pytest.raises(ShapeError):
        Subspace.zero(QQ, A4).first_outside(LinMap.zero(QQ, A2, C3))


# -- maps acting on tensor legs ------------------------------------------

REDUCIBLE = Field.number_field([-1, 0, 1])  # x^2 - 1: (1 + x)(1 - x) = 0
LEG_FIELDS = {"Q": QQ, "Q(zeta3)": ZETA3, "Q[x]/(x^2-1)": REDUCIBLE}
X2 = SpaceLabel.base("X", 2)
B2 = SpaceLabel.base("B", 2)
K = SpaceLabel.scalar()
# f of shapes k -> X, X -> k, X (x) X -> X, X -> X (x) X, C (x) A -> A (x) C
LEG_SHAPES = {"k->X": (K, X2), "X->k": (X2, K), "XX->X": (X2.tensor(X2), X2),
              "X->XX": (X2, X2.tensor(X2)), "CA->AC": (C3.tensor(A2), A2.tensor(C3))}
# the legs around f: every split of B (x) C into a left and a right part
AROUND = [(SpaceLabel([]), B2.tensor(C3)), (B2, C3), (B2.tensor(C3), SpaceLabel([]))]


def leg_map(field, dom, cod, seed, density=0.4):
    """A seeded map with empty rows, ones, and in the reducible ring the
    zero divisors 1 + x and 1 - x, so some products of nonzeros vanish."""
    rng = random.Random(seed)
    pool = [field.one, field.scalar(2), -field.one,
            field.scalar([1] * field.degree), field.scalar([1, -1][:field.degree])]
    return LinMap(field, dom, cod,
                  [[rng.choice(pool) if rng.random() < density else field.zero
                    for _ in range(dom.dim)] for _ in range(cod.dim)])


def padded(f, left, right):
    """I_left (x) f (x) I_right, the materialised reference."""
    field = f.field
    return kron_all(LinMap.identity(field, left), f, LinMap.identity(field, right))


def stores_no_zero(m):
    return all(v for row in m.rows.values() for v in row.values())


LEG_CASES = [(fname, shape, split)
             for fname in LEG_FIELDS for shape in LEG_SHAPES for split in range(3)]


@pytest.mark.parametrize("fname,shape,split", LEG_CASES)
def test_apply_at_equals_the_padded_composite(fname, shape, split):
    field = LEG_FIELDS[fname]
    dom, cod = LEG_SHAPES[shape]
    left, right = AROUND[split]
    for seed in range(3):
        f = leg_map(field, dom, cod, seed)
        g = leg_map(field, A2, left.tensor(dom).tensor(right), seed + 10)
        got = apply_at(f, g, len(left.factors))
        assert got == padded(f, left, right) @ g
        assert got.domain == g.domain
        assert got.codomain == left.tensor(cod).tensor(right)
        assert stores_no_zero(got)


@pytest.mark.parametrize("fname,shape,split", LEG_CASES)
def test_precompose_at_equals_the_padded_composite(fname, shape, split):
    field = LEG_FIELDS[fname]
    dom, cod = LEG_SHAPES[shape]
    left, right = AROUND[split]
    for seed in range(3):
        f = leg_map(field, dom, cod, seed)
        g = leg_map(field, left.tensor(cod).tensor(right), A2, seed + 20)
        got = precompose_at(g, f, len(left.factors))
        assert got == g @ padded(f, left, right)
        assert got.domain == left.tensor(dom).tensor(right)
        assert stores_no_zero(got)


def test_products_of_zero_divisors_are_dropped():
    """In the reducible ring every product below is (1 + x)(1 - x) = 0,
    so both kernels must return maps that store nothing."""
    field = REDUCIBLE
    zd, zd2 = field.scalar([1, 1]), field.scalar([1, -1])
    f = LinMap(field, X2, X2, [[zd, field.zero], [field.zero, zd]])
    g = LinMap(field, A2, B2.tensor(X2), [[zd2, zd2]] * 4)
    h = LinMap(field, B2.tensor(X2), A2, [[zd2] * 4] * 2)
    assert not g.is_zero() and not h.is_zero()
    assert apply_at(f, g, 1).rows == {}
    assert precompose_at(h, f, 1).rows == {}


@pytest.mark.parametrize("at", [-1, 0, 2, 3])
def test_apply_at_rejects_legs_that_do_not_match(at):
    f = leg_map(QQ, X2, A2, 0)
    g = leg_map(QQ, A2, B2.tensor(X2).tensor(C3), 1)  # X sits at factor 1
    with pytest.raises(ShapeError):
        apply_at(f, g, at)


@pytest.mark.parametrize("at", [-1, 0, 2, 3])
def test_precompose_at_rejects_legs_that_do_not_match(at):
    f = leg_map(QQ, A2, X2, 0)
    g = leg_map(QQ, B2.tensor(X2).tensor(C3), A2, 1)  # X sits at factor 1
    with pytest.raises(ShapeError):
        precompose_at(g, f, at)


def reference_gather(a, b):
    """a o b by the row-by-row gather loop, zeros dropped at the end."""
    rows = {}
    for i, row_a in a.rows.items():
        acc = {}
        for k, aik in row_a.items():
            for j, bkj in b.rows.get(k, {}).items():
                acc[j] = aik * bkj if j not in acc else acc[j] + aik * bkj
        row = {j: v for j, v in acc.items() if v}
        if row:
            rows[i] = row
    return LinMap._from_rows(a.field, b.domain, a.codomain, rows)


@pytest.mark.parametrize("fname", LEG_FIELDS)
@pytest.mark.parametrize("seed", range(6))
def test_compose_equals_the_reference_gather(fname, seed):
    field = LEG_FIELDS[fname]
    a = leg_map(field, C3.tensor(A2), B2.tensor(C3), seed, density=0.6)
    b = leg_map(field, A2.tensor(A2), C3.tensor(A2), seed + 50, density=0.6)
    got = a @ b
    assert got == reference_gather(a, b)
    assert stores_no_zero(got)


@pytest.mark.parametrize("fname", LEG_FIELDS)
def test_compose_legs_folds_from_either_end(fname, monkeypatch):
    """A chain whose domain is narrower than its codomain, and one whose
    domain is wider, equal the product of their padded steps.  A chain
    whose ends have equal dimension folds from a step that spans its
    codomain at position 0, else from its domain."""
    field = LEG_FIELDS[fname]
    split = leg_map(field, X2, X2.tensor(X2), 1)
    merge = leg_map(field, X2.tensor(X2), X2, 2)
    swap = leg_map(field, C3.tensor(X2), X2.tensor(C3), 3)
    swap_back = leg_map(field, X2.tensor(C3), C3.tensor(X2), 4)
    ix, ic = LinMap.identity(field, X2), LinMap.identity(field, C3)
    widening = compose_legs(C3.tensor(X2), (split, 0), (swap, 0), (split, 1))
    assert widening == map_kron(split, map_kron(ic, ix)) @ map_kron(swap, ix) @ \
        map_kron(ic, split)
    narrowing = compose_legs(X2.tensor(X2).tensor(C3).tensor(X2),
                             (merge, 1), (swap_back, 0), (merge, 0))
    assert narrowing == map_kron(ic, merge) @ map_kron(swap_back, ix) @ \
        map_kron(merge, map_kron(ic, ix))
    assert stores_no_zero(widening) and stores_no_zero(narrowing)
    # ends of equal dimension: through a unit step from k, the first
    # step gives the whole codomain, so the fold starts from it and
    # makes one precompose_at; with no such step, it starts from the domain
    unit = leg_map(field, K, X2, 7)
    folds = []

    def counted(kernel):
        real = getattr(linmaps, kernel)

        def call(*args):
            folds.append(kernel)
            return real(*args)
        return call

    for kernel in ("apply_at", "precompose_at"):
        monkeypatch.setattr(linmaps, kernel, counted(kernel))
    ties = [compose_legs(X2, (merge, 0), (unit, 0)),
            compose_legs(X2, (merge, 0), (unit, 1)),
            compose_legs(X2.tensor(X2), (merge, 1), (split, 0))]
    assert folds == ["precompose_at"] * 2 + ["apply_at"] * 2
    monkeypatch.undo()
    assert ties == [merge @ map_kron(unit, ix), merge @ map_kron(ix, unit),
                    map_kron(ix, merge) @ map_kron(split, ix)]
    # a misplaced step raises whichever end the chain is folded from
    with pytest.raises(ShapeError):  # widening: from the domain
        compose_legs(C3.tensor(X2), (split, 0))
    with pytest.raises(ShapeError):
        compose_legs(X2, (split, 2), (split, 0))
    with pytest.raises(ShapeError):  # narrowing: from the codomain
        compose_legs(X2.tensor(X2).tensor(C3), (merge, 1), (swap_back, 1))
    with pytest.raises(ShapeError):
        compose_legs(X2.tensor(X2).tensor(X2), (merge, 1), (merge, 1))
    with pytest.raises(ShapeError):  # ties: from the codomain
        compose_legs(X2, (merge, 0), (unit, 2))
    with pytest.raises(ShapeError):
        compose_legs(X2, (merge, 0), (split, 1))
    with pytest.raises(ShapeError):  # ties: from the domain
        compose_legs(X2.tensor(X2), (merge, 1), (split, 2))


@pytest.mark.parametrize("fname", LEG_FIELDS)
def test_compose_legs_starts_from_a_step_that_spans_its_end(fname):
    """A chain whose first step takes its whole domain (folded by
    apply_at) or gives its whole codomain (folded by precompose_at) at
    position 0 starts from that step's map and still equals the product
    of its padded steps; a misplaced step still raises."""
    field = LEG_FIELDS[fname]
    split = leg_map(field, X2, X2.tensor(X2), 5)
    merge = leg_map(field, X2.tensor(X2), X2, 6)
    ix = LinMap.identity(field, X2)
    assert compose_legs(X2, (split, 1), (split, 0)) == map_kron(ix, split) @ split
    assert compose_legs(X2.tensor(X2).tensor(X2), (merge, 0), (merge, 1)) == \
        merge @ map_kron(ix, merge)
    with pytest.raises(ShapeError):
        compose_legs(X2, (split, 0), (split, 1))
