"""The sparse LinMap core agrees with a dense reference.

Maps store only their nonzero coefficients.  Every operation is checked
on seeded random maps against a small dense implementation kept in this
file (lists of lists of Scalars, zeros included), over Q, over Q(zeta3)
and over the reducible ring Q[x]/(x^2 - 1), where (1 + x)(1 - x) = 0, so
products of nonzeros can vanish and pivots can be zero divisors.
"""

import random
import tracemalloc

import pytest

from strongconn.errors import NotInvertible
from strongconn.linmaps import (
    Infeasible,
    LinMap,
    SpaceLabel,
    Subspace,
    _accumulate,
    apply_at,
    kernel_basis,
    map_kron,
    map_vectorize,
    precompose_at,
    rref_solve,
)
from strongconn.scalars import Field

FIELDS = {
    "Q": Field.rationals(),
    "Q(zeta3)": Field.number_field([1, 1, 1]),
    "Q[x]/(x^2-1)": Field.number_field([-1, 0, 1]),
}
SEEDS = range(12)


# -- the dense reference ------------------------------------------------


def d_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def d_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def d_scale(s, a):
    return [[s * x for x in row] for row in a]


def d_mul(a, b, zero):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0]) if b else 0):
            acc = zero
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def d_kron(f, g):
    return [[f[i][k] * g[j][l] for k in range(len(f[0])) for l in range(len(g[0]))]
            for i in range(len(f)) for j in range(len(g))]


def d_rref(rows, ncols):
    """Dense Gauss-Jordan elimination, leftmost pivots; returns pivots."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def d_kernel(field, rows, pivots, n):
    """One vector per free column, read off the reduced rows: already
    the reduced basis with pivots at the right that a Subspace keeps."""
    vecs = []
    for f in range(n):
        if f in pivots:
            continue
        v = [field.zero] * n
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        vecs.append(tuple(v))
    return vecs


def d_solve(field, m, t):
    """(particular grid or Infeasible, rank, kernel basis) of [m | t]."""
    n = len(m[0])
    rows = [list(a) + list(b) for a, b in zip(m, t)]
    pivots = d_rref(rows, n + len(t[0]))
    rank = sum(1 for p in pivots if p < n)
    kernel = d_kernel(field, rows, pivots[:rank], n)
    if rank < len(pivots):
        return Infeasible(row=rank, column=pivots[rank] - n,
                          detail="echelon row reduces to 0 = nonzero"), rank, kernel
    xs = [[field.zero] * len(t[0]) for _ in range(n)]
    for i, p in enumerate(pivots):
        xs[p] = rows[i][n:]
    return xs, rank, kernel


# -- seeded inputs ----------------------------------------------------


def random_scalar(field, rng):
    if rng.random() < 0.5:
        return field.zero
    if field.min_poly == (-1, 0, 1) and rng.random() < 0.6:
        # zero divisors: (1 + x)(1 - x) = 0
        return field.scalar(rng.choice([[1, 1], [1, -1], [-2, -2], [3, -3]]))
    return field.scalar([rng.randint(-3, 3) for _ in range(field.degree)])


def random_grid(field, rng, m, n):
    return [[random_scalar(field, rng) for _ in range(n)] for _ in range(m)]


def space(name, dim):
    return SpaceLabel.base(name, dim)


def grid(lm):
    return [list(r) for r in lm.entries]


def outcome(fn, *args):
    """fn(*args), or the name of the NotInvertible it raised."""
    try:
        return fn(*args)
    except NotInvertible:
        return "NotInvertible"


def assert_canonical(lm):
    """No zero and no empty row is stored, and every row and column
    index is in range."""
    for r, row in lm.rows.items():
        assert 0 <= r < lm.nrows
        assert row and all(row.values())
        assert all(0 <= c < lm.ncols for c in row)


def d_identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def signed_grid(field, rng, m, n):
    """An m x n grid of the singletons one and minus one, no zeros."""
    return [[rng.choice([field.one, field.minus_one]) for _ in range(n)]
            for _ in range(m)]


# -- the signed branches: a factor that is +-1 adds or subtracts -------


@pytest.mark.parametrize("kind", ["one", "minus_one", "other"])
@pytest.mark.parametrize("name", FIELDS)
def test_accumulate_matches_dense(name, kind):
    """acc += f * row for f = 1, -1 and other values, with entries that
    cancel; no zero is left in acc."""
    field = FIELDS[name]
    rng = random.Random(f"accumulate {name} {kind}")
    n = 8
    cancelled = 0
    for _ in range(40):
        f = {"one": field.one, "minus_one": field.minus_one,
             "other": random_scalar(field, rng)}[kind]
        row = [random_scalar(field, rng) for _ in range(n)]
        # acc cancels f * row at some positions, holds +-1 or others elsewhere
        acc = [-(f * b) if rng.random() < 0.4 else
               rng.choice([field.one, field.minus_one, random_scalar(field, rng)])
               for b in row]
        want = [a + f * b for a, b in zip(acc, row)]
        sparse_acc = {j: a for j, a in enumerate(acc) if a}
        sparse_row = {j: b for j, b in enumerate(row) if b}
        got = _accumulate(sparse_acc, sparse_row, f)
        assert got is sparse_acc
        assert [got.get(j, field.zero) for j in range(n)] == want
        assert all(v and v is not field.zero for v in got.values())
        if f is field.one:  # an entry new to acc is row's own object
            assert all(got[j] is b for j, b in sparse_row.items() if not acc[j])
        cancelled += sum(1 for a, b in zip(acc, row) if a and b and not a + f * b)
    assert cancelled


LEG_SHAPES = [(1, 2, 2, 1), (2, 2, 3, 1), (1, 3, 2, 2), (2, 2, 2, 2)]


@pytest.mark.parametrize("name", FIELDS)
def test_legs_on_signed_maps_match_dense(name):
    """apply_at and precompose_at on maps whose entries are all +-1,
    so that sums cancel, against the dense padded composite."""
    field = FIELDS[name]
    rng = random.Random(f"signed legs {name}")
    cancelled = 0
    for seed in SEEDS:
        lft, dy, dz, rgt = LEG_SHAPES[seed % len(LEG_SHAPES)]
        n = rng.randint(1, 3)
        L, R = space("L", lft), space("R", rgt)
        Y, Z, N = space("Y", dy), space("Z", dz), space("N", n)
        f = signed_grid(field, rng, dz, dy)
        F = LinMap(field, Y, Z, f)
        pad = d_kron(d_kron(d_identity(field, lft), f), d_identity(field, rgt))
        g = signed_grid(field, rng, lft * dy * rgt, n)
        G = LinMap(field, N, L.tensor(Y).tensor(R), g)
        h = signed_grid(field, rng, n, lft * dz * rgt)
        H = LinMap(field, L.tensor(Z).tensor(R), N, h)
        for sparse, dense in ((apply_at(F, G, 1), d_mul(pad, g, field.zero)),
                              (precompose_at(H, F, 1), d_mul(h, pad, field.zero))):
            assert_canonical(sparse)
            assert all(v is not field.zero for row in sparse.rows.values()
                       for v in row.values())
            assert grid(sparse) == dense
            cancelled += sum(1 for row in dense for x in row if not x)
    assert cancelled


CASES = [(name, seed) for name in FIELDS for seed in SEEDS]


@pytest.mark.parametrize("name,seed", CASES)
def test_arithmetic_matches_dense(name, seed):
    field = FIELDS[name]
    rng = random.Random(seed)
    m, n, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    X, Y, Z = space("X", n), space("Y", m), space("Z", p)
    a, b, h = random_grid(field, rng, m, n), random_grid(field, rng, n, p), \
        random_grid(field, rng, m, n)
    A, B, H = LinMap(field, X, Y, a), LinMap(field, Z, X, b), LinMap(field, X, Y, h)
    s = random_scalar(field, rng)
    results = {
        "compose": (A @ B, d_mul(a, b, field.zero)),
        "kron": (map_kron(A, H), d_kron(a, h)),
        "add": (A + H, d_add(a, h)),
        "sub": (A - H, d_sub(a, h)),
        "neg": (-A, d_scale(-field.one, a)),
        "scale": (A.scale(s), d_scale(s, a)),
    }
    for op, (sparse, dense) in results.items():
        assert_canonical(sparse)
        assert grid(sparse) == dense, op
        rebuilt = LinMap(field, sparse.domain, sparse.codomain, dense)
        assert sparse == rebuilt and hash(sparse) == hash(rebuilt), op
        assert sparse.is_zero() == (not any(x for row in dense for x in row)), op
    for c in range(n):
        assert A.column(c) == tuple(row[c] for row in a)
    assert map_vectorize(A) == tuple(a[r][c] for c in range(n) for r in range(m))
    assert (A == H) == (a == h)


@pytest.mark.parametrize("name,seed", CASES)
def test_solvers_match_dense(name, seed):
    field = FIELDS[name]
    rng = random.Random(1000 + seed)
    m, n, t = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
    X, Y, T = space("X", n), space("Y", m), space("T", t)
    mg = random_grid(field, rng, m, n)
    M = LinMap(field, X, Y, mg)
    if seed % 2 == 0:  # a target in the image of M
        tg = d_mul(mg, random_grid(field, rng, n, t), field.zero)
    else:
        tg = random_grid(field, rng, m, t)
    got = outcome(rref_solve, M, LinMap(field, T, Y, tg))
    want = outcome(d_solve, field, mg, tg)
    if want == "NotInvertible":
        assert got == want
        return
    particular, rank, kernel = want
    assert got.rank == rank
    assert got.kernel.basis == tuple(kernel)
    # a kernel read off the solver is the form a span is reduced to
    assert Subspace.from_vectors(field, X, got.kernel.basis) == got.kernel
    if isinstance(particular, Infeasible):
        assert got.particular == particular
    else:
        assert grid(got.particular) == particular
        assert_canonical(got.particular)
    assert outcome(kernel_basis, M).basis == tuple(kernel)
    assert M.rank() == rank


def test_cases_cover_zero_divisors():
    """The reducible ring's cases do cancel products and hit
    zero-divisor pivots, so the checks above see both."""
    field = FIELDS["Q[x]/(x^2-1)"]
    cancelled = raised = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        m, n, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = random_grid(field, rng, m, n), random_grid(field, rng, n, p)
        cancelled += any(x and y and not x * y
                         for row in a for x in row for brow in b for y in brow)
        rng = random.Random(1000 + seed)
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rng.randint(1, 3)  # t: the same draws as test_solvers_match_dense
        raised += outcome(d_rref, random_grid(field, rng, m, n), n) == "NotInvertible"
    assert cancelled and raised


@pytest.mark.parametrize("name", FIELDS)
def test_cancelled_maps_equal_and_hash_like_dense(name):
    field = FIELDS[name]
    rng = random.Random(7)
    X, Y = space("X", 3), space("Y", 4)
    A = LinMap(field, X, Y, random_grid(field, rng, 4, 3))
    H = LinMap(field, X, Y, random_grid(field, rng, 4, 3))
    dense_a = LinMap(field, X, Y, grid(A))
    zero = LinMap(field, X, Y, [[field.zero] * 3 for _ in range(4)])
    for built in (A + H - H, H + A - H, -(-A), A.scale(field.one)):
        assert built == dense_a and hash(built) == hash(dense_a)
    for built in (A - A, A + (-A), A.scale(field.zero), LinMap.zero(field, X, Y)):
        assert built == zero and hash(built) == hash(zero)
        assert built.is_zero() and not built.rows


def test_zero_divisor_products_are_not_stored():
    field = FIELDS["Q[x]/(x^2-1)"]
    u, v = field.scalar([1, 1]), field.scalar([1, -1])
    assert u and v and not u * v
    K = space("K", 1)
    U, V = LinMap(field, K, K, [[u]]), LinMap(field, K, K, [[v]])
    K2 = K.tensor(K)
    zero = LinMap(field, K, K, [[field.zero]])
    for built in (U @ V, U.scale(v)):
        assert built == zero and hash(built) == hash(zero) and built.rows == {}
    kron = map_kron(U, V)
    dense = LinMap(field, K2, K2, [[field.zero]])
    assert kron == dense and hash(kron) == hash(dense) and kron.rows == {}


@pytest.mark.parametrize("rows", [{0: {}}, {3: {0: 1}}, {-1: {0: 1}}],
                         ids=["empty row", "row past the end", "negative row"])
def test_assert_canonical_sees_a_row_no_map_may_store(rows):
    field = FIELDS["Q"]
    rows = {r: {c: field.scalar(v) for c, v in row.items()} for r, row in rows.items()}
    with pytest.raises(AssertionError):
        assert_canonical(LinMap._from_rows(field, space("X", 2), space("Y", 3), rows))


def test_entries_view_round_trips():
    field = FIELDS["Q(zeta3)"]
    rng = random.Random(3)
    g = random_grid(field, rng, 3, 5)
    A = LinMap(field, space("X", 5), space("Y", 3), g)
    assert A.entries == tuple(tuple(r) for r in g)
    assert LinMap(field, A.domain, A.codomain, A.entries) == A


def test_kron_compose_of_large_identities_stays_small():
    """I_64 (x) I_64 composed with itself: 16.7M cells if dense."""
    field = FIELDS["Q"]
    eye = LinMap.identity(field, space("X", 64))
    tracemalloc.start()
    try:
        kron = map_kron(eye, eye)
        square = kron @ kron
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert square == kron == LinMap.identity(field, kron.domain)
    assert peak < 8 * 2**20
