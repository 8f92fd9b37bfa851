"""One elimination of [M | target] gives what three used to.

rref_solve returns the particular solution (or the Infeasible
certificate), the rank and the kernel from a single reduction.  Each is
compared with the separate computations on seeded random systems over Q
and over Q(zeta3): M.rank(), kernel_basis(M) and a copy of the solver as
it was when it returned only the particular solution.

The sparse elimination keeps a column index, so it must agree with the
dense reference here on larger sparse systems too, whose rows are
shuffled so that pivots sit below earlier pivot rows that hold the same
column, and whose dependent rows cancel; over the reducible ring
Q[x]/(x^2 - 1) it must raise NotInvertible in the same cases.  A count
of row lookups shows that it no longer scans rows x columns.  Rows that
read 0 = 0 add no equation, but their positions count: in the reducible
ring they decide where NotInvertible is raised, so a solver that drops
them must keep their places.
"""

import random

import pytest

from strongconn import linmaps
from strongconn.errors import NotInvertible
from strongconn.linmaps import (
    Infeasible,
    LinMap,
    SpaceLabel,
    Subspace,
    _rref_inplace,
    kernel_basis,
    rref_solve,
    stacked_kernel,
    try_inverse,
)
from strongconn.scalars import Field

FIELDS = {"Q": Field.rationals(), "Q(zeta3)": Field.number_field([1, 1, 1])}


def dense_rref(rows, ncols, kinds=None):
    """The dense Gauss-Jordan elimination the solver used to run on grids
    of Scalars: leftmost pivots, reduced form; returns pivot columns.
    A set given as kinds collects "pivot-below-holder" (the pivot row
    is not the current row and an earlier pivot row holds the column)
    and "cancels" (a row update cancels an entry besides the pivot's)."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if kinds is not None and pr > r and any(rows[i][c] for i in range(r)):
            kinds.add("pivot-below-holder")
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                new = [a - f * b for a, b in zip(rows[i], rows[r])]
                if kinds is not None and any(
                        rows[i][j] and rows[r][j] and not new[j]
                        for j in range(len(new)) if j != c):
                    kinds.add("cancels")
                rows[i] = new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_alone(M, target):
    """The solver before it also returned the rank and the kernel."""
    n, t = M.ncols, target.ncols
    rows = [list(mr) + list(tr) for mr, tr in zip(M.entries, target.entries)]
    pivots = dense_rref(rows, n + t)
    for i, p in enumerate(pivots):
        if p >= n:
            return Infeasible(row=i, column=p - n,
                              detail="echelon row reduces to 0 = nonzero")
    z = M.field.zero
    xs = [[z] * t for _ in range(n)]
    for i, p in enumerate(pivots):
        for j in range(t):
            xs[p][j] = rows[i][n + j]
    return LinMap(M.field, target.domain, M.domain, xs)


def random_scalar(field, rng):
    if rng.random() < 0.4:
        return field.zero
    return field.scalar([rng.randint(-3, 3) for _ in range(field.degree)])


def random_map(field, rng, dom, cod):
    return LinMap(field, dom, cod, [[random_scalar(field, rng)
                                     for _ in range(dom.dim)]
                                    for _ in range(cod.dim)])


def random_system(field, seed):
    """M (m x n), possibly rank-deficient, and t target columns; targets
    are in the image of M for even seeds and random otherwise."""
    rng = random.Random(seed)
    m, n, t = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 3)
    dom, cod = SpaceLabel.base("X", n), SpaceLabel.base("Y", m)
    inner = rng.randint(1, min(m, n))
    if rng.random() < 0.5:  # rank at most inner
        mid = SpaceLabel.base("K", inner)
        M = random_map(field, rng, mid, cod) @ random_map(field, rng, dom, mid)
    else:
        M = random_map(field, rng, dom, cod)
    tdom = SpaceLabel.base("T", t)
    if seed % 2 == 0:
        target = M @ random_map(field, rng, tdom, dom)
    else:
        target = random_map(field, rng, tdom, cod)
    return M, target


SYSTEMS = [(name, seed) for name in FIELDS for seed in range(60)]


@pytest.mark.parametrize("name,seed", SYSTEMS)
def test_one_elimination_equals_three(name, seed):
    M, target = random_system(FIELDS[name], seed)
    sol = rref_solve(M, target)
    old = solve_alone(M, target)
    if isinstance(old, Infeasible):
        assert sol.particular == old
    else:
        assert not isinstance(sol.particular, Infeasible)
        assert sol.particular == old
        assert M @ sol.particular == target
    assert sol.rank == M.rank()
    assert sol.kernel == kernel_basis(M)
    assert sol.rank + sol.kernel.dim == M.ncols
    # a kernel read off the solver is the form a span is reduced to
    assert Subspace.from_vectors(M.field, M.domain, sol.kernel.basis) == sol.kernel


@pytest.mark.parametrize("name,seed", SYSTEMS[::6])
def test_each_solver_call_runs_one_elimination(name, seed, monkeypatch):
    real, calls = linmaps._rref_inplace, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linmaps, "_rref_inplace", counted)
    M, target = random_system(FIELDS[name], seed)
    rng = random.Random(seed)
    other = random_map(M.field, rng, M.domain, M.codomain)
    square = random_map(M.field, rng, M.codomain, M.domain) @ M
    for call in (lambda: rref_solve(M, target), lambda: kernel_basis(M),
                 lambda: stacked_kernel([M, other]),
                 lambda: try_inverse(square), lambda: M.rank()):
        calls.clear()
        call()
        assert len(calls) == 1


def test_cases_cover_every_kind():
    """The seeded systems include feasible and infeasible ones, several
    target columns, and rank-deficient matrices, over both fields."""
    for name, field in FIELDS.items():
        kinds = set()
        for seed in range(60):
            M, target = random_system(field, seed)
            sol = rref_solve(M, target)
            kinds.add("infeasible" if isinstance(sol.particular, Infeasible)
                      else "feasible")
            if isinstance(sol.particular, Infeasible) and target.ncols > 1:
                kinds.add("infeasible-multi")
            if sol.rank < min(M.nrows, M.ncols):
                kinds.add("rank-deficient")
            if isinstance(sol.particular, Infeasible) and sol.particular.column:
                kinds.add("infeasible-later-column")
        assert kinds == {"feasible", "infeasible", "infeasible-multi",
                         "rank-deficient", "infeasible-later-column"}, name


# -- sparse systems at scale --------------------------------------------

REDUCIBLE = Field.number_field([-1, 0, 1])  # (1 + x)(1 - x) = 0
SCALE_FIELDS = dict(FIELDS, **{"Q[x]/(x^2-1)": REDUCIBLE})
ZERO_DIVISORS = ([1, 1], [1, -1], [-2, -2], [3, -3])


def outcome(fn, *args):
    """fn(*args), or the name of the NotInvertible it raised."""
    try:
        return fn(*args)
    except NotInvertible:
        return "NotInvertible"


def nonzero_scalar(field, rng, zero_divisors):
    """A nonzero entry; in the reducible ring a zero divisor with
    probability zero_divisors."""
    if field is REDUCIBLE and rng.random() < zero_divisors:
        return field.scalar(rng.choice(ZERO_DIVISORS))
    while True:
        s = field.scalar([rng.randint(-3, 3) for _ in range(field.degree)])
        if s and outcome(s.inv) != "NotInvertible":
            return s


def sparse_grid(field, rng, m, n, density, zero_divisors):
    return [[nonzero_scalar(field, rng, zero_divisors) if rng.random() < density
             else field.zero for _ in range(n)] for _ in range(m)]


def sparse_system(field, seed):
    """M (30-60 rows and columns, 5-15 % nonzero) and 1-3 target
    columns.  Some rows are sums of multiples of two others, so entries
    cancel and M is rank-deficient; the rows are then shuffled.  Targets
    are in the image of M for even seeds and random otherwise."""
    rng = random.Random(seed)
    m, n, t = rng.randint(30, 60), rng.randint(30, 60), rng.randint(1, 3)
    density = rng.uniform(0.05, 0.15)
    zero_divisors = rng.choice((0.0, 0.02, 0.1))
    rows = sparse_grid(field, rng, m, n, density, zero_divisors)
    for _ in range(rng.randint(1, m // 5)):
        i, j, k = rng.sample(range(m), 3)
        a = nonzero_scalar(field, rng, zero_divisors)
        b = nonzero_scalar(field, rng, zero_divisors)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    rng.shuffle(rows)
    dom, cod = SpaceLabel.base("X", n), SpaceLabel.base("Y", m)
    M = LinMap(field, dom, cod, rows)
    tdom = SpaceLabel.base("T", t)
    if seed % 2 == 0:
        target = M @ LinMap(field, tdom, dom,
                            sparse_grid(field, rng, n, t, 0.3, zero_divisors))
    else:
        target = LinMap(field, tdom, cod,
                        sparse_grid(field, rng, m, t, 0.1, zero_divisors))
    return M, target


def dense_kernel(M):
    """The basis of ker M read off its dense reduced form, one vector per
    free column: the reduced basis with pivots at the right."""
    n, field = M.ncols, M.field
    rows = [list(r) for r in M.entries]
    pivots = dense_rref(rows, n)
    vecs = []
    for f in range(n):
        if f not in pivots:
            v = [field.zero] * n
            v[f] = field.one
            for row, p in zip(rows, pivots):
                v[p] = -row[f]
            vecs.append(tuple(v))
    return tuple(vecs)


SCALE_SYSTEMS = [(name, seed) for name in SCALE_FIELDS for seed in range(6)]


@pytest.mark.parametrize("name,seed", SCALE_SYSTEMS)
def test_sparse_elimination_matches_dense_at_scale(name, seed):
    M, target = sparse_system(SCALE_FIELDS[name], seed)
    # step for step: the same pivots and rows, also where NotInvertible
    # stops both eliminations
    n, zero = M.ncols + target.ncols, M.field.zero
    dense = [list(a) + list(b) for a, b in zip(M.entries, target.entries)]
    sparse = [{j: x for j, x in enumerate(row) if x} for row in dense]
    assert outcome(_rref_inplace, sparse, n) == outcome(dense_rref, dense, n)
    assert [[row.get(j, zero) for j in range(n)] for row in sparse] == dense
    sol = outcome(rref_solve, M, target)
    old = outcome(solve_alone, M, target)
    if old == "NotInvertible":
        assert sol == old
    else:
        assert sol.particular == old
    rank = outcome(M.rank)
    assert rank == outcome(lambda: len(dense_rref([list(r) for r in M.entries],
                                                  M.ncols)))
    kernel, want = outcome(kernel_basis, M), outcome(dense_kernel, M)
    assert kernel == want if want == "NotInvertible" else kernel.basis == want
    if want != "NotInvertible":
        assert Subspace.from_vectors(M.field, M.domain, kernel.basis) == kernel
    if sol != "NotInvertible":
        assert (sol.rank, sol.kernel) == (rank, kernel)


def test_scale_cases_cover_every_kind():
    """The systems above are feasible and infeasible, rank-deficient,
    have pivots found below earlier rows that hold their column and
    entries that cancel, and in the reducible ring both raise and
    finish."""
    kinds = set()
    for name, seed in SCALE_SYSTEMS:
        field = SCALE_FIELDS[name]
        M, target = sparse_system(field, seed)
        rows = [list(a) + list(b) for a, b in zip(M.entries, target.entries)]
        try:
            pivots = dense_rref(rows, M.ncols + target.ncols, kinds)
        except NotInvertible:
            kinds.add("NotInvertible")
            continue
        if field is REDUCIBLE:
            kinds.add("reducible-finishes")
        rank = sum(1 for p in pivots if p < M.ncols)
        kinds.add("infeasible" if rank < len(pivots) else "feasible")
        if rank < min(M.nrows, M.ncols):
            kinds.add("rank-deficient")
    assert kinds == {"feasible", "infeasible", "rank-deficient", "NotInvertible",
                     "reducible-finishes", "pivot-below-holder", "cancels"}


# -- no rows x columns scan ---------------------------------------------


class CountingRow(dict):
    """A sparse row that counts its key lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_elimination_makes_no_rows_by_columns_scan():
    """1500 shuffled rows of at most 3 nonzeros, in 500 blocks of 3
    columns.  A scan of every row for every column makes about
    rows x columns = 2.25M lookups; the elimination must stay within a
    small multiple of the nonzero count, and give each block's rank."""
    field = Field.rationals()
    rng = random.Random(5)
    values = [field.scalar(v) for v in (1, -1, 2, -3)]
    blocks, rows = 500, []
    for b in range(blocks):
        for _ in range(3):
            cols = rng.sample(range(3 * b, 3 * b + 3), rng.randint(1, 3))
            rows.append({c: rng.choice(values) for c in cols})
    rng.shuffle(rows)
    by_block = {}
    for row in rows:
        by_block.setdefault(min(row) // 3, []).append(row)
    want = sum(len(dense_rref([[row.get(c, field.zero) for c in range(3 * b, 3 * b + 3)]
                               for row in group], 3))
               for b, group in by_block.items())
    nnz = sum(len(row) for row in rows)
    counted = [CountingRow(row) for row in rows]
    pivots = _rref_inplace(list(counted), 3 * blocks)
    assert len(pivots) == want
    assert sum(row.lookups for row in counted) < 20 * nnz


# -- rows that read 0 = 0 ------------------------------------------------


def with_empty_rows(M, target, seed):
    """M and target with empty rows inserted at seeded positions, in both."""
    rng = random.Random(seed)
    m_rows = [M.rows.get(r, {}) for r in range(M.nrows)]
    t_rows = [target.rows.get(r, {}) for r in range(M.nrows)]
    for _ in range(rng.randint(1, M.nrows)):
        i = rng.randint(0, len(m_rows))
        m_rows.insert(i, {})
        t_rows.insert(i, {})
    cod = SpaceLabel.base("Y", len(m_rows))
    return (LinMap._from_rows(M.field, M.domain, cod, stored(m_rows)),
            LinMap._from_rows(M.field, target.domain, cod, stored(t_rows)))


def stored(rows):
    """The dict rows of a map from its rows at positions 0..n-1."""
    return {r: dict(row) for r, row in enumerate(rows) if row}


@pytest.mark.parametrize("name,seed", SCALE_SYSTEMS)
def test_empty_rows_change_nothing(name, seed):
    """With rows that read 0 = 0 interleaved, rref_solve's outcome is
    the dense elimination's on every row, empty ones included, also
    where NotInvertible stops it.  Over a field that is the Solution of
    the system without the empty rows."""
    field = SCALE_FIELDS[name]
    M, target = sparse_system(field, seed)
    Me, te = with_empty_rows(M, target, seed)
    sol = outcome(rref_solve, Me, te)
    old = outcome(solve_alone, Me, te)
    if old == "NotInvertible":
        assert sol == old
    else:
        assert sol.particular == old
    if field is not REDUCIBLE:
        assert sol == rref_solve(M, target)


def test_empty_row_cases_cover_every_kind():
    kinds = set()
    for name, seed in SCALE_SYSTEMS:
        Me, te = with_empty_rows(*sparse_system(SCALE_FIELDS[name], seed), seed)
        sol = outcome(rref_solve, Me, te)
        if sol == "NotInvertible":
            kinds.add("NotInvertible")
        else:
            kinds.add("infeasible" if isinstance(sol.particular, Infeasible)
                      else "feasible")
    assert kinds == {"feasible", "infeasible", "NotInvertible"}


def test_empty_row_positions_decide_the_pivot_in_a_reducible_ring():
    """Why empty rows must keep their positions.  Eliminating column 0 swaps
    the pivot row up with the row in its place.  With an empty row in
    front, x stays ahead of z and its zero divisor 1 + x becomes the
    pivot of column 1; with the empty row dropped, x is swapped behind z
    and z's unit pivot is used."""
    f = REDUCIBLE
    e, zd = f.one, f.scalar([1, 1])
    x, z, p = {1: zd}, {1: e}, {0: e}
    dom, t = SpaceLabel.base("X", 2), SpaceLabel.scalar()

    def system(rows):
        cod = SpaceLabel.base("Y", len(rows))
        return (LinMap._from_rows(f, dom, cod, stored(rows)),
                LinMap._from_rows(f, t, cod, {}))

    with_empty, without = system([{}, x, z, p]), system([x, z, p])
    assert outcome(rref_solve, *with_empty) == "NotInvertible"
    assert outcome(solve_alone, *with_empty) == "NotInvertible"
    assert outcome(rref_solve, *without).rank == 2
    assert outcome(solve_alone, *without) == rref_solve(*without).particular

