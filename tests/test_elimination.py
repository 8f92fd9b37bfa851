"""One elimination of [M | target] gives what three used to.

rref_solve returns the particular solution (or the Infeasible
certificate), the rank and the kernel from a single reduction.  Each is
compared with the separate computations on seeded random systems over Q
and over Q(zeta3): M.rank(), kernel_basis(M) and a copy of the solver as
it was when it returned only the particular solution.
"""

import random

import pytest

from strongconn.linmaps import (
    Infeasible,
    LinMap,
    SpaceLabel,
    kernel_basis,
    rref_solve,
)
from strongconn.scalars import Field

FIELDS = {"Q": Field.rationals(), "Q(zeta3)": Field.number_field([1, 1, 1])}


def dense_rref(rows, ncols):
    """The dense Gauss-Jordan elimination the solver used to run on grids
    of Scalars: leftmost pivots, reduced form; returns pivot columns."""
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
