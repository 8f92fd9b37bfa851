"""The boundary of the sparse rows: LinMap.items() and LinMap.from_items.

Only linmaps reads or writes a map's rows; every other module reads a
map's nonzeros as ((r, c), value) pairs and builds a map from such
pairs.  The two are inverses, from_items stores the canonical rows, and
report.first_column_mismatch, which reads lhs - rhs through items(),
names the same column as a dense scan of the two grids.
"""

import random

import pytest

from strongconn.linmaps import LinMap, SpaceLabel, Subspace
from strongconn.report import first_column_mismatch
from test_empty_row import KERNELS, operands
from test_sparse_core import FIELDS, SEEDS, assert_canonical, random_grid, random_scalar


def maps_in(out):
    """Every LinMap in a kernel's result, tuples (a Solution among them)
    walked; a subspace contributes its inclusion."""
    if isinstance(out, LinMap):
        yield out
    elif isinstance(out, Subspace):
        yield out.inclusion()
    elif isinstance(out, tuple):
        for part in out:
            yield from maps_in(part)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_from_items_inverts_items(name):
    ops = operands()
    for m in list(maps_in(KERNELS[name](ops))) + list(maps_in(tuple(ops.values()))):
        back = LinMap.from_items(m.field, m.domain, m.codomain, m.items())
        assert back == m and hash(back) == hash(m)
        assert_canonical(back)
        assert dict(m.items()) == {(r, c): v for r, row in enumerate(m.entries)
                                   for c, v in enumerate(row) if v}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_from_items_drops_the_shared_zero_and_stores_no_empty_row(name):
    field = FIELDS[name]
    X, Y = SpaceLabel.base("X", 2), SpaceLabel.base("Y", 3)
    two = field.scalar(2)
    m = LinMap.from_items(field, X, Y, [((0, 0), field.zero), ((1, 0), two),
                                        ((1, 1), field.zero), ((2, 1), field.zero)])
    assert_canonical(m)
    assert m.rows == {1: {0: two}}
    assert m == LinMap(field, X, Y, [[0, 0], [2, 0], [0, 0]])
    assert LinMap.from_items(field, X, Y, [((2, 1), field.zero)]).rows == {}


def dense_first_mismatch(a, b):
    """The first column in which the dense grids of a and b differ, or
    None."""
    return min((c for ra, rb in zip(a.entries, b.entries)
                for c, (x, y) in enumerate(zip(ra, rb)) if x != y), default=None)


def mutated(grid, r, c, value):
    out = [list(row) for row in grid]
    out[r][c] = value
    return out


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_first_column_mismatch_matches_a_dense_scan(name, seed):
    """Seeded one-entry changes of a grid, each alone and each on top of
    those before it: the only nonzero of a row to zero, so that the
    changed map stores no row there, then entries to zero or to another
    value.  Over Q[x]/(x^2-1) the grids hold zero divisors."""
    field = FIELDS[name]
    rng = random.Random(f"first mismatch {name} {seed}")
    X, Y = SpaceLabel.base("X", 2), SpaceLabel.base("Y", 3)
    dom = X.tensor(X)
    grid = random_grid(field, rng, Y.dim, dom.dim)
    lone = rng.randrange(Y.dim)
    grid[lone] = [field.zero] * dom.dim
    grid[lone][rng.randrange(dom.dim)] = random_scalar(field, rng) or field.one
    m = LinMap(field, dom, Y, grid)
    assert first_column_mismatch(m, m) is None
    changes = [(lone, next(c for c, v in enumerate(grid[lone]) if v), field.zero)]
    changes += [(rng.randrange(Y.dim), rng.randrange(dom.dim),
                 field.zero if rng.random() < 0.3 else random_scalar(field, rng))
                for _ in range(3)]
    assert lone not in LinMap(field, dom, Y, mutated(grid, *changes[0])).rows
    stacked = grid
    for change in changes:
        stacked = mutated(stacked, *change)
        for changed in (mutated(grid, *change), stacked):
            changed = LinMap(field, dom, Y, changed)
            for lhs, rhs in ((m, changed), (changed, m)):
                want = dense_first_mismatch(lhs, rhs)
                assert first_column_mismatch(lhs, rhs) == (
                    None if want is None else {"basis": list(dom.unflatten(want)), "column": want})
