"""A row that no step writes is the shared read-only EMPTY.

The kernels skip empty rows and make a row's dict only on its first
write, so a wide sparse map allocates only the rows that hold a nonzero.
EMPTY refuses every write, survives pickle and copy as itself, and keeps
validate_hopf on a wide group algebra within a small memory bound.
"""

import copy
import pickle
import tracemalloc

import pytest

from strongconn.connection import connection_conditions, linear_system
from strongconn.fileformat import parse_tensor
from strongconn.instances import build_graded_extension, cyclic_group_hopf
from strongconn.linmaps import (
    EMPTY,
    LinMap,
    SpaceLabel,
    apply_at,
    basis_vector,
    map_from_vector,
    map_kron,
    map_vectorize,
    precompose_at,
    rref_solve,
    vector,
)
from strongconn.scalars import Field
from strongconn.structures import validate_hopf

Q = Field.rationals()
MUTATIONS = {
    "setitem": lambda r: r.__setitem__(0, Q.one),
    "delitem": lambda r: r.__delitem__(0),
    "update": lambda r: r.update({0: Q.one}),
    "pop": lambda r: r.pop(0),
    "popitem": lambda r: r.popitem(),
    "setdefault": lambda r: r.setdefault(0, Q.one),
    "clear": lambda r: r.clear(),
    "ior": lambda r: r.__ior__({0: Q.one}),
    "init": lambda r: r.__init__({0: Q.one}),
}


def lazy(m: LinMap) -> bool:
    """Every row of m that holds no nonzero is EMPTY, and no other is."""
    return sum(r is not EMPTY for r in m.rows) == sum(1 for r in m.rows if r)


@pytest.fixture(scope="module")
def kz6():
    return cyclic_group_hopf(6, Q)


@pytest.fixture(scope="module")
def into_a3(kz6):
    """(comul (x) I) o comul: A -> A (x) A (x) A, 6 nonzeros in 216 rows."""
    comul = kz6.coalgebra.comul
    return apply_at(comul, comul, 0)


def test_empty_is_an_empty_false_dict_equal_to_a_fresh_one():
    assert isinstance(EMPTY, dict)
    assert EMPTY == {} and not EMPTY and len(EMPTY) == 0
    assert dict(EMPTY) == {} and type(dict(EMPTY)) is dict


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_mutation_of_empty_raises(name):
    with pytest.raises(TypeError):
        MUTATIONS[name](EMPTY)
    assert EMPTY == {}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_zero_maps_rows_refuse_writes(name):
    z = LinMap.zero(Q, SpaceLabel.base("A", 2), SpaceLabel.base("B", 3))
    for row in z.rows:
        with pytest.raises(TypeError):
            MUTATIONS[name](row)
    assert z.is_zero()


def test_kernels_leave_unwritten_rows_empty(kz6, into_a3):
    comul = kz6.coalgebra.comul
    assert lazy(comul) and sum(1 for r in comul.rows if r) == 6  # from_rules
    assert lazy(into_a3) and sum(1 for r in into_a3.rows if r) == 6
    wide = apply_at(comul, into_a3, 2)
    assert wide.nrows == 6 ** 4 and lazy(wide)
    assert sum(1 for r in wide.rows if r) == 6
    mul = kz6.algebra.mul
    pre = precompose_at(wide, mul, 0)
    assert pre.domain.dim == 36 and lazy(pre)
    assert pre == wide @ mul
    kron = map_kron(comul, into_a3)
    assert kron.nrows == 36 * 216 and lazy(kron)
    assert sum(1 for r in kron.rows if r) == 36


def test_sums_negations_and_constructors_leave_empty_rows_empty(kz6, into_a3):
    comul, antipode = kz6.coalgebra.comul, kz6.antipode
    for m in (comul + comul, comul - comul.scale(Q.scalar(2)), -comul,
              comul.scale(Q.scalar(3)), LinMap.zero(Q, comul.domain, comul.codomain),
              LinMap(Q, comul.domain, comul.codomain, comul.entries),
              vector(Q, comul.codomain,
                     map_vectorize(comul @ basis_vector(Q, comul.domain, 2))),
              basis_vector(Q, into_a3.codomain, 7),
              map_from_vector(Q, antipode.domain, antipode.codomain,
                              map_vectorize(antipode))):
        assert lazy(m)


def test_linear_system_gives_rows_no_term_reaches_as_empty():
    """A row where lhs and rhs cancel may stay a private {}; most of
    the system's empty rows are reached by no term at all."""
    ext = build_graded_extension(3, 2, Q)
    a2 = ext.algebra.space.tensor(ext.algebra.space)
    system, target = linear_system(Q, ext.coalgebra.space, a2,
                                   connection_conditions(ext))
    unreached = sum(1 for r in system.rows if r is EMPTY)
    assert 0 < unreached <= sum(1 for r in system.rows if not r)
    assert lazy(target)
    sol = rref_solve(system, target)
    X = sol.particular
    assert system @ X == target
    # a free variable's row is never written
    assert sum(1 for r in X.rows if r is EMPTY) >= system.ncols - sol.rank


def test_parsed_tensors_build_rows_on_first_write():
    m = parse_tensor("t", {"domain": ["A"], "codomain": ["A", "A"],
                           "entries": [[1, 1, 1, "2"], [0, 3, 1, "0"]]},
                     {"A": 4}, Q)
    assert lazy(m) and sum(1 for r in m.rows if r) == 1


def test_solver_passes_zero_rows_through_untouched():
    """0 = 0 rows go into the elimination as EMPTY; a write into one
    would raise TypeError."""
    A = SpaceLabel.base("A", 3)
    M = LinMap(Q, A, SpaceLabel.base("R", 5),
               [[1, 0, 0], [0, 0, 0], [0, 1, 1], [0, 0, 0], [1, 1, 1]])
    target = vector(Q, M.codomain, [1, 0, 2, 0, 3])
    sol = rref_solve(M, target)
    assert sol.rank == 2 and sol.kernel.dim == 1
    assert M @ sol.particular == target
    assert sol.particular.rows[2] is EMPTY  # the free variable
    assert M.rank() == 2


@pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)),
                                   copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_copies_keep_empty_rows_shared(kz6, into_a3, clone):
    assert clone(EMPTY) is EMPTY
    for m in (LinMap.zero(Q, SpaceLabel.base("A", 3), SpaceLabel.base("B", 4)),
              apply_at(kz6.coalgebra.comul, into_a3, 1)):
        back = clone(m)
        assert back == m and lazy(back)
        assert all(r is EMPTY for r in back.rows if not r)


def test_wide_group_algebra_validates_in_bounded_memory():
    """Every law of kZ32 checked with its maps into A (x) A (x) A held
    sparse: the peak stays far below what one dict per row costs."""
    hopf = cyclic_group_hopf(32, Q)
    tracemalloc.start()
    try:
        report = validate_hopf(hopf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and not report.failures
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
