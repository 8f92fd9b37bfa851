"""A map stores only its rows that hold a nonzero.

The kernels make a row's dict on its first write and drop a row that
cancels, so a wide sparse map allocates only the rows that hold a
nonzero, and neither a composite into a wide tensor power nor
validate_hopf on a wide group algebra costs memory per basis row.  No
kernel writes into a row that one of its operands stores.
"""

import copy
import pickle
import tracemalloc

import pytest

from strongconn import linmaps
from strongconn.connection import connection_conditions, linear_system
from strongconn.fileformat import parse_tensor
from strongconn.instances import build_graded_extension, cyclic_group_hopf
from strongconn.linmaps import (
    LinMap,
    SpaceLabel,
    Subspace,
    apply_at,
    basis_vector,
    compose_legs,
    kernel_basis,
    map_from_vector,
    map_kron,
    map_vectorize,
    precompose_at,
    rref_solve,
    stacked_kernel,
    try_inverse,
    vector,
)
from strongconn.scalars import Field
from strongconn.structures import validate_hopf

Q = Field.rationals()


def lazy(m: LinMap) -> bool:
    """m stores no empty row and no row key outside its codomain."""
    return all(row and 0 <= r < m.nrows for r, row in m.rows.items())


@pytest.fixture(scope="module")
def kz6():
    return cyclic_group_hopf(6, Q)


@pytest.fixture(scope="module")
def into_a3(kz6):
    """(comul (x) I) o comul: A -> A (x) A (x) A, 6 nonzeros in 216 rows."""
    comul = kz6.coalgebra.comul
    return apply_at(comul, comul, 0)


def test_kernels_leave_unwritten_rows_empty(kz6, into_a3):
    comul = kz6.coalgebra.comul
    assert lazy(comul) and len(comul.rows) == 6  # from_rules
    assert lazy(into_a3) and len(into_a3.rows) == 6
    wide = apply_at(comul, into_a3, 2)
    assert wide.nrows == 6 ** 4 and lazy(wide)
    assert len(wide.rows) == 6
    mul = kz6.algebra.mul
    pre = precompose_at(wide, mul, 0)
    assert pre.domain.dim == 36 and lazy(pre)
    assert pre == wide @ mul
    kron = map_kron(comul, into_a3)
    assert kron.nrows == 36 * 216 and lazy(kron)
    assert len(kron.rows) == 36


def test_sums_negations_and_constructors_leave_empty_rows_empty(kz6, into_a3):
    comul, antipode = kz6.coalgebra.comul, kz6.antipode
    assert (comul - comul).rows == {}
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
    """Neither a row that no term reaches nor one where lhs and rhs
    cancel is stored."""
    ext = build_graded_extension(3, 2, Q)
    a2 = ext.algebra.space.tensor(ext.algebra.space)
    system, target = linear_system(Q, ext.coalgebra.space, a2,
                                   connection_conditions(ext))
    assert lazy(system) and 0 < len(system.rows) < system.nrows
    assert lazy(target)
    sol = rref_solve(system, target)
    X = sol.particular
    assert system @ X == target
    # a free variable's row is never written
    assert lazy(X) and len(X.rows) <= sol.rank


def test_parsed_tensors_build_rows_on_first_write():
    m = parse_tensor("t", {"domain": ["A"], "codomain": ["A", "A"],
                           "entries": [[1, 1, 1, "2"], [0, 3, 1, "0"]]},
                     {"A": 4}, Q)
    assert lazy(m) and len(m.rows) == 1


def test_solver_passes_zero_rows_through_untouched(monkeypatch):
    """0 = 0 rows go into the elimination as one shared {}, which it
    never writes."""
    eliminate = linmaps._rref_inplace

    def checked(rows, *args, **kwargs):
        empty = [row for row in rows if not row]
        assert len({id(row) for row in empty}) == 1
        pivots = eliminate(rows, *args, **kwargs)
        assert not any(empty)
        return pivots
    monkeypatch.setattr(linmaps, "_rref_inplace", checked)
    A = SpaceLabel.base("A", 3)
    M = LinMap(Q, A, SpaceLabel.base("R", 5),
               [[1, 0, 0], [0, 0, 0], [0, 1, 1], [0, 0, 0], [1, 1, 1]])
    target = vector(Q, M.codomain, [1, 0, 2, 0, 3])
    sol = rref_solve(M, target)
    assert sol.rank == 2 and sol.kernel.dim == 1
    assert M @ sol.particular == target
    assert 2 not in sol.particular.rows  # the free variable
    assert M.rank() == 2


def operands():
    """Small maps over Q with entries one, minus one and others, and
    sums that cancel: F + G cancels row 0 and F - G row 3.  Column 0 and
    column 2 of P both reach row 0 with a one, so apply_at(P, F, 0)
    copies F's row 0 into its row 0 and then adds F's row 2 there."""
    X, Y, Z = (SpaceLabel.base(n, d) for n, d in (("X", 3), ("Y", 2), ("Z", 4)))
    F = LinMap(Q, X, Z, [[1, -1, 0], [0, 0, 0], [2, 1, -1], [0, 3, 1]])
    G = LinMap(Q, X, Z, [[-1, 1, 0], [0, 5, 0], [1, 0, 0], [0, 3, 1]])
    H = LinMap(Q, Y, X, [[1, 0], [1, -1], [0, 2]])
    M = LinMap(Q, X, X, [[1, 2, 0], [0, 1, 1], [1, 0, -1]])
    P = LinMap(Q, Z, Y, [[1, 0, 1, 0], [0, 1, -1, 1]])
    return dict(F=F, G=G, H=H, M=M, P=P, K=map_kron(F, G),
                t=F @ vector(Q, X, [1, 2, 3]), zero=LinMap.zero(Q, X, Z),
                S=Subspace.image(H), T=Subspace.from_vectors(Q, X, [[1, 1, 1], [0, 1, 2]]))


KERNELS = {
    "add": lambda o: (o["F"] + o["G"], o["F"] + o["zero"]),
    "sub": lambda o: (o["F"] - o["G"], o["F"] - o["F"]),
    "neg": lambda o: -o["F"],
    "scale": lambda o: (o["F"].scale(Q.scalar(-2)), o["F"].scale(Q.zero)),
    "compose": lambda o: (o["F"] @ o["H"], o["F"] @ o["M"], o["zero"] @ o["M"]),
    "apply_at": lambda o: (apply_at(o["P"], o["F"], 0), apply_at(o["P"], o["K"], 1),
                           apply_at(o["P"], o["K"], 0)),
    "precompose_at": lambda o: (precompose_at(o["K"], o["H"], 0),
                                precompose_at(o["K"], o["M"], 1)),
    "map_kron": lambda o: (map_kron(o["F"], o["H"]), map_kron(o["zero"], o["M"])),
    "compose_legs": lambda o: compose_legs(o["K"].domain, (o["P"], 1), (o["K"], 0)),
    "rank": lambda o: (o["F"].rank(), o["K"].rank(), o["zero"].rank()),
    "rref_solve": lambda o: (rref_solve(o["F"], o["t"]), rref_solve(o["G"], o["t"])),
    "kernel": lambda o: (kernel_basis(o["F"]), stacked_kernel([o["F"], o["G"], o["M"]])),
    "try_inverse": lambda o: (try_inverse(o["M"]), try_inverse(o["H"] @ o["P"] @ o["F"])),
    "image": lambda o: (Subspace.image(o["F"]), Subspace.image(o["zero"])),
    "inclusion": lambda o: (o["S"].inclusion(), Subspace.zero(Q, o["S"].ambient).inclusion()),
    "quotient": lambda o: (o["S"].quotient(), o["T"].quotient()),
    "first_outside": lambda o: (o["S"].first_outside(o["M"]),
                                o["S"].first_outside(o["H"]),
                                o["T"].contains(o["S"])),
    "sum_intersection": lambda o: (o["S"].sum(o["T"]), o["S"].intersection(o["T"])),
    "vectorize": lambda o: map_from_vector(Q, o["K"].domain, o["K"].codomain,
                                           map_vectorize(o["K"])),
}


def snapshot(ops):
    """Each operand's stored rows as fresh dicts, and its hash."""
    return {k: ([dict(row) for row in op.rows] if isinstance(op, Subspace)
                else {r: dict(row) for r, row in op.rows.items()}, hash(op))
            for k, op in ops.items()}


def assert_stored_canonically(out):
    """Every map in out stores only nonempty zero-free rows within its
    shape, and every subspace only reduced rows whose pivot is a one."""
    if isinstance(out, LinMap):
        assert lazy(out)
        assert all(all(row.values()) and all(0 <= c < out.ncols for c in row)
                   for row in out.rows.values())
    elif isinstance(out, Subspace):
        pivots = [max(row) for row in out.rows]
        assert pivots == sorted(set(pivots))
        for row, p in zip(out.rows, pivots):
            assert all(row.values()) and 0 <= min(row) and p < out.ambient.dim
            assert row[p] == Q.one and not any(p in other for other in out.rows
                                               if other is not row)
    elif isinstance(out, tuple):
        for part in out:
            assert_stored_canonically(part)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernels_write_no_operand_row_and_store_only_nonzero_rows(name):
    """What the shared EMPTY row once enforced by raising on a write:
    no kernel writes into a row its operands store, the zero map's {}
    included, and every result stores only its nonzero rows."""
    ops = operands()
    before = snapshot(ops)
    out = KERNELS[name](ops)
    assert snapshot(ops) == before
    assert_stored_canonically(out)


def test_the_kernel_table_sees_a_write_into_an_operand_row():
    ops = operands()
    before = snapshot(ops)
    next(iter(ops["F"].rows.values()))[0] = Q.scalar(7)
    assert snapshot(ops) != before
    with pytest.raises(AssertionError):
        assert_stored_canonically(LinMap._from_rows(Q, ops["F"].domain, ops["F"].codomain,
                                                    {0: {0: Q.zero}}))


@pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)),
                                   copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_copies_store_only_nonempty_rows(kz6, into_a3, clone):
    for m in (LinMap.zero(Q, SpaceLabel.base("A", 3), SpaceLabel.base("B", 4)),
              apply_at(kz6.coalgebra.comul, into_a3, 1)):
        back = clone(m)
        assert back == m and hash(back) == hash(m) and lazy(back)
        assert back.rows.keys() == m.rows.keys()


def test_a_wide_composite_costs_memory_for_its_nonzeros_only():
    """kZ32's (comul (x) I (x) I)(comul (x) I) comul into A (x) A (x) A
    (x) A: 32^4 = 1,048,576 rows and 32 nonzeros.  A pointer per row
    alone would be 8 MiB; the map and the work that builds it stay
    within a few KiB per nonzero."""
    comul = cyclic_group_hopf(32, Q).coalgebra.comul
    tracemalloc.start()
    try:
        wide = apply_at(comul, apply_at(comul, comul, 0), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wide.nrows == 32 ** 4 and len(wide.rows) == 32 and lazy(wide)
    assert peak < 256 * 2 ** 10, f"peak {peak / 2 ** 10:.0f} KiB"


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
