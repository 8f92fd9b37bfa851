"""Each object's defining conditions are one table, read two ways.

evaluate_conditions composes each condition's chains around a map X,
and linear_system reads the same chains as rows of one system in X's
entries.  The two readers agree on every map, not only on the
solutions: for seeded random X, and for the solved one, the system's
residual system @ vec(X) - target equals the map differences lhs - rhs
of the evaluation, block by block in condition order.  The oracle
re-checks the solution of its system against the table, so a system
that differs from the table cannot pass a wrong solution.
"""

import random
from fractions import Fraction

import pytest

from strongconn import connection
from strongconn.connection import (
    BruteForceSolutions,
    brute_force_connections,
    cointegral_conditions,
    connection_conditions,
    evaluate_conditions,
    integral_conditions,
    linear_system,
    solve_cointegral,
    solve_integral,
)
from strongconn.errors import InternalContradiction
from strongconn.linmaps import Infeasible, LinMap, SpaceLabel, map_vectorize, vector
from strongconn.report import check_conditions
from strongconn.structures import StructureAlgebra, validate_algebra

from test_systems import CASES, IDS


def random_map(field, domain, codomain, seed):
    """A seeded map with about half its entries zero, each nonzero entry
    a random element of the field (all its coefficients drawn)."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.5:
            return 0
        return field.scalar([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                             for _ in range(field.degree)])

    return LinMap(field, domain, codomain,
                  [[entry() for _ in range(domain.dim)] for _ in range(codomain.dim)])


def assert_readers_agree(table, X):
    system, target = linear_system(X.field, X.domain, X.codomain, table)
    residual = system @ vector(X.field, system.domain, map_vectorize(X)) - target
    residual = residual.column(0)
    start = 0
    for name, lhs, rhs in evaluate_conditions(table, X):
        block = map_vectorize(lhs - rhs)
        assert residual[start:start + len(block)] == block, name
        start += len(block)
    assert start == len(residual)


def candidates(field, domain, codomain, solved):
    out = [random_map(field, domain, codomain, seed) for seed in (1, 2)]
    return out + ([] if solved is None else [solved])


@pytest.mark.parametrize("name,ext,hopf", CASES, ids=IDS)
def test_cointegral_table_readers_agree(name, ext, hopf):
    coa = ext.coalgebra
    delta = solve_cointegral(coa)
    solved = None if isinstance(delta, Infeasible) else delta.delta
    for X in candidates(coa.field, coa.space.tensor(coa.space), SpaceLabel.scalar(),
                        solved):
        assert_readers_agree(cointegral_conditions(coa), X)


HOPF_CASES = [c for c in CASES if c[2] is not None]


@pytest.mark.parametrize("name,ext,hopf", HOPF_CASES, ids=[c[0] for c in HOPF_CASES])
def test_integral_table_readers_agree(name, ext, hopf):
    lam = solve_integral(hopf)
    solved = None if isinstance(lam, Infeasible) else lam.lam
    for X in candidates(hopf.field, hopf.space, SpaceLabel.scalar(), solved):
        assert_readers_agree(integral_conditions(hopf), X)


@pytest.mark.parametrize("name,ext,hopf", CASES, ids=IDS)
def test_connection_table_readers_agree(name, ext, hopf):
    out = brute_force_connections(ext)
    solved = out.particular if isinstance(out, BruteForceSolutions) else None
    aa = ext.algebra.space.tensor(ext.algebra.space)
    for X in candidates(ext.field, ext.coalgebra.space, aa, solved):
        assert_readers_agree(connection_conditions(ext), X)


def test_cyclotomic_candidates_are_irrational():
    _, ext, _ = CASES[-1]
    X = random_map(ext.field, ext.coalgebra.space, ext.coalgebra.space, 1)
    assert any(s.num[1] for row in X.rows.values() for s in row.values())


@pytest.mark.parametrize("name,ext,hopf", CASES, ids=IDS)
def test_a_slot_free_table_is_checked_without_x(name, ext, hopf):
    """check_conditions(table) with no X checks a law of fixed maps:
    associativity passes on the algebra and fails on a doctored product
    with the witness validate_algebra reports."""
    alg = ext.algebra
    mul = alg.mul

    def associativity(m):
        return (("algebra-associativity", m.domain.tensor(alg.space),
                 ((m, 0), (m, 0)), ((m, 0), (m, 1))),)

    assert check_conditions(associativity(mul)).passed
    bump = [[alg.field.zero] * mul.ncols for _ in range(mul.nrows)]
    bump[0][0] = alg.field.one
    doctored = mul + LinMap(alg.field, mul.domain, mul.codomain, bump)
    rep = check_conditions(associativity(doctored))
    expected = validate_algebra(StructureAlgebra(doctored, alg.unit)).named(
        "algebra-associativity")
    assert not rep.passed
    assert rep.checks == [expected]


def test_oracle_rejects_a_system_that_differs_from_its_table(monkeypatch):
    """The system states condition (a) with its target doubled while the
    table states (a) as it is: the system is still feasible, its
    particular solution is twice the right one and fails (a), and the
    oracle's check against the table stops it.  Dropping the rows of (c),
    of (b) or of both would not show the check: on this instance the
    particular solution of (a) alone already satisfies (b) and (c)."""
    name, ext, _ = next(c for c in CASES if c[0] == "homogeneous_z4_z2")
    assert ext.canonical_solution.kernel.dim
    real = connection.linear_system

    def doubled_a(field, x_domain, x_codomain, table):
        (name_a, domain, lhs, rhs), *rest = table
        assert name_a == "connection-sections-canonical"
        two = field.scalar(2)
        return real(field, x_domain, x_codomain,
                    [(name_a, domain, lhs, rhs.scale(two)), *rest])

    monkeypatch.setattr(connection, "linear_system", doubled_a)
    with pytest.raises(InternalContradiction, match="defining conditions"):
        brute_force_connections(ext)
