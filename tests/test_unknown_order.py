"""connection.linear_system numbers X's entries column-major (unknown
k is entry (k % m, k // m) of an m-row X), and its two readers reshape
sparse items by that order: _solve turns a solved vector of unknowns
into X, and membership_check turns ell - particular into one.  Both
agree with the dense reference of tests/dense.py; a transposed index
in either fails here."""

import pytest

from strongconn.connection import (
    ConnectionForm,
    brute_force_connections,
    cointegral_conditions,
    connection_conditions,
    integral_conditions,
    linear_system,
    membership_check,
    solve_cointegral,
    solve_integral,
)
from strongconn.homogeneous import extension_from_homogeneous
from strongconn.instances import build_graded_extension, build_homogeneous_z4_z2, \
    cyclic_group_hopf
from strongconn.linmaps import LinMap, SpaceLabel, rref_solve

from dense import column, contains_vector, from_vector, vectorize


def dense_particular(field, x_domain, x_codomain, table):
    """The solved X, reshaped from the dense column of unknowns."""
    sol = rref_solve(*linear_system(field, x_domain, x_codomain, table))
    return from_vector(field, x_domain, x_codomain, column(sol.particular, 0))


def homogeneous_z4_z2():
    ext, rep = extension_from_homogeneous(build_homogeneous_z4_z2())
    assert rep.passed
    return ext


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solved_cointegral_and_integral_match_the_dense_reshape(n):
    hopf = cyclic_group_hopf(n)
    coa, k = hopf.coalgebra, SpaceLabel.scalar()
    assert solve_cointegral(coa).delta == dense_particular(
        hopf.field, coa.space.tensor(coa.space), k, cointegral_conditions(coa))
    assert solve_integral(hopf).lam == dense_particular(
        hopf.field, hopf.space, k, integral_conditions(hopf))


def test_positive_kernel_oracle_particular_matches_the_dense_reshape():
    ext = homogeneous_z4_z2()
    oracle = brute_force_connections(ext)
    assert oracle.kernel.dim > 0
    aa = ext.algebra.space.tensor(ext.algebra.space)
    assert oracle.particular == dense_particular(ext.field, ext.coalgebra.space, aa,
                                                 connection_conditions(ext))


def dense_membership(ell, oracle) -> bool:
    return contains_vector(oracle.kernel, vectorize(ell - oracle.particular))


@pytest.mark.parametrize("build,kernel_dim", [
    (lambda: build_graded_extension(2, 2), 0),
    (homogeneous_z4_z2, 4),
], ids=["graded_n2_t2", "homogeneous_z4_z2"])
def test_membership_matches_the_dense_reference_at_every_position(build, kernel_dim):
    """ell is the particular solution plus the kernel's first basis
    vector (when there is one), so it lies in the oracle's set and
    differs from the particular; ell + E_rc, for the map E_rc with a
    single 1 at (r, c), is checked at every position."""
    ext = build()
    oracle = brute_force_connections(ext)
    assert oracle.kernel.dim == kernel_dim
    p, field = oracle.particular, ext.field
    ell = p
    if kernel_dim:
        ell = p + from_vector(field, p.domain, p.codomain, oracle.kernel.basis[0])
        assert ell != p
    assert membership_check(ConnectionForm(ell), oracle)
    assert dense_membership(ell, oracle)
    for r in range(p.nrows):
        for c in range(p.ncols):
            moved = ell + LinMap.from_items(field, p.domain, p.codomain,
                                            [((r, c), field.one)])
            assert membership_check(ConnectionForm(moved), oracle) == \
                dense_membership(moved, oracle), (r, c)
