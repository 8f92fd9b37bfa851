from fractions import Fraction

import pytest

from strongconn.connection import (
    BruteForceSolutions,
    ConnectionForm,
    Cointegral,
    SectionMap,
    alpha_map,
    brute_force_connections,
    build_connection,
    check_conditions,
    cointegral_conditions,
    cointegral_to_integral,
    colinearity_reduction,
    gamma_map,
    integral_to_cointegral,
    membership_check,
    normalize_section,
    solve_cointegral,
    solve_integral,
    solve_section,
    splitting,
    verify_connection,
)
from strongconn.errors import NoGrouplikeUnit, NotGalois, TooLarge
from strongconn.extensions import make_extension
from strongconn.instances import (
    build_graded_extension,
    build_group_self_extension,
    build_trivial,
    cyclic_group_hopf,
    sweedler_hopf,
    trivial_coalgebra,
    truncated_polynomial_algebra,
)
from strongconn.linmaps import (
    Infeasible,
    LinMap,
    SpaceLabel,
    map_from_vector,
    map_kron,
)
from strongconn.scalars import Field

QQ = Field.rationals()


@pytest.fixture(scope="module")
def z2():
    return build_group_self_extension(2)


@pytest.fixture(scope="module")
def graded22():
    return build_graded_extension(2, 2)


@pytest.fixture(scope="module")
def trivial2():
    return build_trivial(truncated_polynomial_algebra(2, 2))


def kronecker_cointegral(hopf):
    field = hopf.field
    cc = hopf.space.tensor(hopf.space)
    n = hopf.dim
    vec = [field.one if (m // n) == (m % n) else field.zero
           for m in range(n * n)]
    return map_from_vector(field, cc, SpaceLabel.scalar(), vec)


# -- cointegrals -----------------------------------------------------------


def test_cointegral_grouplike_kronecker_is_valid():
    for n in (2, 3, 4):
        h = cyclic_group_hopf(n)
        assert check_conditions(cointegral_conditions(h.coalgebra),
                                kronecker_cointegral(h)).passed


def test_solve_cointegral_grouplike_unique_kronecker():
    # centrality forces off-diagonal zero, the counit law the diagonal
    h = cyclic_group_hopf(4)
    delta = solve_cointegral(h.coalgebra)
    assert isinstance(delta, Cointegral)
    assert delta.solution_dim == 0
    assert delta.delta == kronecker_cointegral(h)


def test_solve_cointegral_trivial_coalgebra():
    # delta(e (x) e) = 1 is forced by the counit law
    delta = solve_cointegral(trivial_coalgebra(QQ))
    assert delta.delta.entries[0][0] == QQ.one
    assert delta.solution_dim == 0


def test_solve_cointegral_sweedler_infeasible():
    h = sweedler_hopf()
    out = solve_cointegral(h.coalgebra)
    assert isinstance(out, Infeasible)
    assert out.detail


def test_solved_cointegral_always_satisfies_laws(z2, graded22):
    for ext in (z2, graded22):
        delta = solve_cointegral(ext.coalgebra)
        assert check_conditions(cointegral_conditions(ext.coalgebra), delta.delta).passed


# -- integrals -------------------------------------------------------------


def test_solve_integral_z2():
    # g lam(g) = lam(g) 1 forces lam(g) = 0; normalisation gives lam(1) = 1
    h = cyclic_group_hopf(2)
    lam = solve_integral(h)
    assert lam.lam.entries[0] == (QQ.one, QQ.zero)


def test_solve_integral_zn_indicator():
    for n in (2, 3, 4):
        h = cyclic_group_hopf(n)
        lam = solve_integral(h)
        coeffs = [lam.lam.entries[0][j] for j in range(n)]
        assert coeffs[0] == QQ.one
        assert all(not c for c in coeffs[1:])


def test_solve_integral_sweedler_infeasible():
    out = solve_integral(sweedler_hopf())
    assert isinstance(out, Infeasible)


def test_integral_to_cointegral_kronecker():
    for n in (2, 3, 4):
        h = cyclic_group_hopf(n)
        lam = solve_integral(h)
        delta = integral_to_cointegral(h, lam)
        assert delta.delta == kronecker_cointegral(h)


def test_integral_to_cointegral_cyclotomic():
    field = Field.number_field([1, 1, 1])
    h = cyclic_group_hopf(3, field)
    delta = integral_to_cointegral(h, solve_integral(h))
    assert delta.delta == kronecker_cointegral(h)


def test_cointegral_to_integral_roundtrip():
    for n in (2, 3, 4):
        h = cyclic_group_hopf(n)
        lam = solve_integral(h)
        delta = integral_to_cointegral(h, lam)
        lam2, rep = cointegral_to_integral(delta, h)
        assert rep.passed
        assert lam2.lam == lam.lam


def test_cointegral_to_integral_trivial():
    h = cyclic_group_hopf(1)
    delta = solve_cointegral(h.coalgebra)
    lam, rep = cointegral_to_integral(delta, h)
    assert rep.passed
    assert lam.lam.entries[0][0] == QQ.one


# -- sections --------------------------------------------------------------


def test_solve_section_z2_deterministic_and_valid(z2):
    s = solve_section(z2)
    from strongconn.extensions import lifted_canonical
    lcan = lifted_canonical(z2.algebra, z2.coalgebra, z2.coaction.rho)
    assert lcan @ s.sigma == map_kron(z2.algebra.unit, z2.coalgebra.identity())
    # the canonical map is bijective here, so sigma is unique: g -> g (x) g
    col = s.sigma.column(1)
    assert col[s.sigma.codomain.flatten((1, 1))] == QQ.one
    assert sum(1 for c in col if c) == 1
    assert s.solution_dim == 0


def test_solve_section_graded22_half_x_x(graded22):
    s = solve_section(graded22)
    col = s.sigma.column(1)
    assert col[s.sigma.codomain.flatten((1, 1))] == QQ.scalar(Fraction(1, 2))
    assert sum(1 for c in col if c) == 1


def test_solve_section_trivial_has_freedom(trivial2):
    s = solve_section(trivial2)
    # sigma(e) = 1 (x) 1 under the zero-free-variables rule
    col = s.sigma.column(0)
    assert col[0] == QQ.one
    assert sum(1 for c in col if c) == 1
    assert s.solution_dim == 2  # dim ker(mul) = 2


def test_solve_section_not_galois():
    ext = build_graded_extension(2, 0)
    with pytest.raises(NotGalois):
        solve_section(ext)


def test_normalize_section_fixes_unit_value(z2, graded22, trivial2):
    for ext in (z2, graded22, trivial2):
        s = solve_section(ext)
        ns = normalize_section(s, ext)
        assert ns.sigma @ ext.grouplike == map_kron(ext.algebra.unit,
                                                    ext.algebra.unit)


def test_normalize_section_noop_when_already_normalized(z2):
    s = solve_section(z2)
    ns = normalize_section(s, z2)
    ns2 = normalize_section(ns, z2)
    assert ns2.sigma == ns.sigma


def test_normalize_section_without_grouplike_raises(z2):
    ext = make_extension(z2.algebra, z2.coalgebra, z2.entwining.psi,
                         z2.coaction.rho)
    assert ext.grouplike is None
    with pytest.raises(NoGrouplikeUnit):
        normalize_section(solve_section(ext), ext)


# -- gamma, alpha, the connection ------------------------------------------


def test_gamma_alpha_values_z2(z2):
    delta = solve_cointegral(z2.coalgebra)
    gamma = gamma_map(delta, z2)
    alpha = alpha_map(delta, z2)
    # gamma(g (x) g) = g, alpha(g (x) g) = g
    gcol = gamma.column(gamma.domain.flatten((1, 1)))
    assert gcol[1] == QQ.one and not gcol[0]
    acol = alpha.column(alpha.domain.flatten((1, 1)))
    assert acol[1] == QQ.one and not acol[0]


def test_gamma_alpha_values_graded(graded22):
    delta = solve_cointegral(graded22.coalgebra)
    gamma = gamma_map(delta, graded22)
    alpha = alpha_map(delta, graded22)
    # gamma(g (x) x) = x and alpha(x (x) g) = x
    gcol = gamma.column(gamma.domain.flatten((1, 1)))
    assert gcol[1] == QQ.one and not gcol[0]
    acol = alpha.column(alpha.domain.flatten((1, 1)))
    assert acol[1] == QQ.one and not acol[0]


def test_trivial_gamma_alpha_collapse(trivial2):
    delta = solve_cointegral(trivial2.coalgebra)
    gamma = gamma_map(delta, trivial2)
    assert gamma == trivial2.algebra.identity().relabel(
        domain=gamma.domain)


def connection_for(ext):
    delta = solve_cointegral(ext.coalgebra)
    sigma = normalize_section(solve_section(ext), ext)
    return build_connection(sigma, delta, ext), delta, sigma


def test_connection_z2_value(z2):
    conn, _, _ = connection_for(z2)
    col = conn.ell.column(1)
    assert col[conn.ell.codomain.flatten((1, 1))] == QQ.one
    assert sum(1 for c in col if c) == 1
    col0 = conn.ell.column(0)
    assert col0[0] == QQ.one and sum(1 for c in col0 if c) == 1


def test_connection_graded22_value(graded22):
    conn, _, _ = connection_for(graded22)
    col = conn.ell.column(1)
    assert col[conn.ell.codomain.flatten((1, 1))] == QQ.scalar(Fraction(1, 2))
    assert sum(1 for c in col if c) == 1
    col0 = conn.ell.column(0)
    assert col0[0] == QQ.one and sum(1 for c in col0 if c) == 1


def test_connection_trivial_value(trivial2):
    conn, _, _ = connection_for(trivial2)
    col = conn.ell.column(0)
    assert col[0] == QQ.one and sum(1 for c in col if c) == 1


def test_connection_cyclotomic_graded_values():
    # t = 1 makes x invertible with x^-1 = x^2, so the unique section
    # has sigma(g^k) = x^(3-k) (x) x^k and ell reproduces it
    field = Field.number_field([1, 1, 1])
    ext = build_graded_extension(3, 1, field)
    conn, _, _ = connection_for(ext)
    aa = conn.ell.codomain
    for k in (1, 2):
        col = conn.ell.column(k)
        assert col[aa.flatten(((3 - k) % 3, k))] == field.one
        assert sum(1 for c in col if c) == 1
    assert verify_connection(conn, ext).passed


def test_verify_connection_passes(z2, graded22, trivial2):
    for ext in (z2, graded22, trivial2):
        conn, _, _ = connection_for(ext)
        rep = verify_connection(conn, ext)
        assert rep.passed, rep.failures


def test_verify_connection_rejects_skewed_sigma(z2):
    # sigma'(g) = g (x) g + 1 (x) 1 breaks both the section law and
    # right colinearity, with witness g
    good, _, _ = connection_for(z2)
    entries = [list(r) for r in good.ell.entries]
    entries[0][1] = entries[0][1] + QQ.one
    skewed = ConnectionForm(LinMap(QQ, good.ell.domain, good.ell.codomain,
                                   entries))
    rep = verify_connection(skewed, z2)
    assert rep.named("connection-sections-canonical").status == "fail"
    bad = rep.named("connection-right-colinear")
    assert bad.status == "fail"
    assert bad.witness["basis"] == [1]


def test_idempotence_feed_connection_back(z2, graded22, trivial2):
    for ext in (z2, graded22, trivial2):
        conn, delta, _ = connection_for(ext)
        again = build_connection(SectionMap(conn.ell), delta, ext)
        assert again.ell == conn.ell


def test_colinearity_reduction_bicolinear(z2):
    conn, delta, sigma = connection_for(z2)
    fed_back = SectionMap(conn.ell)
    rebuilt = build_connection(fed_back, delta, z2)
    rep = colinearity_reduction(rebuilt, fed_back, z2)
    assert rep.named("section-colinearity-class").witness["class"] == "bicolinear"
    assert rep.named("bicolinear-fixed-point").status == "pass"
    assert rebuilt.ell == conn.ell


def test_splitting_values_and_checks(z2, graded22, trivial2):
    for ext in (z2, graded22, trivial2):
        conn, _, _ = connection_for(ext)
        s, rep = splitting(conn, ext)
        assert rep.passed, rep.failures
    # explicit values: kZ2: s(g) = 1 (x) g; graded: s(x) = 1 (x) x
    conn, _, _ = connection_for(z2)
    s, _ = splitting(conn, z2)
    col = s.column(1)
    assert col[s.codomain.flatten((0, 1))] == QQ.one
    assert sum(1 for c in col if c) == 1
    conn, _, _ = connection_for(graded22)
    s, _ = splitting(conn, graded22)
    col = s.column(1)
    assert col[s.codomain.flatten((0, 1))] == QQ.one
    assert sum(1 for c in col if c) == 1


# -- the oracle -------------------------------------------------------------


def test_oracle_contains_formula_output(z2, graded22, trivial2):
    for ext in (z2, graded22, trivial2):
        oracle = brute_force_connections(ext)
        assert isinstance(oracle, BruteForceSolutions)
        conn, _, _ = connection_for(ext)
        assert membership_check(conn, oracle)
        assert membership_check(ConnectionForm(oracle.particular), oracle)


def test_oracle_rejects_corrupted_connection(z2):
    oracle = brute_force_connections(z2)
    conn, _, _ = connection_for(z2)
    entries = [list(r) for r in conn.ell.entries]
    entries[0][0] = entries[0][0] + QQ.one
    bad = ConnectionForm(LinMap(QQ, conn.ell.domain, conn.ell.codomain, entries))
    assert not membership_check(bad, oracle)


def test_oracle_infeasible_without_surjectivity():
    ext = build_graded_extension(2, 0)
    out = brute_force_connections(ext)
    assert isinstance(out, Infeasible)
    assert "condition (a)" in out.detail


def test_oracle_cap():
    ext = build_group_self_extension(2)
    with pytest.raises(TooLarge):
        brute_force_connections(ext, cap=7)
