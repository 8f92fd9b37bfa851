"""Acceptance suite: every criterion exact, zero tolerance.

Each criterion is one or more test functions named test_criterion_N_*;
the conftest hook prints one PASS/FAIL line per criterion at the end of
the run.  All expected values here were derived by hand expansion or by
the independent brute-force oracle, never from the code path under test.
"""

from fractions import Fraction

import pytest

from strongconn.connection import (
    BruteForceSolutions,
    SectionMap,
    brute_force_connections,
    build_connection,
    check_conditions,
    cointegral_conditions,
    colinearity_reduction,
    cointegral_to_integral,
    integral_to_cointegral,
    membership_check,
    normalize_section,
    solve_cointegral,
    solve_integral,
    solve_section,
)
from strongconn.extensions import lifted_canonical, validate_entwining_rr
from strongconn.fileformat import instance_to_dict, parse_instance_dict
from strongconn.golden import build_golden
from strongconn.homogeneous import bicolinear_section_iota, extension_from_homogeneous
from strongconn.instances import (
    build_graded_extension,
    build_group_self_extension,
    build_homogeneous_z4_z2,
    build_trivial,
    cyclic_group_hopf,
    sweedler_hopf,
    truncated_polynomial_algebra,
)
from strongconn.linmaps import (
    Infeasible,
    LinMap,
    SpaceLabel,
    map_from_vector,
    map_kron,
    map_vectorize,
    rref_solve,
    vector,
)
from strongconn.pipeline import run_pipeline
from strongconn.scalars import Field

QQ = Field.rationals()

THEOREM_SUITE = [
    "trivial_dim2",
    "group_self_z2",
    "group_self_z4",
    "graded_n2_t2",
    "graded_n3_t1_cyclotomic",
]

ENTWINING_AXIOMS = [
    "entwining-rr-multiplicativity",
    "entwining-rr-unitality",
    "entwining-rr-comultiplicativity",
    "entwining-rr-counitality",
    "entwining-ll-multiplicativity",
    "entwining-ll-unitality",
    "entwining-ll-comultiplicativity (reconstructed)",
    "entwining-ll-counitality",
]


@pytest.fixture(scope="module")
def suite_reports():
    out = {}
    for name in THEOREM_SUITE:
        inst = parse_instance_dict(instance_to_dict(build_golden(name)))
        out[name] = run_pipeline(inst)
    return out


@pytest.fixture(scope="module")
def suite_extensions():
    return {
        "trivial_dim2": build_trivial(truncated_polynomial_algebra(2, 2)),
        "group_self_z2": build_group_self_extension(2),
        "group_self_z4": build_group_self_extension(4),
        "graded_n2_t2": build_graded_extension(2, 2),
        "graded_n3_t1_cyclotomic": build_graded_extension(
            3, 1, Field.number_field([1, 1, 1])),
    }


def formula_connection(ext):
    delta = solve_cointegral(ext.coalgebra)
    sigma = normalize_section(solve_section(ext), ext)
    return build_connection(sigma, delta, ext), delta, sigma


# -- 1. THEOREM SUITE --------------------------------------------------------


def test_criterion_1_theorem_suite(suite_reports):
    must_pass = ENTWINING_AXIOMS + [
        "key-identity",
        "cointegral-exists",
        "section-exists",
        "connection-built",
        "connection-sections-canonical",
        "connection-right-colinear",
        "connection-left-colinear",
    ]
    for name, rep in suite_reports.items():
        assert rep.exit_code == 0, (name, rep.failures)
        statuses = {c.name: c.status for _, c in rep.checks}
        for check in must_pass:
            assert statuses.get(check) == "pass", (name, check)


# -- 2. EXPLICIT VALUES ------------------------------------------------------


def test_criterion_2_explicit_values(suite_extensions):
    graded = suite_extensions["graded_n2_t2"]
    conn, _, _ = formula_connection(graded)
    ell = conn.ell
    aa = ell.codomain
    half = QQ.scalar(Fraction(1, 2))
    # ell(g) = 1/2 x (x) x
    col_g = ell.column(1)
    assert col_g[aa.flatten((1, 1))] == half
    assert sum(1 for c in col_g if c) == 1
    # ell(e) = 1 (x) 1 after normalisation
    col_e = ell.column(0)
    assert col_e[aa.flatten((0, 0))] == QQ.one
    assert sum(1 for c in col_e if c) == 1
    # confirmed independently by the oracle
    oracle = brute_force_connections(graded)
    assert isinstance(oracle, BruteForceSolutions)
    assert membership_check(conn, oracle)

    z2 = suite_extensions["group_self_z2"]
    conn2, _, _ = formula_connection(z2)
    col = conn2.ell.column(1)
    assert col[conn2.ell.codomain.flatten((1, 1))] == QQ.one
    assert sum(1 for c in col if c) == 1


# -- 3. ORACLE EQUIVALENCE ---------------------------------------------------


def test_criterion_3_oracle_equivalence(suite_extensions):
    for name, ext in suite_extensions.items():
        n = ext.coalgebra.dim * ext.algebra.dim ** 2
        assert n <= 4096
        oracle = brute_force_connections(ext)
        assert isinstance(oracle, BruteForceSolutions), name
        conn, _, _ = formula_connection(ext)
        assert membership_check(conn, oracle), name


# -- 4. IDEMPOTENCE / BICOLINEARITY -----------------------------------------


def test_criterion_4_idempotence(suite_extensions):
    for name, ext in suite_extensions.items():
        conn, delta, _ = formula_connection(ext)
        fed_back = SectionMap(conn.ell)
        rebuilt = build_connection(fed_back, delta, ext)
        rep = colinearity_reduction(rebuilt, fed_back, ext)
        klass = rep.named("section-colinearity-class").witness["class"]
        assert klass == "bicolinear", name
        assert rep.named("bicolinear-fixed-point").status == "pass", name
        assert rebuilt.ell == conn.ell, name


def _one_sided_section(ext, side):
    """Deterministically build a section that is colinear on one side
    and provably not on the other, by solving the stacked system and
    perturbing along its kernel when needed."""
    alg, coa = ext.algebra, ext.coalgebra
    field = ext.field
    ia, ic = alg.identity(), coa.identity()
    aa = alg.space.tensor(alg.space)
    lcan = lifted_canonical(alg, coa, ext.coaction.rho)
    rho, lam = ext.coaction.rho, ext.coaction.rho_left

    def right_defect(sig):
        return map_kron(sig, ic) @ coa.comul - map_kron(ia, rho) @ sig

    def left_defect(sig):
        return map_kron(ic, sig) @ coa.comul - map_kron(lam, ia) @ sig

    keep = right_defect if side == "right" else left_defect
    other = left_defect if side == "right" else right_defect

    n = coa.dim * alg.dim ** 2

    def conditions(sig):
        return map_vectorize(lcan @ sig) + map_vectorize(keep(sig))

    cols_label = SpaceLabel.base("unknowns", n)
    columns = []
    for k in range(n):
        unit_vec = [field.one if i == k else field.zero for i in range(n)]
        columns.append(conditions(map_from_vector(field, coa.space, aa, unit_vec)))
    rows_label = SpaceLabel.base("constraints", len(columns[0]))
    system = LinMap(field, cols_label, rows_label,
                    [[columns[c][r] for c in range(n)]
                     for r in range(len(columns[0]))])
    rhs = list(map_vectorize(map_kron(alg.unit, ic)))
    rhs += [field.zero] * (len(columns[0]) - len(rhs))
    sol = rref_solve(system, vector(field, rows_label, rhs))
    assert not isinstance(sol.particular, Infeasible)
    sigma0 = map_from_vector(field, coa.space, aa, sol.particular.column(0))
    if not other(sigma0).is_zero():
        return SectionMap(sigma0)
    for kv in sol.kernel.basis:
        cand = sigma0 + map_from_vector(field, coa.space, aa, kv)
        if not other(cand).is_zero():
            assert keep(cand).is_zero()
            assert lcan @ cand == map_kron(alg.unit, ic)
            return SectionMap(cand)
    raise AssertionError("no one-sided section exists on this instance")


def test_criterion_4_reduced_formulas_one_sided():
    # the kZ4 quotient extension has a 16-dimensional section space with
    # genuinely one-sided members
    datum = build_homogeneous_z4_z2()
    ext, rep = extension_from_homogeneous(datum)
    assert rep.passed
    delta = solve_cointegral(ext.coalgebra)
    for side, agrees, other in (
            ("right", "reduction-right-agrees", "reduction-left-agrees"),
            ("left", "reduction-left-agrees", "reduction-right-agrees")):
        sigma = _one_sided_section(ext, side)
        conn = build_connection(sigma, delta, ext)
        rrep = colinearity_reduction(conn, sigma, ext)
        klass = rrep.named("section-colinearity-class").witness["class"]
        assert klass == f"{side}-colinear"
        assert rrep.named(agrees).status == "pass"
        assert rrep.named(other).status == "not-applicable"
        # and the reduced-route output is a genuine strong connection
        from strongconn.connection import verify_connection
        vr = verify_connection(conn, ext)
        assert all(c.status == "pass" for c in vr.checks
                   if c.name != "connection-normalized")


# -- 5. NEGATIVE CONTROLS ----------------------------------------------------


def test_criterion_5_sweedler_infeasible():
    h = sweedler_hopf()
    lam = solve_integral(h)
    assert isinstance(lam, Infeasible)
    assert lam.detail
    delta = solve_cointegral(h.coalgebra)
    assert isinstance(delta, Infeasible)
    assert delta.detail


def test_criterion_5_graded_t0_not_galois():
    from strongconn.extensions import galois_check
    ext = build_graded_extension(2, 0)
    rep = galois_check(ext)
    assert rep.named("galois-canonical-surjective").status == "fail"
    assert rep.named("galois").status == "fail"


def test_criterion_5_corrupt_psi_fails_exactly_the_doctored_axiom():
    # replace psi(c (x) g) by 1 (x) c on the kZ2 self-extension: the
    # multiplicative, unital and comultiplicative identities survive,
    # only counitality breaks, first witnessed at (e, g)
    ext = build_group_self_extension(2)
    psi = ext.entwining.psi
    entries = [list(r) for r in psi.entries]
    for i in range(2):
        col = psi.domain.flatten((i, 1))
        for r in range(4):
            entries[r][col] = QQ.zero
        entries[psi.codomain.flatten((0, i))][col] = QQ.one
    doctored = LinMap(QQ, psi.domain, psi.codomain, entries)
    rep = validate_entwining_rr(doctored, ext.algebra, ext.coalgebra)
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses == {
        "entwining-rr-multiplicativity": "pass",
        "entwining-rr-unitality": "pass",
        "entwining-rr-comultiplicativity": "pass",
        "entwining-rr-counitality": "fail",
    }
    witness = rep.named("entwining-rr-counitality").witness
    assert witness["basis"] == [0, 1]


# -- 6. SPLITTING / PRINCIPALITY --------------------------------------------


def test_criterion_6_splitting_and_principality(suite_reports):
    needed = [
        "splitting-sections-product",
        "splitting-image-in-coinvariants",
        "splitting-left-coinvariant-linear",
        "splitting-right-colinear",
        "principal-extension",
    ]
    for name, rep in suite_reports.items():
        statuses = {c.name: c.status for _, c in rep.checks}
        for check in needed:
            assert statuses.get(check) == "pass", (name, check)


# -- 7. HOMOGENEOUS SUITE ----------------------------------------------------


def test_criterion_7_homogeneous_suite():
    datum = build_homogeneous_z4_z2()
    assert datum.quotient.dim == 2
    delta = solve_cointegral(datum.quotient)
    iota, rep = bicolinear_section_iota(datum, delta)
    assert rep.named("averaged-section-splits-projection").status == "pass"
    assert rep.named("averaged-section-left-colinear").status == "pass"
    assert rep.named("averaged-section-right-colinear").status == "pass"
    # perturbed section: i'([g]) = g + (g^2 - 1)
    perturbed = [list(r) for r in datum.section.entries]
    perturbed[2][1] = QQ.one
    perturbed[0][1] = -QQ.one
    i2 = LinMap(QQ, datum.section.domain, datum.section.codomain, perturbed)
    iota2, rep2 = bicolinear_section_iota(datum, delta, section=i2)
    assert rep2.passed
    assert datum.pi @ iota2 == LinMap.identity(QQ, datum.quotient.space)


# -- 8. INTEGRAL CONVERSIONS -------------------------------------------------


def test_criterion_8_integral_conversions():
    for n in (2, 3, 4):
        h = cyclic_group_hopf(n)
        lam = solve_integral(h)
        delta = integral_to_cointegral(h, lam)
        assert check_conditions(cointegral_conditions(h.coalgebra), delta.delta).passed
        back, rep = cointegral_to_integral(delta, h)
        assert rep.passed
        assert back.lam == lam.lam


# -- 9. DETERMINISM ----------------------------------------------------------


def test_criterion_9_byte_identical_reports(tmp_path):
    from strongconn.cli import main
    from strongconn.fileformat import write_instance
    for name in THEOREM_SUITE + ["sweedler_h4", "homogeneous_z4_z2"]:
        src = tmp_path / f"{name}.json"
        write_instance(build_golden(name), str(src))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main([str(src), "--format", "json", "--out", str(a)])
        main([str(src), "--format", "json", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes(), name
