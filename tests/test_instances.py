from strongconn.connection import solve_cointegral, solve_integral
from strongconn.extensions import galois_check
from strongconn.instances import (
    build_graded_extension,
    build_group_self_extension,
    build_homogeneous_z4_z2,
    build_trivial,
    cyclic_group_hopf,
    self_extension,
    sweedler_hopf,
    truncated_polynomial_algebra,
)
from strongconn.linmaps import Infeasible
from strongconn.scalars import Field
from strongconn.structures import validate_hopf

QQ = Field.rationals()


def test_build_trivial_coinvariants_are_everything():
    alg = truncated_polynomial_algebra(2, 2)
    ext = build_trivial(alg)
    assert ext.coinvariants.dim == alg.dim
    assert galois_check(ext).named("galois").status == "pass"


def test_group_self_extension_n1_is_trivial_shape():
    ext = build_group_self_extension(1)
    assert ext.algebra.dim == 1
    assert ext.coinvariants.dim == 1
    assert galois_check(ext).named("galois").status == "pass"


def test_group_self_extension_properties():
    for n in (2, 3, 4):
        ext = build_group_self_extension(n)
        assert ext.coinvariants.dim == 1
        assert galois_check(ext).named("galois").status == "pass"


def test_graded_extension_galois_iff_t_nonzero():
    for n in (2, 3):
        assert galois_check(build_graded_extension(n, 1)).named(
            "galois").status == "pass"
    assert galois_check(build_graded_extension(2, 0)).named(
        "galois").status == "fail"


def test_graded_t1_n2_matches_group_algebra():
    # x^2 = 1 makes A the group algebra of Z_2 in disguise
    ext = build_graded_extension(2, 1)
    assert galois_check(ext).named("galois").status == "pass"
    grp = build_group_self_extension(2)
    assert ext.algebra.mul == grp.algebra.mul


def test_graded_cyclotomic_builds():
    field = Field.number_field([1, 1, 1])
    ext = build_graded_extension(3, 1, field)
    assert ext.field == field
    assert galois_check(ext).named("galois").status == "pass"


def test_sweedler_is_validated_hopf():
    h = sweedler_hopf()
    assert validate_hopf(h).passed


def test_sweedler_negative_controls():
    h = sweedler_hopf()
    assert isinstance(solve_integral(h), Infeasible)
    assert isinstance(solve_cointegral(h.coalgebra), Infeasible)


def test_sweedler_self_extension_builds():
    ext = self_extension(sweedler_hopf())
    assert ext.coinvariants.dim == 1
    assert galois_check(ext).named("galois").status == "pass"


def test_homogeneous_builder():
    datum = build_homogeneous_z4_z2()
    assert datum.quotient.dim == 2
    assert datum.b_subalgebra.dim == 2


def test_cyclic_hopf_group_of_units():
    field = Field.number_field([1, 1, 1])
    h = cyclic_group_hopf(3, field)
    assert validate_hopf(h).passed
