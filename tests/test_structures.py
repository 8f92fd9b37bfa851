import pytest

from strongconn.errors import ShapeError
from strongconn.instances import (
    cyclic_group_hopf,
    sweedler_hopf,
    truncated_polynomial_algebra,
    trivial_coalgebra,
)
from strongconn.linmaps import LinMap, SpaceLabel, basis_vector, map_kron, vector
from strongconn.scalars import Field
from strongconn.structures import (
    HopfAlgebra,
    StructureAlgebra,
    StructureCoalgebra,
    check_grouplike,
    validate_algebra,
    validate_coalgebra,
    validate_hopf,
)

from dense import scaled

QQ = Field.rationals()


def test_group_algebra_z2_validates():
    h = cyclic_group_hopf(2)
    assert validate_algebra(h.algebra).passed
    assert validate_coalgebra(h.coalgebra).passed
    assert validate_hopf(h).passed


def test_quadratic_algebra_validates():
    # oracle: all unit/associativity triples expand exactly
    alg = truncated_polynomial_algebra(2, 2)
    rep = validate_algebra(alg)
    assert rep.passed
    x = basis_vector(QQ, alg.space, 1)
    sq = alg.mul @ map_kron(x, x)
    assert sq == scaled(alg.unit, QQ.scalar(2))


def test_broken_unit_law_has_witness():
    space = SpaceLabel.base("A", 1)
    mul = LinMap.zero(QQ, space.tensor(space), space)  # e*e = 0
    alg = StructureAlgebra(mul, basis_vector(QQ, space, 0))
    rep = validate_algebra(alg)
    bad = [c for c in rep.checks if c.status == "fail"]
    assert bad and bad[0].witness is not None


def test_sweedler_coalgebra_validates():
    h = sweedler_hopf()
    assert validate_coalgebra(h.coalgebra).passed


def test_dropped_coproduct_term_fails_with_witness():
    # dropping the x (x) 1 term leaves comul(x) = g (x) x, which is
    # still coassociative but breaks the right counit law at x
    h = sweedler_hopf()
    entries = [list(r) for r in h.coalgebra.comul.entries]
    cc = h.coalgebra.comul.codomain
    entries[cc.flatten((2, 0))][2] = QQ.zero
    broken = StructureCoalgebra(
        LinMap(QQ, h.coalgebra.space, cc, entries), h.coalgebra.counit)
    rep = validate_coalgebra(broken)
    assert not rep.passed
    witnessed = rep.named("coalgebra-right-counit")
    assert witnessed.status == "fail"
    assert witnessed.witness["basis"] == [2]


def test_doubled_coproduct_term_fails_coassociativity():
    # scaling the x (x) 1 term does break coassociativity, witness x
    h = sweedler_hopf()
    entries = [list(r) for r in h.coalgebra.comul.entries]
    cc = h.coalgebra.comul.codomain
    entries[cc.flatten((2, 0))][2] = QQ.scalar(2)
    broken = StructureCoalgebra(
        LinMap(QQ, h.coalgebra.space, cc, entries), h.coalgebra.counit)
    rep = validate_coalgebra(broken)
    witnessed = rep.named("coalgebra-coassociativity")
    assert witnessed.status == "fail"
    assert witnessed.witness["basis"] == [2]


def test_sweedler_hopf_validates():
    assert validate_hopf(sweedler_hopf()).passed


def test_sweedler_wrong_antipode_fails_with_witness():
    h = sweedler_hopf()
    # replace S(x) = -gx by S(x) = x
    entries = [list(r) for r in h.antipode.entries]
    entries[3][2] = QQ.zero
    entries[2][2] = QQ.one
    broken = HopfAlgebra(h.algebra, h.coalgebra,
                         LinMap(QQ, h.space, h.space, entries))
    rep = validate_hopf(broken)
    fail = rep.named("hopf-antipode-left")
    assert fail.status == "fail"
    assert fail.witness["basis"] == [2]


def test_zn_hopf_validates_for_several_n():
    for n in (1, 2, 3, 4, 6):
        assert validate_hopf(cyclic_group_hopf(n)).passed


def test_grouplike_checks():
    h = cyclic_group_hopf(3)
    for i in range(3):
        assert check_grouplike(basis_vector(QQ, h.space, i), h.coalgebra)
    zero = vector(QQ, h.space, [0, 0, 0])
    assert not check_grouplike(zero, h.coalgebra)
    s = sweedler_hopf()
    x = basis_vector(QQ, s.space, 2)
    assert not check_grouplike(x, s.coalgebra)


def test_counit_pair_collapses_grouplike_coproduct():
    # (counit (x) counit) o comul sends a grouplike to 1
    h = cyclic_group_hopf(3)
    eps2 = map_kron(h.coalgebra.counit, h.coalgebra.counit) @ h.coalgebra.comul
    for i in range(3):
        out = eps2 @ basis_vector(QQ, h.space, i)
        assert out.entries[0][0] == QQ.one


def test_antipode_inverse_involution_for_z2():
    h = cyclic_group_hopf(2)
    assert h.solved_antipode_inv == h.antipode


def test_antipode_inverse_sweedler():
    h = sweedler_hopf()
    s_inv = h.solved_antipode_inv
    assert h.antipode @ s_inv == LinMap.identity(QQ, h.space)
    # S has order 4 on x
    assert s_inv != h.antipode


def test_singular_antipode_reported():
    h = cyclic_group_hopf(2)
    singular = LinMap.zero(QQ, h.space, h.space)
    broken = HopfAlgebra(h.algebra, h.coalgebra, singular)
    assert broken.solved_antipode_inv is None
    rep = validate_hopf(broken)
    assert rep.named("hopf-antipode-bijective").status == "fail"


def test_identity_antipode_of_trivial_coalgebra_field():
    # commutative cocommutative degenerate case: Z_1
    h = cyclic_group_hopf(1)
    assert h.antipode == LinMap.identity(QQ, h.space)


def test_structure_shape_validation():
    space = SpaceLabel.base("A", 2)
    with pytest.raises(ShapeError):
        StructureAlgebra(LinMap.zero(QQ, space, space),  # wrong domain
                         basis_vector(QQ, space, 0))
    coa = trivial_coalgebra(QQ)
    with pytest.raises(ShapeError):
        StructureCoalgebra(coa.comul, LinMap.zero(QQ, space, SpaceLabel.scalar()))
    h = cyclic_group_hopf(2)
    with pytest.raises(ShapeError, match="antipode must be an endomap"):
        HopfAlgebra(h.algebra, h.coalgebra, h.coalgebra.counit)
