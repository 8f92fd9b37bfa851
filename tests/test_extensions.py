import pytest

from strongconn.errors import ShapeError, ValidationFailed
from strongconn.extensions import (
    coaction_from_unit_check,
    galois_check,
    hopf_entwining,
    induced_left_coaction,
    key_identity_check,
    lifted_canonical,
    make_extension,
    validate_and_build,
    validate_entwining_rr,
)
from strongconn.instances import (
    build_graded_extension,
    build_group_self_extension,
    build_trivial,
    cyclic_group_hopf,
    self_extension,
    sweedler_hopf,
    truncated_polynomial_algebra,
)
from strongconn.linmaps import (
    LinMap,
    SpaceLabel,
    basis_vector,
    compose_legs,
    flip_map,
    map_kron,
    try_inverse,
)
from strongconn.scalars import Field

QQ = Field.rationals()
ZETA3 = Field.number_field([1, 1, 1])


@pytest.fixture(scope="module")
def z2_ext():
    return build_group_self_extension(2)


@pytest.fixture(scope="module")
def graded22():
    return build_graded_extension(2, 2)


def test_flip_entwining_on_commutative_pair():
    h = cyclic_group_hopf(2)
    a_space = SpaceLabel.base("A", 2)
    alg = h.algebra.mul.relabel(domain=a_space.tensor(a_space), codomain=a_space)
    from strongconn.structures import StructureAlgebra
    alg = StructureAlgebra(alg, h.algebra.unit.relabel(codomain=a_space))
    psi = flip_map(QQ, h.space, a_space)
    rep = validate_entwining_rr(psi, alg, h.coalgebra)
    assert rep.passed
    e = basis_vector(QQ, h.space, 0)
    ext = make_extension(alg, h.coalgebra, psi, map_kron(alg.identity(), e), e)
    assert ext.entwining.psi_inv == flip_map(QQ, a_space, h.space)


def test_hopf_entwining_z2_formula(z2_ext):
    # psi(g^i (x) g^j) = g^j (x) g^(i+j)
    psi = z2_ext.entwining.psi
    dom = psi.domain
    cod = psi.codomain
    for i in range(2):
        for j in range(2):
            col = psi.column(dom.flatten((i, j)))
            expect = cod.flatten((j, (i + j) % 2))
            assert col[expect] == QQ.one
            assert sum(1 for c in col if c) == 1


def test_hopf_entwining_at_unit_grouplike_gives_coaction(z2_ext):
    # psi(e (x) a) = rho(a) when e is the designated grouplike unit
    psi = z2_ext.entwining.psi
    rho = z2_ext.coaction.rho
    e = z2_ext.grouplike
    ia = z2_ext.algebra.identity()
    assert psi @ map_kron(e, ia) == rho


def hopf_entwining_cases():
    """(hopf, extension) of every library Hopf entwining."""
    cases = []
    for field in (QQ, ZETA3):
        for n in range(1, 5):
            hopf = cyclic_group_hopf(n, field)
            for ext in (self_extension(hopf), build_graded_extension(n, 1, field)):
                cases.append((hopf, ext))
    hopf = sweedler_hopf()
    return cases + [(hopf, self_extension(hopf))]


def closed_form_psi_inv(hopf, alg, rho):
    """a (x) c -> c S^{-1}(a_1) (x) a_0, the inverse of the Hopf entwining."""
    flip_ah = flip_map(alg.field, alg.space, hopf.space)
    return compose_legs(flip_ah.domain, (hopf.algebra.mul, 0), (flip_ah, 1),
                        (try_inverse(hopf.antipode), 2), (rho, 1), (flip_ah, 0))


def test_hopf_entwining_inverse_equals_the_matrix_inverse():
    # make_extension inverts psi by elimination; that inverse is the
    # closed form
    for hopf, ext in hopf_entwining_cases():
        alg, rho = ext.algebra, ext.coaction.rho
        assert ext.entwining.psi == hopf_entwining(hopf, alg, rho)
        assert ext.entwining.psi_inv == closed_form_psi_inv(hopf, alg, rho)


def test_non_multiplicative_rho_fails_make_extension():
    # Q[x]/(x^3 - 1) with 1 in degree 0 and x, x^2 in degree 1: a
    # Z_2-coaction that is unital but not multiplicative (x x = x^2)
    hopf = cyclic_group_hopf(2)
    alg = truncated_polynomial_algebra(3, 1)
    rho = LinMap.from_rules(QQ, alg.space, alg.space.tensor(hopf.space),
                            lambda k: [((k[0], min(k[0], 1)), 1)])
    psi = hopf_entwining(hopf, alg, rho)
    e = hopf.algebra.unit
    with pytest.raises(ValidationFailed):
        make_extension(alg, hopf.coalgebra, psi, rho, e)
    _, rep = validate_and_build(alg, hopf.coalgebra, psi, rho, e)
    assert rep.named("entwined-module-right").status == "fail"
    assert rep.named("coaction-right-coassociativity").status == "pass"
    assert rep.named("unit-coacts-to-grouplike").status == "pass"


def test_hopf_entwining_rejects_an_inverse_that_does_not_compose():
    # rho(a) = a (x) (1 + g) breaks counitality; the closed-form inverse
    # would send psi(c (x) a) = c (1 + g) (x) a to 2 c (1 + g) (x) a,
    # and psi itself is singular, since (1 + g) g = 1 + g
    hopf = cyclic_group_hopf(2)
    alg = truncated_polynomial_algebra(2, 2)
    rho = LinMap.from_rules(QQ, alg.space, alg.space.tensor(hopf.space),
                            lambda k: [((k[0], 0), 1), ((k[0], 1), 1)])
    psi = hopf_entwining(hopf, alg, rho)
    with pytest.raises(ValidationFailed):
        make_extension(alg, hopf.coalgebra, psi, rho, hopf.algebra.unit)
    _, rep = validate_and_build(alg, hopf.coalgebra, psi, rho, hopf.algebra.unit)
    assert [c.name for c in rep.failures] == [
        "entwining-rr-multiplicativity", "entwining-rr-unitality",
        "entwining-rr-comultiplicativity", "entwining-rr-counitality",
        "entwining-bijective"]


def test_entwining_validator_catches_broken_unitality(z2_ext):
    psi = z2_ext.entwining.psi
    # zero out the a = 1 columns: psi(c (x) 1) = 0
    entries = [list(r) for r in psi.entries]
    for c_idx in range(2):
        col = psi.domain.flatten((c_idx, 0))
        for r in range(len(entries)):
            entries[r][col] = QQ.zero
    broken = LinMap(QQ, psi.domain, psi.codomain, entries)
    rep = validate_entwining_rr(broken, z2_ext.algebra, z2_ext.coalgebra)
    unitality = rep.named("entwining-rr-unitality")
    assert unitality.status == "fail"
    assert unitality.witness["basis"] == [0]


def test_validate_and_build_label_mismatch_raises():
    # a C (x) A -> A (x) C map is automatically square, so the shape
    # error surfaces as a label mismatch against the wrong algebra
    h = cyclic_group_hopf(2)
    alg3 = truncated_polynomial_algebra(3, 1)
    alg2 = truncated_polynomial_algebra(2, 2)
    psi = LinMap.zero(QQ, h.space.tensor(alg3.space), alg3.space.tensor(h.space))
    rho = map_kron(alg2.identity(), basis_vector(QQ, h.space, 0))
    with pytest.raises(ShapeError):
        validate_and_build(alg2, h.coalgebra, psi, rho)


def test_validate_and_build_singular_psi_fails_bijectivity(z2_ext):
    singular = LinMap.zero(QQ, z2_ext.entwining.psi.domain,
                           z2_ext.entwining.psi.codomain)
    ext, rep = validate_and_build(z2_ext.algebra, z2_ext.coalgebra, singular,
                                  z2_ext.coaction.rho, z2_ext.grouplike)
    assert ext is None
    bijective = rep.named("entwining-bijective")
    assert bijective.status == "fail"
    assert bijective.witness == {"reason": "psi matrix is singular"}
    assert not [c.name for c in rep.checks if c.name.startswith("entwining-ll-")]


def test_left_coaction_z2(z2_ext):
    # left coaction of the self-extension: g -> g (x) g
    lam = z2_ext.coaction.rho_left
    col = lam.column(1)
    idx = lam.codomain.flatten((1, 1))
    assert col[idx] == QQ.one
    assert sum(1 for c in col if c) == 1


def test_left_coaction_graded(graded22):
    # x -> g (x) x
    lam = graded22.coaction.rho_left
    col = lam.column(1)
    assert col[lam.codomain.flatten((1, 1))] == QQ.one
    assert sum(1 for c in col if c) == 1


def test_trivial_extension_left_coaction():
    ext = build_trivial(truncated_polynomial_algebra(2, 2))
    lam = ext.coaction.rho_left
    for j in range(2):
        col = lam.column(j)
        assert col[lam.codomain.flatten((0, j))] == QQ.one


def test_entwined_module_and_unit_coaction_checks(z2_ext, graded22):
    from strongconn.extensions import validate_entwined_module
    for ext in (z2_ext, graded22):
        rep = validate_entwined_module(ext.algebra, ext.entwining, ext.coaction)
        assert rep.passed
        assert coaction_from_unit_check(ext.algebra, ext.entwining,
                                        ext.coaction.rho).passed


def test_corrupt_rho_fails_entwined_module(z2_ext):
    from strongconn.extensions import Coaction, validate_entwined_module
    rho = z2_ext.coaction.rho
    entries = [list(r) for r in rho.entries]
    entries[rho.codomain.flatten((1, 1))][1] = QQ.zero
    entries[rho.codomain.flatten((1, 0))][1] = QQ.one  # rho(g) = g (x) 1
    bad = Coaction(LinMap(QQ, rho.domain, rho.codomain, entries),
                   z2_ext.coaction.rho_left)
    rep = validate_entwined_module(z2_ext.algebra, z2_ext.entwining, bad)
    assert rep.named("entwined-module-right").status == "fail"
    assert rep.named("entwined-module-right").witness is not None


def test_coinvariants_trivial_extension_is_everything():
    alg = truncated_polynomial_algebra(2, 2)
    ext = build_trivial(alg)
    assert ext.coinvariants.dim == alg.dim


def test_coinvariants_self_extension_is_unit_line(z2_ext):
    assert z2_ext.coinvariants.dim == 1
    assert z2_ext.coinvariants.contains_vector([QQ.one, QQ.zero])


def test_coinvariants_graded_is_unit_line(graded22):
    assert graded22.coinvariants.dim == 1


def test_lifted_canonical_values(z2_ext, graded22):
    lcan = lifted_canonical(z2_ext.algebra, z2_ext.coalgebra,
                            z2_ext.coaction.rho)
    dom = lcan.domain
    cod = lcan.codomain
    col = lcan.column(dom.flatten((0, 1)))  # 1 (x) g
    assert col[cod.flatten((1, 1))] == QQ.one  # g (x) g
    lcan2 = lifted_canonical(graded22.algebra, graded22.coalgebra,
                             graded22.coaction.rho)
    col = lcan2.column(lcan2.domain.flatten((1, 1)))  # x (x) x
    assert col[lcan2.codomain.flatten((0, 1))] == QQ.scalar(2)  # 2 (x) g


def test_galois_check_passes_on_self_and_graded(z2_ext, graded22):
    for ext in (z2_ext, graded22):
        rep = galois_check(ext)
        assert rep.named("galois").status == "pass"
        dims = rep.named("galois-dimension-count").witness
        assert dims["balanced_tensor_dim"] == dims["target_dim"]


def test_galois_check_dimension_values(z2_ext):
    rep = galois_check(z2_ext)
    w = rep.named("galois-dimension-count").witness
    assert w == {"balanced_tensor_dim": 4, "target_dim": 4}


def test_galois_fails_for_two_dim_trivial_coaction():
    # B = A, C two-dimensional with trivial coaction: surjectivity fails
    alg = truncated_polynomial_algebra(2, 2)
    h = cyclic_group_hopf(2)
    e = basis_vector(QQ, h.space, 0)
    rho = map_kron(alg.identity(), e)
    psi = flip_map(QQ, h.space, alg.space)
    ext, rep = validate_and_build(alg, h.coalgebra, psi, rho, e)
    assert ext is not None
    grep = galois_check(ext)
    assert grep.named("galois-canonical-surjective").status == "fail"
    assert grep.named("galois").status == "fail"


def test_galois_fails_for_graded_t0():
    ext = build_graded_extension(2, 0)
    rep = galois_check(ext)
    assert rep.named("galois-canonical-surjective").status == "fail"


def test_key_identity_on_instances(z2_ext, graded22):
    assert key_identity_check(z2_ext).passed
    assert key_identity_check(graded22).passed


def test_key_identity_catches_corrupt_psi_inv(z2_ext):
    from strongconn.extensions import Entwining, EntwinedExtension
    inv = z2_ext.entwining.psi_inv
    entries = [list(r) for r in inv.entries]
    entries[0][0] = entries[0][0] + QQ.one
    bad = Entwining(z2_ext.entwining.psi,
                    LinMap(QQ, inv.domain, inv.codomain, entries))
    ext = EntwinedExtension(z2_ext.algebra, z2_ext.coalgebra, bad,
                            z2_ext.coaction, z2_ext.grouplike,
                            z2_ext.coinvariants)
    rep = key_identity_check(ext)
    assert rep.named("key-identity").status == "fail"
    assert rep.named("key-identity").witness is not None


def test_make_extension_rejects_bad_grouplike(z2_ext):
    g = basis_vector(QQ, z2_ext.coalgebra.space, 1)
    with pytest.raises(ValidationFailed):
        make_extension(z2_ext.algebra, z2_ext.coalgebra,
                       z2_ext.entwining.psi, z2_ext.coaction.rho, g)


def test_induced_left_coaction_equals_psi_inv_at_grouplike(z2_ext):
    # with rho(1) = 1 (x) e the left coaction is a -> psi_inv(a (x) e)
    lam = induced_left_coaction(z2_ext.algebra, z2_ext.entwining,
                                z2_ext.coaction.rho)
    ia = z2_ext.algebra.identity()
    direct = z2_ext.entwining.psi_inv @ map_kron(ia, z2_ext.grouplike)
    assert lam == direct
