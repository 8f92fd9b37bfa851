"""Entwining maps, coactions, coinvariants and the lifted canonical map.

An entwining is a map psi: C (x) A -> A (x) C compatible with the
product of A and the coproduct of C through four identities; its matrix
inverse then satisfies the four mirror identities automatically, and we
re-verify that as an integration check.  The third mirror identity is
printed ambiguously in the literature this follows; we implement the
only shape-consistent reading and flag the corresponding report entry
as reconstructed.

An entwined extension bundles an algebra A, a coalgebra C, a bijective
entwining, a right coaction rho satisfying the entwined-module law
rho(a a') = a_0 psi(a_1 (x) a'), the induced left coaction, an optional
designated grouplike with rho(1) = 1 (x) e, and the computed coinvariant
subalgebra B = {b : rho(b a) = b rho(a) for all a}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InternalContradiction,
    NotComoduleAlgebra,
    PsiNotBijective,
    ShapeError,
    ValidationFailed,
)
from .linmaps import (
    LinMap,
    Solution,
    SpaceLabel,
    Subspace,
    basis_vector,
    flip_map,
    kron_all,
    map_kron,
    rref_solve,
    stacked_kernel,
    try_inverse,
)
from .report import VerificationReport, check_map_equal
from .structures import (
    HopfAlgebra,
    StructureAlgebra,
    StructureCoalgebra,
    antipode_inverse,
    check_grouplike,
    validate_algebra,
    validate_coalgebra,
)


@dataclass(frozen=True)
class Entwining:
    psi: LinMap      # C (x) A -> A (x) C
    psi_inv: LinMap  # A (x) C -> C (x) A


@dataclass(frozen=True)
class Coaction:
    rho: LinMap       # A -> A (x) C
    rho_left: LinMap  # A -> C (x) A


@dataclass(frozen=True)
class EntwinedExtension:
    algebra: StructureAlgebra
    coalgebra: StructureCoalgebra
    entwining: Entwining
    coaction: Coaction
    grouplike: LinMap | None
    coinvariants: Subspace

    @property
    def field(self):
        return self.algebra.field

    def unit_coaction(self) -> LinMap:
        """rho(1) as a vector in A (x) C."""
        return self.coaction.rho @ self.algebra.unit

    @cached_property
    def canonical_map(self) -> LinMap:
        """The lifted canonical map a (x) a' -> a rho(a'), built once."""
        return lifted_canonical(self.algebra, self.coalgebra, self.coaction.rho)

    @cached_property
    def canonical_solution(self) -> Solution:
        """The one elimination of the canonical map against 1 (x) C: a
        section on that slice (or Infeasible), the rank and the kernel."""
        return rref_solve(self.canonical_map,
                          map_kron(self.algebra.unit, self.coalgebra.identity()))


def _psi_shapes(psi: LinMap, alg: StructureAlgebra, coa: StructureCoalgebra) -> None:
    if psi.domain != coa.space.tensor(alg.space) or \
            psi.codomain != alg.space.tensor(coa.space):
        raise ShapeError("psi must map C(x)A -> A(x)C")


def validate_entwining_rr(psi: LinMap, alg: StructureAlgebra,
                          coa: StructureCoalgebra) -> VerificationReport:
    """The four right-right entwining identities, with basis witnesses."""
    _psi_shapes(psi, alg, coa)
    rep = VerificationReport()
    ia = alg.identity()
    ic = coa.identity()
    check_map_equal(rep, "entwining-rr-multiplicativity",
                    psi @ map_kron(ic, alg.mul),
                    map_kron(alg.mul, ic) @ map_kron(ia, psi) @ map_kron(psi, ia))
    check_map_equal(rep, "entwining-rr-unitality",
                    psi @ map_kron(ic, alg.unit), map_kron(alg.unit, ic))
    check_map_equal(rep, "entwining-rr-comultiplicativity",
                    map_kron(ia, coa.comul) @ psi,
                    map_kron(psi, ic) @ map_kron(ic, psi) @ map_kron(coa.comul, ia))
    check_map_equal(rep, "entwining-rr-counitality",
                    map_kron(ia, coa.counit) @ psi, map_kron(coa.counit, ia))
    return rep


def validate_entwining_ll(psi_inv: LinMap, alg: StructureAlgebra,
                          coa: StructureCoalgebra) -> VerificationReport:
    """The four left-left identities for the inverse entwining."""
    if psi_inv.domain != alg.space.tensor(coa.space) or \
            psi_inv.codomain != coa.space.tensor(alg.space):
        raise ShapeError("psi_inv must map A(x)C -> C(x)A")
    rep = VerificationReport()
    ia = alg.identity()
    ic = coa.identity()
    check_map_equal(rep, "entwining-ll-multiplicativity",
                    psi_inv @ map_kron(alg.mul, ic),
                    map_kron(ic, alg.mul) @ map_kron(psi_inv, ia) @ map_kron(ia, psi_inv))
    check_map_equal(rep, "entwining-ll-unitality",
                    psi_inv @ map_kron(alg.unit, ic), map_kron(ic, alg.unit))
    check_map_equal(rep, "entwining-ll-comultiplicativity (reconstructed)",
                    map_kron(coa.comul, ia) @ psi_inv,
                    map_kron(ic, psi_inv) @ map_kron(psi_inv, ic) @ map_kron(ia, coa.comul))
    check_map_equal(rep, "entwining-ll-counitality",
                    map_kron(coa.counit, ia) @ psi_inv, map_kron(ia, coa.counit))
    return rep


def invert_entwining(psi: LinMap, alg: StructureAlgebra,
                     coa: StructureCoalgebra) -> Entwining:
    """Invert a validated right-right entwining and re-verify the mirror
    identities.  A mirror identity failing after a right-right pass is a
    derivable-identity violation and raises InternalContradiction."""
    _psi_shapes(psi, alg, coa)
    if psi.nrows != psi.ncols:
        raise ShapeError("psi must be square to be invertible")
    rr = validate_entwining_rr(psi, alg, coa)
    inv = try_inverse(psi)
    if inv is None:
        raise PsiNotBijective("entwining matrix is singular")
    ll = validate_entwining_ll(inv, alg, coa)
    if not ll.passed:
        if rr.passed:
            raise InternalContradiction(
                f"mirror entwining identity failed: {ll.failures[0].name}")
        raise ValidationFailed(
            f"right-right entwining axiom failed: {rr.failures[0].name}")
    return Entwining(psi, inv)


def hopf_entwining(hopf: HopfAlgebra, alg: StructureAlgebra, rho: LinMap) -> Entwining:
    """The entwining of a comodule algebra over a Hopf algebra:
    psi(c (x) a) = a_0 (x) c a_1 with inverse a (x) c -> c S^{-1}(a_1) (x) a_0."""
    h_space = hopf.space
    a_space = alg.space
    if rho.domain != a_space or rho.codomain != a_space.tensor(h_space):
        raise ShapeError("rho must map A -> A(x)H")
    field = alg.field
    ia = alg.identity()
    ih = LinMap.identity(field, h_space)
    coact = validate_right_coaction(rho, hopf.coalgebra, a_space)
    if not coact.passed:
        raise NotComoduleAlgebra(f"coaction law fails: {coact.failures[0].name}")
    tensor_mul = map_kron(alg.mul, hopf.algebra.mul) @ \
        kron_all(ia, flip_map(field, h_space, a_space), ih)
    if rho @ alg.mul != tensor_mul @ map_kron(rho, rho):
        raise NotComoduleAlgebra("rho is not multiplicative")
    if rho @ alg.unit != map_kron(alg.unit, hopf.algebra.unit):
        raise NotComoduleAlgebra("rho does not preserve the unit")
    psi = map_kron(ia, hopf.algebra.mul) @ \
        map_kron(flip_map(field, h_space, a_space), ih) @ map_kron(ih, rho)
    s_inv = antipode_inverse(hopf)
    closed_inv = map_kron(hopf.algebra.mul, ia) @ \
        map_kron(ih, flip_map(field, a_space, h_space)) @ \
        kron_all(ih, ia, s_inv) @ map_kron(ih, rho) @ flip_map(field, a_space, h_space)
    matrix_inv = try_inverse(psi)
    if matrix_inv is None:
        raise PsiNotBijective("Hopf entwining matrix is singular")
    if closed_inv != matrix_inv:
        raise InternalContradiction("closed-form inverse disagrees with the matrix inverse")
    return Entwining(psi, matrix_inv)


def validate_right_coaction(rho: LinMap, coa: StructureCoalgebra,
                            a_space: SpaceLabel) -> VerificationReport:
    rep = VerificationReport()
    field = rho.field
    ia = LinMap.identity(field, a_space)
    ic = coa.identity()
    check_map_equal(rep, "coaction-right-counitality",
                    map_kron(ia, coa.counit) @ rho, ia)
    check_map_equal(rep, "coaction-right-coassociativity",
                    map_kron(rho, ic) @ rho, map_kron(ia, coa.comul) @ rho)
    return rep


def validate_left_coaction(rho_left: LinMap, coa: StructureCoalgebra,
                           a_space: SpaceLabel) -> VerificationReport:
    rep = VerificationReport()
    field = rho_left.field
    ia = LinMap.identity(field, a_space)
    ic = coa.identity()
    check_map_equal(rep, "coaction-left-counitality",
                    map_kron(coa.counit, ia) @ rho_left, ia)
    check_map_equal(rep, "coaction-left-coassociativity",
                    map_kron(ic, rho_left) @ rho_left,
                    map_kron(coa.comul, ia) @ rho_left)
    return rep


def induced_left_coaction(alg: StructureAlgebra, entw: Entwining, rho: LinMap) -> LinMap:
    """The left coaction a -> psi_inv(a rho(1))."""
    ia = alg.identity()
    ic = LinMap.identity(alg.field, SpaceLabel([rho.codomain.factors[-1]]))
    unit_image = rho @ alg.unit  # rho(1): k -> A (x) C
    mult_by_rho1 = map_kron(alg.mul, ic) @ map_kron(ia, unit_image)
    return entw.psi_inv @ mult_by_rho1


def validate_entwined_module(alg: StructureAlgebra, coa: StructureCoalgebra,
                             entw: Entwining, coact: Coaction) -> VerificationReport:
    """rho(a a') = a_0 psi(a_1 (x) a') and its left mirror, over all pairs."""
    rep = VerificationReport()
    ia = alg.identity()
    ic = coa.identity()
    rho, lam = coact.rho, coact.rho_left
    check_map_equal(rep, "entwined-module-right",
                    rho @ alg.mul,
                    map_kron(alg.mul, ic) @ map_kron(ia, entw.psi) @ map_kron(rho, ia))
    check_map_equal(rep, "entwined-module-left",
                    lam @ alg.mul,
                    map_kron(ic, alg.mul) @ map_kron(entw.psi_inv, ia) @ map_kron(ia, lam))
    return rep


def coaction_from_unit_check(alg: StructureAlgebra, coa: StructureCoalgebra,
                             entw: Entwining, rho: LinMap) -> VerificationReport:
    """rho(a) = 1_0 psi(1_1 (x) a) for every basis element a."""
    rep = VerificationReport()
    ia = alg.identity()
    ic = coa.identity()
    unit_image = rho @ alg.unit
    rebuilt = map_kron(alg.mul, ic) @ map_kron(ia, entw.psi) @ map_kron(unit_image, ia)
    check_map_equal(rep, "coaction-from-unit", rho, rebuilt)
    return rep


def coinvariants(alg: StructureAlgebra, rho: LinMap) -> Subspace:
    """B = {b : rho(b a) = b rho(a) for all a}, by one stacked kernel.

    Post-checks that 1 lies in B and that B is closed under the product;
    both are consequences of the definition, so a failure indicates a
    solver bug and raises InternalContradiction.
    """
    field = alg.field
    a_space = alg.space
    c_label = SpaceLabel([rho.codomain.factors[-1]])
    ic = LinMap.identity(field, c_label)
    ia = alg.identity()
    maps = []
    for j in range(a_space.dim):
        aj = basis_vector(field, a_space, j)
        rho_aj = rho @ aj
        left = rho @ alg.right_mult(aj)
        right = map_kron(alg.mul, ic) @ map_kron(ia, rho_aj)
        maps.append(left - right)
    sub = stacked_kernel(maps)
    if sub.first_outside(alg.unit) is not None:
        raise InternalContradiction("coinvariants do not contain the unit")
    incl = sub.inclusion()
    if sub.first_outside(alg.mul @ map_kron(incl, incl)) is not None:
        raise InternalContradiction("coinvariants are not closed under product")
    return sub


def lifted_canonical(alg: StructureAlgebra, coa: StructureCoalgebra,
                     rho: LinMap) -> LinMap:
    """a (x) a' -> a rho(a'), from A (x) A to A (x) C."""
    return map_kron(alg.mul, coa.identity()) @ map_kron(alg.identity(), rho)


def relation_subspace(alg: StructureAlgebra, coinv: Subspace) -> Subspace:
    """span{a b (x) a' - a (x) b a'} over basis a, a' of A and b of B."""
    ia = alg.identity()
    incl = coinv.inclusion()
    return Subspace.image(map_kron(alg.mul @ map_kron(ia, incl), ia)
                          - map_kron(ia, alg.mul @ map_kron(incl, ia)))


def galois_check(ext: EntwinedExtension) -> VerificationReport:
    """Surjectivity of the lifted canonical map plus kernel = B-relations.

    Together these say the canonical map on A (x)_B A is bijective; the
    coinduced dimension comparison is reported alongside.
    """
    rep = VerificationReport()
    alg, coa = ext.algebra, ext.coalgebra
    sol = ext.canonical_solution
    ker = sol.kernel
    full = alg.dim * coa.dim
    surj = rep.add("galois-canonical-surjective", sol.rank == full,
                   {"rank": sol.rank, "required": full}, keep=True)
    rel = relation_subspace(alg, ext.coinvariants)
    kernel_ok = rep.add("galois-kernel-equals-relations", ker == rel,
                        {"kernel_dim": ker.dim, "relations_dim": rel.dim},
                        keep=True)
    quotient_dim = alg.dim * alg.dim - rel.dim
    rep.add("galois-dimension-count", quotient_dim == full,
            {"balanced_tensor_dim": quotient_dim, "target_dim": full},
            keep=True)
    rep.add("galois", surj and kernel_ok,
            {"surjective": surj, "kernel_equals_relations": kernel_ok},
            keep=True)
    return rep


def key_identity_check(ext: EntwinedExtension) -> VerificationReport:
    """psi_inv(a a'_0 (x) a'_1) (x) a'_2 = a_{-1} (x) a_0 a'_0 (x) a'_1.

    Derivable from the entwining and coaction laws; checking it knits
    psi_inv, rho and the left coaction together in one identity.
    """
    rep = VerificationReport()
    alg, coa = ext.algebra, ext.coalgebra
    ia = alg.identity()
    ic = coa.identity()
    rho, lam = ext.coaction.rho, ext.coaction.rho_left
    lhs = map_kron(ext.entwining.psi_inv, ic) @ kron_all(alg.mul, ic, ic) @ \
        kron_all(ia, ia, coa.comul) @ map_kron(ia, rho)
    rhs = kron_all(ic, alg.mul, ic) @ map_kron(lam, rho)
    check_map_equal(rep, "key-identity", lhs, rhs)
    return rep


def validate_and_build(alg: StructureAlgebra, coa: StructureCoalgebra,
                       psi: LinMap, rho: LinMap,
                       grouplike: LinMap | None = None):
    """Run the full validation ladder; return (extension | None, report).

    The extension is produced only when every structural check passes.
    The Galois condition is not part of structural validity and is
    checked separately by galois_check.
    """
    rep = VerificationReport()
    rep.extend(validate_algebra(alg))
    rep.extend(validate_coalgebra(coa))
    rep.extend(validate_entwining_rr(psi, alg, coa))
    if psi.nrows != psi.ncols:
        raise ShapeError("psi must be square")
    inv = try_inverse(psi)
    if inv is None:
        rep.add("entwining-bijective", False, {"reason": "psi matrix is singular"})
        return None, rep
    rep.add("entwining-bijective", True)
    rep.extend(validate_entwining_ll(inv, alg, coa))
    entw = Entwining(psi, inv)
    rep.extend(validate_right_coaction(rho, coa, alg.space))
    rho_left = induced_left_coaction(alg, entw, rho)
    rep.extend(validate_left_coaction(rho_left, coa, alg.space))
    coact = Coaction(rho, rho_left)
    rep.extend(validate_entwined_module(alg, coa, entw, coact))
    rep.extend(coaction_from_unit_check(alg, coa, entw, rho))
    if grouplike is not None:
        rep.add("grouplike-designated", check_grouplike(grouplike, coa))
        check_map_equal(rep, "unit-coacts-to-grouplike",
                        rho @ alg.unit, map_kron(alg.unit, grouplike))
    if not rep.passed:
        return None, rep
    coinv = coinvariants(alg, rho)
    rep.add("coinvariants-contain-unit", True)
    rep.add("coinvariants-closed", True)
    if grouplike is not None:
        incl = coinv.inclusion()
        rep.add("coinvariants-coact-trivially",
                rho @ incl == map_kron(incl, grouplike))
    if not rep.passed:
        return None, rep
    ext = EntwinedExtension(alg, coa, entw, coact, grouplike, coinv)
    rep.extend(key_identity_check(ext))
    if not rep.passed:
        return None, rep
    return ext, rep


def make_extension(alg: StructureAlgebra, coa: StructureCoalgebra,
                   psi: LinMap, rho: LinMap,
                   grouplike: LinMap | None = None) -> EntwinedExtension:
    """Strict construction: raises ValidationFailed on the first bad axiom."""
    ext, rep = validate_and_build(alg, coa, psi, rho, grouplike)
    if ext is None:
        raise ValidationFailed(f"structural check failed: {rep.failures[0].name}")
    return ext
