"""Entwining maps, coactions, coinvariants and the lifted canonical map.

An entwining is a map psi: C (x) A -> A (x) C compatible with the
product of A and the coproduct of C through four identities (Brzezinski
and Majid, "Coalgebra bundles", Comm. Math. Phys. 191, 1998); its matrix
inverse then satisfies the four mirror identities, as conjugating a
right-right law by psi_inv gives its left-left mirror: validate_and_build
takes their status from that lemma (IMPLIED_LAWS).  The third is printed
ambiguously in the literature this follows; the conjugation yields the
reading implemented here, whose report entry stays "(reconstructed)".

An entwined extension bundles an algebra A, a coalgebra C, a bijective
entwining, a right coaction rho satisfying the entwined-module law
rho(a a') = a_0 psi(a_1 (x) a'), the induced left coaction, an optional
designated grouplike with rho(1) = 1 (x) e, and the computed coinvariant
subalgebra B = {b : rho(b a) = b rho(a) for all a}, read on a validated
extension as the kernel of b -> rho(b) - b rho(1) (see coinvariants).

validate_and_build (strictly: make_extension) is the one place that
checks these laws and inverts psi (builders such as hopf_entwining hand
it psi alone); an EntwinedExtension exists only after every one of them
passed, so builders before it and consumers after it do not repeat them.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import InternalContradiction, ShapeError, ValidationFailed
from .linmaps import (
    LinMap,
    Solution,
    SpaceLabel,
    Subspace,
    compose_legs,
    flip_map,
    map_kron,
    precompose_at,
    rref_solve,
    stacked_kernel,
    try_inverse,
)
from .report import PASS, VerificationReport, check_conditions, check_laws
from .structures import (
    ON_GENERATOR,
    HopfAlgebra,
    StructureAlgebra,
    StructureCoalgebra,
    algebra_laws,
    check_grouplike,
    validate_coalgebra,
)


class Entwining(NamedTuple):
    psi: LinMap      # C (x) A -> A (x) C
    psi_inv: LinMap  # A (x) C -> C (x) A


class Coaction(NamedTuple):
    rho: LinMap       # A -> A (x) C
    rho_left: LinMap  # A -> C (x) A


class EntwinedExtension:
    def __init__(self, algebra: StructureAlgebra, coalgebra: StructureCoalgebra,
                 entwining: Entwining, coaction: Coaction,
                 grouplike: LinMap | None, coinvariants: Subspace):
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.entwining = entwining
        self.coaction = coaction
        self.grouplike = grouplike
        self.coinvariants = coinvariants
        self.condition_cache = {}  # ell -> _defining_conditions(ell, self)

    @property
    def field(self):
        return self.algebra.field

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


def rr_laws(psi: LinMap, alg: StructureAlgebra, coa: StructureCoalgebra) -> tuple:
    """The four right-right entwining identities, a table for
    report.check_conditions."""
    if psi.domain != coa.space.tensor(alg.space) or \
            psi.codomain != alg.space.tensor(coa.space):
        raise ShapeError("psi must map C(x)A -> A(x)C")
    mul, unit, comul, counit = alg.mul, alg.unit, coa.comul, coa.counit
    return (
        ("entwining-rr-multiplicativity", psi.domain.tensor(alg.space),
         ((psi, 0), (mul, 1)), ((mul, 0), (psi, 1), (psi, 0))),
        ("entwining-rr-unitality", coa.space,
         ((psi, 0), (unit, 1)), map_kron(unit, coa.identity())),
        ("entwining-rr-comultiplicativity", psi.domain,
         ((comul, 1), (psi, 0)), ((psi, 0), (psi, 1), (comul, 0))),
        ("entwining-rr-counitality", psi.domain,
         ((counit, 1), (psi, 0)), map_kron(counit, alg.identity())))


def ll_laws(psi_inv: LinMap, alg: StructureAlgebra, coa: StructureCoalgebra) -> tuple:
    """The four left-left identities for the inverse entwining."""
    if psi_inv.domain != alg.space.tensor(coa.space) or \
            psi_inv.codomain != coa.space.tensor(alg.space):
        raise ShapeError("psi_inv must map A(x)C -> C(x)A")
    mul, unit, comul, counit = alg.mul, alg.unit, coa.comul, coa.counit
    return (
        ("entwining-ll-multiplicativity", mul.domain.tensor(coa.space),
         ((psi_inv, 0), (mul, 0)), ((mul, 1), (psi_inv, 0), (psi_inv, 1))),
        ("entwining-ll-unitality", coa.space,
         ((psi_inv, 0), (unit, 0)), map_kron(coa.identity(), unit)),
        ("entwining-ll-comultiplicativity (reconstructed)", psi_inv.domain,
         ((comul, 0), (psi_inv, 0)), ((psi_inv, 1), (psi_inv, 0), (comul, 1))),
        ("entwining-ll-counitality", psi_inv.domain,
         ((counit, 0), (psi_inv, 0)), map_kron(alg.identity(), counit)))


def hopf_entwining(hopf: HopfAlgebra, alg: StructureAlgebra, rho: LinMap) -> LinMap:
    """The entwining of a comodule algebra over a Hopf algebra:
    psi(c (x) a) = a_0 (x) c a_1.

    Only shapes are checked here.  make_extension inverts psi and checks
    that rho is a coaction and is multiplicative and unital
    (entwining-bijective, coaction-right-*, entwined-module-right,
    unit-coacts-to-grouplike).
    """
    h_space = hopf.space
    a_space = alg.space
    if rho.domain != a_space or rho.codomain != a_space.tensor(h_space):
        raise ShapeError("rho must map A -> A(x)H")
    flip_ha = flip_map(alg.field, h_space, a_space)
    return compose_legs(flip_ha.domain, (hopf.algebra.mul, 1), (flip_ha, 0), (rho, 1))


def validate_right_coaction(rho: LinMap, coa: StructureCoalgebra,
                            a_space: SpaceLabel) -> VerificationReport:
    return check_conditions((
        ("coaction-right-counitality", a_space,
         ((coa.counit, 1), (rho, 0)), LinMap.identity(rho.field, a_space)),
        ("coaction-right-coassociativity", a_space,
         ((rho, 0), (rho, 0)), ((coa.comul, 1), (rho, 0)))))


def validate_left_coaction(rho_left: LinMap, coa: StructureCoalgebra,
                           a_space: SpaceLabel) -> VerificationReport:
    return check_conditions((
        ("coaction-left-counitality", a_space,
         ((coa.counit, 0), (rho_left, 0)), LinMap.identity(rho_left.field, a_space)),
        ("coaction-left-coassociativity", a_space,
         ((rho_left, 1), (rho_left, 0)), ((coa.comul, 0), (rho_left, 0)))))


def induced_left_coaction(alg: StructureAlgebra, entw: Entwining, rho: LinMap) -> LinMap:
    """The left coaction a -> psi_inv(a rho(1))."""
    unit_image = rho @ alg.unit  # rho(1): k -> A (x) C
    return compose_legs(alg.space, (entw.psi_inv, 0), (alg.mul, 0), (unit_image, 1))


def module_laws(alg: StructureAlgebra, entw: Entwining, coact: Coaction) -> tuple:
    """rho(a a') = a_0 psi(a_1 (x) a') and its left mirror, over all pairs."""
    mul, rho, lam = alg.mul, coact.rho, coact.rho_left
    return (("entwined-module-right", mul.domain,
             ((rho, 0), (mul, 0)), ((mul, 0), (entw.psi, 1), (rho, 0))),
            ("entwined-module-left", mul.domain,
             ((lam, 0), (mul, 0)), ((mul, 1), (entw.psi_inv, 0), (lam, 1))))


def coaction_from_unit_law(alg: StructureAlgebra, entw: Entwining, rho: LinMap) -> tuple:
    """rho(a) = 1_0 psi(1_1 (x) a) for every basis element a."""
    return (("coaction-from-unit", alg.space,
             rho, ((alg.mul, 0), (entw.psi, 1), (rho, 0), (alg.unit, 0))),)


def coinvariants(alg: StructureAlgebra, rho: LinMap) -> Subspace:
    """B = {b : rho(b a) = b rho(a) for all a}, as the kernel of one map
    b -> rho(b) - b rho(1) from A to A (x) C.  Taking a = 1 puts B in
    it; conversely, if rho(b) = b rho(1), then for every a
        rho(b a) = b_0 psi(b_1 (x) a) = b 1_0 psi(1_1 (x) a) = b rho(a).
    This uses associativity, both unit laws and entwined-module-right,
    which validate_and_build checks first; for a rho that breaks the
    module law the kernel may be larger than B.

    Post-checks that 1 lies in B and that B is closed under the product;
    both are consequences of the definition, so a failure indicates a
    solver bug and raises InternalContradiction.
    """
    sub = stacked_kernel([rho - compose_legs(alg.space, (alg.mul, 0), (rho @ alg.unit, 1))])
    if sub.first_outside(alg.unit) is not None:
        raise InternalContradiction("coinvariants do not contain the unit")
    incl = sub.inclusion()
    if sub.first_outside(alg.mul @ map_kron(incl, incl)) is not None:
        raise InternalContradiction("coinvariants are not closed under product")
    return sub


def lifted_canonical(alg: StructureAlgebra, coa: StructureCoalgebra,
                     rho: LinMap) -> LinMap:
    """a (x) a' -> a rho(a'), from A (x) A to A (x) C."""
    return compose_legs(alg.mul.domain, (alg.mul, 0), (rho, 1))


def relation_subspace(alg: StructureAlgebra, coinv: Subspace) -> Subspace:
    """span{a b (x) a' - a (x) b a'} over basis a, a' of A and b of B."""
    ia = alg.identity()
    incl = coinv.inclusion()
    return Subspace.image(map_kron(precompose_at(alg.mul, incl, 1), ia)
                          - map_kron(ia, precompose_at(alg.mul, incl, 0)))


def galois_check(ext: EntwinedExtension) -> VerificationReport:
    """Surjectivity of the lifted canonical map plus kernel = B-relations.

    Together these say the canonical map on A (x)_B A is bijective; the
    coinduced dimension comparison is reported alongside.
    """
    rep = VerificationReport()
    alg, coa = ext.algebra, ext.coalgebra
    sol = ext.canonical_solution
    full = alg.dim * coa.dim
    surj = rep.add("galois-canonical-surjective", sol.rank == full,
                   {"rank": sol.rank, "required": full}, keep=True)
    rel = relation_subspace(alg, ext.coinvariants)
    kernel_ok = rep.add("galois-kernel-equals-relations", sol.kernel == rel,
                        {"kernel_dim": sol.kernel.dim, "relations_dim": rel.dim},
                        keep=True)
    balanced_dim = alg.dim * alg.dim - rel.dim
    rep.add("galois-dimension-count", balanced_dim == full,
            {"balanced_tensor_dim": balanced_dim, "target_dim": full},
            keep=True)
    rep.add("galois", surj and kernel_ok,
            {"surjective": surj, "kernel_equals_relations": kernel_ok},
            keep=True)
    return rep


def key_identity_law(ext: EntwinedExtension) -> tuple:
    """psi_inv(a a'_0 (x) a'_1) (x) a'_2 = a_{-1} (x) a_0 a'_0 (x) a'_1.

    A lemma of entwining-bijective, entwining-rr-multiplicativity,
    algebra-associativity, coaction-from-unit and
    coaction-right-coassociativity: apply the bijection psi (x) C.  The
    left side becomes a a'_0 (x) a'_1 (x) a'_2.  As psi(lam(a)) =
    a rho(1), rr-multiplicativity and associativity turn the right side
    into a 1_0 psi(1_1 (x) a'_0) (x) a'_1 = a rho(a'_0) (x) a'_1
    (coaction-from-unit), the left side by coassociativity.
    """
    mul, rho = ext.algebra.mul, ext.coaction.rho
    # mul before comul (they act on disjoint legs): the widest space on
    # the way is A (x) C (x) C, not A (x) A (x) C (x) C
    return (("key-identity", mul.domain,
             ((ext.entwining.psi_inv, 0), (ext.coalgebra.comul, 1), (mul, 0), (rho, 1)),
             ((mul, 1), (ext.coaction.rho_left, 0), (rho, 1))),)


def key_identity_check(ext: EntwinedExtension) -> VerificationReport:
    """check_conditions of key_identity_law, every row evaluated; no
    program path calls it, and it is kept for the benchmark's tracer,
    which spans it."""
    return check_conditions(key_identity_law(ext))


# psi(c (x) a) = a_0 (x) c a_1 under C's designated Hopf data, as one
# exact compare of psi with hopf_entwining(C, A, rho)
HOPF_ENTWINING = "psi-is-hopf-entwining"

# row -> the premises that imply it (lemmas in validate_and_build): rows
# of the same report, C's Hopf rows as "C:" + their name, and
# HOPF_ENTWINING.  The two Hopf lemmas: entwining-rr-comultiplicativity,
# as Delta(c a_1) = c_1 a_11 (x) c_2 a_12 (C's
# hopf-comul-multiplicative) and a_0 (x) a_11 (x) a_12 =
# a_00 (x) a_01 (x) a_1 (coaction-right-coassociativity) turn
# a_0 (x) Delta(c a_1) into a_00 (x) c_1 a_01 (x) c_2 a_1; and
# entwined-module-right, which is entwining-rr-multiplicativity at
# c = 1_C once C's algebra-left-unit gives 1_C x = x: both sides then
# read rho(a a') = a_0 a'_0 (x) a_1 a'_1.
_LL_MUL = ("entwining-bijective", "entwining-rr-multiplicativity")
IMPLIED_LAWS = {
    "entwining-rr-comultiplicativity": (HOPF_ENTWINING, "coaction-right-coassociativity",
                                        "C:hopf-comul-multiplicative"),
    "entwined-module-right": (HOPF_ENTWINING, "entwining-rr-multiplicativity",
                              "C:algebra-left-unit"),
    "entwining-ll-multiplicativity": _LL_MUL,
    "entwining-ll-unitality": ("entwining-bijective", "entwining-rr-unitality"),
    "entwining-ll-comultiplicativity (reconstructed)":
        ("entwining-bijective", "entwining-rr-comultiplicativity"),
    "entwining-ll-counitality": ("entwining-bijective", "entwining-rr-counitality"),
    "entwined-module-left": (*_LL_MUL, "algebra-associativity"),
    "coaction-from-unit": ("entwined-module-right", "algebra-left-unit"),
    "key-identity": (*_LL_MUL, "algebra-associativity", "coaction-from-unit",
                     "coaction-right-coassociativity"),
}


def validate_and_build(alg: StructureAlgebra, coa: StructureCoalgebra,
                       psi: LinMap, rho: LinMap,
                       grouplike: LinMap | None = None,
                       hopf: HopfAlgebra | None = None):
    """Run the full validation ladder; return (extension | None, report).

    The extension is produced only when every structural check passes.
    The Galois condition is not part of structural validity and is
    checked separately by galois_check.  hopf, when given, is Hopf data
    on C whose coalgebra is coa: its law report (hopf.laws, evaluated
    once) gives the coalgebra rows and the premises "C:" + name of the
    Hopf lemmas below, and no row of C's own is added to the report.

    A row of IMPLIED_LAWS passes unbuilt when its premises passed, and
    is evaluated otherwise.  The Hopf lemmas hold for a comodule algebra
    (HOPF_ENTWINING: psi equals hopf_entwining(hopf, alg, rho)):
    - entwining-rr-comultiplicativity from HOPF_ENTWINING,
      coaction-right-coassociativity and C's hopf-comul-multiplicative.
      Its left side is a_0 (x) Delta(c a_1) = a_0 (x) c_1 a_11 (x)
      c_2 a_12, by the comultiplicativity, and its right side
      (psi (x) C)(c_1 (x) a_0 (x) c_2 a_1) = a_00 (x) c_1 a_01 (x)
      c_2 a_1, the same by the coassociativity of rho.
    - entwined-module-right from HOPF_ENTWINING,
      entwining-rr-multiplicativity and C's algebra-left-unit.  At
      c = 1_C the rr row reads psi(1_C (x) a a') = (a a')_0 (x)
      (a a')_1 = rho(a a') on the left and a_0 psi(a_1 (x) a') on the
      right, as 1_C x = x; that is this row.
    The right coaction's rows are evaluated before the rr rows for the
    first lemma, and reported in their place.  With no hopf, a psi that
    differs from hopf_entwining, or a failed premise, both rows are
    built as before.  The other lemmas: entwining-ll-X
    follows from entwining-rr-X and entwining-bijective, multiplying the
    rr law by psi_inv on both sides; entwined-module-left from those of
    ll-multiplicativity and algebra-associativity, as lam(a) =
    psi_inv(a rho(1)) gives lam(a a') = psi_inv(a (a' 1_0) (x) 1_1) =
    (C (x) mu)(psi_inv (x) A)(a (x) lam(a')); coaction-from-unit is
    entwined-module-right at a = 1, where algebra-left-unit gives 1 a' =
    a', so rho(a') = 1_0 psi(1_1 (x) a'); key-identity as in
    key_identity_law.

    When A has a single generator s (structures.single_generator), a
    row of ON_GENERATOR is first checked with its last leg a' on s, and
    that pass stands for the full row once its premises passed
    (report.check_laws).  The powers p_0 = 1, p_(j+1) = p_j s span A,
    so an induction on j that proves the row at a' = p_j for all other
    legs proves it on A:
    - algebra-associativity as in structures.validate_hopf.
    - entwining-rr-multiplicativity, psi(c (x) a a') =
      a_psi psi(c^psi (x) a'), from its cut row, algebra-right-unit,
      algebra-associativity and entwining-rr-unitality.  At a' = 1 both
      sides are psi(c (x) a), as psi(c^psi (x) 1) = 1 (x) c^psi.  If it
      holds at p, then by associativity, the cut row at a p, the step
      at p and the cut row at p: psi(c (x) a (p s)) =
      psi(c (x) (a p) s) = (a p)_psi psi(c^psi (x) s) =
      a_psi p_Psi psi(c^(psi Psi) (x) s) = a_psi psi(c^psi (x) p s).
    - entwined-module-right, rho(a a') = a_0 psi(a_1 (x) a'), from its
      cut row, those three and entwining-rr-multiplicativity.  At
      a' = 1 both sides are rho(a).  If it holds at p, then
      rho(a (p s)) = (a p)_0 psi((a p)_1 (x) s) =
      a_0 p_psi psi(a_1^psi (x) s) = a_0 psi(a_1 (x) p s), the last by
      rr-multiplicativity.
    """
    gen = alg.generator()
    rep = VerificationReport()
    rr = rr_laws(psi, alg, coa)
    # a premise of the rr rows' Hopf lemma, reported after the ll rows
    right = validate_right_coaction(rho, coa, alg.space)
    given = {c.name for c in right.checks if c.status == PASS}

    def check(table) -> None:
        check_laws(rep, table, IMPLIED_LAWS, ON_GENERATOR, gen, given)

    check(algebra_laws(alg))
    if hopf is None:
        rep.extend(validate_coalgebra(coa))
    else:
        if hopf.coalgebra.comul != coa.comul or hopf.coalgebra.counit != coa.counit:
            raise ShapeError("hopf must have coa as its coalgebra")
        laws = hopf.laws.checks
        rep.checks.extend(c for c in laws if c.name.startswith("coalgebra-"))
        given.update("C:" + c.name for c in laws if c.status == PASS)
        if hopf_entwining(hopf, alg, rho) == psi:
            given.add(HOPF_ENTWINING)
    check(rr)
    inv = try_inverse(psi)
    if inv is None:
        rep.add("entwining-bijective", False, {"reason": "psi matrix is singular"})
        return None, rep
    rep.add("entwining-bijective", True)
    check(ll_laws(inv, alg, coa))
    entw = Entwining(psi, inv)
    rep.extend(right)
    rho_left = induced_left_coaction(alg, entw, rho)
    rep.extend(validate_left_coaction(rho_left, coa, alg.space))
    coact = Coaction(rho, rho_left)
    check(module_laws(alg, entw, coact) + coaction_from_unit_law(alg, entw, rho))
    if grouplike is not None:
        rep.add("grouplike-designated", check_grouplike(grouplike, coa))
        rep.extend(check_conditions((
            ("unit-coacts-to-grouplike", SpaceLabel.scalar(),
             ((rho, 0), (alg.unit, 0)), map_kron(alg.unit, grouplike)),)))
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
    check(key_identity_law(ext))
    return (ext if rep.passed else None), rep


def make_extension(alg: StructureAlgebra, coa: StructureCoalgebra,
                   psi: LinMap, rho: LinMap,
                   grouplike: LinMap | None = None) -> EntwinedExtension:
    """Strict construction: raises ValidationFailed on the first bad axiom."""
    ext, rep = validate_and_build(alg, coa, psi, rho, grouplike)
    if ext is None:
        raise ValidationFailed(f"structural check failed: {rep.failures[0].name}")
    return ext
