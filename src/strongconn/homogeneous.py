"""Quantum homogeneous spaces: the quotient coalgebra C = A/B+A and the
averaging of a linear section of the projection into a bicolinear one.

Given a Hopf algebra A and a unital subalgebra B with Delta(B) in
A (x) B, the span B+A of products of counit-killed B elements with A is
a coideal; C is the quotient coalgebra, pi the projection, and A carries
induced left and right C-coactions (pi (x) A) o Delta and
(A (x) pi) o Delta.

Coset representatives are deterministic and prefer low basis indices:
a Subspace keeps its reduced basis with pivots at the right, so the
highest indices are pivots and the coordinates that are not, the
smallest basis indices, represent the quotient (Subspace.quotient).
This makes i([1]) = 1 whenever possible.

With a cointegral delta on C, any linear section i of pi averages to a
bicolinear section: contract the outer coproduct legs of i against
delta through pi on both sides.  The printed source of the formula is
typographically ambiguous in one spot; we use the only reading that
type-checks (the third coproduct leg of the section image, then the
projection) and mark the report entry as reconstructed.
"""

from __future__ import annotations

from typing import NamedTuple

from .connection import Cointegral
from .errors import InternalContradiction, NotCoideal, NotHomogeneous
from .extensions import (
    validate_and_build,
    validate_left_coaction,
    validate_right_coaction,
)
from .linmaps import (
    LinMap,
    Subspace,
    apply_at,
    compose_legs,
    flip_map,
    kernel_basis,
    map_kron,
    precompose_at,
)
from .report import VerificationReport, check_conditions
from .structures import HopfAlgebra, StructureCoalgebra, validate_coalgebra


class HomogeneousDatum(NamedTuple):
    hopf: HopfAlgebra          # the total Hopf algebra A
    b_subalgebra: Subspace     # B inside A
    bplus_a: Subspace          # the coideal B+A
    quotient: StructureCoalgebra  # C = A/B+A
    pi: LinMap                 # A -> C
    section: LinMap            # i: C -> A, the canonical representatives
    left_coaction: LinMap      # (pi (x) A) o Delta
    right_coaction: LinMap     # (A (x) pi) o Delta


def build_quotient(hopf: HopfAlgebra, b_sub: Subspace):
    """Construct the quotient datum, collecting every check in a report.

    Returns (datum | None, report); the strict entry point
    quotient_coalgebra raises instead.
    """
    rep = VerificationReport()
    alg, coa = hopf.algebra, hopf.coalgebra

    unital = rep.add("subalgebra-unital", b_sub.first_outside(alg.unit) is None)
    incl = b_sub.inclusion()
    closed = rep.add("subalgebra-closed",
                     b_sub.first_outside(alg.mul @ map_kron(incl, incl)) is None)
    # Delta(B) in A (x) B
    stable = rep.add("coproduct-stabilises-subalgebra",
                     b_sub.first_outside(coa.comul @ incl, 1) is None)
    if not (unital and closed and stable):
        return None, rep

    # B+ = B n ker(counit), the counit's kernel on B; B+A = products
    b_plus = incl @ kernel_basis(coa.counit @ incl).inclusion()
    bplus_a = Subspace.image(precompose_at(alg.mul, b_plus, 0))
    pi, section = bplus_a.quotient("C")
    projected = apply_at(pi, apply_at(pi, coa.comul, 1), 0)

    # coideal checks: ker(pi (x) pi) = A (x) B+A + B+A (x) A, so
    # Delta(B+A) lies there exactly when (pi (x) pi) o Delta kills B+A
    ideal_incl = bplus_a.inclusion()
    coideal_cop = rep.add("coideal-coproduct", (projected @ ideal_incl).is_zero())
    coideal_eps = rep.add("coideal-counit", (coa.counit @ ideal_incl).is_zero())
    if not (coideal_cop and coideal_eps):
        return None, rep

    if pi @ section != LinMap.identity(hopf.field, pi.codomain):
        raise InternalContradiction("pi o i is not the identity")

    comul_c = projected @ section
    counit_c = coa.counit @ section
    quotient = StructureCoalgebra(comul_c, counit_c)
    qrep = validate_coalgebra(quotient)
    rep.add("quotient-coalgebra-valid", qrep.passed,
            None if qrep.passed else {"first": qrep.failures[0].name})
    # well-definedness: the induced maps factor through pi
    ok = comul_c @ pi == projected and counit_c @ pi == coa.counit
    rep.add("quotient-well-defined", ok)
    if not (qrep.passed and ok):
        raise InternalContradiction("quotient structure failed after coideal checks")

    left = apply_at(pi, coa.comul, 0)
    right = apply_at(pi, coa.comul, 1)
    datum = HomogeneousDatum(hopf, b_sub, bplus_a, quotient, pi, section,
                             left, right)
    return datum, rep


def quotient_coalgebra(hopf: HopfAlgebra, b_sub: Subspace) -> HomogeneousDatum:
    """Strict quotient construction; raises on a failed precondition."""
    datum, rep = build_quotient(hopf, b_sub)
    if datum is not None:
        return datum
    first = rep.failures[0].name
    if first in ("subalgebra-unital", "subalgebra-closed",
                 "coproduct-stabilises-subalgebra"):
        raise NotHomogeneous(first)
    raise NotCoideal(first)


def induced_coactions(datum: HomogeneousDatum) -> VerificationReport:
    """The laws of both induced coactions, re-verified."""
    rep = VerificationReport()
    a_space = datum.hopf.space
    rep.extend(validate_right_coaction(datum.right_coaction, datum.quotient, a_space))
    rep.extend(validate_left_coaction(datum.left_coaction, datum.quotient, a_space))
    return rep


def bicolinear_section_iota(datum: HomogeneousDatum, delta: Cointegral,
                            section: LinMap | None = None):
    """Average a linear section of pi into a bicolinear one.

    iota(c) contracts delta against the projected outer coproduct legs
    of i(c_2) on both sides.  Returns (iota, report), whether or not
    the report passes.
    """
    rep = VerificationReport()
    hopf, quotient, pi = datum.hopf, datum.quotient, datum.pi
    i_map = section if section is not None else datum.section
    comul_c = quotient.comul
    comul_a = hopf.coalgebra.comul
    iota = compose_legs(
        quotient.space,
        (delta.delta, 1), (delta.delta, 0),             # -> A
        (pi, 3), (pi, 1),                               # -> C C A C C
        (apply_at(comul_a, comul_a, 0), 1),             # -> C (x) A A A (x) C
        (i_map, 1),                                     # -> C (x) A (x) C
        (comul_c, 0), (comul_c, 0))                     # C -> C (x) C (x) C
    rep.add_na("averaging-reading",
               "outer delta contracts the third coproduct leg of the "
               "section image, then the projection (reconstructed)")
    rep.extend(check_conditions((
        ("averaged-section-splits-projection", quotient.space,
         ((pi, 0), (None, 0)), quotient.identity()),
        ("averaged-section-left-colinear", quotient.space,
         ((datum.left_coaction, 0), (None, 0)), ((None, 1), (comul_c, 0))),
        ("averaged-section-right-colinear", quotient.space,
         ((datum.right_coaction, 0), (None, 0)), ((None, 0), (comul_c, 0)))), iota))
    return iota, rep


def extension_from_homogeneous(datum: HomogeneousDatum):
    """Wire the quotient into an entwined extension.

    The entwining sends c (x) a to a_1 (x) pi(i(c) a_2); bijectivity of
    the antipode of A is the standing hypothesis and is recorded, and
    validate_and_build inverts the entwining matrix as everywhere else.
    Returns (extension | None, report).
    """
    rep = VerificationReport()
    hopf = datum.hopf
    a_space = hopf.space
    rep.add("antipode-bijective", hopf.solved_antipode_inv is not None)
    psi = compose_legs(datum.quotient.space.tensor(a_space),
                       (datum.pi, 1), (hopf.algebra.mul, 1),
                       (flip_map(hopf.field, a_space, a_space), 0),
                       (datum.section, 0), (hopf.coalgebra.comul, 1))
    grouplike = datum.pi @ hopf.algebra.unit
    ext, build_rep = validate_and_build(hopf.algebra, datum.quotient, psi,
                                        datum.right_coaction, grouplike)
    rep.extend(build_rep)
    return ext, rep
