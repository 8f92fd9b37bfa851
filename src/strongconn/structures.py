"""Structure-constant presentations of algebras, coalgebras and Hopf
algebras, with exact axiom validators.

A structure is a bundle of LinMaps over one named base space: an algebra
is (mul: X(x)X -> X, unit: k -> X), a coalgebra is (comul: X -> X(x)X,
counit: X -> k).  Each validator is one table of laws that
report.check_conditions evaluates into a VerificationReport whose
failures carry the first offending basis tuple; they never raise on bad
axioms.  Downstream modules assume validated inputs.

A Hopf algebra's solved_antipode_inv is the antipode's inverse from one
elimination, made at most once, and validate_hopf checks it
(hopf-antipode-inverse).  Its law report (HopfAlgebra.laws) is
evaluated at most once too: a pipeline run reads C's rows as premises
in the validate stage and reports them in the integral stage.

A law that is multiplicative in its last algebra leg holds on all of A
once it holds on a generator (ON_GENERATOR): single_generator finds one
when mul is not monomial, and validate_hopf and
extensions.validate_and_build then check those rows on its line first.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ShapeError
from .linmaps import (
    LinMap,
    SpaceLabel,
    Subspace,
    basis_vector,
    flip_map,
    map_kron,
    precompose_at,
    try_inverse,
    vector_coeffs,
)
from .report import VerificationReport, check_conditions, check_laws
from .scalars import Field


class StructureAlgebra:
    """Finite-dimensional associative unital algebra."""

    __slots__ = ("mul", "unit", "_generator")

    def __init__(self, mul: LinMap, unit: LinMap):
        """mul: X (x) X -> X and unit: k -> X."""
        space = mul.codomain
        if len(space.factors) != 1:
            raise ShapeError("algebra base space must be a single factor")
        if mul.domain != space.tensor(space):
            raise ShapeError("mul must map X(x)X -> X")
        if unit.domain != SpaceLabel.scalar() or unit.codomain != space:
            raise ShapeError("unit must map k -> X")
        self.mul = mul
        self.unit = unit

    @property
    def space(self) -> SpaceLabel:
        return self.mul.codomain

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def field(self) -> Field:
        return self.mul.field

    def identity(self) -> LinMap:
        return LinMap.identity(self.field, self.space)

    def generator(self) -> LinMap | None:
        """The basis vector single_generator finds, as a map k -> X, or
        None; searched on the first call."""
        try:
            return self._generator
        except AttributeError:
            s = single_generator(self)
            self._generator = None if s is None else \
                basis_vector(self.field, self.space, s)
            return self._generator


class StructureCoalgebra:
    """Finite-dimensional coassociative counital coalgebra."""

    __slots__ = ("comul", "counit")

    def __init__(self, comul: LinMap, counit: LinMap):
        """comul: X -> X (x) X and counit: X -> k."""
        space = comul.domain
        if len(space.factors) != 1:
            raise ShapeError("coalgebra base space must be a single factor")
        if comul.codomain != space.tensor(space):
            raise ShapeError("comul must map X -> X(x)X")
        if counit.domain != space or counit.codomain != SpaceLabel.scalar():
            raise ShapeError("counit must map X -> k")
        self.comul = comul
        self.counit = counit

    @property
    def space(self) -> SpaceLabel:
        return self.comul.domain

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def field(self) -> Field:
        return self.comul.field

    def identity(self) -> LinMap:
        return LinMap.identity(self.field, self.space)


class HopfAlgebra:
    def __init__(self, algebra: StructureAlgebra, coalgebra: StructureCoalgebra,
                 antipode: LinMap):
        space = algebra.space
        if coalgebra.space != space:
            raise ShapeError("algebra and coalgebra must share one space")
        if antipode.domain != space or antipode.codomain != space:
            raise ShapeError("antipode must be an endomap of the base space")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.antipode = antipode

    @property
    def space(self) -> SpaceLabel:
        return self.algebra.space

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def field(self) -> Field:
        return self.algebra.field

    @cached_property
    def solved_antipode_inv(self) -> LinMap | None:
        """The antipode's inverse from one exact elimination, made once;
        None when the antipode is singular."""
        return try_inverse(self.antipode)

    @cached_property
    def laws(self) -> VerificationReport:
        """validate_hopf's checks, evaluated on the first read; read it,
        do not extend it."""
        return _hopf_laws(self)


def single_generator(alg: StructureAlgebra) -> int | None:
    """The first basis vector s whose left-nested powers 1, s, s s,
    (s s) s, ... span A, certified by one exact rank per basis vector
    tried; None when no basis vector does, or when mul is monomial.

    mul is monomial when no product of two basis vectors has two or
    more nonzero coordinates.  Its rows then only relabel entries, so a
    row cut to a generator saves no arithmetic, and the test costs one
    scan of mul's nonzeros and no search.
    """
    columns = [c for (_, c), _ in alg.mul.items()]
    if len(set(columns)) == len(columns):
        return None
    field, space, n = alg.field, alg.space, alg.dim
    for s in range(n):
        times_s = precompose_at(alg.mul, basis_vector(field, space, s), 1)
        powers = [alg.unit]
        for _ in range(n - 1):
            powers.append(times_s @ powers[-1])
        if Subspace.from_vectors(field, space, map(vector_coeffs, powers)).dim == n:
            return s
    return None


# row -> the rows under which it holds on all of A once it holds with
# its last algebra leg on a single generator (validate_hopf and
# extensions.validate_and_build give the inductions)
ON_GENERATOR = {
    "algebra-associativity": ("algebra-right-unit",),
    "entwining-rr-multiplicativity": ("algebra-right-unit", "algebra-associativity",
                                      "entwining-rr-unitality"),
    "entwined-module-right": ("algebra-right-unit", "algebra-associativity",
                              "entwining-rr-unitality", "entwining-rr-multiplicativity"),
    "hopf-comul-multiplicative": ("algebra-associativity", "algebra-right-unit",
                                  "hopf-comul-unital"),
}


def algebra_laws(alg: StructureAlgebra) -> tuple:
    mul, unit, ident = alg.mul, alg.unit, alg.identity()
    return (
        ("algebra-associativity", mul.domain.tensor(alg.space),
         ((mul, 0), (mul, 0)), ((mul, 0), (mul, 1))),
        ("algebra-left-unit", alg.space, ((mul, 0), (unit, 0)), ident),
        ("algebra-right-unit", alg.space, ((mul, 0), (unit, 1)), ident))


def validate_algebra(alg: StructureAlgebra) -> VerificationReport:
    return check_conditions(algebra_laws(alg))


def validate_coalgebra(coa: StructureCoalgebra) -> VerificationReport:
    comul, counit, ident = coa.comul, coa.counit, coa.identity()
    return check_conditions((
        ("coalgebra-coassociativity", coa.space,
         ((comul, 0), (comul, 0)), ((comul, 1), (comul, 0))),
        ("coalgebra-left-counit", coa.space, ((counit, 0), (comul, 0)), ident),
        ("coalgebra-right-counit", coa.space, ((counit, 1), (comul, 0)), ident)))


def validate_hopf(h: HopfAlgebra) -> VerificationReport:
    """Bialgebra compatibility, antipode axioms, bijectivity of S: a new
    report of h.laws, which each HopfAlgebra evaluates once.
    """
    rep = VerificationReport()
    rep.extend(h.laws)
    return rep


def _hopf_laws(h: HopfAlgebra) -> VerificationReport:
    """The rows of validate_hopf.

    When single_generator finds s, the two rows of ON_GENERATOR are
    checked with their last leg on s first, and that pass stands for
    the full row once its premises passed (report.check_laws).  The
    powers p_0 = 1, p_(j+1) = p_j s span H, so an induction on j that
    proves the row at each p_j proves it on H:
    - algebra-associativity from (x y) s = x (y s) for all x, y and
      algebra-right-unit.  At 1 both sides are x y.  If (x y) p =
      x (y p) for all x, y, then (x y)(p s) = ((x y) p) s =
      (x (y p)) s = x ((y p) s) = x (y (p s)).
    - hopf-comul-multiplicative from Delta(x s) = Delta(x) Delta(s) for
      all x, algebra-associativity, algebra-right-unit and
      hopf-comul-unital.  At 1 both sides are Delta(x), as Delta(1) =
      1 (x) 1.  If Delta(x p) = Delta(x) Delta(p) for all x, then
      Delta(x (p s)) = Delta((x p) s) = (Delta(x) Delta(p)) Delta(s) =
      Delta(x) Delta(p s), as H (x) H multiplies componentwise and so
      is associative.
    """
    rep = VerificationReport()
    gen = h.algebra.generator()
    check_laws(rep, algebra_laws(h.algebra), {}, ON_GENERATOR, gen)
    rep.extend(validate_coalgebra(h.coalgebra))
    mul, unit = h.algebra.mul, h.algebra.unit
    comul, counit = h.coalgebra.comul, h.coalgebra.counit
    k, S = SpaceLabel.scalar(), h.antipode
    unit_counit = unit @ counit
    # comul and counit are algebra maps; X(x)X multiplies componentwise
    check_laws(rep, (
        ("hopf-comul-multiplicative", mul.domain,
         ((comul, 0), (mul, 0)),
         ((mul, 1), (mul, 0), (flip_map(h.field, h.space, h.space), 1),
          (comul, 0), (comul, 1))),
        ("hopf-comul-unital", k, ((comul, 0), (unit, 0)), map_kron(unit, unit)),
        ("hopf-counit-multiplicative", mul.domain,
         ((counit, 0), (mul, 0)), map_kron(counit, counit)),
        ("hopf-counit-unital", k, ((counit, 0), (unit, 0)), LinMap.identity(h.field, k)),
        ("hopf-antipode-left", h.space, ((mul, 0), (S, 0), (comul, 0)), unit_counit),
        ("hopf-antipode-right", h.space, ((mul, 0), (S, 1), (comul, 0)), unit_counit)),
        {}, ON_GENERATOR, gen)
    inv = h.solved_antipode_inv
    if inv is None:
        rep.add("hopf-antipode-bijective", False,
                {"reason": "antipode matrix is singular"})
    else:
        rep.add("hopf-antipode-bijective", True)
        rep.extend(check_conditions((("hopf-antipode-inverse", h.space,
                                      ((inv, 0), (S, 0)), h.algebra.identity()),)))
    return rep


def check_grouplike(element: LinMap, coa: StructureCoalgebra) -> bool:
    """True iff comul(c) = c (x) c and counit(c) = 1, exactly."""
    if element.codomain != coa.space or element.domain != SpaceLabel.scalar():
        raise ShapeError("grouplike candidate must be a vector in the coalgebra")
    if coa.comul @ element != map_kron(element, element):
        return False
    return coa.counit @ element == LinMap.identity(coa.field, SpaceLabel.scalar())
