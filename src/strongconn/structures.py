"""Structure-constant presentations of algebras, coalgebras and Hopf
algebras, with exact axiom validators.

A structure is a bundle of LinMaps over one named base space: an algebra
is (mul: X(x)X -> X, unit: k -> X), a coalgebra is (comul: X -> X(x)X,
counit: X -> k).  Validators return a VerificationReport whose failures
carry the first offending basis tuple; they never raise on bad axioms.
Downstream modules assume validated inputs.

A Hopf algebra may carry a designated antipode inverse; validate_hopf
checks it (hopf-antipode-inverse).  Its solved_antipode_inv is the
antipode's inverse from one elimination, made at most once, and
validate_hopf checks that one when none is designated.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ShapeError
from .linmaps import (LinMap, SpaceLabel, apply_at, compose_legs, flip_map, map_kron,
                      precompose_at, try_inverse, vector_coeffs)
from .report import VerificationReport, check_map_equal
from .scalars import Field


class StructureAlgebra:
    """Finite-dimensional associative unital algebra."""

    __slots__ = ("mul", "unit")

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
                 antipode: LinMap, antipode_inv: LinMap | None = None):
        space = algebra.space
        if coalgebra.space != space:
            raise ShapeError("algebra and coalgebra must share one space")
        if antipode.domain != space or antipode.codomain != space:
            raise ShapeError("antipode must be an endomap of the base space")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.antipode = antipode
        self.antipode_inv = antipode_inv

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
        """The antipode's inverse from one exact elimination, made once
        and whether or not antipode_inv is designated; None when the
        antipode is singular."""
        return try_inverse(self.antipode)


def validate_algebra(alg: StructureAlgebra) -> VerificationReport:
    rep = VerificationReport()
    ident = alg.identity()
    check_map_equal(rep, "algebra-associativity",
                    precompose_at(alg.mul, alg.mul, 0), precompose_at(alg.mul, alg.mul, 1))
    check_map_equal(rep, "algebra-left-unit", precompose_at(alg.mul, alg.unit, 0), ident)
    check_map_equal(rep, "algebra-right-unit", precompose_at(alg.mul, alg.unit, 1), ident)
    return rep


def validate_coalgebra(coa: StructureCoalgebra) -> VerificationReport:
    rep = VerificationReport()
    ident = coa.identity()
    check_map_equal(rep, "coalgebra-coassociativity",
                    apply_at(coa.comul, coa.comul, 0), apply_at(coa.comul, coa.comul, 1))
    check_map_equal(rep, "coalgebra-left-counit", apply_at(coa.counit, coa.comul, 0), ident)
    check_map_equal(rep, "coalgebra-right-counit", apply_at(coa.counit, coa.comul, 1), ident)
    return rep


def validate_hopf(h: HopfAlgebra) -> VerificationReport:
    """Bialgebra compatibility, antipode axioms, bijectivity of S."""
    rep = VerificationReport()
    rep.extend(validate_algebra(h.algebra))
    rep.extend(validate_coalgebra(h.coalgebra))
    alg, coa = h.algebra, h.coalgebra
    ident = alg.identity()
    # comul and counit are algebra maps; X(x)X multiplies componentwise
    check_map_equal(rep, "hopf-comul-multiplicative",
                    coa.comul @ alg.mul,
                    compose_legs(alg.mul.domain, (alg.mul, 1), (alg.mul, 0),
                                 (flip_map(h.field, alg.space, alg.space), 1),
                                 (coa.comul, 0), (coa.comul, 1)))
    check_map_equal(rep, "hopf-comul-unital",
                    coa.comul @ alg.unit, map_kron(alg.unit, alg.unit))
    check_map_equal(rep, "hopf-counit-multiplicative",
                    coa.counit @ alg.mul, map_kron(coa.counit, coa.counit))
    check_map_equal(rep, "hopf-counit-unital",
                    coa.counit @ alg.unit,
                    LinMap.identity(h.field, SpaceLabel.scalar()))
    unit_counit = alg.unit @ coa.counit
    check_map_equal(rep, "hopf-antipode-left",
                    alg.mul @ apply_at(h.antipode, coa.comul, 0), unit_counit)
    check_map_equal(rep, "hopf-antipode-right",
                    alg.mul @ apply_at(h.antipode, coa.comul, 1), unit_counit)
    inv = h.antipode_inv if h.antipode_inv is not None else h.solved_antipode_inv
    if inv is None:
        rep.add("hopf-antipode-bijective", False,
                {"reason": "antipode matrix is singular"})
    else:
        rep.add("hopf-antipode-bijective", True)
        check_map_equal(rep, "hopf-antipode-inverse",
                        inv @ h.antipode, ident)
    return rep


def check_grouplike(element: LinMap, coa: StructureCoalgebra) -> bool:
    """True iff comul(c) = c (x) c and counit(c) = 1, exactly."""
    if element.codomain != coa.space or element.domain != SpaceLabel.scalar():
        raise ShapeError("grouplike candidate must be a vector in the coalgebra")
    if coa.comul @ element != map_kron(element, element):
        return False
    return vector_coeffs(coa.counit @ element) == (coa.field.one,)
