"""Cointegrals, integrals, sections and the explicit strong connection.

The construction: given an entwined extension with surjective lifted
canonical map and a cointegral delta on C, pick any linear section sigma
of the canonical map on the slice 1 (x) C, form

    gamma = (delta (x) A) o (C (x) left_coaction)
    alpha = (A (x) delta) o (right_coaction (x) C)

and assemble

    ell = (gamma (x) alpha) o (C (x) sigma (x) C) o (comul (x) C) o comul.

Every produced object is re-verified rather than trusted: the defining
conditions of a strong connection become per-instance machine checks,
and a brute-force oracle describes the whole affine set of solutions
for cross-checking.  The oracle stacks the three conditions as one
linear system in the entries of ell, assembled by linear_system and
solved outright, except when the canonical map is injective: then the
one map satisfying condition (a), which the canonical map's own
elimination already gives and the section also reads, is checked
against all three conditions as map identities.

All solves share the deterministic echelon solver (leftmost pivots, free
variables zero).  When a solution space is positive-dimensional the
output is reproducible but not canonical; reports record the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalContradiction,
    NoGrouplikeUnit,
    NotGalois,
    ShapeError,
    TooLarge,
)
from .extensions import EntwinedExtension
from .linmaps import (
    Infeasible,
    LinMap,
    SpaceLabel,
    Subspace,
    apply_at,
    compose_legs,
    map_from_vector,
    map_kron,
    map_vectorize,
    precompose_at,
    rref_solve,
    vector,
)
from .report import VerificationReport, check_map_equal, first_column_mismatch
from .structures import HopfAlgebra, StructureCoalgebra

# the default cap on the oracle's unknown count
ORACLE_CAP = 4096


@dataclass(frozen=True)
class Cointegral:
    """Functional C (x) C -> k splitting the coproduct bicolinearly."""

    delta: LinMap
    solution_dim: int = 0


@dataclass(frozen=True)
class Integral:
    """Normalised invariant functional on a Hopf algebra."""

    lam: LinMap
    solution_dim: int = 0


@dataclass(frozen=True)
class SectionMap:
    """Linear sigma: C -> A (x) A with canonical_map o sigma = 1 (x) C."""

    sigma: LinMap
    normalized: bool = False
    solution_dim: int = 0


@dataclass(frozen=True)
class ConnectionForm:
    """ell, and for a formula build the gamma and alpha it was built from,
    so that the colinearity reduction reuses them."""

    ell: LinMap
    gamma: LinMap | None = None
    alpha: LinMap | None = None


@dataclass(frozen=True)
class BruteForceSolutions:
    """Affine description of every map satisfying the three conditions."""

    particular: LinMap
    kernel: Subspace


# -- cointegrals and integrals ------------------------------------------


def verify_cointegral(delta: LinMap, coa: StructureCoalgebra) -> VerificationReport:
    rep = VerificationReport()
    check_map_equal(rep, "cointegral-counit-law", delta @ coa.comul, coa.counit)
    check_map_equal(rep, "cointegral-centrality",
                    compose_legs(delta.domain, (delta, 1), (coa.comul, 0)),
                    compose_legs(delta.domain, (delta, 0), (coa.comul, 1)))
    return rep


def linear_system(field, dom_dim: int, cod_dim: int, conditions) -> LinMap:
    """Linear conditions on an unknown map X (dom_dim -> cod_dim) as one
    matrix over its entries.

    A condition is a pair (lhs, rhs) of term lists and stands for the
    sum of its lhs terms minus the sum of its rhs terms.  A term
    (L, p, q, R) is the map L o (I_p (x) X (x) I_q) o R, where None is an
    identity; all terms of a condition have one shape.  Each condition
    contributes a block of rows in the column-major order of
    map_vectorize, and unknown k is entry (k % cod_dim, k // cod_dim) of
    X, as in map_from_vector.  The coefficients come straight from the
    nonzeros of L and R:

        [L o (I (x) X (x) I) o R](o, i)
            = sum L(o, (a, e, b)) X(e, d) R((a, d, b), i).
    """
    one, zero = field.one, field.zero
    n = dom_dim * cod_dim

    def columns(m, dim, sign):
        """Signed nonzeros of each column of m; None is the identity."""
        if m is None:
            return [[(j, sign)] for j in range(dim)]
        cols = [[] for _ in range(m.ncols)]
        for r, row in enumerate(m.rows):
            for c, v in row.items():
                cols[c].append((r, v if sign is one else -v))
        return cols

    rows = []
    for lhs, rhs in conditions:
        block = None
        for sign, (L, p, q, R) in [(one, t) for t in lhs] + [(-one, t) for t in rhs]:
            if (L is not None and L.ncols != p * cod_dim * q) or \
                    (R is not None and R.nrows != p * dom_dim * q):
                raise ShapeError("term does not fit around the unknown")
            l_cols = columns(L, p * cod_dim * q, sign)
            r_cols = columns(R, p * dom_dim * q, one)
            out_dim = p * cod_dim * q if L is None else L.nrows
            if block is None:
                block = [{} for _ in range(out_dim * len(r_cols))]
            for i, r_col in enumerate(r_cols):
                base = i * out_dim
                for r_idx, rv in r_col:
                    a, rest = divmod(r_idx, dom_dim * q)
                    d, b = divmod(rest, q)
                    for e in range(cod_dim):
                        col = d * cod_dim + e
                        for o, lv in l_cols[(a * cod_dim + e) * q + b]:
                            row = block[base + o]
                            v = lv * rv
                            old = row.get(col)
                            row[col] = v if old is None else old + v
        rows.extend({c: v for c, v in row.items() if v is not zero} for row in block)
    return LinMap._from_rows(field, SpaceLabel.base("unknowns", n),
                             SpaceLabel.base("constraints", len(rows)), tuple(rows))


def _with_target(system: LinMap, rhs) -> tuple[LinMap, LinMap]:
    """The system and its right-hand side, zero past the given values."""
    rhs = list(rhs) + [system.field.zero] * (system.nrows - len(rhs))
    return system, vector(system.field, system.codomain, rhs)


def cointegral_system(coa: StructureCoalgebra) -> tuple[LinMap, LinMap]:
    """delta o comul = counit and the centrality law, on delta: C (x) C -> k."""
    c = coa.dim
    ic = coa.identity()
    system = linear_system(coa.field, c * c, 1, [
        ([(None, 1, 1, coa.comul)], []),
        ([(None, c, 1, map_kron(coa.comul, ic))],
         [(None, 1, c, map_kron(ic, coa.comul))]),
    ])
    return _with_target(system, map_vectorize(coa.counit))


def solve_cointegral(coa: StructureCoalgebra):
    """Deterministic cointegral on C, or Infeasible with a certificate.

    Infeasibility means C is not coseparable over this field; over a
    larger field the system could in principle become solvable.
    """
    sol = rref_solve(*cointegral_system(coa))
    if isinstance(sol.particular, Infeasible):
        return sol.particular
    cc = coa.space.tensor(coa.space)
    delta = map_from_vector(coa.field, cc, SpaceLabel.scalar(),
                            sol.particular.column(0))
    if not verify_cointegral(delta, coa).passed:
        raise InternalContradiction("solved cointegral fails its defining laws")
    return Cointegral(delta, sol.kernel.dim)


def verify_integral(lam: LinMap, hopf: HopfAlgebra) -> VerificationReport:
    rep = VerificationReport()
    # c_1 lam(c_2) = lam(c) 1, the C-valued invariance law
    check_map_equal(rep, "integral-invariance",
                    apply_at(lam, hopf.coalgebra.comul, 1), hopf.algebra.unit @ lam)
    check_map_equal(rep, "integral-normalized",
                    lam @ hopf.algebra.unit,
                    LinMap.identity(hopf.field, SpaceLabel.scalar()))
    return rep


def integral_system(hopf: HopfAlgebra) -> tuple[LinMap, LinMap]:
    """Invariance and normalisation, on lam: C -> k."""
    c = hopf.dim
    unit = hopf.algebra.unit
    system = linear_system(hopf.field, c, 1, [
        ([(None, c, 1, hopf.coalgebra.comul)], [(unit, 1, 1, None)]),
        ([(None, 1, 1, unit)], []),
    ])
    return _with_target(system, [hopf.field.zero] * (c * c) + [hopf.field.one])


def solve_integral(hopf: HopfAlgebra):
    """Deterministic normalised integral on a Hopf algebra, or Infeasible."""
    sol = rref_solve(*integral_system(hopf))
    if isinstance(sol.particular, Infeasible):
        return sol.particular
    lam = map_from_vector(hopf.field, hopf.space, SpaceLabel.scalar(),
                          sol.particular.column(0))
    if not verify_integral(lam, hopf).passed:
        raise InternalContradiction("solved integral fails its defining laws")
    return Integral(lam, sol.kernel.dim)


def integral_to_cointegral(hopf: HopfAlgebra, integral: Integral) -> Cointegral:
    """delta(c (x) c') = lam(c S(c')), re-verified against the cointegral laws."""
    delta = precompose_at(integral.lam @ hopf.algebra.mul, hopf.antipode, 1)
    if not verify_cointegral(delta, hopf.coalgebra).passed:
        raise InternalContradiction("converted cointegral fails its defining laws")
    return Cointegral(delta, 0)


def cointegral_to_integral(delta: Cointegral, hopf: HopfAlgebra):
    """lam(c) = delta(c (x) 1); validity is checked and reported, not assumed."""
    lam = precompose_at(delta.delta, hopf.algebra.unit, 1)
    return Integral(lam, 0), verify_integral(lam, hopf)


# -- sections ------------------------------------------------------------


def solve_section(ext: EntwinedExtension) -> SectionMap:
    """Deterministic right-inverse of the canonical map on the slice 1 (x) C."""
    alg, coa = ext.algebra, ext.coalgebra
    sol = ext.canonical_solution
    if sol.rank != alg.dim * coa.dim:
        raise NotGalois("lifted canonical map is not surjective")
    return SectionMap(sol.particular, normalized=False,
                      solution_dim=sol.kernel.dim * coa.dim)


def normalize_section(section: SectionMap, ext: EntwinedExtension) -> SectionMap:
    """Shift sigma so that sigma(e) = 1 (x) 1 for the extension's
    grouplike e, preserving the section law.  rho(1) = 1 (x) e was
    checked when the extension was built (unit-coacts-to-grouplike)."""
    alg, coa, grouplike = ext.algebra, ext.coalgebra, ext.grouplike
    if grouplike is None:
        raise NoGrouplikeUnit("the extension has no designated grouplike")
    unit_pair = map_kron(alg.unit, alg.unit)
    sigma = section.sigma + unit_pair @ coa.counit - \
        (section.sigma @ grouplike) @ coa.counit
    if sigma @ grouplike != unit_pair:
        raise InternalContradiction("normalisation did not fix sigma(e)")
    if ext.canonical_map @ sigma != map_kron(alg.unit, coa.identity()):
        raise InternalContradiction("normalisation broke the section law")
    return SectionMap(sigma, normalized=True, solution_dim=section.solution_dim)


# -- the connection ------------------------------------------------------


def gamma_map(delta: Cointegral, ext: EntwinedExtension) -> LinMap:
    """gamma = (delta (x) A) o (C (x) left_coaction), left C-colinear."""
    lam = ext.coaction.rho_left
    gamma = compose_legs(lam.codomain, (delta.delta, 0), (lam, 1))
    if lam @ gamma != compose_legs(lam.codomain, (gamma, 1), (ext.coalgebra.comul, 0)):
        raise InternalContradiction("gamma is not left colinear")
    return gamma


def alpha_map(delta: Cointegral, ext: EntwinedExtension) -> LinMap:
    """alpha = (A (x) delta) o (right_coaction (x) C), right C-colinear."""
    rho = ext.coaction.rho
    alpha = compose_legs(rho.codomain, (delta.delta, 1), (rho, 0))
    if rho @ alpha != compose_legs(rho.codomain, (alpha, 0), (ext.coalgebra.comul, 1)):
        raise InternalContradiction("alpha is not right colinear")
    return alpha


def build_connection(section: SectionMap, delta: Cointegral,
                     ext: EntwinedExtension) -> ConnectionForm:
    """Assemble the explicit strong connection form from sigma and delta."""
    coa = ext.coalgebra
    gamma = gamma_map(delta, ext)
    alpha = alpha_map(delta, ext)
    # gamma (x) alpha = (gamma (x) A) o (C (x) A (x) alpha), so
    # kron(gamma, alpha) is never formed.
    ell = compose_legs(coa.space, (gamma, 0), (alpha, 2), (section.sigma, 1),
                       (coa.comul, 0), (coa.comul, 0))
    return ConnectionForm(ell, gamma, alpha)


def _defining_conditions(ell: LinMap, ext: EntwinedExtension):
    """(name, lhs, rhs) of the three defining conditions on ell, as map
    identities, evaluated once per map and extension: the verify stage
    and the oracle's check of the canonical map's solution read one
    evaluation when the two maps are equal."""
    cache = ext.condition_cache
    conditions = cache.get(ell)
    if conditions is None:
        conditions = cache[ell] = _evaluate_conditions(ell, ext)
    return conditions


def _evaluate_conditions(ell: LinMap, ext: EntwinedExtension):
    """The three defining conditions on ell: (a) sections the canonical
    map, (b) right and (c) left C-colinear."""
    coa = ext.coalgebra
    rho, lam = ext.coaction.rho, ext.coaction.rho_left
    return (("connection-sections-canonical", ext.canonical_map @ ell,
             map_kron(ext.algebra.unit, coa.identity())),
            ("connection-right-colinear",
             apply_at(ell, coa.comul, 0), apply_at(rho, ell, 1)),
            ("connection-left-colinear",
             apply_at(ell, coa.comul, 1), apply_at(lam, ell, 0)))


def verify_connection(conn: ConnectionForm, ext: EntwinedExtension) -> VerificationReport:
    """The three defining conditions, plus the normalisation check when a
    grouplike is designated (not applicable otherwise)."""
    rep = VerificationReport()
    for name, lhs, rhs in _defining_conditions(conn.ell, ext):
        check_map_equal(rep, name, lhs, rhs)
    if ext.grouplike is None:
        rep.add_na("connection-normalized", "no designated grouplike")
    else:
        unit = ext.algebra.unit
        check_map_equal(rep, "connection-normalized",
                        conn.ell @ ext.grouplike, map_kron(unit, unit))
    return rep


def colinearity_reduction(conn: ConnectionForm, section: SectionMap,
                          ext: EntwinedExtension) -> VerificationReport:
    """Classify sigma's colinearity, compute the applicable reduced
    formulas, and assert they agree with conn, the full formula built
    from the same sigma.

    conn must come from build_connection: the reduced formulas reuse the
    gamma and alpha it carries.  A reduced/full disagreement would
    contradict the construction and raises InternalContradiction.
    """
    rep = VerificationReport()
    comul = ext.coalgebra.comul
    sigma = section.sigma
    sigma_0 = apply_at(sigma, comul, 0)
    sigma_1 = apply_at(sigma, comul, 1)
    right_col = sigma_0 == apply_at(ext.coaction.rho, sigma, 1)
    left_col = sigma_1 == apply_at(ext.coaction.rho_left, sigma, 0)
    if right_col and left_col:
        klass = "bicolinear"
    elif right_col:
        klass = "right-colinear"
    elif left_col:
        klass = "left-colinear"
    else:
        klass = "neither"
    rep.add("section-colinearity-class", True, {"class": klass}, keep=True)
    if right_col:
        reduced = apply_at(conn.gamma, sigma_1, 0)
        ok = rep.add("reduction-right-agrees", reduced == conn.ell)
        if not ok:
            raise InternalContradiction("right-reduced formula disagrees")
    else:
        rep.add_na("reduction-right-agrees", "sigma is not right colinear")
    if left_col:
        reduced = apply_at(conn.alpha, sigma_0, 1)
        ok = rep.add("reduction-left-agrees", reduced == conn.ell)
        if not ok:
            raise InternalContradiction("left-reduced formula disagrees")
    else:
        rep.add_na("reduction-left-agrees", "sigma is not left colinear")
    if right_col and left_col:
        ok = rep.add("bicolinear-fixed-point", conn.ell == sigma)
        if not ok:
            raise InternalContradiction("bicolinear sigma was not reproduced")
    else:
        rep.add_na("bicolinear-fixed-point", "sigma is not bicolinear")
    return rep


def splitting(conn: ConnectionForm, ext: EntwinedExtension):
    """s(a) = a_0 ell(a_1), with the equivariant-projectivity checks.

    Returns (s, report): s sections the product, lands in B (x) A, is
    left B-linear and right C-colinear.
    """
    rep = VerificationReport()
    alg = ext.algebra
    ia = alg.identity()
    rho = ext.coaction.rho
    s = apply_at(alg.mul, apply_at(conn.ell, rho, 1), 0)
    check_map_equal(rep, "splitting-sections-product", alg.mul @ s, ia)
    incl = ext.coinvariants.inclusion()
    bad = ext.coinvariants.first_outside(s, 0)
    rep.add("splitting-image-in-coinvariants", bad is None,
            None if bad is None else {"basis": [bad]})
    lhs = s @ precompose_at(alg.mul, incl, 0)
    mismatch = first_column_mismatch(
        lhs, compose_legs(lhs.domain, (alg.mul, 0), (incl, 0), (s, 1)))
    rep.add("splitting-left-coinvariant-linear", mismatch is None,
            None if mismatch is None
            else {"coinvariant_basis_row": mismatch["column"] // alg.dim})
    check_map_equal(rep, "splitting-right-colinear",
                    apply_at(rho, s, 1), apply_at(s, rho, 0))
    return s, rep


# -- the oracle ----------------------------------------------------------


def oracle_system(ext: EntwinedExtension) -> tuple[LinMap, LinMap]:
    """The three defining conditions on ell: C -> A (x) A, stacked:
    (a) lifted_canonical o ell = 1 (x) C, (b) right and (c) left
    C-colinearity."""
    alg, coa = ext.algebra, ext.coalgebra
    ia = alg.identity()
    c = coa.dim
    system = linear_system(ext.field, c, alg.dim * alg.dim, [
        ([(ext.canonical_map, 1, 1, None)], []),
        ([(None, 1, c, coa.comul)],
         [(map_kron(ia, ext.coaction.rho), 1, 1, None)]),
        ([(None, c, 1, coa.comul)],
         [(map_kron(ext.coaction.rho_left, ia), 1, 1, None)]),
    ])
    return _with_target(system, map_vectorize(map_kron(alg.unit, coa.identity())))


def _oracle_infeasible(row: int, ext: EntwinedExtension) -> Infeasible:
    """The stacked system's certificate: its rank, then 0 = nonzero in
    the one target column."""
    # condition (a) alone is the canonical map's own system
    which = ("the section condition (a)"
             if isinstance(ext.canonical_solution.particular, Infeasible)
             else "the colinearity conditions")
    return Infeasible(row, 0, detail=f"no map satisfies the stacked conditions; "
                                     f"first obstruction lies in {which}")


def brute_force_connections(ext: EntwinedExtension, cap: int = ORACLE_CAP):
    """Every map satisfying the three defining conditions: the affine
    solution set of the stacked system of oracle_system (particular
    solution with free variables zero, plus the canonical echelon basis
    of its kernel) or that system's Infeasible certificate.

    Condition (a) alone is the canonical map's own system, eliminated
    once per extension (ext.canonical_solution).  When the canonical map
    is injective, its particular ell0 is the only map satisfying (a), so
    the stacked system has full column rank and ell0 is its solution
    exactly when (b) and (c) hold on it: these are evaluated as map
    identities, and no system is assembled.  Otherwise the stacked
    system is assembled and solved outright.  Assembly writes each
    coefficient from the nonzeros of the structure maps and stores only
    the nonzeros of the system, and the single elimination visits only
    the rows that hold each pivot's column; fill-in can still grow with
    the square of the unknown count and the work with its cube, hence
    the cap on the c * a^2 unknowns.
    """
    alg, coa = ext.algebra, ext.coalgebra
    field = ext.field
    aa = alg.space.tensor(alg.space)
    n = coa.dim * aa.dim
    if n > cap:
        raise TooLarge(f"{n} unknowns exceed the oracle cap {cap}")
    section = ext.canonical_solution
    if section.kernel.dim:
        sol = rref_solve(*oracle_system(ext))
        if isinstance(sol.particular, Infeasible):
            return _oracle_infeasible(sol.particular.row, ext)
        particular = map_from_vector(field, coa.space, aa, sol.particular.column(0))
        return BruteForceSolutions(particular, sol.kernel)
    # rank-nullity: a kernel vector missing from the cached solution
    # would make the canonical map look injective
    if section.rank != aa.dim:
        raise InternalContradiction("canonical map's rank and kernel miss unknowns")
    if isinstance(section.particular, Infeasible):
        return _oracle_infeasible(n, ext)
    holds = [lhs == rhs for _, lhs, rhs in _defining_conditions(section.particular, ext)]
    if not holds[0]:
        raise InternalContradiction("oracle solution fails the section condition (a)")
    if not all(holds):
        return _oracle_infeasible(n, ext)
    return BruteForceSolutions(section.particular,
                               Subspace.zero(field, SpaceLabel.base("unknowns", n)))


def membership_check(conn: ConnectionForm, oracle: BruteForceSolutions) -> bool:
    """True iff the connection lies in the oracle's affine solution set."""
    return oracle.kernel.contains_vector(
        map_vectorize(conn.ell - oracle.particular))
