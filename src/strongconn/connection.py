"""Cointegrals, integrals, sections and the explicit strong connection.

The construction: given an entwined extension with surjective lifted
canonical map and a cointegral delta on C, pick any linear section sigma
of the canonical map on the slice 1 (x) C, form

    gamma = (delta (x) A) o (C (x) left_coaction)
    alpha = (A (x) delta) o (right_coaction (x) C)

and assemble

    ell = (gamma (x) alpha) o (C (x) sigma (x) C) o (comul (x) C) o comul.

Every produced object is re-verified rather than trusted.  The defining
conditions of a cointegral, an integral and a strong connection are one
table each, which the verifier evaluates as map identities and
linear_system reads as a solver's system, and a brute-force oracle
describes the whole affine set of connections for cross-checking (see
brute_force_connections for when it solves a system).

All solves share the deterministic echelon solver (leftmost pivots, free
variables zero).  When a solution space is positive-dimensional the
output is reproducible but not canonical; reports record the dimension.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalContradiction, NoGrouplikeUnit, NotGalois, TooLarge
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
    swap_legs,
)
from .report import (VerificationReport, check_conditions, check_map_equal,
                     evaluate_conditions, first_column_mismatch)
from .structures import HopfAlgebra, StructureCoalgebra

# the default cap on the oracle's unknown count
ORACLE_CAP = 4096


class Cointegral(NamedTuple):
    """Functional C (x) C -> k splitting the coproduct bicolinearly."""

    delta: LinMap
    solution_dim: int = 0


class Integral(NamedTuple):
    """Normalised invariant functional on a Hopf algebra."""

    lam: LinMap
    solution_dim: int = 0


class SectionMap(NamedTuple):
    """Linear sigma: C -> A (x) A with canonical_map o sigma = 1 (x) C."""

    sigma: LinMap
    solution_dim: int = 0


class ConnectionForm(NamedTuple):
    """ell, and for a formula build the gamma and alpha it was built from,
    so that the colinearity reduction reuses them."""

    ell: LinMap
    gamma: LinMap | None = None
    alpha: LinMap | None = None


class BruteForceSolutions(NamedTuple):
    """Affine description of every map satisfying the three conditions."""

    particular: LinMap
    kernel: Subspace


# -- defining conditions -------------------------------------------------
#
# The conditions on each object's map X are one table in report's
# format with a slot for X in every chain: check_conditions verifies X
# against it and linear_system solves for X from it.


def cointegral_conditions(coa: StructureCoalgebra) -> tuple:
    """delta o comul = counit and the centrality law, on delta: C (x) C -> k."""
    return (("cointegral-counit-law", coa.space,
             ((None, 0), (coa.comul, 0)), coa.counit),
            ("cointegral-centrality", coa.space.tensor(coa.space),
             ((None, 1), (coa.comul, 0)), ((None, 0), (coa.comul, 1))))


def integral_conditions(hopf: HopfAlgebra) -> tuple:
    """c_1 lam(c_2) = lam(c) 1, the C-valued invariance law, and
    lam(1) = 1, on lam: C -> k."""
    unit, k = hopf.algebra.unit, SpaceLabel.scalar()
    return (("integral-invariance", hopf.space,
             ((None, 1), (hopf.coalgebra.comul, 0)), ((unit, 0), (None, 0))),
            ("integral-normalized", k,
             ((None, 0), (unit, 0)), LinMap.identity(hopf.field, k)))


def connection_conditions(ext: EntwinedExtension) -> tuple:
    """On ell: C -> A (x) A, (a) lifted_canonical o ell = 1 (x) C, (b)
    right and (c) left C-colinearity."""
    coa = ext.coalgebra
    return (("connection-sections-canonical", coa.space,
             ((ext.canonical_map, 0), (None, 0)),
             map_kron(ext.algebra.unit, coa.identity())),
            ("connection-right-colinear", coa.space,
             ((None, 0), (coa.comul, 0)), ((ext.coaction.rho, 1), (None, 0))),
            ("connection-left-colinear", coa.space,
             ((None, 1), (coa.comul, 0)), ((ext.coaction.rho_left, 0), (None, 0))))


def linear_system(field, x_domain: SpaceLabel, x_codomain: SpaceLabel,
                  conditions) -> tuple[LinMap, LinMap]:
    """(system, target): the conditions of a table on an unknown map
    X: x_domain -> x_codomain as one system in X's entries.

    Each condition contributes a block of rows, lhs minus rhs, in the
    column-major order of map_vectorize, and unknown k is entry
    (k % cod_dim, k // cod_dim) of X, as in map_from_vector.  A chain
    side is L o (I_p (x) X (x) I_q) o R, with L composed of the steps
    before its slot and R of those after it (an identity when there are
    none); a fixed side goes into the target.  The coefficients come
    straight from the nonzeros of L and R:

        [L o (I (x) X (x) I) o R](o, i)
            = sum L(o, (a, e, b)) X(e, d) R((a, d, b), i).

    A row that no nonzero reaches, or whose terms cancel, is not stored.
    """
    one = field.one
    dom_dim, cod_dim = x_domain.dim, x_codomain.dim

    def columns(m, dim, sign):
        """Signed nonzeros of each column of m; None is the identity."""
        if m is None:
            return [[(j, sign)] for j in range(dim)]
        cols = [[] for _ in range(m.ncols)]
        for (r, c), v in m.items():
            cols[c].append((r, v if sign is one else -v))
        return cols

    coeffs, target, top = {}, [], 0
    for _, domain, lhs, rhs in conditions:
        sides = [(one, lhs)] if isinstance(rhs, LinMap) else [(one, lhs), (-one, rhs)]
        for sign, chain in sides:
            slot = next(i for i, (f, _) in enumerate(chain) if f is None)
            R = compose_legs(domain, *chain[slot + 1:]) if chain[slot + 1:] else None
            q, out = swap_legs(domain if R is None else R.codomain,
                               x_domain, x_codomain, chain[slot][1])
            L = compose_legs(out, *chain[:slot]) if slot else None
            l_cols = columns(L, out.dim, sign)
            r_cols = columns(R, domain.dim, one)
            out_dim = out.dim if L is None else L.nrows
            for i, r_col in enumerate(r_cols):
                base = top + i * out_dim
                for r_idx, rv in r_col:
                    a, rest = divmod(r_idx, dom_dim * q)
                    d, b = divmod(rest, q)
                    for e in range(cod_dim):
                        col = d * cod_dim + e
                        for o, lv in l_cols[(a * cod_dim + e) * q + b]:
                            key = (base + o, col)
                            v = lv * rv
                            old = coeffs.get(key)
                            coeffs[key] = v if old is None else old + v
        if isinstance(rhs, LinMap):  # rhs's entry (r, c) at c * nrows + r
            target.extend(((top + c * rhs.nrows + r, 0), v) for (r, c), v in rhs.items())
        top += out_dim * len(r_cols)
    constraints = SpaceLabel.base("constraints", top)
    return (LinMap.from_items(field, SpaceLabel.base("unknowns", dom_dim * cod_dim),
                              constraints, coeffs.items()),
            LinMap.from_items(field, SpaceLabel.scalar(), constraints, target))


def _solve(field, x_domain: SpaceLabel, x_codomain: SpaceLabel, table):
    """(X, kernel): the table's solution with free variables zero and its
    system's kernel, or the system's Infeasible certificate."""
    sol = rref_solve(*linear_system(field, x_domain, x_codomain, table))
    if isinstance(sol.particular, Infeasible):
        return sol.particular
    return (map_from_vector(field, x_domain, x_codomain, sol.particular.column(0)),
            sol.kernel)


# -- cointegrals and integrals ------------------------------------------


def solve_cointegral(coa: StructureCoalgebra):
    """Deterministic cointegral on C, or Infeasible with a certificate.

    Infeasibility means C is not coseparable over this field; over a
    larger field the system could in principle become solvable.
    """
    table = cointegral_conditions(coa)
    out = _solve(coa.field, coa.space.tensor(coa.space), SpaceLabel.scalar(), table)
    if isinstance(out, Infeasible):
        return out
    delta, kernel = out
    if not check_conditions(table, delta).passed:
        raise InternalContradiction("solved cointegral fails its defining laws")
    return Cointegral(delta, kernel.dim)


def solve_integral(hopf: HopfAlgebra):
    """Deterministic normalised integral on a Hopf algebra, or Infeasible."""
    table = integral_conditions(hopf)
    out = _solve(hopf.field, hopf.space, SpaceLabel.scalar(), table)
    if isinstance(out, Infeasible):
        return out
    lam, kernel = out
    if not check_conditions(table, lam).passed:
        raise InternalContradiction("solved integral fails its defining laws")
    return Integral(lam, kernel.dim)


def integral_to_cointegral(hopf: HopfAlgebra, integral: Integral) -> Cointegral:
    """delta(c (x) c') = lam(c S(c')), re-verified against the cointegral laws."""
    delta = precompose_at(integral.lam @ hopf.algebra.mul, hopf.antipode, 1)
    if not check_conditions(cointegral_conditions(hopf.coalgebra), delta).passed:
        raise InternalContradiction("converted cointegral fails its defining laws")
    return Cointegral(delta, 0)


def cointegral_to_integral(delta: Cointegral, hopf: HopfAlgebra):
    """lam(c) = delta(c (x) 1); validity is checked and reported, not assumed."""
    lam = precompose_at(delta.delta, hopf.algebra.unit, 1)
    return Integral(lam, 0), check_conditions(integral_conditions(hopf), lam)


# -- sections ------------------------------------------------------------


def solve_section(ext: EntwinedExtension) -> SectionMap:
    """Deterministic right-inverse of the canonical map on the slice 1 (x) C."""
    alg, coa = ext.algebra, ext.coalgebra
    sol = ext.canonical_solution
    if sol.rank != alg.dim * coa.dim:
        raise NotGalois("lifted canonical map is not surjective")
    return SectionMap(sol.particular, solution_dim=sol.kernel.dim * coa.dim)


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
    _, lhs, rhs = _defining_conditions(sigma, ext)[0]
    if lhs != rhs:
        raise InternalContradiction("normalisation broke the section law")
    return SectionMap(sigma, solution_dim=section.solution_dim)


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
    """evaluate_conditions of connection_conditions on ell, once per map
    and extension: the section's normalisation, the colinearity
    reduction, the verify stage and the oracle's checks of its solution
    read one evaluation when their maps are equal."""
    cache = ext.condition_cache
    conditions = cache.get(ell)
    if conditions is None:
        conditions = cache[ell] = evaluate_conditions(connection_conditions(ext), ell)
    return conditions


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
    sigma = section.sigma
    # (b) and (c) on sigma: (sigma (x) C) o comul and (C (x) sigma) o comul on the left
    _, (_, sigma_0, rho_sigma), (_, sigma_1, lam_sigma) = _defining_conditions(sigma, ext)
    right_col = sigma_0 == rho_sigma
    left_col = sigma_1 == lam_sigma
    klass = ("neither", "left-colinear", "right-colinear",
             "bicolinear")[2 * right_col + left_col]
    rep.add("section-colinearity-class", True, {"class": klass}, keep=True)
    for name, holds, reduced, kind in (
            ("reduction-right-agrees", right_col,
             lambda: apply_at(conn.gamma, sigma_1, 0), "right colinear"),
            ("reduction-left-agrees", left_col,
             lambda: apply_at(conn.alpha, sigma_0, 1), "left colinear"),
            ("bicolinear-fixed-point", right_col and left_col, lambda: sigma, "bicolinear")):
        if not holds:
            rep.add_na(name, f"sigma is not {kind}")
        elif not rep.add(name, reduced() == conn.ell):
            raise InternalContradiction(f"{name} fails for a {kind} sigma")
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
    solution set of the stacked system that linear_system reads off
    connection_conditions (particular solution with free variables zero,
    plus the canonical echelon basis of its kernel) or that system's
    Infeasible certificate.  The particular solution is re-checked
    against the same table's map identities.

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
        out = _solve(field, coa.space, aa, connection_conditions(ext))
        if isinstance(out, Infeasible):
            return _oracle_infeasible(out.row, ext)
        particular, kernel = out
        if any(lhs != rhs for _, lhs, rhs in _defining_conditions(particular, ext)):
            raise InternalContradiction("oracle solution fails the defining conditions")
        return BruteForceSolutions(particular, kernel)
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
