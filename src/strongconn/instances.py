"""Programmatic builders for the desk-scale instance library.

Every builder returns fully validated structures (construction is
strict), except that the Galois condition is a separate check: the
graded extension with t = 0 builds fine and then fails galois_check,
which is exactly the negative control it exists for.
"""

from __future__ import annotations

from .extensions import EntwinedExtension, hopf_entwining, make_extension
from .homogeneous import HomogeneousDatum, quotient_coalgebra
from .linmaps import LinMap, SpaceLabel, Subspace, basis_vector, flip_map, map_kron
from .scalars import Field, Scalar
from .structures import HopfAlgebra, StructureAlgebra, StructureCoalgebra


def trivial_coalgebra(field: Field, name: str = "C") -> StructureCoalgebra:
    """The one-dimensional coalgebra spanned by a single grouplike."""
    space = SpaceLabel.base(name, 1)
    comul = LinMap(field, space, space.tensor(space), [[field.one]])
    counit = LinMap(field, space, SpaceLabel.scalar(), [[field.one]])
    return StructureCoalgebra(comul, counit)


def cyclic_group_hopf(n: int, field: Field | None = None,
                      name: str = "C") -> HopfAlgebra:
    """The group algebra of Z_n with its grouplike basis g^0..g^(n-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    field = field or Field.rationals()
    space = SpaceLabel.base(name, n)
    alg = StructureAlgebra(
        LinMap.from_rules(field, space.tensor(space), space,
                          lambda ij: [(((ij[0] + ij[1]) % n,), 1)]),
        basis_vector(field, space, 0))
    coa = StructureCoalgebra(
        LinMap.from_rules(field, space, space.tensor(space),
                          lambda i: [((i[0], i[0]), 1)]),
        LinMap.from_rules(field, space, SpaceLabel.scalar(),
                          lambda i: [((), 1)]))
    antipode = LinMap.from_rules(field, space, space,
                                 lambda i: [(((n - i[0]) % n,), 1)])
    return HopfAlgebra(alg, coa, antipode)


def sweedler_hopf(field: Field | None = None, name: str = "C") -> HopfAlgebra:
    """Sweedler's four-dimensional Hopf algebra, basis 1, g, x, gx.

    Relations g^2 = 1, x^2 = 0, x g = -g x; the coproduct sends g to
    g (x) g and x to x (x) 1 + g (x) x; S(g) = g, S(x) = -g x.  The
    canonical example of a Hopf algebra without a normalised integral.
    """
    field = field or Field.rationals()
    space = SpaceLabel.base(name, 4)
    # indices: 0 = 1, 1 = g, 2 = x, 3 = gx
    table = {
        (0, 0): [(0, 1)], (0, 1): [(1, 1)], (0, 2): [(2, 1)], (0, 3): [(3, 1)],
        (1, 0): [(1, 1)], (1, 1): [(0, 1)], (1, 2): [(3, 1)], (1, 3): [(2, 1)],
        (2, 0): [(2, 1)], (2, 1): [(3, -1)], (2, 2): [], (2, 3): [],
        (3, 0): [(3, 1)], (3, 1): [(2, -1)], (3, 2): [], (3, 3): [],
    }
    alg = StructureAlgebra(
        LinMap.from_rules(field, space.tensor(space), space,
                          lambda ij: [((k,), c) for k, c in table[ij]]),
        basis_vector(field, space, 0))
    comul_rules = {
        0: [((0, 0), 1)],
        1: [((1, 1), 1)],
        2: [((2, 0), 1), ((1, 2), 1)],
        3: [((3, 1), 1), ((0, 3), 1)],
    }
    coa = StructureCoalgebra(
        LinMap.from_rules(field, space, space.tensor(space),
                          lambda i: comul_rules[i[0]]),
        LinMap.from_rules(field, space, SpaceLabel.scalar(),
                          lambda i: [((), 1)] if i[0] in (0, 1) else []))
    antipode_rules = {0: [(0, 1)], 1: [(1, 1)], 2: [(3, -1)], 3: [(2, 1)]}
    antipode = LinMap.from_rules(field, space, space,
                                 lambda i: [((k,), c) for k, c in antipode_rules[i[0]]])
    return HopfAlgebra(alg, coa, antipode)


def truncated_polynomial_algebra(n: int, t, field: Field | None = None,
                                 name: str = "A") -> StructureAlgebra:
    """field[x]/(x^n - t): basis 1, x, ..., x^(n-1)."""
    field = field or Field.rationals()
    if not isinstance(t, Scalar):
        t = field.scalar(t)
    space = SpaceLabel.base(name, n)

    def rule(ij):
        s = ij[0] + ij[1]
        if s < n:
            return [((s,), field.one)]
        return [((s - n,), t)]

    return StructureAlgebra(
        LinMap.from_rules(field, space.tensor(space), space, rule),
        basis_vector(field, space, 0))


def self_extension(hopf: HopfAlgebra) -> EntwinedExtension:
    """A Hopf algebra coacting on itself by its coproduct.

    The total algebra is a relabeled copy on the space A, the structure
    coalgebra stays on C, and the entwining is the canonical one of a
    comodule algebra.  The designated grouplike is the unit.
    """
    n = hopf.dim
    field = hopf.field
    c_space = hopf.space
    a_space = SpaceLabel.base("A", n)
    alg = StructureAlgebra(
        hopf.algebra.mul.relabel(domain=a_space.tensor(a_space), codomain=a_space),
        hopf.algebra.unit.relabel(codomain=a_space))
    rho = hopf.coalgebra.comul.relabel(domain=a_space,
                                       codomain=a_space.tensor(c_space))
    psi = hopf_entwining(hopf, alg, rho)
    return make_extension(alg, hopf.coalgebra, psi, rho, hopf.algebra.unit)


def build_trivial(alg: StructureAlgebra) -> EntwinedExtension:
    """The trivial extension: one-dimensional C, rho(a) = a (x) e, flip psi."""
    field = alg.field
    coa = trivial_coalgebra(field)
    e = basis_vector(field, coa.space, 0)
    rho = map_kron(alg.identity(), e)
    psi = flip_map(field, coa.space, alg.space)
    return make_extension(alg, coa, psi, rho, e)


def build_group_self_extension(n: int, field: Field | None = None) -> EntwinedExtension:
    return self_extension(cyclic_group_hopf(n, field))


def build_graded_extension(n: int, t, field: Field | None = None) -> EntwinedExtension:
    """field[x]/(x^n - t) graded over the cyclic coalgebra of order n.

    The coaction puts x^k in degree k.  For t = 0 the result is still a
    valid entwined extension but the canonical map is not surjective,
    so galois_check fails downstream.
    """
    field = field or Field.rationals()
    hopf = cyclic_group_hopf(n, field, "C")
    alg = truncated_polynomial_algebra(n, t, field, "A")
    a_space, c_space = alg.space, hopf.space
    rho = LinMap.from_rules(field, a_space, a_space.tensor(c_space),
                            lambda k: [((k[0], k[0]), 1)])
    psi = hopf_entwining(hopf, alg, rho)
    grouplike = basis_vector(field, c_space, 0)
    return make_extension(alg, hopf.coalgebra, psi, rho, grouplike)


def build_homogeneous_z4_z2(field: Field | None = None) -> HomogeneousDatum:
    """A = kZ_4 over B = span{1, g^2}; the quotient is a copy of kZ_2."""
    field = field or Field.rationals()
    hopf = cyclic_group_hopf(4, field, "A")
    z, o = field.zero, field.one
    b_sub = Subspace.from_vectors(field, hopf.space,
                                  [(o, z, z, z), (z, z, o, z)])
    return quotient_coalgebra(hopf, b_sub)
