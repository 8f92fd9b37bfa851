"""The directly built linear systems equal the systems probing builds.

The reference below evaluates each condition on every unit map of the
unknown space, one dense evaluation per unknown, the way the solvers
assembled their systems before they wrote the coefficients straight from
the structure maps.  Matrix and right-hand side must agree entry for
entry, in the same row order.
"""

import pytest

from strongconn.connection import (
    brute_force_connections,
    cointegral_conditions,
    connection_conditions,
    integral_conditions,
    linear_system,
)
from strongconn.extensions import lifted_canonical, validate_and_build
from strongconn.fileformat import InstanceFile
from strongconn.golden import GOLDEN_BUILDERS, build_golden
from strongconn.homogeneous import extension_from_homogeneous
from strongconn.instances import build_graded_extension, build_homogeneous_z4_z2
from strongconn.linmaps import (
    Infeasible,
    LinMap,
    SpaceLabel,
    map_from_vector,
    map_kron,
    map_vectorize,
    rref_solve,
    vector,
)
from strongconn.structures import HopfAlgebra, StructureAlgebra, StructureCoalgebra

from basis_change import conjugate


def probed_system(field, dom, cod, conditions, rhs):
    """Column k of the system is the conditions evaluated on unit map k."""
    n = dom.dim * cod.dim
    columns = [conditions(map_from_vector(
        field, dom, cod, [field.one if i == k else field.zero for i in range(n)]))
        for k in range(n)]
    rows_label = SpaceLabel.base("constraints", len(rhs))
    return (LinMap(field, SpaceLabel.base("unknowns", n), rows_label,
                   [[col[r] for col in columns] for r in range(len(rhs))]),
            vector(field, rows_label, rhs))


def probed_oracle(ext):
    alg, coa, field = ext.algebra, ext.coalgebra, ext.field
    ia, ic = alg.identity(), coa.identity()
    lcan = lifted_canonical(alg, coa, ext.coaction.rho)
    rho, lam = ext.coaction.rho, ext.coaction.rho_left

    def conditions(ell):
        cond_b = map_kron(ell, ic) @ coa.comul - map_kron(ia, rho) @ ell
        cond_c = map_kron(ic, ell) @ coa.comul - map_kron(lam, ia) @ ell
        return (map_vectorize(lcan @ ell) + map_vectorize(cond_b)
                + map_vectorize(cond_c))

    rhs = list(map_vectorize(map_kron(alg.unit, ic)))
    rhs += [field.zero] * (2 * coa.dim ** 2 * alg.dim ** 2)
    return probed_system(field, coa.space, alg.space.tensor(alg.space),
                         conditions, rhs)


def probed_cointegral(coa):
    field, ic = coa.field, coa.identity()

    def conditions(delta):
        central = map_kron(ic, delta) @ map_kron(coa.comul, ic) - \
            map_kron(delta, ic) @ map_kron(ic, coa.comul)
        return map_vectorize(delta @ coa.comul) + map_vectorize(central)

    rhs = list(map_vectorize(coa.counit)) + [field.zero] * coa.dim ** 3
    return probed_system(field, coa.space.tensor(coa.space), SpaceLabel.scalar(),
                         conditions, rhs)


def probed_integral(hopf):
    field, ic = hopf.field, hopf.coalgebra.identity()
    unit = hopf.algebra.unit

    def conditions(lam):
        invariance = map_kron(ic, lam) @ hopf.coalgebra.comul - unit @ lam
        return map_vectorize(invariance) + map_vectorize(lam @ unit)

    rhs = [field.zero] * hopf.dim ** 2 + [field.one]
    return probed_system(field, hopf.space, SpaceLabel.scalar(), conditions, rhs)


# -- the instances ---------------------------------------------------------


def extension_of(inst: InstanceFile):
    alg = StructureAlgebra(inst.designated("mul"), inst.designated("unit"))
    coa = StructureCoalgebra(inst.designated("comul"), inst.designated("counit"))
    ext, rep = validate_and_build(alg, coa, inst.designated("psi"),
                                  inst.designated("rho"), inst.grouplike)
    assert ext is not None, rep.failures
    return ext


def c_hopf_of(inst: InstanceFile):
    if inst.designated("c_mul") is None:
        return None
    return HopfAlgebra(
        StructureAlgebra(inst.designated("c_mul"), inst.designated("c_unit")),
        StructureCoalgebra(inst.designated("comul"), inst.designated("counit")),
        inst.designated("c_antipode"))


def cases():
    """(name, extension, Hopf algebra of the instance or None) for every
    golden extension and one seeded conjugate over Q(zeta3)."""
    out = []
    for name in sorted(GOLDEN_BUILDERS):
        if name == "homogeneous_z4_z2":
            datum = build_homogeneous_z4_z2()
            ext, rep = extension_from_homogeneous(datum)
            assert rep.passed
            out.append((name, ext, datum.hopf))
            continue
        inst = build_golden(name)
        out.append((name, extension_of(inst), c_hopf_of(inst)))
    inst = conjugate(build_golden("graded_n3_t1_cyclotomic"), seed=7)
    out.append(("graded_n3_t1_cyclotomic-conjugate", extension_of(inst),
                c_hopf_of(inst)))
    return out


CASES = cases()
IDS = [name for name, _, _ in CASES]


def assert_same(built, probed):
    (system, target), (ref_system, ref_target) = built, probed
    assert system.codomain.dim == ref_system.codomain.dim
    assert system.entries == ref_system.entries
    assert target.entries == ref_target.entries


def test_conjugate_is_dense_and_cyclotomic():
    _, ext, _ = CASES[-1]
    assert ext.field.degree == 2
    psi = ext.entwining.psi
    nonzero = sum(1 for row in psi.entries for s in row if s)
    assert nonzero > psi.nrows  # more than a permutation's worth


@pytest.mark.parametrize("name,ext,hopf", CASES, ids=IDS)
def test_oracle_system_equals_probing(name, ext, hopf):
    aa = ext.algebra.space.tensor(ext.algebra.space)
    assert_same(linear_system(ext.field, ext.coalgebra.space, aa,
                              connection_conditions(ext)), probed_oracle(ext))


@pytest.mark.parametrize("name,ext,hopf", CASES, ids=IDS)
def test_cointegral_system_equals_probing(name, ext, hopf):
    coa = ext.coalgebra
    assert_same(linear_system(coa.field, coa.space.tensor(coa.space), SpaceLabel.scalar(),
                              cointegral_conditions(coa)), probed_cointegral(coa))


@pytest.mark.parametrize("name,ext,hopf", [c for c in CASES if c[2] is not None],
                         ids=[c[0] for c in CASES if c[2] is not None])
def test_integral_system_equals_probing(name, ext, hopf):
    assert_same(linear_system(hopf.field, hopf.space, SpaceLabel.scalar(),
                              integral_conditions(hopf)), probed_integral(hopf))


def test_non_galois_oracle_certificate_matches_probing():
    ext = build_graded_extension(2, 0)
    out = brute_force_connections(ext)
    assert isinstance(out, Infeasible)
    system, target = probed_oracle(ext)
    ref = rref_solve(system, target).particular
    assert isinstance(ref, Infeasible)
    block = SpaceLabel.base("constraints", ext.coalgebra.dim ** 2 * ext.algebra.dim)
    section_only = rref_solve(
        LinMap(ext.field, system.domain, block, system.entries[:block.dim]),
        LinMap(ext.field, target.domain, block, target.entries[:block.dim]))
    which = ("the section condition (a)"
             if isinstance(section_only.particular, Infeasible)
             else "the colinearity conditions")
    assert (out.row, out.column) == (ref.row, ref.column)
    assert out.detail == ("no map satisfies the stacked conditions; "
                          f"first obstruction lies in {which}")
