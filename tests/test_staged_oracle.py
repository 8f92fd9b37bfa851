"""The oracle returns what the stacked system gives.

When the canonical map is injective, brute_force_connections takes the
one map satisfying condition (a) from the canonical map's own
elimination and checks colinearity on it; otherwise it solves the
stacked system outright.  The reference here is always the stacked
system of all three conditions solved outright, the linear_system of
connection_conditions(ext) through rref_solve: the particular solution
must agree entry for entry, the kernel's echelon rows must agree, and an
Infeasible certificate must agree in row, column and detail.  The cases
cover extensions whose canonical map has kernel 0 and kernels of
dimension 1 to 8, extensions that are not Galois, and extensions whose
colinearity conditions have no solution (rho_left doubled).  Further
tests pin the mechanism: with kernel 0 nothing is assembled or
eliminated, and a wrong cached canonical solution is rejected.
"""

import pytest
from test_systems import CASES

from strongconn import connection
from strongconn.connection import (
    BruteForceSolutions,
    brute_force_connections,
    connection_conditions,
    linear_system,
)
from strongconn.errors import InternalContradiction
from strongconn.extensions import (Coaction, EntwinedExtension, hopf_entwining,
                                   make_extension)
from strongconn.fileformat import InstanceFile
from strongconn.homogeneous import extension_from_homogeneous, quotient_coalgebra
from strongconn.instances import (
    build_graded_extension,
    build_homogeneous_z4_z2,
    build_trivial,
    cyclic_group_hopf,
    truncated_polynomial_algebra,
)
from strongconn.linmaps import (
    Infeasible,
    LinMap,
    SpaceLabel,
    Subspace,
    basis_vector,
    map_from_vector,
    rref_solve,
)
from strongconn.pipeline import run_pipeline


def stacked_reference(ext):
    """The stacked system solved outright: (particular or Infeasible with
    its detail, kernel)."""
    alg, coa = ext.algebra, ext.coalgebra
    system, target = linear_system(ext.field, coa.space, alg.space.tensor(alg.space),
                                   connection_conditions(ext))
    sol = rref_solve(system, target)
    if isinstance(sol.particular, Infeasible):
        block = SpaceLabel.base("section", coa.dim * alg.dim * coa.dim)
        def top(m):
            return {r: row for r, row in m.rows.items() if r < block.dim}
        section_only = rref_solve(
            LinMap._from_rows(ext.field, system.domain, block, top(system)),
            LinMap._from_rows(ext.field, target.domain, block, top(target)))
        which = ("the section condition (a)"
                 if isinstance(section_only.particular, Infeasible)
                 else "the colinearity conditions")
        return sol.particular._replace(
            detail="no map satisfies the stacked conditions; "
                   f"first obstruction lies in {which}"), sol.kernel
    aa = alg.space.tensor(alg.space)
    return (map_from_vector(ext.field, coa.space, aa, sol.particular.column(0)),
            sol.kernel)


def assert_matches_stacked(ext):
    out = brute_force_connections(ext)
    want, kernel = stacked_reference(ext)
    if isinstance(want, Infeasible):
        assert isinstance(out, Infeasible)
        assert (out.row, out.column, out.detail) == (want.row, want.column, want.detail)
        return out
    assert isinstance(out, BruteForceSolutions)
    assert out.particular.entries == want.entries
    assert out.particular == want
    assert out.kernel.rows == kernel.rows
    assert out.kernel == kernel
    return out


def doubled_rho_left(ext):
    """ext with its left coaction doubled: (c) then has no solution."""
    two = ext.field.scalar(2)
    return EntwinedExtension(
        ext.algebra, ext.coalgebra, ext.entwining,
        Coaction(ext.coaction.rho, ext.coaction.rho_left.scale(two)),
        ext.grouplike, ext.coinvariants)


def homogeneous_z4_z2():
    ext, rep = extension_from_homogeneous(build_homogeneous_z4_z2())
    assert rep.passed
    return ext


def ground_field_over_z2():
    """The one-dimensional algebra with rho(1) = 1 (x) e over kZ_2: its
    canonical map is injective but misses 1 (x) g, so (a) fails."""
    hopf = cyclic_group_hopf(2)
    f = hopf.field
    alg = truncated_polynomial_algebra(1, 0, f, "A")
    rho = LinMap.from_rules(f, alg.space, alg.space.tensor(hopf.space),
                            lambda k: [((0, 0), 1)])
    psi = hopf_entwining(hopf, alg, rho)
    return make_extension(alg, hopf.coalgebra, psi, rho, basis_vector(f, hopf.space, 0))


EXTRA = {
    "ground_field_over_z2": ground_field_over_z2,
    "graded_n2_t0": lambda: build_graded_extension(2, 0),
    "graded_n3_t0": lambda: build_graded_extension(3, 0),
    "trivial_truncated_n3": lambda: build_trivial(truncated_polynomial_algebra(3, 0)),
    "homogeneous_z4_z2": homogeneous_z4_z2,
    "graded_n2_t2-doubled": lambda: doubled_rho_left(build_graded_extension(2, 2)),
    "homogeneous_z4_z2-doubled": lambda: doubled_rho_left(homogeneous_z4_z2()),
}


@pytest.mark.parametrize("name,ext,hopf", CASES, ids=[c[0] for c in CASES])
def test_staged_oracle_matches_stacked_on_system_cases(name, ext, hopf):
    assert_matches_stacked(ext)


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_staged_oracle_matches_stacked(name):
    assert_matches_stacked(EXTRA[name]())


def test_extra_cases_cover_every_path():
    """(dim ker of the canonical map, oracle kernel dimension or where
    the obstruction lies) for the cases above: positive kernels with a
    solution, Infeasible from (a) and from (b, c), each with kernel 0
    and with a positive kernel."""
    got = {}
    for name, build in EXTRA.items():
        ext = build()
        out = brute_force_connections(ext)
        got[name] = (ext.canonical_solution.kernel.dim,
                     out.detail.rsplit("in ", 1)[1] if isinstance(out, Infeasible)
                     else out.kernel.dim)
    assert got == {
        "ground_field_over_z2": (0, "the section condition (a)"),
        "graded_n2_t0": (1, "the section condition (a)"),
        "graded_n3_t0": (3, "the section condition (a)"),
        "trivial_truncated_n3": (6, 6),
        "homogeneous_z4_z2": (8, 4),
        "graded_n2_t2-doubled": (0, "the colinearity conditions"),
        "homogeneous_z4_z2-doubled": (8, "the colinearity conditions"),
    }


# -- kZ_8 over its subgroups, through the pipeline ----------------------


def z8_over_subgroup(order):
    """kZ_8 as a homogeneous instance over the group algebra of its
    subgroup of the given order."""
    hopf = cyclic_group_hopf(8, name="A")
    field = hopf.field
    step = 8 // order
    b_sub = Subspace.from_vectors(
        field, hopf.space,
        [[field.one if i == h else field.zero for i in range(8)]
         for h in range(0, 8, step)])
    tensors = {"mul": hopf.algebra.mul, "unit": hopf.algebra.unit,
               "a_comul": hopf.coalgebra.comul, "a_counit": hopf.coalgebra.counit,
               "a_antipode": hopf.antipode}
    inst = InstanceFile(f"z8_over_order{order}", field, {"A": 8}, tensors,
                        {k: k for k in tensors}, b_subspace=b_sub)
    return inst, hopf, b_sub


@pytest.mark.parametrize("order", [2, 4])
def test_z8_over_subgroup_pipeline_oracle_matches_stacked(order):
    inst, hopf, b_sub = z8_over_subgroup(order)
    rep = run_pipeline(inst)
    statuses = {c.name: c.status for _, c in rep.checks}
    assert statuses["oracle-solution-exists"] == "pass"
    assert statuses["oracle-contains-formula-output"] == "pass"
    ext, erep = extension_from_homogeneous(quotient_coalgebra(hopf, b_sub))
    assert erep.passed
    assert ext.canonical_solution.kernel.dim > 0
    out = assert_matches_stacked(ext)
    assert rep.solution_dims["oracle_kernel"] == out.kernel.dim
    assert rep.solution_dims["oracle_kernel"] == stacked_reference(ext)[1].dim


# -- the mechanism -------------------------------------------------------


def count_calls(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(connection, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(connection, name, wrapper)
    return counts


def test_zero_kernel_oracle_assembles_and_eliminates_nothing(monkeypatch):
    ext = build_graded_extension(3, 2)
    assert ext.canonical_solution.kernel.dim == 0
    counts = count_calls(monkeypatch, "linear_system", "rref_solve")
    assert isinstance(brute_force_connections(ext), BruteForceSolutions)
    assert counts == {"linear_system": 0, "rref_solve": 0}


def test_positive_kernel_oracle_assembles_and_eliminates_once(monkeypatch):
    """The counters above see the calls where there are some."""
    ext = homogeneous_z4_z2()
    ext.canonical_solution
    counts = count_calls(monkeypatch, "linear_system", "rref_solve")
    assert isinstance(brute_force_connections(ext), BruteForceSolutions)
    assert counts == {"linear_system": 1, "rref_solve": 1}


def with_canonical_solution(ext, **changes):
    """ext with its cached canonical solution replaced."""
    ext.__dict__["canonical_solution"] = ext.canonical_solution._replace(**changes)
    return ext


def test_post_check_rejects_wrong_zero_kernel_particular():
    ext = build_graded_extension(2, 2)
    good = ext.canonical_solution.particular
    with_canonical_solution(ext, particular=good.scale(ext.field.scalar(2)))
    with pytest.raises(InternalContradiction):
        brute_force_connections(ext)


def test_rank_nullity_check_rejects_a_missing_kernel():
    """A cached solution that lost its kernel would make the canonical
    map look injective; its rank then falls short of the unknowns."""
    ext = homogeneous_z4_z2()
    K = ext.canonical_solution.kernel
    assert K.dim == 8
    with_canonical_solution(ext, kernel=Subspace.zero(ext.field, K.ambient))
    with pytest.raises(InternalContradiction, match="rank"):
        brute_force_connections(ext)
