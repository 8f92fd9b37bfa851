"""Reports do not change under a change of basis.

Every golden file, and two graded instances over Q(zeta3), is moved
along seeded unimodular changes of basis of A and of C (basis_change);
over Q(zeta3) the entries off the diagonal include +-zeta.  The
pipeline must record the same checks with the same statuses in the
same order, the same solution dimensions and the same exit code.

A change of basis L U that is not triangular also moves which section
the solver's "free variables zero" picks.  For homogeneous_z4_z2 that
section stops being bicolinear, so the checks that need a colinear
section read not-applicable instead of pass; everything else must
still be the same.
"""

from pathlib import Path

import pytest

from strongconn.fileformat import parse_instance
from strongconn.golden import instance_from_extension
from strongconn.instances import build_graded_extension, cyclic_group_hopf
from strongconn.pipeline import run_pipeline
from strongconn.report import NA
from strongconn.scalars import Field

from basis_change import conjugate

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
ZETA3 = Field.number_field([1, 1, 1])
SEEDS = range(1, 6)
# statuses that depend on which section the solver picks
SECTION_DEPENDENT = {"reduction-right-agrees", "reduction-left-agrees",
                     "bicolinear-fixed-point"}


def graded_over_zeta3(n, t):
    return instance_from_extension(f"graded_n{n}_t{t}_zeta3",
                                   build_graded_extension(n, t, ZETA3),
                                   c_hopf=cyclic_group_hopf(n, ZETA3))


INSTANCES = {p.stem: (lambda p=p: parse_instance(str(p)))
             for p in sorted(GOLDEN_DIR.glob("*.json"))}
INSTANCES["graded_n2_t2_zeta3"] = lambda: graded_over_zeta3(2, 2)
INSTANCES["graded_n3_t0_zeta3"] = lambda: graded_over_zeta3(3, 0)

_ORIGINALS = {}


def original(name):
    """The instance and its outcome, made once per module."""
    if name not in _ORIGINALS:
        inst = INSTANCES[name]()
        _ORIGINALS[name] = inst, outcome(inst)
    return _ORIGINALS[name]


def entries(field):
    if field.degree == 1:
        return (-1, 0, 1)
    z = field.generator()
    return (-1, 0, 1, z, -z)


def outcome(inst):
    rep = run_pipeline(inst)
    return ([(stage, c.name, c.status) for stage, c in rep.checks],
            rep.solution_dims, rep.exit_code)


def test_the_golden_files_are_all_here():
    assert len([n for n in INSTANCES if not n.endswith("_zeta3")]) == 7


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", INSTANCES)
def test_report_is_invariant_under_a_change_of_basis(name, seed):
    inst, expected = original(name)
    moved = conjugate(inst, seed, entries(inst.field))
    assert outcome(moved) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", INSTANCES)
def test_report_is_invariant_under_a_change_of_basis_that_is_not_triangular(
        name, seed):
    inst, expected = original(name)
    checks, dims, code = outcome(conjugate(inst, seed, entries(inst.field),
                                           lu=True))
    assert (dims, code) == expected[1:]
    assert [c[:2] for c in checks] == [c[:2] for c in expected[0]]
    for (_, check, status), (_, _, was) in zip(checks, expected[0]):
        if status != was:
            assert check in SECTION_DEPENDENT and status == NA


@pytest.mark.parametrize("name", INSTANCES)
def test_some_seed_moves_every_instance(name):
    inst, _ = original(name)
    for lu in (False, True):
        moved = [conjugate(inst, seed, entries(inst.field), lu)
                 for seed in SEEDS]
        assert any(m.tensors != inst.tensors for m in moved)
        if inst.b_subspace is not None:
            assert any(m.b_subspace != inst.b_subspace for m in moved)
