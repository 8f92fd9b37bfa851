"""Every +-1 that reaches a multiplication is the field's own singleton.

The unit shortcuts of ``Scalar.__mul__`` and of the map products test
``is field.one`` / ``is field.minus_one``; they fire only if parsing and
arithmetic return those objects for every +-1.  This runs the pipeline
on the golden files and on a densely conjugated cyclotomic instance,
with ``Scalar.__mul__`` wrapped to record each operand that equals +-1
but is another object.
"""

from pathlib import Path

import pytest

from strongconn.fileformat import (InstanceFile, parse_instance,
                                   write_instance)
from strongconn.golden import instance_from_extension
from strongconn.instances import build_graded_extension, cyclic_group_hopf
from strongconn.linmaps import LinMap, SpaceLabel
from strongconn.pipeline import STAGE_ORDER, run_pipeline
from strongconn.scalars import Field, Scalar

from basis_change import transport

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


@pytest.fixture
def stray_units(monkeypatch):
    """The +-1 operands of every multiplication that are not singletons."""
    stray = []
    mul = Scalar.__mul__

    def checked(a, b):
        for x in (a, b):
            f = x.field
            if (x == f.one and x is not f.one) or \
                    (x == f.minus_one and x is not f.minus_one):
                stray.append(str(x))
        return mul(a, b)

    monkeypatch.setattr(Scalar, "__mul__", checked)
    return stray


def dense_conjugate(inst: InstanceFile) -> InstanceFile:
    """inst transported along the unimodular all-ones upper triangle with
    alternating signs on every space, so each tensor fills in with
    entries +-1, +-2, ..."""
    fwd = {}
    for name, dim in inst.spaces.items():
        space = SpaceLabel.base(name, dim)
        fwd[name] = LinMap.from_rules(
            inst.field, space, space,
            lambda j: [((i,), (-1) ** i) for i in range(j[0] + 1)])
    return transport(inst, fwd)


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_DIR.glob("*.json")))
def test_golden_runs_multiply_only_singleton_units(name, stray_units):
    inst = parse_instance(str(GOLDEN_DIR / f"{name}.json"))
    run_pipeline(inst)
    assert stray_units == []


def test_dense_cyclotomic_run_multiplies_only_singleton_units(tmp_path, stray_units):
    field = Field.number_field([1, 1, 1])
    ext = build_graded_extension(3, 2, field)
    inst = dense_conjugate(instance_from_extension(
        "graded_n3_t2_dense", ext, c_hopf=cyclic_group_hopf(3, field)))
    path = tmp_path / "dense.json"
    write_instance(inst, str(path))
    stray_units.clear()  # only parsing and the pipeline are under test
    rep = run_pipeline(parse_instance(str(path)), STAGE_ORDER[1:])
    assert rep.exit_code == 0
    assert stray_units == []
