"""The immutable records are built positionally in field order, and
assigning to any of their fields raises AttributeError."""

import pytest

from strongconn.connection import (
    BruteForceSolutions,
    Cointegral,
    ConnectionForm,
    Integral,
    SectionMap,
)
from strongconn.extensions import Coaction, Entwining
from strongconn.homogeneous import HomogeneousDatum
from strongconn.linmaps import Infeasible
from strongconn.report import Check

RECORDS = [
    (Check, ("name", "status", "witness")),
    (Infeasible, ("row", "column", "detail")),
    (Cointegral, ("delta", "solution_dim")),
    (Integral, ("lam", "solution_dim")),
    (SectionMap, ("sigma", "solution_dim")),
    (ConnectionForm, ("ell", "gamma", "alpha")),
    (BruteForceSolutions, ("particular", "kernel")),
    (Entwining, ("psi", "psi_inv")),
    (Coaction, ("rho", "rho_left")),
    (HomogeneousDatum, ("hopf", "b_subalgebra", "bplus_a", "quotient", "pi",
                        "section", "left_coaction", "right_coaction")),
]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_fields_cannot_be_assigned(cls, fields):
    rec = cls(*range(len(fields)))
    assert [getattr(rec, f) for f in fields] == list(range(len(fields)))
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, -1)
    assert [getattr(rec, f) for f in fields] == list(range(len(fields)))
