"""Rows of validate_and_build whose status comes from a lemma.

Six law rows follow from rows checked before them in the same report
(extensions.IMPLIED_LAWS); validate_and_build records them as passing
without building them when every premise passed, and evaluates them
otherwise.  These tests hold the reports to those of a run that
evaluates every row, pin the premises, and keep the public validators
of those rows evaluating in full.
"""

import random

import pytest

import strongconn
from strongconn import extensions
from strongconn.extensions import (
    IMPLIED_LAWS,
    Coaction,
    Entwining,
    EntwinedExtension,
    key_identity_check,
    validate_and_build,
    validate_entwining_ll,
    validate_entwining_rr,
)
from strongconn.golden import instance_from_extension
from strongconn.instances import (
    build_graded_extension,
    build_group_self_extension,
    cyclic_group_hopf,
    self_extension,
    sweedler_hopf,
)
from strongconn.linmaps import LinMap, try_inverse
from strongconn.pipeline import run_pipeline
from strongconn.report import PASS
from strongconn.scalars import Field

ZETA3 = Field.number_field([1, 1, 1])


def _cases():
    """(name, extension, Hopf structure on C) of each small instance."""
    return [
        ("graded_n2_t2", build_graded_extension(2, 2), cyclic_group_hopf(2)),
        ("graded_n3_t1", build_graded_extension(3, 1), cyclic_group_hopf(3)),
        ("group_self_z4", build_group_self_extension(4), cyclic_group_hopf(4)),
        ("sweedler_h4", self_extension(sweedler_hopf()), sweedler_hopf()),
        ("graded_n3_t1_cyclotomic", build_graded_extension(3, 1, ZETA3),
         cyclic_group_hopf(3, ZETA3)),
    ]


CASES = _cases()
IDS = [name for name, _, _ in CASES]
MUTATED = ("psi", "rho", "mul", "comul")
SEEDS = range(3)


def mutated(m: LinMap, seed: int) -> LinMap:
    """m with one seeded entry moved by a nonzero integer."""
    rng = random.Random(seed)
    row, col, by = rng.randrange(m.nrows), rng.randrange(m.ncols), rng.randint(1, 3)
    return m + LinMap.from_rules(
        m.field, m.domain, m.codomain,
        lambda k: [(m.codomain.unflatten(row), by)] if m.domain.flatten(k) == col else [])


def reports(inst, monkeypatch) -> tuple[str, str]:
    """The JSON report of inst with the lemmas, then with every row
    evaluated."""
    derived = run_pipeline(inst).to_json()
    with monkeypatch.context() as m:
        m.setattr(extensions, "IMPLIED_LAWS", {})
        evaluated = run_pipeline(inst).to_json()
    return derived, evaluated


@pytest.mark.parametrize("name,ext,hopf", CASES, ids=IDS)
def test_reports_match_a_run_that_evaluates_every_row(name, ext, hopf, monkeypatch):
    inst = instance_from_extension(name, ext, c_hopf=hopf)
    derived, evaluated = reports(inst, monkeypatch)
    assert derived == evaluated
    for tensor in MUTATED:
        for seed in SEEDS:
            tensors = dict(inst.tensors)
            tensors[tensor] = mutated(tensors[tensor], seed)
            derived, evaluated = reports(inst._replace(tensors=tensors), monkeypatch)
            assert derived == evaluated, (tensor, seed)


def test_premises_are_pinned():
    rr_and_bijective = {
        f"entwining-ll-{law}": ("entwining-bijective", f"entwining-rr-{law}")
        for law in ("multiplicativity", "unitality", "counitality")}
    assert IMPLIED_LAWS == {
        **rr_and_bijective,
        "entwining-ll-comultiplicativity (reconstructed)":
            ("entwining-bijective", "entwining-rr-comultiplicativity"),
        "entwined-module-left": ("entwining-bijective", "entwining-rr-multiplicativity",
                                 "algebra-associativity"),
        "key-identity": ("entwining-bijective", "entwining-rr-multiplicativity",
                         "algebra-associativity", "coaction-from-unit",
                         "coaction-right-coassociativity"),
    }


@pytest.mark.parametrize("name,ext,hopf", CASES, ids=IDS)
def test_every_premise_precedes_its_row(name, ext, hopf):
    built, rep = validate_and_build(ext.algebra, ext.coalgebra, ext.entwining.psi,
                                    ext.coaction.rho, ext.grouplike)
    assert built is not None
    order = [c.name for c in rep.checks]
    for row, premises in IMPLIED_LAWS.items():
        assert all(order.index(p) < order.index(row) for p in premises), row


def test_a_valid_extension_builds_no_implied_row(monkeypatch):
    ext = build_graded_extension(3, 1, ZETA3)
    built = []
    real = extensions.check_conditions

    def recording(table, X=None):
        built.extend(name for name, *_ in table)
        return real(table, X)

    monkeypatch.setattr(extensions, "check_conditions", recording)
    out, rep = validate_and_build(ext.algebra, ext.coalgebra, ext.entwining.psi,
                                  ext.coaction.rho, ext.grouplike)
    assert out is not None
    assert not set(built) & set(IMPLIED_LAWS)
    assert all(rep.named(row).status == PASS for row in IMPLIED_LAWS)


def test_an_invertible_psi_failing_an_rr_law_gets_its_ll_rows_evaluated():
    ext = build_graded_extension(3, 1)
    alg, coa = ext.algebra, ext.coalgebra
    for seed in range(20):
        psi = mutated(ext.entwining.psi, seed)
        inv = try_inverse(psi)
        if inv is not None and not validate_entwining_rr(psi, alg, coa).passed:
            break
    else:
        pytest.fail("no seeded psi is invertible and breaks an rr law")
    _, rep = validate_and_build(alg, coa, psi, ext.coaction.rho, ext.grouplike)
    direct = validate_entwining_ll(inv, alg, coa)
    assert not direct.passed
    for check in direct.checks:
        assert rep.named(check.name) == check
    for failed in direct.failures:
        assert failed.witness is not None


def test_the_public_validators_still_evaluate_in_full():
    assert strongconn.validate_entwining_ll is validate_entwining_ll
    assert strongconn.key_identity_check is key_identity_check
    ext = build_graded_extension(3, 1)
    alg, coa = ext.algebra, ext.coalgebra
    inv = mutated(ext.entwining.psi_inv, 1)
    ll = validate_entwining_ll(inv, alg, coa)
    assert ll.failures and all(c.witness is not None for c in ll.failures)
    broken = EntwinedExtension(alg, coa, Entwining(ext.entwining.psi, inv),
                               ext.coaction, ext.grouplike, ext.coinvariants)
    key = key_identity_check(broken).named("key-identity")
    assert key.status == "fail" and key.witness is not None
    rho = mutated(ext.coaction.rho, 1)
    broken = EntwinedExtension(alg, coa, ext.entwining,
                               Coaction(rho, ext.coaction.rho_left),
                               ext.grouplike, ext.coinvariants)
    key = key_identity_check(broken).named("key-identity")
    assert key.status == "fail" and key.witness is not None
