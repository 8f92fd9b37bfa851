"""Every skip reason and not-applicable reason the pipeline can give,
pinned by stage, check name and wording, in report order."""

import pytest

from strongconn import pipeline
from strongconn.fileformat import (
    instance_to_dict,
    parse_instance,
    parse_instance_dict,
    write_instance,
)
from strongconn.golden import build_golden, instance_from_extension
from strongconn.instances import build_graded_extension
from strongconn.pipeline import STAGE_ORDER, run_pipeline
from strongconn.report import VerificationReport
from strongconn.scalars import Field


def golden_doc(name):
    return instance_to_dict(build_golden(name))


def reasons(rep):
    """(stage, check, status, reason) of every skipped or N/A check."""
    return [(s, c.name, c.status, c.witness["reason"]) for s, c in rep.checks
            if c.status in ("skipped", "not-applicable")]


def skipped(rep):
    return [(s, r) for s, _, status, r in reasons(rep) if status == "skipped"]


def not_applicable(rep):
    return [(s, n, r) for s, n, status, r in reasons(rep)
            if status == "not-applicable"]


NO_C_HOPF = ("integral", "integral-exists", "no Hopf structure designated on C")


def test_failed_homogeneous_construction_skips_every_later_stage():
    # in kZ4, span{1, g} holds g but not g*g, so it is no subalgebra
    doc = golden_doc("homogeneous_z4_z2")
    doc["coinvariant_subalgebra"] = [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    rep = run_pipeline(parse_instance_dict(doc), list(STAGE_ORDER))
    assert [c.name for s, c in rep.failures] == ["subalgebra-closed"]
    assert skipped(rep) == [
        ("validate", "homogeneous construction failed"),
        ("cointegral", "no validated extension"),
        ("integral", "no validated extension"),
        ("section", "no validated extension"),
        ("connection", "no validated extension"),
        ("verify", "no connection form"),
        ("splitting", "no connection form"),
        ("oracle", "no validated extension"),
    ]
    assert all(c.name == s for s, c in rep.checks if c.status == "skipped")


def test_missing_cointegral_skips_the_connection():
    rep = run_pipeline(parse_instance_dict(golden_doc("sweedler_h4")))
    assert skipped(rep) == [("connection", "no cointegral"),
                            ("verify", "no connection form"),
                            ("splitting", "no connection form")]
    assert not_applicable(rep) == [
        ("oracle", "oracle-contains-formula-output",
         "no formula connection in this run")]


def test_missing_section_skips_the_connection():
    inst = instance_from_extension("graded_n2_t0", build_graded_extension(2, 0))
    rep = run_pipeline(parse_instance_dict(instance_to_dict(inst)))
    assert skipped(rep) == [("connection", "no section"),
                            ("verify", "no connection form"),
                            ("splitting", "no connection form")]
    assert not_applicable(rep) == [NO_C_HOPF]


def test_zero_divisor_in_the_galois_check_skips_section_and_oracle(tmp_path):
    # over Q[x]/(x^2 - 1) the canonical map's elimination pivots on 1 + x;
    # the section and the oracle read that elimination
    ring = Field.number_field([-1, 0, 1])
    ext = build_graded_extension(2, ring.one + ring.generator(), ring)
    path = tmp_path / "zero_divisor.json"
    write_instance(instance_from_extension("zero_divisor", ext), str(path))
    inst = parse_instance(str(path))
    why = "zero divisor in a reducible quotient"
    full, validate = run_pipeline(inst), run_pipeline(inst, ["validate"])
    for rep in (full, validate):
        assert [(s, c.name, c.witness) for s, c in rep.failures] == [
            ("validate", "galois", {"reason": why})]
        assert rep.exit_code == 1
    assert skipped(validate) == []
    assert skipped(full) == [("section", why),
                             ("connection", "no section"),
                             ("verify", "no connection form"),
                             ("splitting", "no connection form"),
                             ("oracle", why)]
    assert not_applicable(full) == [NO_C_HOPF]


def test_oracle_cap_skips_the_oracle_with_the_count():
    rep = run_pipeline(parse_instance_dict(golden_doc("trivial_dim2")),
                       oracle_cap=1)
    assert skipped(rep) == [("oracle", "4 unknowns exceed the oracle cap 1")]
    assert not_applicable(rep) == [NO_C_HOPF]
    assert rep.exit_code == 0


def test_failed_verification_skips_the_splitting(monkeypatch):
    def failing(conn, ext):
        rep = VerificationReport()
        rep.add("connection-doctored", False, {"basis": [0]})
        return rep

    monkeypatch.setattr(pipeline, "verify_connection", failing)
    rep = run_pipeline(parse_instance_dict(golden_doc("group_self_z2")))
    assert ("verify", "connection-doctored") in [(s, c.name)
                                                 for s, c in rep.failures]
    assert skipped(rep) == [("splitting", "connection failed verification")]
    assert rep.exit_code == 1


def test_homogeneous_run_derives_the_extension():
    rep = run_pipeline(parse_instance_dict(golden_doc("homogeneous_z4_z2")))
    assert skipped(rep) == []
    assert not_applicable(rep) == [
        ("homogeneous", "averaging-reading",
         "outer delta contracts the third coproduct leg of the section "
         "image, then the projection (reconstructed)"),
        ("validate", "derived-from-homogeneous",
         "entwining induced from the quotient datum"),
        NO_C_HOPF,
    ]


def test_no_grouplike_leaves_normalisation_and_principality_open():
    doc = golden_doc("group_self_z2")
    del doc["grouplike"]
    rep = run_pipeline(parse_instance_dict(doc))
    assert skipped(rep) == []
    assert not_applicable(rep) == [
        ("section", "section-normalized", "no designated grouplike"),
        ("verify", "connection-normalized", "no designated grouplike"),
        ("splitting", "principal-extension", "no designated grouplike"),
    ]


@pytest.mark.parametrize("name", ["group_self_z2", "trivial_dim2"])
def test_oracle_without_formula_connection(name):
    rep = run_pipeline(parse_instance_dict(golden_doc(name)),
                       ["validate", "oracle"])
    assert skipped(rep) == []
    assert not_applicable(rep) == [
        ("oracle", "oracle-contains-formula-output",
         "no formula connection in this run")]
    assert rep.exit_code == 0
