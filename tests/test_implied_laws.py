"""Rows whose status comes from a lemma.

Seven law rows of validate_and_build follow from rows checked before
them in the same report (extensions.IMPLIED_LAWS); it records them as
passing without building them when every premise passed, and evaluates
them otherwise.  Two more follow, given Hopf data on C, when psi is the
Hopf entwining of rho (extensions.HOPF_ENTWINING), from rows of C's
Hopf table and of the right coaction.  Four multiplicative rows (structures.ON_GENERATOR)
hold on all of A once they hold on a single generator; where the
product is not monomial and a basis vector generates, validate_and_build
and validate_hopf check them on that generator's line first.  These
tests hold the reports, sparse and dense, to those of a run that
evaluates every row in full, and to those of a run that hands
validate_and_build no Hopf data on C; pin the premises, show that each
premise of the Hopf lemmas is needed, and keep the public validators of
those rows evaluating in full.
"""

import random

import pytest

import strongconn
from strongconn import extensions, linmaps, pipeline, report, structures
from strongconn.errors import ShapeError
from strongconn.extensions import (
    HOPF_ENTWINING,
    IMPLIED_LAWS,
    Coaction,
    Entwining,
    EntwinedExtension,
    coaction_from_unit_law,
    hopf_entwining,
    key_identity_check,
    ll_laws,
    module_laws,
    rr_laws,
    validate_and_build,
)
from strongconn.fileformat import parse_instance
from strongconn.golden import instance_from_extension
from strongconn.instances import (
    build_graded_extension,
    build_group_self_extension,
    cyclic_group_hopf,
    self_extension,
    sweedler_hopf,
)
from strongconn.linmaps import (
    LinMap,
    SpaceLabel,
    basis_vector,
    flip_map,
    precompose_at,
    try_inverse,
)
from strongconn.pipeline import default_stages, run_pipeline
from strongconn.report import PASS, check_conditions
from strongconn.scalars import Field
from strongconn.structures import (
    ON_GENERATOR,
    StructureAlgebra,
    StructureCoalgebra,
    single_generator,
    validate_algebra,
    validate_hopf,
)

from basis_change import conjugate
from test_derive_once import GOLDEN, GOLDEN_DIR
from test_systems import c_hopf_of, extension_of

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


def _dense_cases():
    """(name, instance) of filled-in seeded conjugates of graded_n3_t1,
    graded_n4_t2 and kZ_4 over Q and over Q(zeta3), whose A has a
    single generator, and of Sweedler's H4, which has none."""
    out = []
    for field, suffix in ((None, ""), (ZETA3, "_cyclotomic")):
        for name, ext, hopf in (
                ("graded_n3_t1", build_graded_extension(3, 1, field),
                 cyclic_group_hopf(3, field)),
                ("graded_n4_t2", build_graded_extension(4, 2, field),
                 cyclic_group_hopf(4, field)),
                ("group_self_z4", build_group_self_extension(4, field),
                 cyclic_group_hopf(4, field))):
            out.append((f"{name}{suffix}-dense", conjugate(
                instance_from_extension(name, ext, c_hopf=hopf), 1, lu=True)))
    h4 = sweedler_hopf()
    out.append(("sweedler_h4-dense", conjugate(
        instance_from_extension("sweedler_h4", self_extension(h4), c_hopf=h4), 1, lu=True)))
    return out


CASES = _cases()
IDS = [name for name, _, _ in CASES]
DENSE = _dense_cases()
DENSE_IDS = [name for name, _ in DENSE]
GENERATED = [(name, inst) for name, inst in DENSE if not name.startswith("sweedler")]
MUTATED = ("psi", "rho", "mul", "comul")
# the rows of the Hopf lemmas with their premises, and the tensors whose
# mutations they are held to
HOPF_PREMISES = {
    "entwining-rr-comultiplicativity": (HOPF_ENTWINING, "coaction-right-coassociativity",
                                        "C:hopf-comul-multiplicative"),
    "entwined-module-right": (HOPF_ENTWINING, "entwining-rr-multiplicativity",
                              "C:algebra-left-unit"),
}
HOPF_LEMMAS = tuple(HOPF_PREMISES)
HOPF_MUTATED = ("psi", "rho", "comul", "c_mul")
SEEDS = range(3)
# A's rows of ON_GENERATOR; hopf-comul-multiplicative is C's
A_ROWS = ("algebra-associativity", "entwining-rr-multiplicativity", "entwined-module-right")


def mutated(m: LinMap, seed: int) -> LinMap:
    """m with one seeded entry moved by a nonzero integer."""
    rng = random.Random(seed)
    row, col, by = rng.randrange(m.nrows), rng.randrange(m.ncols), rng.randint(1, 3)
    return m + LinMap.from_rules(
        m.field, m.domain, m.codomain,
        lambda k: [(m.codomain.unflatten(row), by)] if m.domain.flatten(k) == col else [])


def reports(inst, monkeypatch) -> tuple[str, str]:
    """The JSON report of inst with the lemmas, then with every row
    evaluated in full: no generator found and no row implied."""
    derived = run_pipeline(inst).to_json()
    with monkeypatch.context() as m:
        m.setattr(extensions, "IMPLIED_LAWS", {})
        m.setattr(structures, "single_generator", lambda alg: None)
        evaluated = run_pipeline(inst).to_json()
    return derived, evaluated


def record_builds(monkeypatch) -> list:
    """(name, domain) of every row whose two sides are built, in order."""
    built = []
    real = report.check_map_equal

    def recording(rep, name, lhs, rhs):
        built.append((name, lhs.domain))
        return real(rep, name, lhs, rhs)

    monkeypatch.setattr(report, "check_map_equal", recording)
    return built


def validate(inst, mul=None):
    """validate_and_build on inst's designated maps, with mul for A's
    product when given; returns A and the report."""
    alg = StructureAlgebra(mul or inst.designated("mul"), inst.designated("unit"))
    coa = StructureCoalgebra(inst.designated("comul"), inst.designated("counit"))
    _, rep = validate_and_build(alg, coa, inst.designated("psi"),
                                inst.designated("rho"), inst.grouplike)
    return alg, rep


def full_domain(row, inst) -> SpaceLabel:
    a, c = (SpaceLabel.base(n, inst.spaces[n]) for n in "AC")
    return {"algebra-associativity": a.tensor(a).tensor(a),
            "entwining-rr-multiplicativity": c.tensor(a).tensor(a),
            "entwined-module-right": a.tensor(a)}[row]


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


@pytest.mark.parametrize("name,inst", DENSE, ids=DENSE_IDS)
def test_dense_reports_match_a_run_that_evaluates_every_row(name, inst, monkeypatch):
    derived, evaluated = reports(inst, monkeypatch)
    assert derived == evaluated
    for tensor in MUTATED:
        for seed in SEEDS[:1] if tensor != "mul" else SEEDS:
            tensors = dict(inst.tensors)
            tensors[tensor] = mutated(tensors[tensor], seed)
            derived, evaluated = reports(inst._replace(tensors=tensors), monkeypatch)
            assert derived == evaluated, (tensor, seed)


@pytest.mark.parametrize("name,inst", GENERATED, ids=[n for n, _ in GENERATED])
def test_dense_multiplicative_rows_run_on_one_generator(name, inst, monkeypatch):
    """Each of A's rows of ON_GENERATOR is built once, with its last leg
    cut to k, and so is C's hopf-comul-multiplicative."""
    built = record_builds(monkeypatch)
    alg, rep = validate(inst)
    assert rep.passed
    s = single_generator(alg)
    assert s is not None
    assert alg.generator() == basis_vector(alg.field, alg.space, s)
    for row in A_ROWS:
        cut = SpaceLabel(full_domain(row, inst).factors[:-1])
        assert [d for n, d in built if n == row] == [cut], row
    hopf_c = c_hopf_of(inst)
    built.clear()
    assert validate_hopf(hopf_c).passed
    assert [d for n, d in built if n == "hopf-comul-multiplicative"] == [hopf_c.space]


def test_a_dense_sweedler_algebra_restricts_no_row(monkeypatch):
    """Dense H4's product is not monomial, yet no single basis vector
    generates H4, which is not commutative: every row is built in full."""
    [inst] = [inst for name, inst in DENSE if name.startswith("sweedler")]
    built = record_builds(monkeypatch)
    alg, rep = validate(inst)
    assert rep.passed
    columns = [c for row in alg.mul.rows.values() for c in row]
    assert len(columns) > len(set(columns))
    assert single_generator(alg) is None and alg.generator() is None
    for row in A_ROWS:
        assert [d for n, d in built if n == row] == [full_domain(row, inst)], row


def test_a_monomial_product_is_not_searched(monkeypatch):
    """A monomial product, as in every golden file, gives no generator and
    no rank, even where a basis vector generates (x in k[x]/(x^3 - 1))."""
    ranks = []
    real = linmaps._rref_inplace
    monkeypatch.setattr(linmaps, "_rref_inplace",
                        lambda *args, **kwargs: ranks.append(1) or real(*args, **kwargs))
    for _, ext, hopf in CASES:
        assert single_generator(ext.algebra) is None
        assert single_generator(hopf.algebra) is None
    assert not ranks


@pytest.mark.parametrize("name,inst", GENERATED, ids=[n for n, _ in GENERATED])
def test_mul_mutations_breaking_associativity_are_evaluated_in_full(
        name, inst, monkeypatch):
    """A seeded mul that breaks associativity: each of A's rows of
    ON_GENERATOR ends in a build on its full domain, and the report is
    that of a run that searches no generator."""
    ways = set()
    for seed in range(8):
        mul = mutated(inst.designated("mul"), seed)
        with monkeypatch.context() as m:
            m.setattr(structures, "single_generator", lambda alg: None)
            _, full = validate(inst, mul)
        if full.named("algebra-associativity").status == PASS:
            continue
        with monkeypatch.context() as m:
            built = record_builds(m)
            alg, rep = validate(inst, mul)
        assert rep.checks == full.checks, seed
        last = dict(built)
        for row in A_ROWS:
            if row in last:
                assert last[row] == full_domain(row, inst), (seed, row)
        right_unit = rep.named("algebra-right-unit").status == PASS
        cut = [d for n, d in built if n == "algebra-associativity"][0] != \
            full_domain("algebra-associativity", inst)
        assert cut == (right_unit and alg.generator() is not None), seed
        ways.add(cut)
    # both ways to a full build: a cut row that fails, and a premise that fails
    assert ways == {True, False}, ways


def test_premises_are_pinned():
    rr_and_bijective = {
        f"entwining-ll-{law}": ("entwining-bijective", f"entwining-rr-{law}")
        for law in ("multiplicativity", "unitality", "counitality")}
    assert HOPF_ENTWINING == "psi-is-hopf-entwining"
    assert IMPLIED_LAWS == {
        **HOPF_PREMISES,
        **rr_and_bijective,
        "entwining-ll-comultiplicativity (reconstructed)":
            ("entwining-bijective", "entwining-rr-comultiplicativity"),
        "entwined-module-left": ("entwining-bijective", "entwining-rr-multiplicativity",
                                 "algebra-associativity"),
        "coaction-from-unit": ("entwined-module-right", "algebra-left-unit"),
        "key-identity": ("entwining-bijective", "entwining-rr-multiplicativity",
                         "algebra-associativity", "coaction-from-unit",
                         "coaction-right-coassociativity"),
    }
    unit_and_associativity = ("algebra-right-unit", "algebra-associativity")
    assert ON_GENERATOR == {
        "algebra-associativity": ("algebra-right-unit",),
        "entwining-rr-multiplicativity": (*unit_and_associativity,
                                          "entwining-rr-unitality"),
        "entwined-module-right": (*unit_and_associativity, "entwining-rr-unitality",
                                  "entwining-rr-multiplicativity"),
        "hopf-comul-multiplicative": ("algebra-associativity", "algebra-right-unit",
                                      "hopf-comul-unital"),
    }


@pytest.mark.parametrize("name,ext,hopf", CASES, ids=IDS)
def test_every_premise_precedes_its_row(name, ext, hopf, monkeypatch):
    """A premise that is a row of the report comes before its row, but
    for the right coaction's, which validate_and_build evaluates before
    the rr rows (it builds them first) and reports after them."""
    built = record_builds(monkeypatch)
    out, rep = validate_and_build(ext.algebra, ext.coalgebra, ext.entwining.psi,
                                  ext.coaction.rho, ext.grouplike, hopf)
    assert out is not None
    order = [c.name for c in rep.checks]
    first = [name for name, _ in built]
    for row, premises in IMPLIED_LAWS.items():
        for p in premises:
            if p == HOPF_ENTWINING or p.startswith("C:"):
                assert p not in order, p
            elif p == "coaction-right-coassociativity" and row in HOPF_LEMMAS:
                assert first.index(p) < first.index("entwining-rr-multiplicativity")
            else:
                assert order.index(p) < order.index(row), (row, p)


@pytest.mark.parametrize("with_hopf", [False, True], ids=["no-hopf", "hopf"])
def test_a_valid_extension_builds_no_implied_row(with_hopf, monkeypatch):
    """Without Hopf data on C the Hopf lemmas' rows are built; with it,
    no implied row is, nor C's coalgebra rows, read off hopf.laws."""
    ext = build_graded_extension(3, 1, ZETA3)
    hopf = cyclic_group_hopf(3, ZETA3) if with_hopf else None
    derived = set(IMPLIED_LAWS) - (set() if with_hopf else set(HOPF_LEMMAS))
    if with_hopf:
        assert hopf.laws.passed  # C's rows, built before the recording
    built = record_builds(monkeypatch)
    out, rep = validate_and_build(ext.algebra, ext.coalgebra, ext.entwining.psi,
                                  ext.coaction.rho, ext.grouplike, hopf)
    assert out is not None
    not_rows = {"entwining-bijective", "grouplike-designated", "coinvariants-contain-unit",
                "coinvariants-closed", "coinvariants-coact-trivially"}
    from_c = {c.name for c in rep.checks if with_hopf and c.name.startswith("coalgebra-")}
    assert len(from_c) == (3 if with_hopf else 0)
    assert {name for name, _ in built} == \
        {c.name for c in rep.checks} - not_rows - derived - from_c
    assert all(rep.named(row).status == PASS for row in IMPLIED_LAWS)


def test_hopf_data_on_another_coalgebra_is_refused():
    ext = build_graded_extension(3, 1)
    other = cyclic_group_hopf(3)
    other = structures.HopfAlgebra(
        other.algebra, StructureCoalgebra(mutated(other.coalgebra.comul, 0),
                                          other.coalgebra.counit), other.antipode)
    with pytest.raises(ShapeError):
        validate_and_build(ext.algebra, ext.coalgebra, ext.entwining.psi,
                           ext.coaction.rho, ext.grouplike, other)


def test_an_invertible_psi_failing_an_rr_law_gets_its_ll_rows_evaluated():
    ext = build_graded_extension(3, 1)
    alg, coa = ext.algebra, ext.coalgebra
    for seed in range(20):
        psi = mutated(ext.entwining.psi, seed)
        inv = try_inverse(psi)
        if inv is not None and not check_conditions(rr_laws(psi, alg, coa)).passed:
            break
    else:
        pytest.fail("no seeded psi is invertible and breaks an rr law")
    _, rep = validate_and_build(alg, coa, psi, ext.coaction.rho, ext.grouplike)
    direct = check_conditions(ll_laws(inv, alg, coa))
    assert not direct.passed
    for check in direct.checks:
        assert rep.named(check.name) == check
    for failed in direct.failures:
        assert failed.witness is not None


def test_the_public_validators_still_evaluate_in_full():
    assert strongconn.ll_laws is ll_laws
    assert strongconn.check_conditions is check_conditions
    assert strongconn.key_identity_check is key_identity_check
    ext = build_graded_extension(3, 1)
    alg, coa = ext.algebra, ext.coalgebra
    inv = mutated(ext.entwining.psi_inv, 1)
    ll = check_conditions(ll_laws(inv, alg, coa))
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
    unit = check_conditions(coaction_from_unit_law(alg, ext.entwining, rho)) \
        .named("coaction-from-unit")
    assert unit.status == "fail" and unit.witness is not None


def test_the_public_validators_build_dense_rows_in_full(monkeypatch):
    """Called directly, the validators of the rows of ON_GENERATOR build
    them on their full domain, also where A has a generator."""
    name, inst = GENERATED[0]
    ext = extension_of(inst)
    alg = ext.algebra
    assert alg.generator() is not None
    built = record_builds(monkeypatch)
    assert validate_algebra(alg).passed
    assert check_conditions(rr_laws(ext.entwining.psi, alg, ext.coalgebra)).passed
    assert check_conditions(module_laws(alg, ext.entwining, ext.coaction)).passed
    last = dict(built)
    for row in A_ROWS:
        assert last[row] == full_domain(row, inst), row


# -- the Hopf lemmas ---------------------------------------------------------


def without_hopf(monkeypatch) -> None:
    """The pipeline hands validate_and_build no Hopf data on C: validate
    checks C's coalgebra rows itself and builds both rows of the Hopf
    lemmas, and C's Hopf table is evaluated in the integral stage."""
    real = pipeline.validate_and_build
    monkeypatch.setattr(pipeline, "validate_and_build",
                        lambda alg, coa, psi, rho, grouplike, hopf: real(
                            alg, coa, psi, rho, grouplike))


def hopf_reports(inst, monkeypatch, stages=None) -> tuple[str, str]:
    """The JSON report of inst, then that of a run without the Hopf lemmas."""
    derived = run_pipeline(inst, stages).to_json()
    with monkeypatch.context() as m:
        without_hopf(m)
        evaluated = run_pipeline(inst, stages).to_json()
    return derived, evaluated


def hopf_psi(inst) -> LinMap:
    """hopf_entwining of inst's rho over its Hopf data on C."""
    alg = StructureAlgebra(inst.designated("mul"), inst.designated("unit"))
    return hopf_entwining(c_hopf_of(inst), alg, inst.designated("rho"))


def with_tensor(inst, name: str, m: LinMap, rebuild_psi: bool = False):
    """inst with tensor name replaced by m, and with psi rebuilt as the
    Hopf entwining of the result when rebuild_psi is set."""
    tensors = {**inst.tensors, name: m}
    out = inst._replace(tensors=tensors)
    if rebuild_psi:
        tensors["psi"] = hopf_psi(out)
    return out


def hopf_mutants(inst, seeds):
    """Seeded one-entry mutants of psi, rho, Delta and C's product; those
    of rho and of C's product also with psi rebuilt to match, so the
    lemmas meet failing premises with psi still the Hopf entwining."""
    for tensor in HOPF_MUTATED:
        for seed in seeds:
            m = mutated(inst.tensors[tensor], seed)
            yield (tensor, seed), with_tensor(inst, tensor, m)
            if tensor in ("rho", "c_mul"):
                yield (tensor, seed, "psi rebuilt"), with_tensor(inst, tensor, m, True)


HOPF_CASES = [(name, instance_from_extension(name, ext, c_hopf=hopf))
              for name, ext, hopf in CASES] + DENSE


@pytest.mark.parametrize("name,inst", HOPF_CASES, ids=[n for n, _ in HOPF_CASES])
def test_reports_match_a_run_without_the_hopf_lemmas(name, inst, monkeypatch):
    derived, evaluated = hopf_reports(inst, monkeypatch)
    assert derived == evaluated
    for what, mutant in hopf_mutants(inst, SEEDS[:1] if name in DENSE_IDS else SEEDS):
        derived, evaluated = hopf_reports(mutant, monkeypatch)
        assert derived == evaluated, what


def lemma_domains(inst) -> dict:
    a, c = (SpaceLabel.base(n, inst.spaces[n]) for n in "AC")
    return {"entwining-rr-comultiplicativity": c.tensor(a),
            "entwined-module-right": a.tensor(a)}


def validate_with_hopf(inst):
    """validate_and_build on inst with its Hopf data on C."""
    hopf = c_hopf_of(inst)
    alg = StructureAlgebra(inst.designated("mul"), inst.designated("unit"))
    return validate_and_build(alg, hopf.coalgebra, inst.designated("psi"),
                              inst.designated("rho"), inst.grouplike, hopf)[1]


@pytest.mark.parametrize("name,ext,hopf", CASES, ids=IDS)
def test_off_the_hopf_lemmas_both_rows_are_built_in_full(name, ext, hopf, monkeypatch):
    """A psi one entry off the Hopf entwining, and a C whose
    hopf-comul-multiplicative fails, get both rows built on their full
    domains (psi stays invertible, so entwined-module-right is reached)."""
    inst = instance_from_extension(name, ext, c_hopf=hopf)
    full = lemma_domains(inst)
    found = set()
    for tensor in ("psi", "c_mul"):
        for seed in range(12):
            mutant = with_tensor(inst, tensor, mutated(inst.tensors[tensor], seed))
            c_laws = c_hopf_of(mutant).laws
            if try_inverse(mutant.designated("psi")) is None or \
                    tensor == "c_mul" and c_laws.named("hopf-comul-multiplicative").status == PASS:
                continue
            assert hopf_psi(mutant) != mutant.designated("psi")
            with monkeypatch.context() as m:
                built = record_builds(m)
                validate_with_hopf(mutant)
            last = dict(built)
            assert all(last[row] == full[row] for row in HOPF_LEMMAS), (tensor, seed)
            found.add(tensor)
            break
    assert found == {"psi", "c_mul"}


def group_z4():
    return instance_from_extension("group_self_z4", build_group_self_extension(4),
                                   c_hopf=cyclic_group_hopf(4))


def one_premise_off(row: str, premise: str):
    """Instances of kZ_4 over itself on which premise fails among the
    premises of row's Hopf lemma, seeded where a mutation does it."""
    inst = group_z4()
    a, c = (SpaceLabel.base(n, inst.spaces[n]) for n in "AC")
    if premise == HOPF_ENTWINING and row == "entwined-module-right":
        # the flip is an entwining of every A and C, but not of this rho
        return [with_tensor(inst, "psi", flip_map(inst.field, c, a))]
    if premise == "C:algebra-left-unit":
        # x .' y = x S(y): multiplicative over rho, as kZ_4 is commutative,
        # yet 1 .' g = g^-1
        c_mul = precompose_at(inst.tensors["c_mul"], inst.tensors["c_antipode"], 1)
        return [with_tensor(inst, "c_mul", c_mul, True)]
    tensor = {HOPF_ENTWINING: "psi", "coaction-right-coassociativity": "rho",
              "C:hopf-comul-multiplicative": "c_mul",
              "entwining-rr-multiplicativity": "rho"}[premise]
    return [with_tensor(inst, tensor, mutated(inst.tensors[tensor], seed), tensor != "psi")
            for seed in range(16)]


def premises_on(inst, report_checks) -> tuple[dict, dict]:
    """Whether each premise of the Hopf lemmas holds on inst, read off
    its validate rows, C's Hopf table and one compare of psi; and the
    status of each validate row."""
    statuses = {c.name: c.status for stage, c in report_checks if stage == "validate"}
    held = {"C:" + c.name: c.status == PASS for c in c_hopf_of(inst).laws.checks}
    held[HOPF_ENTWINING] = hopf_psi(inst) == inst.designated("psi")
    for premises in HOPF_PREMISES.values():
        for p in premises:
            held.setdefault(p, statuses.get(p) == PASS)
    return held, statuses


@pytest.mark.parametrize("row,premise", [(row, p) for row, premises in HOPF_PREMISES.items()
                                         for p in premises])
def test_each_premise_of_the_hopf_lemmas_is_needed(row, premise, monkeypatch):
    """On an instance where premise alone fails and row fails too, the
    report is that of a run without the lemmas; with premise dropped from
    the lemma, row would read pass."""
    for inst in one_premise_off(row, premise):
        with monkeypatch.context() as m:
            without_hopf(m)
            rep = run_pipeline(inst)
        held, statuses = premises_on(inst, rep.checks)
        if statuses.get(row) == "fail" and \
                [p for p in HOPF_PREMISES[row] if not held[p]] == [premise]:
            break
    else:
        pytest.fail("no instance fails this premise alone")
    assert run_pipeline(inst).to_json() == rep.to_json()
    with monkeypatch.context() as m:
        m.setitem(extensions.IMPLIED_LAWS, row,
                  tuple(p for p in HOPF_PREMISES[row] if p != premise))
        dropped = run_pipeline(inst)
    assert ("validate", row, PASS) in [(s, c.name, c.status) for s, c in dropped.checks]


def test_c_and_a_rows_of_one_name_stay_apart():
    """A's algebra-left-unit passes where C's fails: the lemma reads C's."""
    [inst] = one_premise_off("entwined-module-right", "C:algebra-left-unit")
    rep = validate_with_hopf(inst)
    assert c_hopf_of(inst).laws.named("algebra-left-unit").status == "fail"
    assert rep.named("algebra-left-unit").status == PASS
    assert rep.named("entwined-module-right").status == "fail"


STAGE_SETS = (None, ("validate",), ("validate", "integral"))


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_reports_place_c_rows_as_before(name, monkeypatch):
    """Default stages, validate alone and validate with integral: every
    report is that of a run without the Hopf lemmas, and C's Hopf rows
    show only in the integral stage."""
    inst = parse_instance(str(GOLDEN_DIR / f"{name}.json"))
    lead = [s for s in default_stages(inst) if s == "homogeneous"]
    for stages in STAGE_SETS:
        wanted = None if stages is None else [*lead, *stages]
        derived, evaluated = hopf_reports(inst, monkeypatch, wanted)
        assert derived == evaluated, stages
        rep = run_pipeline(inst, wanted)
        hopf_rows = {s for s, c in rep.checks if c.name.startswith("hopf-")}
        ran_integral = any(s == "integral" and c.status != "skipped" for s, c in rep.checks)
        assert hopf_rows <= {"homogeneous", "integral"}, stages
        if stages == ("validate",):
            assert not ran_integral and not hopf_rows - {"homogeneous"}
            if not lead:  # A's algebra rows, and no row of C's table
                names = [c.name for _, c in rep.checks]
                assert len(names) == len(set(names))
