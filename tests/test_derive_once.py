"""Each pipeline run derives the lifted canonical map once per extension,
eliminates it once, builds the connection once (with its gamma and
alpha, which the colinearity reduction reuses), evaluates the defining
conditions on it once (the oracle's check of the canonical map's
solution reads the verify stage's evaluation), inverts an antipode
once, and solves the cointegral of a homogeneous quotient once.  A
library build inverts its entwining once, in make_extension.  C's Hopf
table is evaluated at most once per run, in the validate stage, which
reads its rows as premises, and reported from there by the integral
stage.

The counters wrap a callable in every strongconn module that imported
it, so a call made through any module is counted.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from strongconn import linmaps, structures
from strongconn.fileformat import parse_instance
from strongconn.golden import instance_from_extension
from strongconn.instances import (
    build_graded_extension,
    build_group_self_extension,
    cyclic_group_hopf,
    self_extension,
    sweedler_hopf,
)
from strongconn.pipeline import run_pipeline
from strongconn.scalars import Field

from basis_change import conjugate
from test_golden_files import REPORT_SHA256
from test_staged_oracle import z8_over_subgroup

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))


def record_calls(monkeypatch, module_name: str, name: str) -> list:
    """Wrap strongconn.<module_name>.<name> wherever it is bound; return
    the list of its results, one per call."""
    real = getattr(sys.modules[f"strongconn.{module_name}"], name)
    results = []

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        results.append(out)
        return out

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("strongconn") and mod.__dict__.get(name) is real:
            monkeypatch.setattr(mod, name, wrapper)
    return results


def record_eliminations(monkeypatch) -> list:
    """The rows of every matrix handed to the echelon reduction."""
    real = linmaps._rref_inplace
    seen = []

    def wrapper(rows, ncols, *args, **kwargs):
        seen.append([dict(r) for r in rows])
        return real(rows, ncols, *args, **kwargs)

    monkeypatch.setattr(linmaps, "_rref_inplace", wrapper)
    return seen


def holds_map(rows: list, m) -> bool:
    """True when m is the left block of the reduced matrix rows."""
    n = m.ncols
    return len(rows) == m.nrows and all(
        {c: v for c, v in row.items() if c < n} == m.rows.get(i, {})
        for i, row in enumerate(rows))


def traced_run(name, monkeypatch):
    """Run the default stages on a golden file, recording every built
    canonical map, every built connection and every eliminated matrix."""
    inst = parse_instance(str(GOLDEN_DIR / f"{name}.json"))
    canonical = record_calls(monkeypatch, "extensions", "lifted_canonical")
    connections = record_calls(monkeypatch, "connection", "build_connection")
    eliminated = record_eliminations(monkeypatch)
    rep = run_pipeline(inst)
    statuses = {c.name: c.status for _, c in rep.checks}
    # every golden file yields one validated extension
    assert "galois" in statuses
    return statuses, canonical, connections, eliminated


@pytest.mark.parametrize("name", GOLDEN)
def test_canonical_map_built_once(name, monkeypatch):
    _, canonical, _, _ = traced_run(name, monkeypatch)
    assert len(canonical) == 1


@pytest.mark.parametrize("name", GOLDEN)
def test_canonical_map_eliminated_once(name, monkeypatch):
    _, canonical, _, eliminated = traced_run(name, monkeypatch)
    assert sum(holds_map(rows, canonical[0]) for rows in eliminated) == 1


@pytest.mark.parametrize("name", GOLDEN)
def test_connection_built_once(name, monkeypatch):
    statuses, _, connections, _ = traced_run(name, monkeypatch)
    built = statuses.get("connection-built") == "pass"
    assert built == (name != "sweedler_h4")
    assert len(connections) == (1 if built else 0)


@pytest.mark.parametrize("name", GOLDEN)
def test_defining_conditions_evaluated_once(name, monkeypatch):
    calls = record_calls(monkeypatch, "connection", "evaluate_conditions")
    statuses, _, connections, _ = traced_run(name, monkeypatch)
    # the evaluations of the connection table, whose conditions come out in order
    evaluated = [out for out in calls if out[0][0] == "connection-sections-canonical"]
    # with a connection, verify and the oracle both ask, on equal maps
    assert ("connection-sections-canonical" in statuses) == bool(connections)
    assert "oracle-solution-exists" in statuses
    assert len(evaluated) == 1


@pytest.mark.parametrize("name", GOLDEN)
def test_gamma_and_alpha_built_once(name, monkeypatch):
    gammas = record_calls(monkeypatch, "connection", "gamma_map")
    alphas = record_calls(monkeypatch, "connection", "alpha_map")
    statuses, _, connections, _ = traced_run(name, monkeypatch)
    assert statuses.get("reduction-right-agrees") == \
        statuses.get("reduction-left-agrees") == \
        ("pass" if connections else None)
    assert len(gammas) == len(alphas) == len(connections)


# Eliminations of one default run of each golden file, parsing included
# (homogeneous_z4_z2 spans its B there).  A membership test eliminates
# nothing: B (x) A in the splitting, and A (x) B and
# A (x) B+A + B+A (x) A in the quotient, are never spanned.
ELIMINATIONS = {"graded_n2_t2": 7, "graded_n3_t1_cyclotomic": 7,
                "group_self_z2": 7, "group_self_z4": 7,
                "homogeneous_z4_z2": 10, "sweedler_h4": 7, "trivial_dim2": 6}


@pytest.mark.parametrize("name", GOLDEN)
def test_eliminations_per_golden_run(name, monkeypatch):
    eliminated = record_eliminations(monkeypatch)
    run_pipeline(parse_instance(str(GOLDEN_DIR / f"{name}.json")))
    assert len(eliminated) == ELIMINATIONS[name]


def test_eliminations_of_a_dense_conjugate(monkeypatch):
    """A filled-in conjugate of graded_n4_t2 over Q(zeta3) has products
    that are not monomial, so each run searches A and C for a single
    generator: one rank per basis vector tried, two for A (its basis
    vector 1 generates, 0 does not) and one for C, on top of the seven
    eliminations of a run that searches nothing."""
    zeta3 = Field.number_field([1, 1, 1])
    inst = conjugate(instance_from_extension(
        "graded_n4_t2", build_graded_extension(4, 2, zeta3),
        c_hopf=cyclic_group_hopf(4, zeta3)), 1, lu=True)
    eliminated = record_eliminations(monkeypatch)
    run_pipeline(inst)
    assert len(eliminated) == 7 + 2 + 1
    eliminated.clear()
    monkeypatch.setattr(structures, "single_generator", lambda alg: None)
    run_pipeline(inst)
    assert len(eliminated) == 7


@pytest.mark.parametrize("order", [2, 4])
def test_eliminations_of_z8_over_a_subgroup(order, monkeypatch):
    inst, _, _ = z8_over_subgroup(order)
    eliminated = record_eliminations(monkeypatch)
    run_pipeline(inst)
    assert len(eliminated) == 9


def test_antipode_inverted_once(monkeypatch):
    """The homogeneous stage's validate_hopf and the validate stage's
    antipode-bijective check share one inverse of A's antipode; the
    other inversion is that of psi."""
    inverses = record_calls(monkeypatch, "linmaps", "try_inverse")
    statuses, _, _, _ = traced_run("homogeneous_z4_z2", monkeypatch)
    assert statuses["hopf-antipode-bijective"] == "pass"
    assert statuses["antipode-bijective"] == "pass"
    assert len(inverses) == 2


def test_quotient_cointegral_solved_once(monkeypatch):
    """The homogeneous stage solves the quotient's cointegral; the
    cointegral stage reuses it, since the induced extension's coalgebra
    is that quotient, and the report bytes stay pinned."""
    name = "homogeneous_z4_z2"
    inst = parse_instance(str(GOLDEN_DIR / f"{name}.json"))
    solved = record_calls(monkeypatch, "connection", "solve_cointegral")
    rep = run_pipeline(inst)
    statuses = {c.name: c.status for _, c in rep.checks}
    assert statuses["quotient-cointegral-exists"] == "pass"
    assert statuses["cointegral-exists"] == "pass"
    assert len(solved) == 1
    assert hashlib.sha256(rep.to_json().encode("utf-8")).hexdigest() == \
        REPORT_SHA256[name]


LIBRARY_BUILDS = {
    "graded_n5": lambda: build_graded_extension(5, 1),
    "group_self_z4": lambda: build_group_self_extension(4),
    "sweedler_self": lambda: self_extension(sweedler_hopf()),
}


@pytest.mark.parametrize("name", LIBRARY_BUILDS)
def test_library_build_inverts_psi_once(name, monkeypatch):
    """hopf_entwining builds psi alone; only make_extension eliminates
    psi."""
    eliminated = record_eliminations(monkeypatch)
    ext = LIBRARY_BUILDS[name]()
    assert sum(holds_map(rows, ext.entwining.psi) for rows in eliminated) == 1


def record_hopf_tables(monkeypatch) -> list:
    """The space ("A" or "C") of each Hopf table evaluated."""
    real = structures._hopf_laws
    spaces = []

    def wrapper(h):
        spaces.append(h.space.factors[0][0])
        return real(h)

    monkeypatch.setattr(structures, "_hopf_laws", wrapper)
    return spaces


def load_bench_inputs():
    """bench/inputs.py, which writes the benchmark's instance files."""
    path = GOLDEN_DIR.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("strongconn_bench_inputs", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses reads the defining module
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


HOPF_STAGE_SETS = (None, ("validate",), ("validate", "cointegral", "integral"))


@pytest.mark.parametrize("name", GOLDEN)
def test_c_hopf_table_evaluated_once_per_golden_run(name, monkeypatch):
    inst = parse_instance(str(GOLDEN_DIR / f"{name}.json"))
    lead = ["homogeneous"] if inst.b_subspace is not None else []
    tables = record_hopf_tables(monkeypatch)
    for stages in HOPF_STAGE_SETS:
        tables.clear()
        rep = run_pipeline(inst, None if stages is None else [*lead, *stages])
        assert rep.checks
        has_c = inst.designated("c_antipode") is not None
        assert tables.count("C") == has_c, stages
        assert tables.count("A") == bool(lead), stages


BENCH_WORKLOADS = ("oracle-q", "construct-q", "dense-cyclotomic")


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_c_hopf_table_evaluated_once_per_bench_input(workload, monkeypatch):
    """On the seed-1 input of each generated benchmark workload, with
    its own stages, and with validate alone."""
    inputs = load_bench_inputs()
    w = inputs.WORKLOADS[workload]
    inst = inputs.conjugate(inputs.standard_instance(w, "full"), w.basis, 1)
    tables = record_hopf_tables(monkeypatch)
    for stages in (None if w.stages is None else w.stages.split(","), ["validate"]):
        tables.clear()
        rep = run_pipeline(inst, stages)
        assert rep.exit_code == 0
        assert tables == ["C"], stages
