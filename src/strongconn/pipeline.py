"""Stage orchestration: run the verification pipeline over an instance
file and assemble one deterministic report.

``STAGES`` is the pipeline, one entry per stage in run order.  Each entry
holds the stage function, the stages a request must include with it,
and its runtime needs: ordered (run field, skip reason) pairs.  The
first need that a run has not met marks the stage skipped with that
reason, so a failed hypothesis skips everything downstream of it
instead of aborting the run.  A stage function fills one
``VerificationReport`` and may return a reason of its own to be skipped
with; the report tags its checks with the stage name.  Identical input
files produce byte-identical JSON reports.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from .connection import (
    ORACLE_CAP,
    Cointegral,
    ConnectionForm,
    SectionMap,
    brute_force_connections,
    build_connection,
    cointegral_to_integral,
    colinearity_reduction,
    integral_to_cointegral,
    membership_check,
    normalize_section,
    solve_cointegral,
    solve_integral,
    solve_section,
    splitting,
    verify_connection,
)
from .errors import (
    DependencyError,
    NotGalois,
    NotInvertible,
    StrongConnError,
    TooLarge,
)
from .extensions import EntwinedExtension, galois_check, validate_and_build
from .fileformat import InstanceFile, dumps, field_to_dict, serialize_linmap
from .homogeneous import (
    HomogeneousDatum,
    bicolinear_section_iota,
    build_quotient,
    extension_from_homogeneous,
    induced_coactions,
)
from .linmaps import Infeasible
from .report import Check, FAIL, NA, PASS, SKIP, VerificationReport
from .structures import HopfAlgebra, StructureAlgebra, StructureCoalgebra, validate_hopf


REPORT_VERSION = 1


class PipelineReport:
    def __init__(self, instance: str, field: dict, stages: list[str]):
        self.instance = instance
        self.field = field
        self.stages = stages
        self.checks: list[tuple[str, Check]] = []
        self.derived: dict = {}
        self.solution_dims: dict = {}

    @property
    def failures(self) -> list[tuple[str, Check]]:
        return [(s, c) for s, c in self.checks if c.status == FAIL]

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def to_dict(self) -> dict:
        return {
            "format": "strongconn-report",
            "version": REPORT_VERSION,
            "instance": self.instance,
            "field": self.field,
            "stages": list(self.stages),
            "checks": [dict(stage=s, **c.to_dict()) for s, c in self.checks],
            "derived": {k: serialize_linmap(v)
                        for k, v in sorted(self.derived.items())},
            "solution_dims": dict(sorted(self.solution_dims.items())),
            "failure_count": len(self.failures),
        }

    def to_json(self) -> str:
        return dumps(self.to_dict()) + "\n"

    def to_text(self) -> str:
        lines = [f"instance: {self.instance or '(unnamed)'}"]
        width = max((len(s) for s in self.stages), default=8)
        status_word = {PASS: "PASS", FAIL: "FAIL", SKIP: "SKIP", NA: "N/A "}
        for stage, c in self.checks:
            extra = "" if c.witness is None else f"  {json.dumps(c.witness, sort_keys=True)}"
            lines.append(f"[{stage:<{width}}] {status_word[c.status]} "
                         f"{c.name}{extra}")
        for key, dim in sorted(self.solution_dims.items()):
            lines.append(f"solution-space dim {key}: {dim}")
        lines.append(f"summary: {len(self.checks)} checks, "
                     f"{len(self.failures)} failures")
        return "\n".join(lines) + "\n"


class _Run:
    """What the stages of one run share: the input, the report that
    collects derived maps and solution dimensions, and stage results."""
    datum: HomogeneousDatum | None = None
    qdelta: Cointegral | Infeasible | None = None  # solved on the quotient
    ext: EntwinedExtension | None = None
    galois_ok: bool = False
    canonical_error: str | None = None  # why the canonical map's elimination failed
    delta: Cointegral | None = None
    sigma: SectionMap | None = None
    conn: ConnectionForm | None = None
    verify_ok: bool = False

    def __init__(self, inst: InstanceFile, report: PipelineReport, oracle_cap: int):
        self.inst = inst
        self.report = report
        self.oracle_cap = oracle_cap
        # its laws are evaluated at most once: validate reads them as
        # premises, integral reports them
        self.hopf_c = _hopf(inst, "C")


NOT_COSEPARABLE = {"reason": "not coseparable over this field"}
NO_GROUPLIKE = "no designated grouplike"


# the mul, unit, comul, counit and antipode roles of a Hopf algebra on
# each space
HOPF_ROLES = {
    "A": ("mul", "unit", "a_comul", "a_counit", "a_antipode"),
    "C": ("c_mul", "c_unit", "comul", "counit", "c_antipode"),
}


def _hopf(inst: InstanceFile, space: str) -> HopfAlgebra | None:
    """The Hopf algebra designated on space "A" or "C"; None when one of
    its roles is missing."""
    roles = HOPF_ROLES[space]
    maps = [inst.designated(r) for r in roles]
    if any(m is None for m in maps):
        return None
    mul, unit, comul, counit, antipode = maps
    return HopfAlgebra(StructureAlgebra(mul, unit),
                       StructureCoalgebra(comul, counit), antipode)


def _found(vrep: VerificationReport, name: str, out, witness: dict) -> bool:
    """Record whether a solve was feasible; an Infeasible result fails
    the check with its echelon-row certificate added to the witness."""
    if isinstance(out, Infeasible):
        return vrep.add(name, False,
                        {**witness, "row": out.row, "detail": out.detail})
    return vrep.add(name, True)


def _homogeneous(run: _Run, vrep: VerificationReport) -> None:
    hopf_a = _hopf(run.inst, "A")
    vrep.extend(validate_hopf(hopf_a))
    if not vrep.passed:
        return
    datum, qrep = build_quotient(hopf_a, run.inst.b_subspace)
    vrep.extend(qrep)
    if datum is None:
        return
    run.datum = datum
    vrep.add("quotient-dimension", True, {"dim": datum.quotient.dim},
             keep=True)
    vrep.extend(induced_coactions(datum))
    run.qdelta = solve_cointegral(datum.quotient)
    if not _found(vrep, "quotient-cointegral-exists", run.qdelta,
                  NOT_COSEPARABLE):
        return
    run.report.solution_dims["quotient_cointegral"] = run.qdelta.solution_dim
    iota, irep = bicolinear_section_iota(datum, run.qdelta)
    vrep.extend(irep)
    if irep.passed:
        run.report.derived["bicolinear_section"] = iota


def _validate(run: _Run, vrep: VerificationReport) -> str | None:
    inst = run.inst
    if inst.has_entwined_data:
        alg = StructureAlgebra(inst.designated("mul"), inst.designated("unit"))
        coa = StructureCoalgebra(inst.designated("comul"),
                                 inst.designated("counit"))
        run.ext, brep = validate_and_build(alg, coa, inst.designated("psi"),
                                           inst.designated("rho"),
                                           inst.grouplike, run.hopf_c)
    elif run.datum is not None:
        vrep.add_na("derived-from-homogeneous",
                    "entwining induced from the quotient datum")
        run.ext, brep = extension_from_homogeneous(run.datum)
    else:
        return "homogeneous construction failed"
    vrep.extend(brep)
    if run.ext is not None:
        try:
            grep = galois_check(run.ext)
        except NotInvertible as exc:
            # a zero divisor of a reducible min_poly met as a pivot; the
            # section and the oracle read the same elimination
            run.canonical_error = str(exc)
            vrep.add("galois", False, {"reason": run.canonical_error})
        else:
            vrep.extend(grep)
            run.galois_ok = grep.named("galois").status == PASS
    return None


def _cointegral(run: _Run, vrep: VerificationReport) -> None:
    # an extension induced from the quotient datum shares its
    # coalgebra, whose cointegral the homogeneous stage solved
    if run.datum is not None and run.ext.coalgebra is run.datum.quotient:
        out = run.qdelta
    else:
        out = solve_cointegral(run.ext.coalgebra)
    if _found(vrep, "cointegral-exists", out, NOT_COSEPARABLE):
        run.delta = out
        run.report.derived["cointegral"] = out.delta
        run.report.solution_dims["cointegral"] = out.solution_dim


def _integral(run: _Run, vrep: VerificationReport) -> None:
    hopf_c = run.hopf_c
    if hopf_c is None:
        vrep.add_na("integral-exists", "no Hopf structure designated on C")
        return
    vrep.extend(validate_hopf(hopf_c))
    if not vrep.passed:
        return
    out = solve_integral(hopf_c)
    if not _found(vrep, "integral-exists", out,
                  {"reason": "no normalised integral over this field"}):
        return
    run.report.derived["integral"] = out.lam
    run.report.solution_dims["integral"] = out.solution_dim
    converted = integral_to_cointegral(hopf_c, out)
    vrep.add("converted-cointegral-valid", True)
    back, brep = cointegral_to_integral(converted, hopf_c)
    vrep.extend(brep)
    vrep.add("integral-roundtrip", back.lam == out.lam)


def _section(run: _Run, vrep: VerificationReport) -> str | None:
    if run.canonical_error:
        return run.canonical_error
    ext = run.ext
    try:
        raw = solve_section(ext)
    except NotGalois as exc:
        vrep.add("section-exists", False, {"reason": str(exc)})
        return None
    vrep.add("section-exists", True)
    if ext.grouplike is None:
        run.sigma = raw
        vrep.add_na("section-normalized", NO_GROUPLIKE)
    else:
        run.sigma = normalize_section(raw, ext)
        vrep.add("section-normalized", True)
    run.report.derived["section"] = run.sigma.sigma
    run.report.solution_dims["section"] = run.sigma.solution_dim
    return None


def _connection(run: _Run, vrep: VerificationReport) -> None:
    run.conn = build_connection(run.sigma, run.delta, run.ext)
    vrep.add("connection-built", True)
    run.report.derived["connection"] = run.conn.ell


def _verify(run: _Run, vrep: VerificationReport) -> None:
    checks = verify_connection(run.conn, run.ext)
    vrep.extend(checks)
    vrep.extend(colinearity_reduction(run.conn, run.sigma, run.ext))
    run.verify_ok = checks.passed


def _splitting(run: _Run, vrep: VerificationReport) -> None:
    s_map, srep = splitting(run.conn, run.ext)
    vrep.extend(srep)
    run.report.derived["splitting"] = s_map
    if run.ext.grouplike is None:
        vrep.add_na("principal-extension", NO_GROUPLIKE)
    else:
        vrep.add("principal-extension", run.galois_ok and srep.passed,
                 {"galois": run.galois_ok,
                  "equivariant_projectivity": srep.passed,
                  "entwining_bijective": True,
                  "grouplike_unit_coaction": True}, keep=True)


def _oracle(run: _Run, vrep: VerificationReport) -> str | None:
    if run.canonical_error:
        return run.canonical_error
    try:
        out = brute_force_connections(run.ext, cap=run.oracle_cap)
    except TooLarge as exc:
        return str(exc)
    if not _found(vrep, "oracle-solution-exists", out, {}):
        return None
    run.report.solution_dims["oracle_kernel"] = out.kernel.dim
    if run.conn is None:
        vrep.add_na("oracle-contains-formula-output",
                    "no formula connection in this run")
    else:
        vrep.add("oracle-contains-formula-output",
                 membership_check(run.conn, out))
    return None


class Stage(NamedTuple):
    """One pipeline stage: its function, the stages a request must
    include with it, and the (run field, skip reason) pairs it needs."""
    run: Callable[[_Run, VerificationReport], str | None]
    requires: tuple[str, ...] = ()
    needs: tuple[tuple[str, str], ...] = ()


NO_EXTENSION = ("ext", "no validated extension")
NO_CONNECTION = ("conn", "no connection form")

STAGES = {
    "homogeneous": Stage(_homogeneous),
    "validate": Stage(_validate),
    "cointegral": Stage(_cointegral, ("validate",), (NO_EXTENSION,)),
    "integral": Stage(_integral, ("validate",), (NO_EXTENSION,)),
    "section": Stage(_section, ("validate",), (NO_EXTENSION,)),
    "connection": Stage(_connection, ("cointegral", "section"),
                        (NO_EXTENSION, ("delta", "no cointegral"),
                         ("sigma", "no section"))),
    "verify": Stage(_verify, ("connection",), (NO_CONNECTION,)),
    "splitting": Stage(_splitting, ("verify",),
                       (NO_CONNECTION,
                        ("verify_ok", "connection failed verification"))),
    "oracle": Stage(_oracle, ("validate",), (NO_EXTENSION,)),
}

STAGE_ORDER = list(STAGES)


def default_stages(inst: InstanceFile) -> list[str]:
    return [s for s in STAGE_ORDER
            if s != "homogeneous" or inst.b_subspace is not None]


def _check_stage_request(inst: InstanceFile, stages: list[str]) -> list[str]:
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise DependencyError(f"unknown stage(s): {', '.join(unknown)}")
    requested = set(stages)
    for s in sorted(requested):
        missing = set(STAGES[s].requires) - requested
        if missing:
            raise DependencyError(
                f"stage {s!r} requires {', '.join(sorted(missing))}")
    if "homogeneous" in requested:
        if inst.b_subspace is None:
            raise DependencyError("stage 'homogeneous' requires a "
                                  "coinvariant_subalgebra designation")
        if _hopf(inst, "A") is None:
            raise DependencyError("stage 'homogeneous' requires Hopf data "
                                  "on A (a_comul, a_counit, a_antipode)")
    if "validate" in requested and "homogeneous" not in requested \
            and not inst.has_entwined_data:
        raise DependencyError("stage 'validate' needs designated psi and rho, or a "
                              "homogeneous stage to derive them from")
    return [s for s in STAGE_ORDER if s in requested]


def run_pipeline(inst: InstanceFile, stages: list[str] | None = None,
                 oracle_cap: int = ORACLE_CAP) -> PipelineReport:
    """Execute the requested stages in dependency order."""
    if stages is None:
        stages = default_stages(inst)
    stages = _check_stage_request(inst, stages)
    rep = PipelineReport(inst.name, field_to_dict(inst.field), stages)
    run = _Run(inst, rep, oracle_cap)
    for name in stages:
        stage = STAGES[name]
        vrep = VerificationReport()
        reason = next((why for attr, why in stage.needs
                       if not getattr(run, attr)), None)
        if reason is None:
            reason = stage.run(run, vrep)
        rep.checks.extend((name, c) for c in vrep.checks)
        if reason is not None:
            rep.checks.append((name, Check(name, SKIP, {"reason": reason})))
    return rep


def emit_report(rep: PipelineReport, fmt: str = "text",
                out: str | None = None) -> None:
    """Write the report as text or stable-key JSON, to a path or stdout."""
    if fmt == "json":
        payload = rep.to_json()
    elif fmt == "text":
        payload = rep.to_text()
    else:
        raise StrongConnError(f"unknown report format {fmt!r}")
    if out is None:
        print(payload, end="")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
