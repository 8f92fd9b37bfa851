"""Stage orchestration: run the verification pipeline over an instance
file and assemble one deterministic report.

Stages run in a fixed order with explicit dependencies; a failed
hypothesis marks every downstream stage skipped with a reason rather
than aborting the run.  Identical input files produce byte-identical
JSON reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .connection import (
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
from .errors import DependencyError, NotGalois, StrongConnError, TooLarge
from .extensions import galois_check, validate_and_build
from .fileformat import InstanceFile, field_to_dict, serialize_linmap
from .homogeneous import (
    bicolinear_section_iota,
    build_quotient,
    extension_from_homogeneous,
    induced_coactions,
)
from .linmaps import Infeasible
from .report import Check, FAIL, NA, PASS, SKIP
from .structures import HopfAlgebra, StructureAlgebra, StructureCoalgebra, validate_hopf


STAGE_ORDER = ["homogeneous", "validate", "cointegral", "integral",
               "section", "connection", "verify", "splitting", "oracle"]

STAGE_DEPS = {
    "homogeneous": set(),
    "validate": set(),
    "cointegral": {"validate"},
    "integral": {"validate"},
    "section": {"validate"},
    "connection": {"cointegral", "section"},
    "verify": {"connection"},
    "splitting": {"verify"},
    "oracle": {"validate"},
}

REPORT_VERSION = 1


@dataclass
class PipelineReport:
    instance: str
    field: dict
    stages: list[str]
    checks: list[tuple[str, Check]] = dc_field(default_factory=list)
    derived: dict = dc_field(default_factory=dict)
    solution_dims: dict = dc_field(default_factory=dict)

    def record(self, stage: str, check: Check) -> None:
        self.checks.append((stage, check))

    def record_all(self, stage: str, rep) -> None:
        for c in rep.checks:
            self.checks.append((stage, c))

    def skip_stage(self, stage: str, reason: str) -> None:
        self.checks.append((stage, Check(stage, SKIP, {"reason": reason})))

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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"instance: {self.instance or '(unnamed)'}"]
        width = max((len(s) for s in self.stages), default=8)
        status_word = {PASS: "PASS", FAIL: "FAIL", SKIP: "SKIP", NA: "N/A "}
        for stage, c in self.checks:
            extra = ""
            if c.witness is not None:
                extra = f"  {json.dumps(c.witness, sort_keys=True)}"
            lines.append(f"[{stage:<{width}}] {status_word[c.status]} "
                         f"{c.name}{extra}")
        for key, dim in sorted(self.solution_dims.items()):
            lines.append(f"solution-space dim {key}: {dim}")
        lines.append(f"summary: {len(self.checks)} checks, "
                     f"{len(self.failures)} failures")
        return "\n".join(lines) + "\n"


def default_stages(inst: InstanceFile) -> list[str]:
    stages = [s for s in STAGE_ORDER if s != "homogeneous"]
    if inst.b_subspace is not None:
        stages.insert(0, "homogeneous")
    return stages


def _check_stage_request(inst: InstanceFile, stages: list[str]) -> list[str]:
    unknown = [s for s in stages if s not in STAGE_ORDER]
    if unknown:
        raise DependencyError(f"unknown stage(s): {', '.join(unknown)}")
    requested = set(stages)
    for s in sorted(requested):
        missing = STAGE_DEPS[s] - requested
        if missing:
            raise DependencyError(
                f"stage {s!r} requires {', '.join(sorted(missing))}")
    if "homogeneous" in requested:
        if inst.b_subspace is None:
            raise DependencyError("stage 'homogeneous' requires a "
                                  "coinvariant_subalgebra designation")
        if not inst.has_a_hopf_data:
            raise DependencyError("stage 'homogeneous' requires Hopf data "
                                  "on A (a_comul, a_counit, a_antipode)")
    if "validate" in requested and not inst.has_entwined_data:
        if "homogeneous" not in requested:
            raise DependencyError(
                "stage 'validate' needs designated psi and rho, or a "
                "homogeneous stage to derive them from")
    return [s for s in STAGE_ORDER if s in requested]


def _build_a_hopf(inst: InstanceFile) -> HopfAlgebra:
    alg = StructureAlgebra(inst.designated("mul"), inst.designated("unit"))
    coa = StructureCoalgebra(inst.designated("a_comul"), inst.designated("a_counit"))
    return HopfAlgebra(alg, coa, inst.designated("a_antipode"),
                       inst.designated("a_antipode_inv"))


def _build_c_hopf(inst: InstanceFile) -> HopfAlgebra:
    alg = StructureAlgebra(inst.designated("c_mul"), inst.designated("c_unit"))
    coa = StructureCoalgebra(inst.designated("comul"), inst.designated("counit"))
    return HopfAlgebra(alg, coa, inst.designated("c_antipode"),
                       inst.designated("c_antipode_inv"))


def run_pipeline(inst: InstanceFile, stages: list[str] | None = None,
                 oracle_cap: int = 4096) -> PipelineReport:
    """Execute the requested stages in dependency order."""
    if stages is None:
        stages = default_stages(inst)
    stages = _check_stage_request(inst, stages)
    rep = PipelineReport(inst.name, field_to_dict(inst.field), stages)

    datum = None
    qdelta = None
    ext = None
    galois_ok = False
    delta = None
    sigma = None
    conn = None
    verify_ok = False

    for stage in stages:
        if stage == "homogeneous":
            hopf_a = _build_a_hopf(inst)
            hrep = validate_hopf(hopf_a)
            rep.record_all(stage, hrep)
            if not hrep.passed:
                continue
            datum, qrep = build_quotient(hopf_a, inst.b_subspace)
            rep.record_all(stage, qrep)
            if datum is None:
                continue
            rep.record(stage, Check("quotient-dimension", PASS,
                                    {"dim": datum.quotient_dim}))
            _, crep = induced_coactions(datum)
            rep.record_all(stage, crep)
            qdelta = solve_cointegral(datum.quotient)
            if isinstance(qdelta, Infeasible):
                rep.record(stage, Check(
                    "quotient-cointegral-exists", FAIL,
                    {"reason": "not coseparable over this field",
                     "row": qdelta.row, "detail": qdelta.detail}))
                continue
            rep.record(stage, Check("quotient-cointegral-exists", PASS))
            rep.solution_dims["quotient_cointegral"] = qdelta.solution_dim
            iota, irep = bicolinear_section_iota(datum, qdelta, strict=False)
            rep.record_all(stage, irep)
            if irep.passed:
                rep.derived["bicolinear_section"] = iota

        elif stage == "validate":
            if inst.has_entwined_data:
                alg = StructureAlgebra(inst.designated("mul"),
                                       inst.designated("unit"))
                coa = StructureCoalgebra(inst.designated("comul"),
                                         inst.designated("counit"))
                ext, vrep = validate_and_build(alg, coa,
                                               inst.designated("psi"),
                                               inst.designated("rho"),
                                               inst.grouplike)
                rep.record_all(stage, vrep)
            elif datum is not None:
                rep.record(stage, Check("derived-from-homogeneous", NA,
                                        {"reason": "entwining induced from "
                                                   "the quotient datum"}))
                ext, vrep = extension_from_homogeneous(datum)
                rep.record_all(stage, vrep)
            else:
                rep.skip_stage(stage, "homogeneous construction failed")
                continue
            if ext is None:
                continue
            grep = galois_check(ext)
            rep.record_all(stage, grep)
            galois_ok = grep.named("galois").status == PASS

        elif stage == "cointegral":
            if ext is None:
                rep.skip_stage(stage, "no validated extension")
                continue
            # an extension induced from the quotient datum shares its
            # coalgebra, whose cointegral the homogeneous stage solved
            if datum is not None and ext.coalgebra is datum.quotient:
                out = qdelta
            else:
                out = solve_cointegral(ext.coalgebra)
            if isinstance(out, Infeasible):
                rep.record(stage, Check(
                    "cointegral-exists", FAIL,
                    {"reason": "not coseparable over this field",
                     "row": out.row, "detail": out.detail}))
                continue
            delta = out
            rep.record(stage, Check("cointegral-exists", PASS))
            rep.derived["cointegral"] = delta.delta
            rep.solution_dims["cointegral"] = delta.solution_dim

        elif stage == "integral":
            if ext is None:
                rep.skip_stage(stage, "no validated extension")
                continue
            if not inst.has_c_hopf_data:
                rep.record(stage, Check("integral-exists", NA,
                                        {"reason": "no Hopf structure "
                                                   "designated on C"}))
                continue
            hopf_c = _build_c_hopf(inst)
            hrep = validate_hopf(hopf_c)
            rep.record_all(stage, hrep)
            if not hrep.passed:
                continue
            out = solve_integral(hopf_c)
            if isinstance(out, Infeasible):
                rep.record(stage, Check(
                    "integral-exists", FAIL,
                    {"reason": "no normalised integral over this field",
                     "row": out.row, "detail": out.detail}))
                continue
            rep.record(stage, Check("integral-exists", PASS))
            rep.derived["integral"] = out.lam
            rep.solution_dims["integral"] = out.solution_dim
            converted = integral_to_cointegral(hopf_c, out)
            rep.record(stage, Check("converted-cointegral-valid", PASS))
            back, brep = cointegral_to_integral(converted, hopf_c)
            rep.record_all(stage, brep)
            rep.record(stage, Check("integral-roundtrip",
                                    PASS if back.lam == out.lam else FAIL))

        elif stage == "section":
            if ext is None:
                rep.skip_stage(stage, "no validated extension")
                continue
            try:
                raw = solve_section(ext)
            except NotGalois as exc:
                rep.record(stage, Check("section-exists", FAIL,
                                        {"reason": str(exc)}))
                continue
            rep.record(stage, Check("section-exists", PASS))
            if ext.grouplike is not None:
                sigma = normalize_section(raw, ext.grouplike, ext)
                rep.record(stage, Check("section-normalized", PASS))
            else:
                sigma = raw
                rep.record(stage, Check("section-normalized", NA,
                                        {"reason": "no designated grouplike"}))
            rep.derived["section"] = sigma.sigma
            rep.solution_dims["section"] = sigma.solution_dim

        elif stage == "connection":
            if ext is None:
                rep.skip_stage(stage, "no validated extension")
                continue
            if delta is None:
                rep.skip_stage(stage, "no cointegral")
                continue
            if sigma is None:
                rep.skip_stage(stage, "no section")
                continue
            conn = build_connection(sigma, delta, ext)
            rep.record(stage, Check("connection-built", PASS))
            rep.derived["connection"] = conn.ell

        elif stage == "verify":
            if conn is None:
                rep.skip_stage(stage, "no connection form")
                continue
            vrep = verify_connection(conn, ext)
            rep.record_all(stage, vrep)
            rep.record_all(stage, colinearity_reduction(conn, sigma, ext))
            verify_ok = vrep.passed

        elif stage == "splitting":
            if conn is None:
                rep.skip_stage(stage, "no connection form")
                continue
            if not verify_ok:
                rep.skip_stage(stage, "connection failed verification")
                continue
            s_map, srep = splitting(conn, ext)
            rep.record_all(stage, srep)
            rep.derived["splitting"] = s_map
            if ext.grouplike is None:
                rep.record(stage, Check("principal-extension", NA,
                                        {"reason": "no designated grouplike"}))
            else:
                ok = galois_ok and srep.passed
                rep.record(stage, Check(
                    "principal-extension", PASS if ok else FAIL,
                    {"galois": galois_ok,
                     "equivariant_projectivity": srep.passed,
                     "entwining_bijective": True,
                     "grouplike_unit_coaction": True}))

        elif stage == "oracle":
            if ext is None:
                rep.skip_stage(stage, "no validated extension")
                continue
            try:
                out = brute_force_connections(ext, cap=oracle_cap)
            except TooLarge as exc:
                rep.skip_stage(stage, str(exc))
                continue
            if isinstance(out, Infeasible):
                rep.record(stage, Check("oracle-solution-exists", FAIL,
                                        {"row": out.row, "detail": out.detail}))
                continue
            rep.record(stage, Check("oracle-solution-exists", PASS))
            rep.solution_dims["oracle_kernel"] = out.kernel.dim
            if conn is None:
                rep.record(stage, Check("oracle-contains-formula-output", NA,
                                        {"reason": "no formula connection "
                                                   "in this run"}))
            else:
                rep.record(stage, Check(
                    "oracle-contains-formula-output",
                    PASS if membership_check(conn, out) else FAIL))

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
