"""Spans and counters around the public callables of strongconn.

Installed from the benchmark's worker process only; nothing under src/
knows about it.  Every wrapped callable records one span (name, start,
end, parent) in memory, and the spans are written out when the worker
ends.  Scalar arithmetic runs millions of times per pass, so the scalar
layer is counted, never timed.

Each name a module imported from another one is replaced too, so the
calls `strongconn.pipeline` makes are wrapped once more in a span per
pipeline stage.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from strongconn import pipeline
from strongconn.linmaps import LinMap
from strongconn.scalars import Scalar

STAGES = ("homogeneous", "validate", "cointegral", "integral", "section",
          "connection", "verify", "splitting", "oracle")

# Public callables that get a span, by module; "Class.method" for methods.
SPANNED = {
    "fileformat": ("parse_instance", "serialize_linmap"),
    "pipeline": ("run_pipeline", "emit_report"),
    "structures": ("validate_algebra", "validate_coalgebra", "validate_hopf"),
    "extensions": ("validate_and_build", "galois_check", "lifted_canonical",
                   "coinvariants", "key_identity_check"),
    "connection": ("solve_cointegral", "solve_integral",
                   "integral_to_cointegral", "cointegral_to_integral",
                   "solve_section", "normalize_section", "gamma_map",
                   "alpha_map", "build_connection", "verify_connection",
                   "colinearity_reduction", "splitting",
                   "brute_force_connections", "membership_check"),
    "homogeneous": ("build_quotient", "induced_coactions",
                    "bicolinear_section_iota", "extension_from_homogeneous"),
    "linmaps": ("LinMap.__matmul__", "map_kron"),
}

# Entry points that run an elimination.  Only the outermost one of a
# nested chain counts (kernel_basis -> stacked_kernel -> from_vectors is
# one elimination request).
ELIMINATING = ("rref_solve", "kernel_basis", "stacked_kernel", "try_inverse",
               "LinMap.rank", "Subspace.from_vectors", "Subspace.sum",
               "Subspace.intersection")

# The stages each callable that run_pipeline calls can belong to; a call
# goes to the first candidate not before the stage of the previous call,
# since stages run in STAGE_ORDER.
STAGE_OF = {
    "validate_hopf": ("homogeneous", "integral"),
    "build_quotient": ("homogeneous",),
    "induced_coactions": ("homogeneous",),
    "solve_cointegral": ("homogeneous", "cointegral"),
    "bicolinear_section_iota": ("homogeneous",),
    "validate_and_build": ("validate",),
    "extension_from_homogeneous": ("validate",),
    "galois_check": ("validate",),
    "solve_integral": ("integral",),
    "integral_to_cointegral": ("integral",),
    "cointegral_to_integral": ("integral",),
    "solve_section": ("section",),
    "normalize_section": ("section",),
    "build_connection": ("connection",),
    "verify_connection": ("verify",),
    "colinearity_reduction": ("verify",),
    "splitting": ("splitting",),
    "brute_force_connections": ("oracle",),
    "membership_check": ("oracle",),
}

LAYERS = ("pipeline", "fileformat", "structures", "extensions", "connection",
          "homogeneous", "linmaps")

# Time metrics: the outermost spans of these names, summed.
TIMED = {
    "fileformat.parse_s": ("fileformat.parse_instance",),
    "fileformat.report_s": ("pipeline.emit_report",),
    "structures.validate_s": ("structures.validate_algebra",
                              "structures.validate_coalgebra",
                              "structures.validate_hopf"),
    "extensions.validate_s": ("extensions.validate_and_build",),
    "extensions.galois_s": ("extensions.galois_check",),
    "connection.cointegral_s": ("connection.solve_cointegral",),
    "connection.section_s": ("connection.solve_section",
                             "connection.normalize_section"),
    "connection.build_connection_s": ("connection.build_connection",),
    "connection.verify_s": ("connection.verify_connection",
                            "connection.colinearity_reduction"),
    "connection.splitting_s": ("connection.splitting",),
    "connection.oracle_s": ("connection.brute_force_connections",),
    "homogeneous.quotient_s": ("homogeneous.build_quotient",),
    "homogeneous.bicolinear_s": ("homogeneous.bicolinear_section_iota",),
    "linmaps.compose_s": ("linmaps.LinMap.__matmul__",),
    "linmaps.kron_s": ("linmaps.map_kron",),
}
TIMED.update({f"pipeline.stage.{s}_s": (f"pipeline.stage.{s}",)
              for s in STAGES})

CALLS = {
    "extensions.lifted_canonical_calls": "extensions.lifted_canonical",
    "connection.build_connection_calls": "connection.build_connection",
    "linmaps.compose_calls": "linmaps.LinMap.__matmul__",
    "linmaps.kron_calls": "linmaps.map_kron",
}


def _subject(name: str, args) -> list:
    """Rows of the matrix an elimination entry point reduces."""
    if name in ("rref_solve", "kernel_basis", "try_inverse", "LinMap.rank"):
        return args[0].entries
    if name == "stacked_kernel":
        return [r for m in args[0] for r in m.entries]
    if name == "Subspace.from_vectors":
        return args[2]
    return list(args[0].basis) + list(args[1].basis)  # Subspace.sum, .intersection


class Tracer:
    """Records spans and counters for one worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, start, end, parent]
        self.stack: list[int] = []
        self.elims: list[tuple] = []  # (span, matrix hash, rows, cols)
        self.elim_open = 0
        self.elim_cells_max = 0
        self.largest_nnz_ratio = 0.0
        self.scalar = [0, 0, 0, 0, 0]  # mul, add or sub, inv, bool, bool true
        self.linmap_cells = 0
        self.compose_madds = 0
        self.kron_cells_max = 0
        self.stage_cursor = 0
        self._originals: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def span(self, name: str, fn, before=None, elim: bool = False):
        """fn wrapped in a span; before(args) runs first, outside the span."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        subject = name.split(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if elim:
                if subject == "Subspace.from_vectors":
                    args = args[:2] + ([list(v) for v in args[2]],) + args[3:]
                if self.elim_open == 0:
                    self._record_elim(len(spans), _subject(subject, args))
                self.elim_open += 1
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if elim:
                    self.elim_open -= 1
        return wrapper

    def _record_elim(self, idx: int, rows) -> None:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if nrows * ncols > self.elim_cells_max:
            self.elim_cells_max = nrows * ncols
            # Coefficient tuples are read directly so that the scalar
            # counters see only the program's own calls.
            nnz = sum(1 for row in rows for s in row
                      if (any(s.coeffs) if isinstance(s, Scalar) else s))
            self.largest_nnz_ratio = nnz / (nrows * ncols)
        self.elims.append((idx, hash(tuple(tuple(r) for r in rows)), nrows, ncols))

    def _stage_span(self, fn_name: str, fn):
        candidates = STAGE_OF[fn_name]
        per_stage = {s: self.span(f"pipeline.stage.{s}", fn) for s in candidates}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stage = next((s for s in candidates
                          if STAGES.index(s) >= self.stage_cursor), candidates[-1])
            self.stage_cursor = STAGES.index(stage)
            return per_stage[stage](*args, **kwargs)
        return wrapper

    # -- counters at span entry -------------------------------------------

    def _reset_stage(self, args) -> None:
        self.stage_cursor = 0

    def _on_compose(self, args) -> None:
        a, b = args
        self.compose_madds += a.nrows * a.ncols * b.ncols

    def _on_kron(self, args) -> None:
        f, g = args
        self.kron_cells_max = max(self.kron_cells_max,
                                  f.nrows * f.ncols * g.nrows * g.ncols)

    # -- installation ---------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every callable in SPANNED and ELIMINATING, in its defining
        module and in every strongconn module that imported it."""
        before = {"run_pipeline": self._reset_stage,
                  "LinMap.__matmul__": self._on_compose,
                  "map_kron": self._on_kron}
        targets = [(m, n, False) for m, names in SPANNED.items() for n in names]
        targets += [("linmaps", n, True) for n in ELIMINATING]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "strongconn" or n.startswith("strongconn.")]
        for mod_name, name, elim in targets:
            mod = sys.modules["strongconn." + mod_name]
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                new = self.span(f"{mod_name}.{name}",
                                raw.__func__ if is_static else raw,
                                before.get(name), elim)
                self._replace(cls, meth, staticmethod(new) if is_static else new)
                continue
            orig = getattr(mod, name)
            new = self.span(f"{mod_name}.{name}", orig, before.get(name), elim)
            for m in modules:
                if m.__dict__.get(name) is orig:
                    staged = m is pipeline and name in STAGE_OF
                    self._replace(m, name,
                                  self._stage_span(name, new) if staged else new)
        self._count_cells()
        self._count_scalars()

    def _count_cells(self) -> None:
        init = LinMap.__init__

        def counted_init(lm, field, domain, codomain, entries):
            init(lm, field, domain, codomain, entries)
            self.linmap_cells += domain.dim * codomain.dim
        self._replace(LinMap, "__init__", counted_init)

    def _count_scalars(self) -> None:
        n = self.scalar
        mul, add, sub = Scalar.__mul__, Scalar.__add__, Scalar.__sub__
        inv, truth = Scalar.inv, Scalar.__bool__

        def c_mul(a, b):
            n[0] += 1
            return mul(a, b)

        def c_add(a, b):
            n[1] += 1
            return add(a, b)

        def c_sub(a, b):
            n[1] += 1
            return sub(a, b)

        def c_inv(a):
            n[2] += 1
            return inv(a)

        def c_bool(a):
            n[3] += 1
            if truth(a):
                n[4] += 1
                return True
            return False

        for attr, fn in (("__mul__", c_mul), ("__add__", c_add),
                         ("__sub__", c_sub), ("inv", c_inv),
                         ("__bool__", c_bool)):
            self._replace(Scalar, attr, fn)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    # -- results --------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON object per line: name, start, end (seconds), parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for nid, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": self.names[nid], "start": t0,
                                     "end": t1, "parent": parent}) + "\n")

    def metrics(self) -> dict:
        spans, names = self.spans, self.names

        def dur(idx):
            return spans[idx][2] - spans[idx][1]

        def has_ancestor(idx, group):
            p = spans[idx][3]
            while p >= 0:
                if names[spans[p][0]] in group:
                    return True
                p = spans[p][3]
            return False

        def outermost(group):
            return [i for i, rec in enumerate(spans)
                    if names[rec[0]] in group and not has_ancestor(i, group)]

        out = {k: sum(map(dur, outermost(set(v)))) for k, v in TIMED.items()}
        for k, name in CALLS.items():
            out[k] = sum(1 for rec in spans if names[rec[0]] == name)

        oracle = {"connection.brute_force_connections"}
        in_oracle = [e for e in self.elims if has_ancestor(e[0], oracle)]
        out["connection.oracle_solve_s"] = sum(dur(e[0]) for e in in_oracle)
        out["connection.oracle_assembly_s"] = \
            out["connection.oracle_s"] - out["connection.oracle_solve_s"]
        out["connection.oracle_unknowns"] = max((e[3] for e in in_oracle), default=0)
        out["connection.oracle_rows"] = max((e[2] for e in in_oracle), default=0)
        out["linmaps.elim_calls"] = len(self.elims)
        out["linmaps.elim_s"] = sum(dur(e[0]) for e in self.elims)
        out["linmaps.elim_cells_max"] = self.elim_cells_max
        out["linmaps.elim_distinct_ratio"] = (
            len({e[1] for e in self.elims}) / len(self.elims) if self.elims else 0.0)
        out["linmaps.system_nnz_ratio"] = self.largest_nnz_ratio
        out["linmaps.linmap_cells"] = self.linmap_cells
        out["linmaps.compose_madds"] = self.compose_madds
        out["linmaps.kron_cells_max"] = self.kron_cells_max
        mul, add, inv, truth, true = self.scalar
        out["scalars.mul_calls"] = mul
        out["scalars.add_calls"] = add
        out["scalars.inv_calls"] = inv
        out["scalars.bool_calls"] = truth
        out["scalars.bool_nonzero_ratio"] = true / truth if truth else 0.0

        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_time = dict.fromkeys(LAYERS, 0.0)
        for idx, rec in enumerate(spans):
            self_time[names[rec[0]].split(".")[0]] += dur(idx) - child[idx]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return out
