"""One timed pass of the benchmark, in a fresh process.

Usage: python3 bench/worker.py SPEC.json

SPEC is {"src": DIR, "runs": [[INSTANCE, REPORT, STAGES or null], ...],
"spans": PATH or null}.  The worker imports strongconn from DIR and calls
`strongconn.cli.main([INSTANCE, "--format", "json", "--out", REPORT])`
once per run, as a user of the command line would.  It prints one JSON
line: pass_s, ref_s (the mean of reference_s before and after the pass),
maxrss_kb, the exit codes and errors, and, when "spans" is set, the
tracer's per-layer metrics; the spans go to PATH.

SPEC {"src": DIR, "setup": [WORKLOAD, SIZE, SEED, ROOT, OUTDIR]} is one
set-up instead: the worker imports strongconn as a pass does, writes the
workload's instance files into OUTDIR (inputs.write_inputs) and prints
their paths, build_s (the seconds spent in the library builders) and
ref_s (the mean of reference_s run first and last).

A fresh process per pass and per set-up keeps each of them cold, as every
CLI run is, so no cache that outlives a process can pose as a speed-up.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction


def reference_s() -> float:
    """Wall time of fixed pure-Python work: a probe of how fast this machine
    runs Python right now, independent of the program.

    It mixes a tight integer loop with an exact elimination over
    Fractions, because contention from other tenants of the machine slows
    allocation-heavy code like the program's more than a tight loop.  It
    keeps few objects alive, so that it does not raise the peak RSS.  It
    makes no reference cycles, so it runs with the garbage collector off:
    whatever collector settings or heap the program leaves behind, they
    do not change the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference_work()
    finally:
        if enabled:
            gc.enable()


def _reference_work() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(400_000):
        s += i * i % 7
    rng = random.Random(0)
    n = 28
    rows = [[Fraction(rng.randint(-3, 3)) if rng.random() < 0.3 else Fraction(0)
             for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return time.perf_counter() - t0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec.get("setup"):
        return set_up(spec)
    ref_before = reference_s()
    sys.path.insert(0, spec["src"])
    from strongconn import cli

    tracer = None
    if spec["spans"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    codes, errors = [], []
    t1 = time.perf_counter()
    for instance, report, stages in spec["runs"]:
        argv = [instance, "--format", "json", "--out", report]
        if stages:
            argv += ["--stages", stages]
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        except Exception as exc:  # a crash is a failed run, not a dead pass
            codes.append(None)
            err.write(f"{type(exc).__name__}: {exc}")
        errors.append(err.getvalue())
    t2 = time.perf_counter()
    ref_after = reference_s()

    out = {"pass_s": t2 - t1,
           "ref_s": (ref_before + ref_after) / 2,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "exit_codes": codes, "errors": errors}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        tracer.write_spans(spec["spans"])
    print(json.dumps(out))
    return 0


def set_up(spec) -> int:
    name, size, seed, root, directory = spec["setup"]
    ref_before = reference_s()
    sys.path.insert(0, spec["src"])
    from strongconn import cli  # noqa: F401  (a pass imports it first, too)
    from inputs import WORKLOADS, write_inputs

    paths, build_s = write_inputs(WORKLOADS[name], size, seed, root, directory)
    ref_after = reference_s()
    print(json.dumps({"paths": paths, "build_s": build_s,
                      "ref_s": (ref_before + ref_after) / 2}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
