"""The strongconn benchmark: what users run, `strongconn FILE`, timed.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's instance files from the seed, in a fresh
worker process (bench/worker.py) that imports the program first.  Each
timed pass then runs in a fresh worker process that calls the command
line once per instance and writes the JSON report; every report
is checked against bench/expected.json.  Load is closed-loop: one client,
one instance at a time.

--trace 0 prints the end-to-end metrics; --trace 1 runs traced passes
(bench/tracer.py) alternating with untraced ones and prints the per-layer
metrics.  Human-readable lines come first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.

The processors this runs on are shared, and how fast they run Python
drifts by up to a factor of two within minutes.  So fixed reference work
(worker.reference_s) runs right before and after every timed interval, in
the same process, and the end-to-end times are reported in reference
seconds: wall seconds scaled by REF_NOMINAL_S over the mean time of the
reference runs.  pass_s is the passes' total time over their total
reference time, which spread less between runs than the median of
per-pass ratios; setup_s is the median of per-set-up ratios.  A set-up's
interval is its worker's whole life, as timed by this process, less the
two reference runs inside it.  The raw wall-clock medians are printed
alongside.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(BENCH, "expected.json")

DEFAULT_SEED = 1
REF_NOMINAL_S = 0.15   # reference_s on an idle 2-core Xeon VM
SETUP_REPEATS = (4, 15)  # cheap set-ups repeat up to 15 times ...
SETUP_BUDGET_S = 4.0     # ... while set-up has taken less than this
MIN_PASSES = 3
SIZE = "full"   # the self-tests set "tiny": the smallest instances
WORKER_TIMEOUT_S = 150


def scaled(wall_s: float, ref_s: float) -> float:
    """Wall seconds in reference seconds (see the module docstring)."""
    return wall_s * REF_NOMINAL_S / ref_s


def median(values):
    return statistics.median(values) if values else 0.0


def pass_time(results) -> float:
    """Mean pass time in reference seconds, scaled by the passes' mean
    reference time."""
    n = len(results)
    return scaled(sum(r["pass_s"] for r in results) / n,
                  sum(r["ref_s"] for r in results) / n)


def run_worker(spec_path: str, **spec) -> dict:
    """Start one worker process with the given spec (see worker.py); wait
    for it and return what it printed."""
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, **spec}, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), spec_path],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_outcome(path: str) -> dict:
    """The seed-independent part of a JSON report, plus its digest."""
    with open(path, "rb") as fh:
        raw = fh.read()
    rep = json.loads(raw)
    return {
        "checks": [[c["stage"], c["name"], c["status"]] for c in rep["checks"]],
        "solution_dims": rep["solution_dims"],
        "failure_count": rep["failure_count"],
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def mismatches(expected: dict, code, report: str, check_digest: bool) -> list[str]:
    """Every way one instance run differs from its expected outcome."""
    bad = []
    if code != expected["exit_code"]:
        bad.append(f"exit code {code}, expected {expected['exit_code']}")
    if not os.path.exists(report):
        return bad + ["no report written"]
    got = report_outcome(report)
    for key in ("checks", "solution_dims", "failure_count"):
        if got[key] != expected[key]:
            bad.append(f"{key} differ")
    if check_digest and got["sha256"] != expected["sha256"]:
        bad.append("report sha256 differs")
    return bad


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "strongconn", "__init__.py")):
        print(f"error: no strongconn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[w.name][SIZE]
    check_digest = expected["digest_seed"] in (None, args.seed)

    work = os.path.join(WORK, w.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "reports"))
    spec = os.path.join(work, "spec.json")

    # Set-up: a fresh worker imports the program and generates the inputs,
    # several times; the median is setup_s.
    setup_s, setup_scaled, build_s, input_sets = [], [], [], []
    start = time.perf_counter()
    while len(setup_s) < SETUP_REPEATS[0] or (
            len(setup_s) < SETUP_REPEATS[1]
            and time.perf_counter() - start < SETUP_BUDGET_S):
        k = len(setup_s)
        t0 = time.perf_counter()
        made = run_worker(spec, setup=[w.name, SIZE, args.seed, ROOT,
                                       os.path.join(work, f"inputs{k}")])
        setup_s.append(time.perf_counter() - t0 - 2 * made["ref_s"])
        setup_scaled.append(scaled(setup_s[-1], made["ref_s"]))
        build_s.append(made["build_s"])
        input_sets.append(made["paths"])
    problems = [f"set-up {k} wrote different inputs"
                for k in range(1, len(input_sets))
                if not all(filecmp.cmp(a, b, shallow=False)
                           for a, b in zip(input_sets[0], input_sets[k]))]

    runs = []
    for path in input_sets[0]:
        name = os.path.splitext(os.path.basename(path))[0]
        runs.append((name, [path, os.path.join(work, "reports", name + ".json"),
                            w.stages]))

    plain, traced = [], []
    attempted = failed = 0
    walls = []
    start = time.perf_counter()
    while True:
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if args.trace:
            enough = plain and traced
        else:
            enough = len(plain) >= MIN_PASSES
        if enough and elapsed + median(walls) > args.seconds:
            break
        use_trace = bool(args.trace) and done % 2 == 1
        for _, (_, report, _) in runs:
            if os.path.exists(report):
                os.remove(report)
        t0 = time.perf_counter()
        spans = os.path.join(work, f"spans_{done}.jsonl") if use_trace else None
        result = run_worker(spec, runs=[r for _, r in runs], spans=spans)
        walls.append(time.perf_counter() - t0)
        (traced if use_trace else plain).append(result)
        for (name, (_, report, _)), code, err in zip(
                runs, result["exit_codes"], result["errors"]):
            attempted += 1
            bad = mismatches(expected["instances"][name], code, report,
                             check_digest)
            if bad:
                failed += 1
                problems.append(f"pass {done} {name}: {'; '.join(bad)}"
                                + (f" ({err.strip()})" if err.strip() else ""))

    for line in problems[:10]:
        print("mismatch:", line, file=sys.stderr)

    print(f"workload {w.name}  seed {args.seed}  size {SIZE}  "
          f"trace {args.trace}")
    print(f"why: {w.why}")
    if args.trace:
        metrics = {}
        for key in traced[0]["layers"]:
            metrics[key] = median([r["layers"][key] for r in traced])
        metrics["instances.build_s"] = median(build_s)
        metrics["trace.overhead_ratio"] = (
            pass_time(traced) / pass_time(plain))
        units = {k: layer_unit(k) for k in metrics}
        print(f"{len(traced)} traced and {len(plain)} untraced passes; "
              f"spans in {os.path.relpath(work, ROOT)}/spans_*.jsonl")
        for key in sorted(metrics):
            print(f"  {key:40s} {metrics[key]:>16.6g} {units[key]}")
    else:
        metrics = {
            "pass_s": pass_time(plain),
            "peak_rss_mb": median([r["maxrss_kb"] / 1024 for r in plain]),
            "setup_s": median(setup_scaled),
        }
        units = {"pass_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
        samples = {
            "pass_s": f"mean of {len(plain)} passes; wall-clock median "
                      f"{median([r['pass_s'] for r in plain]):.4f} s",
            "peak_rss_mb": f"median of {len(plain)} passes",
            "setup_s": f"median of {len(setup_s)} set-ups; wall-clock "
                       f"median {median(setup_s):.4f} s",
        }
        for key, value in metrics.items():
            print(f"  {key:12s} {value:12.6f} {units[key]:5s} ({samples[key]})")
    ratio = failed / attempted
    print(f"  {'fail_ratio':12s} {ratio:12.6f} {'ratio':5s} "
          f"({failed} of {attempted} instance runs)")

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
