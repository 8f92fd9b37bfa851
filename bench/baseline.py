"""Run the benchmark over several seeds and record medians and spreads.

Usage (from the root of a checkout)::

    python3 bench/baseline.py [--seeds 1-10] [--workloads a,b] [--out PATH]

For each workload this makes one untraced run per seed at the declared
run_seconds and reports, per end-to-end metric, the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  It then
makes one traced run on the first seed for the per-layer metrics.  With
--out it writes everything, with the Python version, processor count and
CPU model, to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import BENCH, ROOT


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True, cwd=ROOT)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return out


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in declared["workloads"]))
    p.add_argument("--out")
    args = p.parse_args()
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    doc = {"environment": {"python": platform.python_version(),
                           "nproc": os.cpu_count(), "cpu_model": cpu_model()},
           "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [bench_run(workload, s, seconds, 0) for s in args.seeds]
        e2e = {k: summary([r["metrics"][k]["value"] for r in runs])
               for k in runs[0]["metrics"]}
        entry = {"end_to_end": e2e,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        for k, s in e2e.items():
            print(f"{workload:17s} {k:12s} median {s['median']:10.4f}  "
                  f"spread {s['spread']:.3f}  (bound {bounds[k]})", flush=True)
        traced = bench_run(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
