"""Record the expected outcome of every benchmark instance.

Usage (from the root of a checkout)::

    python3 bench/record_expected.py

For each workload and size this runs the standard-basis instances and
stores each one's exit code, ordered (stage, check, status) list,
solution dimensions and failure count.  None of these depend on the
basis, so run.py holds every seed to them.  It also runs the default
seed and stores the sha256 of each JSON report, since reports are
promised to be byte-identical; the golden files do not depend on the
seed, so their digests hold for every seed.

Rerun it only when a change to the program is meant to change reports.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

from run import DEFAULT_SEED, EXPECTED, ROOT, SRC, WORK, report_outcome, run_worker


def outcomes(w, size: str, seed, work: str) -> dict:
    from inputs import write_inputs

    shutil.rmtree(work, ignore_errors=True)
    paths, _ = write_inputs(w, size, seed, ROOT, os.path.join(work, "inputs"))
    os.makedirs(os.path.join(work, "reports"))
    runs, names = [], []
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        names.append(name)
        runs.append([path, os.path.join(work, "reports", name + ".json"), w.stages])
    result = run_worker(os.path.join(work, "spec.json"), runs=runs, spans=None)
    out = {}
    for name, run, code in zip(names, runs, result["exit_codes"]):
        out[name] = {"exit_code": code, **report_outcome(run[1])}
    return out


def main() -> int:
    sys.path.insert(0, SRC)
    from inputs import WORKLOADS

    work = os.path.join(WORK, "record")
    doc = {}
    for w in WORKLOADS.values():
        doc[w.name] = {}
        for size in ("full", "tiny"):
            standard = outcomes(w, size, None, work)
            seeded = outcomes(w, size, DEFAULT_SEED, work)
            for name, want in standard.items():
                got = seeded[name]
                for key in ("exit_code", "checks", "solution_dims", "failure_count"):
                    if got[key] != want[key]:
                        raise SystemExit(f"{w.name}/{size}/{name}: {key} changes "
                                         f"under the change of basis")
                want["sha256"] = got["sha256"]
            doc[w.name][size] = {
                "digest_seed": None if w.field is None else DEFAULT_SEED,
                "instances": standard,
            }
            print(w.name, size, {n: o["exit_code"] for n, o in standard.items()})
    shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(doc, indent=1, sort_keys=True)
    # one line per (stage, check, status) triple
    text = re.sub(r'\[\s+("[^"]*"),\s+("[^"]*"),\s+("[^"]*")\s+\]',
                  r"[\1, \2, \3]", text)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
