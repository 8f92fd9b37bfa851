"""
Instance files and the verification pipeline
============================================

Instances are JSON files: a field, named space dimensions, sparse
tensors, and designations saying which tensor plays which role.  The
pipeline runs staged checks over a file and emits a deterministic
report; the CLI wraps exactly this.
"""

import json
import os
import tempfile

from strongconn import parse_instance, run_pipeline, write_instance
from strongconn.golden import build_golden
from strongconn.pipeline import emit_report

# Golden files ship one per instance-library builder; regenerate them
# any time with `python -m strongconn.golden DIR`.
inst = build_golden("graded_n2_t2")

with tempfile.NamedTemporaryFile(suffix=".json", delete=False, mode="w") as fh:
    path = fh.name
write_instance(inst, path)
print("wrote", path)
with open(path) as fh:
    print(json.dumps(json.load(fh)["designations"], indent=2))

# Parse and run; stage order and dependencies are fixed, and a failed
# hypothesis skips downstream stages instead of crashing the run.
parsed = parse_instance(path)
os.remove(path)
report = run_pipeline(parsed)
print("\nexit code:", report.exit_code)
print("derived objects:", sorted(report.derived))
print("solution-space dims:", report.solution_dims)

# Reports come in two formats.  The JSON form has stable keys and is
# byte-identical across runs on the same input; the text form is the
# CLI default.
emit_report(report, "text")

# Equivalent CLI invocations:
#   strongconn graded_n2_t2.json
#   strongconn graded_n2_t2.json --stages validate,cointegral
#   strongconn graded_n2_t2.json --format json --out report.json
