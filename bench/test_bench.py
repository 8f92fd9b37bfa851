"""Self-tests of the benchmark, at tiny sizes.  From the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

They are not part of the tier-1 suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SCRATCH = os.path.join(ROOT, ".bench_work", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(*args, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], capture_output=True,
                          text=True, timeout=170, check=False)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def tiny(monkeypatch, capsys):
    """A function that runs the benchmark in this process on the tiny
    instances and gives (result, stderr).  With edit, run.py checks the
    reports against an edited copy of expected.json."""
    import run
    monkeypatch.setattr(run, "SIZE", "tiny")

    def run_tiny(*args, edit=None):
        if edit is not None:
            with open(run.EXPECTED, encoding="utf-8") as fh:
                doc = json.load(fh)
            edit(doc)
            os.makedirs(SCRATCH, exist_ok=True)
            path = os.path.join(SCRATCH, "expected.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            monkeypatch.setattr(run, "EXPECTED", path)
        assert run.main(list(args)) == 0
        captured = capsys.readouterr()
        return json.loads(captured.out.strip().splitlines()[-1]), captured.err

    return run_tiny


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(tiny, workload, trace):
    out, _ = tiny("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_wrong_exit_code_is_a_failure(tiny):
    # sweedler_h4 must exit 1; an expectation of 0 must not pass silently.
    def edit(doc):
        doc["golden"]["tiny"]["instances"]["sweedler_h4"]["exit_code"] = 0
    out, err = tiny("--workload", "golden", "--seconds", "1", edit=edit)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] // 7 > 0
    assert "sweedler_h4: exit code 1, expected 0" in err


def test_wrong_digest_is_a_failure_on_the_default_seed(tiny):
    def edit(doc):
        doc["oracle-q"]["tiny"]["instances"]["graded_n3_t2"]["sha256"] = "0" * 64
    out, _ = tiny("--workload", "oracle-q", "--seconds", "1", "--seed", "1",
                  edit=edit)
    assert out["correct"] is False and out["failed"] == out["attempted"]
    # Digests are recorded for the default seed only.
    out, _ = tiny("--workload", "oracle-q", "--seconds", "1", "--seed", "2",
                  edit=edit)
    assert out["correct"] is True


def test_seed_selects_the_inputs():
    from inputs import WORKLOADS as defs, write_inputs

    def read(seed, k):
        paths, _ = write_inputs(defs["dense-cyclotomic"], "tiny", seed, ROOT,
                                os.path.join(SCRATCH, f"inputs{k}"))
        with open(paths[0], encoding="utf-8") as fh:
            return fh.read()

    assert read(5, 0) == read(5, 1)
    assert read(5, 0) != read(6, 2)


def test_stages_match_the_pipeline():
    from strongconn.pipeline import STAGE_ORDER
    from tracer import STAGES
    assert list(STAGES) == STAGE_ORDER


def test_traced_oracle_run_has_the_baseline_shape():
    # The oracle takes most of oracle-q, and zero tests dominate the
    # scalar counts (the profile the sparse-core work starts from).
    m = {k: v["value"] for k, v in result(bench(
        "--workload", "oracle-q", "--seconds", "1", "--trace", "1"))["metrics"].items()}
    stages = {k: v for k, v in m.items() if k.startswith("pipeline.stage.")}
    assert max(stages, key=stages.get) == "pipeline.stage.oracle_s"
    assert stages["pipeline.stage.oracle_s"] > sum(stages.values()) / 2
    assert m["scalars.bool_calls"] > 10 * (m["scalars.mul_calls"]
                                          + m["scalars.add_calls"]
                                          + m["scalars.inv_calls"])
    assert m["connection.oracle_unknowns"] == 125


def test_fails_without_the_program():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "golden", "--seed", "1", "--seconds", "1",
                 "--trace", "0", script=os.path.join(bare, "bench", "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
