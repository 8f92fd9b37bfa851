"""The benchmark's tracer wraps program callables by name; every name it
lists must still exist, so a refactor that drops one fails here and not
only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from strongconn import pipeline

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("strongconn_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def resolves(module, dotted: str) -> bool:
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_spanned_names_resolve(tracer):
    missing = [f"{m}.{n}" for m, names in tracer.SPANNED.items()
               for n in names
               if not resolves(importlib.import_module(f"strongconn.{m}"), n)]
    assert missing == []


def test_eliminating_names_resolve(tracer):
    linmaps = importlib.import_module("strongconn.linmaps")
    assert [n for n in tracer.ELIMINATING if not resolves(linmaps, n)] == []


def test_stage_names_resolve_in_pipeline(tracer):
    assert [n for n in tracer.STAGE_OF if not resolves(pipeline, n)] == []
    assert tuple(pipeline.STAGE_ORDER) == tracer.STAGES
    assert {s for stages in tracer.STAGE_OF.values() for s in stages} <= \
        set(pipeline.STAGE_ORDER)
