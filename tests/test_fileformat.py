import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongconn.errors import ParseError, TooLarge
from strongconn.fileformat import (
    dumps,
    instance_to_dict,
    parse_instance,
    parse_instance_dict,
    parse_tensor,
    serialize_linmap,
    write_instance,
)
from strongconn.golden import GOLDEN_BUILDERS, build_golden
from strongconn.linmaps import SpaceLabel
from strongconn.pipeline import run_pipeline
from strongconn.scalars import Field, parse_scalar

QQ = Field.rationals()


def minimal_doc():
    return {
        "format": "strongconn-instance",
        "name": "m",
        "field": {"kind": "rationals"},
        "spaces": {"A": 2, "C": 1},
        "tensors": {
            "mul": {"domain": ["A", "A"], "codomain": ["A"],
                    "entries": [[0, 0, 0, "1"], [1, 0, 1, "1"],
                                [1, 1, 0, "1"], [0, 1, 1, "2"]]},
            "unit": {"domain": [], "codomain": ["A"], "entries": [[0, "1"]]},
        },
        "designations": {"mul": "mul", "unit": "unit"},
    }


def test_parse_minimal():
    inst = parse_instance_dict(minimal_doc())
    assert inst.spaces == {"A": 2, "C": 1}
    mul = inst.designated("mul")
    assert mul.entries[0][3] == QQ.scalar(2)


def test_golden_round_trip_all():
    for name in GOLDEN_BUILDERS:
        inst = build_golden(name)
        doc = instance_to_dict(inst)
        again = parse_instance_dict(doc)
        assert again.spaces == inst.spaces
        assert again.designations == inst.designations
        for tname, t in inst.tensors.items():
            assert again.tensors[tname] == t
        if inst.grouplike is None:
            assert again.grouplike is None
        else:
            assert again.grouplike == inst.grouplike
        if inst.b_subspace is None:
            assert again.b_subspace is None
        else:
            assert again.b_subspace == inst.b_subspace


def test_serialize_linmap_sparse_and_ordered():
    inst = build_golden("group_self_z2")
    doc = serialize_linmap(inst.tensors["mul"])
    # 4 nonzero structure constants, codomain index first
    assert len(doc["entries"]) == 4
    assert doc["entries"][0] == [0, 0, 0, "1"]


def test_bad_scalar_diagnostics():
    doc = minimal_doc()
    doc["tensors"]["mul"]["entries"][0] = [0, 0, 0, "1/0"]
    with pytest.raises(ParseError) as exc:
        parse_instance_dict(doc)
    assert "entry 0" in str(exc.value)


def test_each_scalar_text_parsed_once_per_file(monkeypatch):
    from strongconn import fileformat
    parsed = []
    real = fileformat.parse_scalar

    def counted(text, fld):
        parsed.append(text)
        return real(text, fld)
    monkeypatch.setattr(fileformat, "parse_scalar", counted)
    doc = minimal_doc()
    doc["grouplike"] = ["1"]
    inst = parse_instance_dict(doc)
    assert sorted(parsed) == ["1", "2"]
    assert inst.designated("mul").entries[0][3] is QQ.scalar(2)
    parse_instance_dict(minimal_doc())  # a new file parses afresh
    assert sorted(parsed) == ["1", "1", "2", "2"]


@pytest.mark.parametrize("bad", ["1/0", "x", ["1"], "[1, 2]"])
def test_a_bad_scalar_text_names_its_entry(bad):
    """The memo keeps only successful parses: a bad text, an unhashable
    one included, raises parse_scalar's own error, prefixed by the entry."""
    with pytest.raises(ParseError) as want:
        parse_scalar(bad, QQ)
    for pos in (0, 2):
        doc = minimal_doc()
        doc["tensors"]["mul"]["entries"][pos][3] = bad
        doc["tensors"]["unit"]["entries"][0] = [0, bad]
        with pytest.raises(ParseError) as exc:
            parse_instance_dict(doc)
        assert str(exc.value) == f"tensor 'mul' entry {pos}: {want.value}"


def test_duplicate_entry_rejected():
    doc = minimal_doc()
    doc["tensors"]["mul"]["entries"].append([0, 1, 1, "3"])
    with pytest.raises(ParseError) as exc:
        parse_instance_dict(doc)
    assert str(exc.value) == "tensor 'mul' entry 4: duplicate index"


def test_unknown_designation_rejected():
    doc = minimal_doc()
    doc["designations"]["frobenius"] = "mul"
    with pytest.raises(ParseError) as exc:
        parse_instance_dict(doc)
    assert "frobenius" in str(exc.value)


def test_designation_shape_mismatch_rejected():
    doc = minimal_doc()
    doc["designations"]["rho"] = "mul"
    with pytest.raises(ParseError) as exc:
        parse_instance_dict(doc)
    assert "rho" in str(exc.value)


def test_missing_required_designation():
    doc = minimal_doc()
    del doc["designations"]["unit"]
    with pytest.raises(ParseError):
        parse_instance_dict(doc)


def test_dim_cap_enforced():
    doc = minimal_doc()
    doc["spaces"]["A"] = 64
    with pytest.raises(TooLarge):
        parse_instance_dict(doc)
    # and an explicit higher cap admits it (tensor shapes no longer match,
    # so only the space check is exercised)
    doc["tensors"] = {}
    doc["designations"] = {}
    with pytest.raises(ParseError):
        parse_instance_dict(doc, dim_cap=64)


def test_grouplike_length_checked():
    doc = minimal_doc()
    doc["grouplike"] = ["1", "0"]
    with pytest.raises(ParseError):
        parse_instance_dict(doc)
    doc["grouplike"] = ["1"]
    inst = parse_instance_dict(doc)
    assert inst.grouplike is not None


def test_json_syntax_error_has_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{\n  broken\n}", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p))
    assert "line 2" in str(exc.value)


def test_number_field_instance_round_trip(tmp_path):
    inst = build_golden("graded_n3_t1_cyclotomic")
    from strongconn.fileformat import write_instance
    p = tmp_path / "g3.json"
    write_instance(inst, str(p))
    again = parse_instance(str(p))
    assert again.field == inst.field
    assert again.tensors["psi"] == inst.tensors["psi"]



def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate,message", [
    (_set(("tensors", "mul", "entries"), 5), "entries must be a list"),
    (_set(("designations", "mul"), ["mul"]), "designation 'mul'"),
    (_set(("tensors", "mul", "domain"), "AA"), "list of space names"),
    (_set(("tensors", "mul", "entries", 1), [True, 0, 1, "1"]),
     "indices must be integers"),
    (_set(("spaces", "C"), True), "positive integer"),
    (_set(("field",), {"kind": "number_field", "min_poly": [1, True, 1]}),
     "min_poly"),
    (_set(("name",), ["m"]), "name must be a string"),
], ids=["entries-int", "designation-list", "domain-string", "index-true",
        "dimension-true", "coefficient-true", "name-list"])
def test_wrong_json_type_rejected(mutate, message):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ParseError) as exc:
        parse_instance_dict(doc)
    assert message in str(exc.value)


# -- parse_tensor's messages, in full ----------------------------------------


@pytest.mark.parametrize("entry,message", [
    ("0 0 0 1", "tensor 'mul' entry 0: expected 3 indices and one scalar"),
    ({"0": "1"}, "tensor 'mul' entry 0: expected 3 indices and one scalar"),
    ([0, 0, "1"], "tensor 'mul' entry 0: expected 3 indices and one scalar"),
    ([0, 0, 0, 0, "1"], "tensor 'mul' entry 0: expected 3 indices and one scalar"),
    ([0, False, 0, "1"], "tensor 'mul' entry 0: indices must be integers"),
    ([0, 0, 1.0, "1"], "tensor 'mul' entry 0: indices must be integers"),
    ([0, "0", 0, "1"], "tensor 'mul' entry 0: indices must be integers"),
    ([0, -1, 0, "1"], "tensor 'mul' entry 0: index -1 out of range for factor A:2"),
    ([0, 0, 2, "1"], "tensor 'mul' entry 0: index 2 out of range for factor A:2"),
    ([2, 0, 0, "1"], "tensor 'mul' entry 0: index 2 out of range for factor A:2"),
    ([5, 7, 0, "1"], "tensor 'mul' entry 0: index 5 out of range for factor A:2"),
    # every index is checked for its type before any for its range
    ([2, 0, True, "1"], "tensor 'mul' entry 0: indices must be integers"),
], ids=["string", "object", "short", "long", "bool", "float", "text-index",
        "negative", "past-domain", "past-codomain", "first-past", "type-first"])
def test_parse_tensor_message(entry, message):
    """Each malformed entry's message, in full; a bad scalar text's is
    test_a_bad_scalar_text_names_its_entry's."""
    doc = minimal_doc()
    doc["tensors"]["mul"]["entries"].insert(0, entry)
    with pytest.raises(ParseError) as exc:
        parse_instance_dict(doc)
    assert str(exc.value) == message


def test_entry_order_does_not_matter():
    doc = minimal_doc()
    want = parse_instance_dict(doc).tensors["mul"]
    for seed in range(5):
        random.Random(seed).shuffle(doc["tensors"]["mul"]["entries"])
        assert parse_instance_dict(doc).tensors["mul"] == want


def test_tensor_on_the_scalar_line():
    """A tensor with domain k puts each entry in column 0."""
    spaces = {"A": 3}
    t = parse_tensor("v", {"domain": [], "codomain": ["A", "A"],
                           "entries": [[2, 1, "1/2"], [0, 0, "-1"]]}, spaces, QQ)
    assert t.domain == SpaceLabel.scalar()
    assert t.codomain == SpaceLabel([("A", 3), ("A", 3)])
    assert sorted(t.items()) == [((0, 0), QQ.scalar(-1)),
                                 ((7, 0), QQ.scalar(Fraction(1, 2)))]
    back = parse_tensor("v", serialize_linmap(t), spaces, QQ)
    assert back == t


# -- the JSON writer ---------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),  # lone surrogates too
    st.sampled_from(["", "\ud800", "a\udfffb", "\x00\x1f\x7f", "\"\\/\n\t",
                     "\u00e9\u2028", "\U0001f600"]))
_LEAF = st.one_of(_TEXT, st.integers(), st.integers(-(10 ** 60), 10 ** 60),
                  st.sampled_from([0, -1, 2 ** 63, -(2 ** 64)]),
                  st.booleans(), st.none())
JSON_TREES = st.recursive(
    _LEAF,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=40)


def assert_like_json(doc):
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(JSON_TREES)
def test_dumps_writes_what_json_dumps_writes(doc):
    assert_like_json(doc)


@pytest.mark.parametrize("doc", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()], {"": [[[]]]},
    ([{"b": ({},)}],), "", 0, True, False, None, -(10 ** 100)])
def test_dumps_empty_and_scalar_trees(doc):
    assert_like_json(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {None: 0}, {True: 0}, {"a": 1, 2: 3},
                                 [{"a": {(0,): 1}}]])
def test_dumps_rejects_a_key_that_is_not_a_str(doc):
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "golden").glob("*.json")))
def test_dumps_on_golden_instances_and_reports(name):
    inst = parse_instance(str(ROOT / "golden" / f"{name}.json"))
    assert_like_json(instance_to_dict(inst))
    assert_like_json(run_pipeline(inst).to_dict())


def test_dumps_on_the_benchmark_instances(monkeypatch):
    spec = importlib.util.spec_from_file_location("strongconn_bench_inputs",
                                                  ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    for w in inputs.WORKLOADS.values():
        if w.field is None:
            continue
        for size in ("tiny", "full"):
            inst = inputs.standard_instance(w, size)
            assert_like_json(instance_to_dict(inst))
            assert_like_json(instance_to_dict(inputs.conjugate(inst, w.basis, 1)))


def test_rewriting_the_homogeneous_golden_file_keeps_its_bytes(tmp_path):
    """The coinvariant basis, written from its nonzeros, reads as before."""
    path = ROOT / "golden" / "homogeneous_z4_z2.json"
    inst = parse_instance(str(path))
    assert inst.b_subspace is not None
    write_instance(inst, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
