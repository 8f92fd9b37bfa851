import pytest

from strongconn.errors import ParseError, TooLarge
from strongconn.fileformat import (
    instance_to_dict,
    parse_instance,
    parse_instance_dict,
    serialize_linmap,
)
from strongconn.golden import GOLDEN_BUILDERS, build_golden
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


def test_out_of_range_index_diagnostics():
    doc = minimal_doc()
    doc["tensors"]["mul"]["entries"][0] = [2, 0, 0, "1"]
    with pytest.raises(ParseError) as exc:
        parse_instance_dict(doc)
    assert "mul" in str(exc.value) and "entry 0" in str(exc.value)


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
    doc["tensors"]["mul"]["entries"].append([0, 0, 0, "3"])
    with pytest.raises(ParseError) as exc:
        parse_instance_dict(doc)
    assert "duplicate" in str(exc.value)


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
