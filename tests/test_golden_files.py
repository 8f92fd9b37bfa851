"""The committed golden files through the command line.

The builders regenerate them byte for byte, their text and JSON reports
are pinned byte for byte, and deleting any single
designation from any of them, or giving any structural value a value of
another JSON type, ends in a documented exit code, never in a traceback
or an internal error.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongconn.cli import main
from strongconn.golden import write_golden_files

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

# sha256 of `strongconn golden/NAME.json --format json`
REPORT_SHA256 = {
    "graded_n2_t2": "f4ecae2ac355131c0e6e9dbcd5513b0ef2d4eb15f24e11e27c9ca30d34e88f5f",
    "graded_n3_t1_cyclotomic":
        "912f03b26e5866e7e1a57e487c711ad00fa7219c710b051c3d1632ed1afcbbbc",
    "group_self_z2": "ff6d20401bd18085bf8e14c0d5cd977eef9e559880fc1443f1bda1154faafd3d",
    "group_self_z4": "a1eed4947af9aba2604861941a7be1e5a50b3dddcc9a0e924f90f7111f9b292b",
    "homogeneous_z4_z2":
        "110e12f8b0a100400205a017a407649d10fb20e405dfc73f959b1869a1691bda",
    "sweedler_h4": "21bef2f602c96101edf7341d0835073feb086c647666f4cc66a866cd5061b9ca",
    "trivial_dim2": "eaa3b615079921478e4dd87d48d834bf4d99f5d68b0a635355610ae98ae5681d",
}

# sha256 of `strongconn golden/NAME.json`, the default text report
TEXT_REPORT_SHA256 = {
    "graded_n2_t2": "1c0f3a18296556eb898feee3a160ffe792e378b9976b75061b3db1793c1eed8e",
    "graded_n3_t1_cyclotomic":
        "ae0b4172813fba23813dfe03c5e7525758d4568c1d17af759126e51451e55cf7",
    "group_self_z2": "e6d6394f977fbe5e84aee7f6a26a5b3c2bab7a0a02d2afe74403f606ce72d279",
    "group_self_z4": "8587505555b6e795d2a88ece07bb8496373c5fdf7b35b7b2b9cbb92bb30fcb86",
    "homogeneous_z4_z2":
        "600fee7a21e249b5800c0f802bbbf2af9d58ead59fdfe16a21890a767b3675ad",
    "sweedler_h4": "511f88e5f6cddf931d19973f1a3a1b258656a15131ee65eef1af7706d68e7e0b",
    "trivial_dim2": "22b3291b0fc3368cf146ba51992bba081d1afb0966516f3c983d2ae0e73b368a",
}


def test_every_golden_file_is_pinned():
    names = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))
    assert names == sorted(REPORT_SHA256) == sorted(TEXT_REPORT_SHA256)


def test_golden_files_regenerate_byte_for_byte(tmp_path):
    written = write_golden_files(str(tmp_path))
    assert sorted(Path(p).name for p in written) == \
        sorted(p.name for p in GOLDEN_DIR.glob("*.json"))
    for path in written:
        assert Path(path).read_bytes() == (GOLDEN_DIR / Path(path).name).read_bytes()


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_golden_report_bytes(name, capsys):
    rc = main([str(GOLDEN_DIR / f"{name}.json"), "--format", "json"])
    out = capsys.readouterr().out.encode("utf-8")
    assert rc == (1 if name == "sweedler_h4" else 0)
    assert hashlib.sha256(out).hexdigest() == REPORT_SHA256[name]


@pytest.mark.parametrize("name", sorted(TEXT_REPORT_SHA256))
def test_golden_text_report_bytes(name, capsys):
    rc = main([str(GOLDEN_DIR / f"{name}.json")])
    out = capsys.readouterr().out.encode("utf-8")
    assert rc == (1 if name == "sweedler_h4" else 0)
    assert hashlib.sha256(out).hexdigest() == TEXT_REPORT_SHA256[name]


def single_deletions():
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for role in sorted(doc["designations"]):
            yield path.stem, role


# psi and rho need C's coalgebra; only the homogeneous file has neither.
MISSING_COALGEBRA = {(name, role) for name in REPORT_SHA256
                     if name != "homogeneous_z4_z2"
                     for role in ("comul", "counit")}


@pytest.mark.parametrize("name,role", list(single_deletions()))
def test_deleted_designation_ends_in_exit_code(name, role, tmp_path, capsys):
    doc = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    del doc["designations"][role]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main([str(path), "--format", "json"])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if (name, role) in MISSING_COALGEBRA:
        assert rc == 2
        assert err == f"error: missing required designation {role!r}\n"


def test_deletion_cases_cover_the_coalgebra_roles():
    assert MISSING_COALGEBRA <= set(single_deletions())
    assert len(MISSING_COALGEBRA) == 12


# -- type swaps -------------------------------------------------------------


def structural_paths(node, path=()):
    """Every node of a document, visiting only the first two items of a
    list: the second entry of a tensor has the structure of the
    hundredth."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from structural_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node[:2]):
            yield from structural_paths(value, path + (i,))


GOLDEN_DOCS = {p.stem: json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(GOLDEN_DIR.glob("*.json"))}
SWAP_SITES = [(name, path) for name, doc in GOLDEN_DOCS.items()
              for path in structural_paths(doc)]

_LEAVES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-2, 9),
    "float": st.sampled_from([0.0, 1.0, 2.5, -1.0]),
    "str": st.sampled_from(["", "A", "AA", "C", "1", "mul", "rationals"]),
}
_LEAF = st.one_of(*_LEAVES.values())
JSON_VALUES = dict(_LEAVES,
                   list=st.lists(_LEAF, max_size=3),
                   dict=st.dictionaries(st.sampled_from(["A", "C", "kind", "entries"]),
                                        _LEAF, max_size=2))


def json_type(value) -> str:
    for kind, cls in (("null", type(None)), ("bool", bool), ("int", int),
                      ("float", float), ("str", str), ("list", list),
                      ("dict", dict)):
        if isinstance(value, cls):
            return kind
    raise TypeError(value)


@st.composite
def type_swaps(draw):
    """A golden document with one structural value replaced by a value
    of another JSON type."""
    name, path = draw(st.sampled_from(SWAP_SITES))
    doc = json.loads(json.dumps(GOLDEN_DOCS[name]))
    parent, old = None, doc
    for key in path:
        parent, old = old, old[key]
    kind = draw(st.sampled_from(sorted(k for k in JSON_VALUES if k != json_type(old))))
    new = draw(JSON_VALUES[kind])
    if parent is None:
        return new
    parent[path[-1]] = new
    return doc


@settings(derandomize=True, max_examples=250, deadline=None)
@given(type_swaps())
def test_type_swapped_value_ends_in_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "swapped.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([str(path), "--format", "json", "--out", str(Path(tmp) / "r.json")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "internal error:" not in err.getvalue()
