"""The JSON instance file format and sparse tensor (de)serialization.

An instance file is a JSON object::

    {
      "format": "strongconn-instance",
      "name": "...",
      "field": {"kind": "rationals"}
               or {"kind": "number_field", "min_poly": [1, 1, 1]},
      "spaces": {"A": 2, "C": 2},
      "tensors": {
        "mul": {"domain": ["A", "A"], "codomain": ["A"],
                "entries": [[0, 0, 0, "1"], [0, 1, 1, "2"], ...]},
        ...
      },
      "designations": {"mul": "mul", "unit": "unit", ...},
      "grouplike": ["1", "0"],                       # optional, in C
      "coinvariant_subalgebra": [["1","0","1","0"]]  # optional, in A
    }

A sparse entry lists the codomain indices, then the domain indices,
then the scalar text, with zero-based indices flattened row-major;
unlisted entries are zero and duplicates are rejected.  Scalars use the
shared grammar of the scalar parser.  The total space A and the
structure space C must be named "A" and "C".

Designation roles and their required shapes:

    mul:    A(x)A -> A        unit:    k -> A
    comul:  C -> C(x)C        counit:  C -> k
    psi:    C(x)A -> A(x)C    rho:     A -> A(x)C
    c_mul:  C(x)C -> C        c_unit:  k -> C
    c_antipode: C -> C        (optional Hopf data on C)
    a_comul: A -> A(x)A       a_counit: A -> k
    a_antipode: A -> A        (optional Hopf data on A)

mul and unit are required, and so are comul and counit whenever psi or
rho is designated.

Dimensions and indices are integers (true and false are not), domain,
codomain and entries are lists, and a designation is a tensor name; any
other JSON type raises ParseError.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import ParseError, TooLarge
from .linmaps import LinMap, SpaceLabel, Subspace, vector, vector_coeffs
from .scalars import Field, parse_scalar


FORMAT_NAME = "strongconn-instance"

# the default cap on each base-space dimension and on the field degree
DIM_CAP = 32

ROLE_SHAPES = {
    "mul": (("A", "A"), ("A",)),
    "unit": ((), ("A",)),
    "comul": (("C",), ("C", "C")),
    "counit": (("C",), ()),
    "psi": (("C", "A"), ("A", "C")),
    "rho": (("A",), ("A", "C")),
    "c_mul": (("C", "C"), ("C",)),
    "c_unit": ((), ("C",)),
    "c_antipode": (("C",), ("C",)),
    "a_comul": (("A",), ("A", "A")),
    "a_counit": (("A",), ()),
    "a_antipode": (("A",), ("A",)),
}


class InstanceFile(NamedTuple):
    name: str
    field: Field
    spaces: dict[str, int]
    tensors: dict[str, LinMap]
    designations: dict[str, str]
    grouplike: LinMap | None = None
    b_subspace: Subspace | None = None

    def designated(self, role: str) -> LinMap | None:
        tname = self.designations.get(role)
        return self.tensors[tname] if tname is not None else None

    @property
    def has_entwined_data(self) -> bool:
        return self.designated("psi") is not None and \
            self.designated("rho") is not None


def _is_int(x) -> bool:
    """A JSON integer; Python's bool is an int, but true is not an index."""
    return isinstance(x, int) and not isinstance(x, bool)


def _space_label(names, spaces: dict[str, int], where: str) -> SpaceLabel:
    if not isinstance(names, list):
        raise ParseError(f"{where}: expected a list of space names")
    factors = []
    for n in names:
        if not isinstance(n, str) or n not in spaces:
            raise ParseError(f"{where}: unknown space {n!r}")
        factors.append((n, spaces[n]))
    return SpaceLabel(factors)


def _scalar_parser(fld: Field):
    """parse_scalar in fld for one file: each distinct text is parsed
    once.  Only successful parses are kept, so a bad text raises its own
    error at each of its entries."""
    parsed = {}

    def parse(text):
        s = parsed.get(text) if isinstance(text, str) else None
        if s is None:
            s = parsed[text] = parse_scalar(text, fld)
        return s
    return parse


def parse_tensor(name: str, obj: dict, spaces: dict[str, int],
                 fld: Field, parse=None) -> LinMap:
    """The tensor of one instance-file entry; parse(text), by default
    parse_scalar in fld, reads its scalars."""
    if parse is None:
        parse = _scalar_parser(fld)
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError(f"tensor {name!r}: expected an object with entries")
    dom = _space_label(obj.get("domain", []), spaces, f"tensor {name!r}")
    cod = _space_label(obj.get("codomain", []), spaces, f"tensor {name!r}")
    if not isinstance(obj["entries"], list):
        raise ParseError(f"tensor {name!r}: entries must be a list")
    n_idx = len(dom.factors) + len(cod.factors)
    items = {}
    for pos, entry in enumerate(obj["entries"]):
        if not isinstance(entry, list) or len(entry) != n_idx + 1:
            raise ParseError(
                f"tensor {name!r} entry {pos}: expected {n_idx} indices "
                f"and one scalar")
        idx, text = entry[:n_idx], entry[n_idx]
        if not all(_is_int(i) for i in idx):
            raise ParseError(f"tensor {name!r} entry {pos}: indices must be integers")
        try:
            r = cod.flatten(idx[: len(cod.factors)])
            c = dom.flatten(idx[len(cod.factors):])
        except IndexError as exc:
            raise ParseError(f"tensor {name!r} entry {pos}: {exc}") from exc
        if (r, c) in items:
            raise ParseError(f"tensor {name!r} entry {pos}: duplicate index")
        try:
            items[r, c] = parse(text)
        except ParseError as exc:
            raise ParseError(f"tensor {name!r} entry {pos}: {exc}") from exc
    return LinMap.from_items(fld, dom, cod, items.items())


def parse_instance_dict(doc: dict, dim_cap: int = DIM_CAP) -> InstanceFile:
    if not isinstance(doc, dict):
        raise ParseError("instance file must be a JSON object")
    if doc.get("format", FORMAT_NAME) != FORMAT_NAME:
        raise ParseError(f"unknown format {doc.get('format')!r}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    fdesc = doc.get("field")
    if not isinstance(fdesc, dict) or "kind" not in fdesc:
        raise ParseError("missing or malformed field descriptor")
    min_poly = fdesc.get("min_poly")
    # Field() builds a (degree-1) x degree table, so cap the degree first.
    if isinstance(min_poly, list) and len(min_poly) - 1 > dim_cap:
        raise TooLarge(f"field degree {len(min_poly) - 1} > cap {dim_cap}")
    try:
        fld = Field(fdesc["kind"],
                    tuple(min_poly) if min_poly is not None else None)
    except Exception as exc:
        raise ParseError(f"field descriptor: {exc}") from exc
    spaces = doc.get("spaces")
    if not isinstance(spaces, dict) or not spaces:
        raise ParseError("missing spaces")
    for nm, d in spaces.items():
        if not _is_int(d) or d < 1:
            raise ParseError(f"space {nm!r}: dimension must be a positive integer")
        if d > dim_cap:
            raise TooLarge(f"space {nm!r} has dimension {d} > cap {dim_cap}")
    tensors_doc = doc.get("tensors", {})
    if not isinstance(tensors_doc, dict):
        raise ParseError("tensors must be an object")
    parse = _scalar_parser(fld)
    tensors = {nm: parse_tensor(nm, obj, spaces, fld, parse)
               for nm, obj in tensors_doc.items()}
    desig = doc.get("designations", {})
    if not isinstance(desig, dict):
        raise ParseError("designations must be an object")
    for role, tname in desig.items():
        if role not in ROLE_SHAPES:
            raise ParseError(f"unknown designation {role!r}")
        if not isinstance(tname, str):
            raise ParseError(f"designation {role!r}: expected a tensor name")
        if tname not in tensors:
            raise ParseError(f"designation {role!r} names missing tensor {tname!r}")
        want_dom, want_cod = ROLE_SHAPES[role]
        t = tensors[tname]
        got_dom = tuple(n for n, _ in t.domain.factors)
        got_cod = tuple(n for n, _ in t.codomain.factors)
        if (got_dom, got_cod) != (want_dom, want_cod):
            raise ParseError(
                f"designation {role!r}: tensor {tname!r} has shape "
                f"{got_dom} -> {got_cod}, expected {want_dom} -> {want_cod}")
    required = ["mul", "unit"]
    if "psi" in desig or "rho" in desig:
        required += ["comul", "counit"]  # psi and rho act through C's coalgebra
    for role in required:
        if role not in desig:
            raise ParseError(f"missing required designation {role!r}")
    grouplike = None
    if "grouplike" in doc:
        if "C" not in spaces:
            raise ParseError("grouplike given but no C space declared")
        texts = doc["grouplike"]
        if not isinstance(texts, list) or len(texts) != spaces["C"]:
            raise ParseError("grouplike must list one scalar per C basis element")
        grouplike = vector(fld, SpaceLabel.base("C", spaces["C"]),
                           [parse(t) for t in texts])
    b_subspace = None
    if "coinvariant_subalgebra" in doc:
        rows = doc["coinvariant_subalgebra"]
        if not isinstance(rows, list) or not rows:
            raise ParseError("coinvariant_subalgebra must be a nonempty list of vectors")
        a_label = SpaceLabel.base("A", spaces["A"])
        vecs = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != spaces["A"]:
                raise ParseError(f"coinvariant_subalgebra row {i}: expected "
                                 f"{spaces['A']} scalars")
            vecs.append([parse(t) for t in row])
        b_subspace = Subspace.from_vectors(fld, a_label, vecs)
    return InstanceFile(name, fld, dict(spaces), tensors,
                        dict(desig), grouplike, b_subspace)


def parse_instance(path: str, dim_cap: int = DIM_CAP) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits or too deep
        raise ParseError(f"{path}: {exc}") from exc
    return parse_instance_dict(doc, dim_cap)


# -- serialization -------------------------------------------------------


def field_to_dict(fld: Field) -> dict:
    if fld.kind == "rationals":
        return {"kind": "rationals"}
    return {"kind": "number_field", "min_poly": list(fld.min_poly)}


def serialize_linmap(m: LinMap) -> dict:
    """Sparse form using the same entry grammar as the input format."""
    entries = []
    for (r, c), v in sorted(m.items()):
        idx = list(m.codomain.unflatten(r)) + list(m.domain.unflatten(c))
        entries.append(idx + [str(v)])
    return {"domain": [n for n, _ in m.domain.factors],
            "codomain": [n for n, _ in m.codomain.factors],
            "entries": entries}


def instance_to_dict(inst: InstanceFile) -> dict:
    doc = {
        "format": FORMAT_NAME,
        "name": inst.name,
        "field": field_to_dict(inst.field),
        "spaces": dict(sorted(inst.spaces.items())),
        "tensors": {nm: serialize_linmap(m)
                    for nm, m in sorted(inst.tensors.items())},
        "designations": dict(sorted(inst.designations.items())),
    }
    if inst.grouplike is not None:
        doc["grouplike"] = [str(s) for s in vector_coeffs(inst.grouplike)]
    if inst.b_subspace is not None:
        doc["coinvariant_subalgebra"] = [[str(c) for c in v]
                                         for v in inst.b_subspace.basis]
    return doc


def write_instance(inst: InstanceFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")
