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

``dumps`` writes instance files and JSON reports, in the byte layout
that docs/file-format.md states.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .errors import ParseError, TooLarge
from .linmaps import LinMap, SpaceLabel, Subspace, vector
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
    # one loop reads an entry's indices against the factors, codomain
    # first, to the flat position r * dom.dim + c of its (r, c)
    factors = cod.factors + dom.factors
    n_idx, ncols = len(factors), dom.dim
    items = {}
    for pos, entry in enumerate(obj["entries"]):
        if not isinstance(entry, list) or len(entry) != n_idx + 1:
            raise ParseError(
                f"tensor {name!r} entry {pos}: expected {n_idx} indices "
                f"and one scalar")
        flat, bad = 0, None
        for i, (fname, d) in zip(entry, factors):
            if type(i) is not int and not _is_int(i):
                raise ParseError(f"tensor {name!r} entry {pos}: indices must be integers")
            if not 0 <= i < d and bad is None:  # raised once every type is checked
                bad = f"index {i} out of range for factor {fname}:{d}"
            flat = flat * d + i
        if bad is not None:
            raise ParseError(f"tensor {name!r} entry {pos}: {bad}")
        key = divmod(flat, ncols)
        if key in items:
            raise ParseError(f"tensor {name!r} entry {pos}: duplicate index")
        try:
            items[key] = parse(entry[n_idx])
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


class _MultiIndices(dict):
    """Flat position -> multi-index of one space, as a list; each is
    computed once, when first asked for."""

    def __init__(self, space: SpaceLabel):
        super().__init__()
        self.unflatten = space.unflatten

    def __missing__(self, flat: int) -> list[int]:
        idx = self[flat] = list(self.unflatten(flat))
        return idx


def serialize_linmap(m: LinMap) -> dict:
    """Sparse form using the same entry grammar as the input format."""
    rows, cols = _MultiIndices(m.codomain), _MultiIndices(m.domain)
    return {"domain": [n for n, _ in m.domain.factors],
            "codomain": [n for n, _ in m.codomain.factors],
            "entries": [rows[r] + cols[c] + [str(v)]
                        for (r, c), v in sorted(m.items())]}


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
        g = inst.grouplike
        texts = doc["grouplike"] = [str(g.field.zero)] * g.nrows
        for (r, _), v in g.items():
            texts[r] = str(v)
    if inst.b_subspace is not None:
        b = inst.b_subspace
        zero = str(b.field.zero)
        vectors = doc["coinvariant_subalgebra"] = [[zero] * b.ambient.dim
                                                   for _ in range(b.dim)]
        for (r, c), v in b.inclusion().items():
            vectors[c][r] = str(v)
    return doc


def write_instance(inst: InstanceFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(instance_to_dict(inst)) + "\n")


def dumps(doc) -> str:
    """doc as JSON text, byte for byte what json.dumps writes with sorted
    keys and an indent of 2, which takes Python's pure-Python encoder.

    Instance files and reports share this layout: keys sorted, two
    spaces of indent per level, no space before a comma, ASCII with
    \\uXXXX escapes, and empty lists and objects as [] and {}.  A tree
    holds str, int, True, False, None, lists, tuples (written as lists)
    and dicts with str keys, of exactly these types; any other value or
    key raises TypeError.
    """
    return _dumps(doc, "\n")


def _dumps(x, nl: str) -> str:
    """x as JSON text on a line that nl, a newline and the indent of that
    line, begins."""
    t = type(x)
    if t is str:
        return _quote(x)
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = nl + "  "
        return ("[" + inner + ("," + inner).join(
            [_quote(v) if type(v) is str else _dumps(v, inner) for v in x])
            + nl + "]")
    if t is dict:
        if not x:
            return "{}"
        inner = nl + "  "
        # _quote raises TypeError on a key that is not a str
        return ("{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _dumps(v, inner) for k, v in sorted(x.items())])
            + nl + "}")
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if t is int:
        return int.__repr__(x)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
