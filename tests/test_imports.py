"""Every name a strongconn module imports is used in that module,
importing the package and its command stays cheap, the laws are
checked by one evaluator, only linmaps reads or writes a map's rows,
and every function and method the package defines has a caller in it
or a listed reason to stay.

__init__.py is left out: it imports names to re-export them.  A
``from __future__`` import is a compiler directive, not a name.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "strongconn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from .errors import ShapeError, TooLarge\n"
                     "import os.path\n"
                     "raise TooLarge(os.path.sep)\n")
    assert unused_imports(tree) == ["ShapeError (line 1)"]


def names_in(tree: ast.Module) -> set[str]:
    """Every name a module binds, reads, imports or defines."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def test_only_the_evaluator_and_the_verifier_compare_maps():
    """check_map_equal is named only where it is defined and called by
    report.check_conditions, and in connection (verify_connection and
    splitting): every structural law is a table row."""
    naming = sorted(p.name for p in MODULES
                    if "check_map_equal" in names_in(ast.parse(p.read_text(encoding="utf-8"))))
    assert naming == ["connection.py", "report.py"]


def test_only_linmaps_reads_or_writes_rows():
    """No module but linmaps names an attribute ``rows`` or
    ``_from_rows``: the others read a map through items() and build one
    with LinMap.from_items, so how a map stores its nonzeros is
    linmaps' decision alone."""
    naming = sorted(p.name for p in SRC.glob("*.py") if p.name != "linmaps.py"
                    and any(isinstance(node, ast.Attribute)
                            and node.attr in ("rows", "_from_rows")
                            for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))))
    assert naming == []


BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = "bound by bench/tracer.py"
INPUTS = "bound by bench/inputs.py"
ENTRY = "console/-m entry point"

# The functions and methods that no module of the package names, outside
# their own definition, __init__.py and an ``if __name__ == "__main__"``
# block, with the reason each stays.  The benchmark in bench/ is not part
# of the package and must keep running unchanged.
UNCALLED = {
    "cli.main": ENTRY,
    "golden.main": ENTRY,
    "extensions.key_identity_check": TRACER,
    "structures.validate_algebra": TRACER,
    "linmaps.LinMap.entries": TRACER,
    "linmaps.LinMap.rank": TRACER,
    "linmaps.Subspace.basis": TRACER,
    "linmaps.Subspace.sum": TRACER,
    "linmaps.Subspace.intersection": TRACER,
    "scalars.Scalar.coeffs": TRACER,
    "linmaps.kron_all": INPUTS,
}


def is_main_block(node) -> bool:
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__")


# how a definition is named: a function by a bare name or an attribute,
# a method only by an attribute, and a property by any attribute read,
# as it is read without a call
FUNCTION, METHOD, PROPERTY = "function", "method", "property"


def namings(tree, kind: str, fields=frozenset()) -> Counter:
    """How often each name is read in tree as a name of kind; a __main__
    block is skipped.  Unless kind is PROPERTY, an attribute read of a
    NamedTuple field (a name in fields) counts only when it is called:
    ``sol.rank`` reads a field, ``m.rank()`` calls a method."""
    counts = Counter()
    called = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if is_main_block(node):
            continue
        if isinstance(node, ast.Call):
            called.add(id(node.func))  # popped before its func
        if isinstance(node, ast.Attribute):
            if kind == PROPERTY or node.attr not in fields or id(node) in called:
                counts[node.attr] += 1
        elif isinstance(node, ast.Name) and kind == FUNCTION:
            counts[node.id] += 1
        stack.extend(ast.iter_child_nodes(node))
    return counts


def namedtuple_fields(trees) -> frozenset:
    """The field names of every NamedTuple class defined in trees."""
    return frozenset(
        item.target.id for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))


def is_property(node) -> bool:
    return any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
               in ("property", "cached_property") for d in node.decorator_list)


def definitions(path: Path, tree):
    """(qualified name, node, kind) of every function and non-dunder
    method defined in the module at path."""
    owner = {id(n): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for n in c.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                not (node.name.startswith("__") and node.name.endswith("__")):
            cls = owner.get(id(node))
            qual = node.name if cls is None else f"{cls}.{node.name}"
            kind = FUNCTION if cls is None else PROPERTY if is_property(node) else METHOD
            yield f"{path.stem}.{qual}", node, kind


def uncalled(paths) -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    naming = [t for p, t in trees.items() if p.name != "__init__.py"]
    fields = namedtuple_fields(trees.values())
    total = {k: sum((namings(t, k, fields) for t in naming), Counter())
             for k in (FUNCTION, METHOD, PROPERTY)}
    return sorted(qual for path, tree in trees.items()
                  for qual, node, kind in definitions(path, tree)
                  if total[kind][node.name] <= namings(node, kind, fields)[node.name])


def test_every_function_and_method_has_a_caller_or_a_reason():
    """A name no program path reaches is either deleted or listed in
    UNCALLED with its reason, so keeping one is a deliberate choice."""
    assert uncalled(sorted(SRC.glob("*.py"))) == sorted(UNCALLED)


def test_each_bench_binding_names_a_bench_file():
    """Each name kept for the benchmark is written in that file."""
    for qual, reason in UNCALLED.items():
        if reason != ENTRY:
            text = (BENCH / reason.rsplit("/", 1)[1]).read_text(encoding="utf-8")
            assert qual.rsplit(".", 1)[1] in text, qual


def test_an_uncalled_function_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "class K:\n"
        "    def used(self): return 1\n"
        "    def unused(self): return self.unused()\n"
        "def f(): return g()\n"
        "def g(): return K().used()\n"
        "def h(): return 1\n"
        "def main(): return h()\n"
        "if __name__ == '__main__':\n"
        "    main()\n")
    (tmp_path / "__init__.py").write_text("from .a import f, g, h\n")
    assert uncalled(sorted(tmp_path.glob("*.py"))) == ["a.K.unused", "a.f", "a.main"]


def test_a_namedtuple_field_read_names_no_method(tmp_path):
    """sol.rank reads Solution's field: it names no method rank, while
    a property is named by a read, and a method by a call."""
    (tmp_path / "a.py").write_text(
        "from typing import NamedTuple\n"
        "class Solution(NamedTuple):\n"
        "    rank: int\n"
        "    dim: int\n"
        "    size: int\n"
        "class M:\n"
        "    def rank(self): return 0\n"
        "    @property\n"
        "    def dim(self): return 0\n"
        "    def size(self): return 0\n"
        "def f(sol, m): return sol.rank + sol.dim + m.dim + m.size()\n")
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    assert uncalled(sorted(tmp_path.glob("*.py"))) == ["a.M.rank", "a.f"]


def loaded_by_import(modules: set[str]) -> list[str]:
    """Which of modules a fresh interpreter holds after it imports
    strongconn and its command."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, strongconn, strongconn.cli; "
         f"print(*sorted({sorted(modules)!r} & sys.modules.keys()))"],
        env=env, capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter imports strongconn and its command without
    dataclasses or inspect: each @dataclass compiles its methods at
    import, and dataclasses itself imports inspect, ast and tokenize."""
    assert loaded_by_import({"dataclasses", "inspect"}) == []


def test_the_command_loads_no_argument_parser():
    """The command line reads its own options: argparse costs imports
    of gettext (and, on its first message, locale) in every run."""
    assert loaded_by_import({"argparse", "gettext", "locale"}) == []
