"""Every name a strongconn module imports is used in that module,
importing the package and its command stays cheap, the laws are
checked by one evaluator, and only linmaps reads or writes a map's rows.

__init__.py is left out: it imports names to re-export them.  A
``from __future__`` import is a compiler directive, not a name.
"""

import ast
import os
import subprocess
import sys
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
