"""The shape of src/pichan: which modules each module loads, no import
that a module of src/pichan or tests does not use, which classes compare
by value, and no function, class or method that nothing names.

core holds the program model.  The front end (parser, typecheck) and the
back end (xir, interop, vm) each build on core and diag, never on each
other, so a tool that embeds the back end loads no parser or checker.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PERFBENCH = TESTS.parent / "perfbench"
FRONT_END = {"pichan.parser", "pichan.typecheck"}
BACK_END = {"pichan.xir", "pichan.interop", "pichan.vm"}

# module -> the pichan modules that importing it must not load
LAYERS = {
    "pichan.xir": FRONT_END | {"pichan.interop", "pichan.vm"},
    "pichan.vm": FRONT_END,
    "pichan.parser": BACK_END,
    "pichan.typecheck": BACK_END,
}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_import_loads_no_other_layer(module):
    # -S: no site hook loads modules before pichan does
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
         f"print(*sorted(m for m in sys.modules if m.startswith('pichan')))",
         str(SRC)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert module in loaded and "pichan.core" in loaded
    assert loaded & LAYERS[module] == set()


def unused_imports(source: str) -> list:
    """The names that source imports (anywhere, __future__ aside) and never
    reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path", sorted((SRC / "pichan").glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent != TESTS else f"tests/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_re_exports():
    source = ("from __future__ import annotations\n"
              "import json, xml.etree.ElementTree as ET\n"
              "from .core import INT, Program\n"
              "def f():\n    from . import vm\n    return ET, INT\n")
    assert unused_imports(source) == ["Program", "json", "vm"]


def _modules() -> list:
    """(module name, parsed tree) of each module of src/pichan."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((SRC / "pichan").glob("*.py"))]


def test_only_values_and_names_define_equality():
    # nodes, programs, declarations and the other records compare by
    # identity; a value compares by class and field, a name by its id
    found = set()
    for module, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                names = ([stmt.name] if isinstance(stmt, ast.FunctionDef)
                         else [t.id for t in getattr(stmt, "targets", ())
                               if isinstance(t, ast.Name)])
                found.update((module, cls.name, n) for n in names
                             if n in ("__eq__", "__ne__", "__hash__"))
    assert found == {("core", cls, method) for cls in ("Value", "Name")
                     for method in ("__eq__", "__hash__")}


# named by no code today; ROADMAP item 8 prints it from `run`
UNNAMED_ALLOWED = {"HostRegistry.effect_log_lines"}


def names_used(source: str) -> set:
    """Every identifier that source reads, imports or writes in a string
    (perfbench names what it patches in strings), docstrings aside."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and type(node.value) is str
              and id(node) not in docstrings):
            used.update(re.findall(r"\w+", node.value))
    return used


def test_every_definition_is_named():
    # cli.main, the entry point, is named where cli runs as a script
    used = set()
    for path in (sorted((SRC / "pichan").glob("*.py"))
                 + sorted(PERFBENCH.glob("*.py"))):
        used |= names_used(path.read_text(encoding="utf-8"))
    unnamed = set()
    for _, tree in _modules():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):  # dunders: Python calls them
                defined += [(f"{node.name}.{m.name}", m.name)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.endswith("__")]
            unnamed.update(qual for qual, name in defined if name not in used)
    assert unnamed == UNNAMED_ALLOWED


def test_names_used_skips_docstrings():
    source = ('"""f g"""\nclass C:\n    """h"""\n    def m(self):\n'
              '        """i"""\n        return k.attr, "j.l"\n')
    assert names_used(source) == {"k", "attr", "j", "l"}
