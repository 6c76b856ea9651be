"""The shape of src/pichan: which modules each module loads, and no import
that a module of src/pichan or tests does not use.

core holds the program model.  The front end (parser, typecheck) and the
back end (xir, interop, vm) each build on core and diag, never on each
other, so a tool that embeds the back end loads no parser or checker.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
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
