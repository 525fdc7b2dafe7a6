"""Static check of the package source: no module imports a name it never uses.

No linter ships with the test toolchain, so each module's syntax tree is
walked with the standard library instead.  ``__init__.py`` is left out: its
imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ttforge"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = "import os, sys\nfrom math import gcd, pi\nprint(sys, pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "gcd")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
