"""Static checks of the package source and of the tools that read it.

No module imports a name it never uses: no linter ships with the test
toolchain, so each module's syntax tree is walked with the standard library
instead.  ``__init__.py`` is left out: its imports are the package's public
names.  The benchmark's tracer wraps package functions by name and reads
the check names out of ``verify_package``, so those names are pinned too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from ttforge import induced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ttforge"
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


VERIFY_CHECKS = {
    "projection_commutes", "transfer_covers_power",
    "transfer_after_projection", "equivariance", "constant_consistent",
    "exponent_matches_stabilization", "induced_train_track",
    "induced_irreducible", "induced_expanding", "positive_power_transfer",
    "growth_rate", "induced_pi1_injective", "core_shape",
    "rank_matches_quotient", "transfer_onto_core",
}


def test_perfbench_targets_resolve():
    """Every function the tracer wraps exists, and it sees every check."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(name, module, attr)
               for name, module, attr, _counter in spans.TARGETS]
    for name, module, attr in targets + [spans.PROBE]:
        owner = importlib.import_module("ttforge." + module)
        assert callable(getattr(owner, attr, None)), name
    checks = set(spans.verify_check_lines(induced.verify_package).values())
    assert checks == VERIFY_CHECKS
