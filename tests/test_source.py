"""Static checks of the package source and of the tools that read it.

No module imports a name it never uses: no linter ships with the test
toolchain, so each module's syntax tree is walked with the standard library
instead.  ``__init__.py`` is left out: its imports are the package's public
names.  A relative import is deferred into a function only to break an
import cycle.  The benchmark's tracer wraps package functions by name and reads
the check names out of ``verify_package``, so those names are pinned too.
No test runs the scripts under ``scripts/``, so every name they import from
the package is checked to exist.
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
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


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


def unread_private_functions(sources):
    """(module, name) of each module-level ``_name`` function nothing reads.

    ``sources`` maps module names to source text.  A function counts as read
    when some other top-level statement of any module names it, as a name,
    an attribute or an imported alias; its own body does not count, so a
    helper that only calls itself is still reported.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                defined.append((module, stmt.name))
                names.discard(stmt.name)
            read |= names
    return sorted(entry for entry in defined if entry[1] not in read)


def test_detects_an_unread_private_function():
    sources = {
        "a": "def _used():\n    pass\n"
             "def _recursive():\n    return _recursive()\n"
             "def f():\n    return _used()\n",
        "b": "from .c import _imported\n"
             "def _only_defined():\n    pass\n"
             "def _by_attribute():\n    pass\n"
             "x = a._by_attribute\n",
        "c": "def _imported():\n    pass\n",
    }
    assert unread_private_functions(sources) == [
        ("a", "_recursive"), ("b", "_only_defined")]


def test_no_unread_private_functions():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unread_private_functions(sources) == []


def unresolved_package_imports(source, package="ttforge"):
    """(line, module, name) of each ``from package... import name`` that fails.

    ``name`` is None when the module itself does not import.  A name may be
    an attribute of the module or one of its submodules.
    """
    missing = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == package):
            continue
        try:
            owner = importlib.import_module(node.module)
        except ImportError:
            missing.append((node.lineno, node.module, None))
            continue
        for alias in node.names:
            if hasattr(owner, alias.name):
                continue
            try:
                importlib.import_module(node.module + "." + alias.name)
            except ImportError:
                missing.append((node.lineno, node.module, alias.name))
    return sorted(missing, key=lambda entry: entry[0])


def test_detects_an_unresolved_package_import():
    source = ("import os\n"
              "from ttforge.graphs import rose, no_such_name\n"
              "from ttforge.no_such_module import rose\n"
              "from ttforge import io, induced\n"
              "from os.path import no_such_name\n")
    assert unresolved_package_imports(source) == [
        (2, "ttforge.graphs", "no_such_name"),
        (3, "ttforge.no_such_module", None)]


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports_resolve(script):
    source = (ROOT / "scripts" / script).read_text(encoding="utf-8")
    assert unresolved_package_imports(source) == []


def _import_targets(node, modules):
    """Modules of the package that a relative ``from`` import loads."""
    if node.module:
        return [node.module.split(".")[0]]
    return [a.name if a.name in modules else "__init__" for a in node.names]


def needless_local_imports(sources):
    """(module, function, target) of each needless function-local import.

    ``sources`` maps each module of a package (``__init__`` included) to its
    source.  A relative import inside a function is needed only when its
    target imports the importing module at top level, directly or
    transitively, since only that cycle fails at import time.
    """
    top = {module: set() for module in sources}
    local = set()

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(module, child, function or child.name)
            elif isinstance(child, ast.ImportFrom) and child.level:
                for target in _import_targets(child, sources):
                    if function is None:
                        top[module].add(target)
                    else:
                        local.add((module, function, target))
            else:
                visit(module, child, function)

    for module, source in sources.items():
        visit(module, ast.parse(source), None)

    def reaches(start, goal):
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for nxt in top.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    return sorted(entry for entry in local if not reaches(entry[2], entry[0]))


def test_detects_a_needless_local_import():
    sources = {
        "__init__": "__version__ = '1'\nfrom .a import f\n",
        "a": "from .b import g\ndef f():\n    from .c import h\n",
        "b": "def g():\n    from .a import f\n"
             "def k():\n    from . import __version__\n",
        "c": "class C:\n    def h(self):\n        from . import __version__\n",
    }
    # a imports b, and __init__ imports b through a, so both of b's local
    # imports close a cycle; c is imported by nothing at top level
    assert needless_local_imports(sources) == [
        ("a", "f", "c"), ("c", "h", "__init__")]


def test_no_needless_local_imports():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert needless_local_imports(sources) == []


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
