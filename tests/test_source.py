"""Static checks of the package source and of the tools that read it.

No module imports a name it never uses: no linter ships with the test
toolchain, so each module's syntax tree is walked with the standard library
instead.  ``__init__.py`` is left out: its imports are the package's public
names.  A relative import is deferred into a function only to break an
import cycle.  The benchmark's tracer wraps package functions by name and reads
the check names out of ``verify_package``, so those names are pinned too.
The dense view of a transition matrix is read only where it is printed.
Admission, the lift search, the stable quotient and the package layout
each have one home.
Darts and words have one spelling, with no converter between spellings.
The suspension module has one point type and one height check.
The train track routines return plain answers, not self-checking
certificates.  Subgroups and finite covers share one graph type, built
only through its checked constructor, and a trace steps by one lookup.  A
package stores the half lift and derives the transfer only when read.
The suite's reference fixtures are the benchmark's maps.
Every name the scripts under ``scripts/`` import from the package is
checked to exist, and ``build_packages.py`` is run into a fresh directory.  The README's Python quick start and its
sample ``ttforge quotient`` report are run and compared with the output the
README shows.
"""

import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import inspect
import io
import os
import re
import subprocess
import sys
import textwrap
from functools import cached_property
from pathlib import Path

import pytest

import ttforge
from ttforge import cli, freegroup, induced, suspension, traintrack
from ttforge.cli import main
from ttforge.io import PACKAGE_FILES

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


def test_build_packages_writes_every_reference_package(tmp_path):
    # the script reads its maps from perfbench's reference_maps
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "build_packages.py"),
         "--out", str(tmp_path)],
        env=env, timeout=120, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    names = ["cyc2", "fib", "pre1_r2", "pre1_r3", "sigma", "stab2", "stab3"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert sorted(p.name for p in (tmp_path / name).iterdir()) \
            == sorted(PACKAGE_FILES), name


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


def node_sites(source, matches):
    """Qualified names of the functions holding a node ``matches`` accepts.

    Sorted.  Methods are named ``Class.method``; a node outside any
    function is named by its class, or ``""`` at module level.
    """
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if matches(child):
                sites.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(sites)


def attribute_readers(source, attr):
    """Qualified names (as in :func:`node_sites`) of the readers of ``.attr``."""
    return node_sites(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == attr
        and isinstance(node.ctx, ast.Load)))


def test_detects_attribute_readers():
    source = ("class M:\n"
              "    rows = 1\n"
              "    def show(self):\n"
              "        return [r for r in self.rows]\n"
              "    def set(self, x):\n"
              "        self.rows = x\n"
              "def total(m):\n"
              "    def inner():\n"
              "        return m.rows\n"
              "    return inner()\n"
              "print(M().rows)\n")
    assert attribute_readers(source, "rows") == ["", "M.show", "total.inner"]


def test_dense_rows_only_at_print_boundaries():
    """Matrix routines walk sparse rows; the dense view is for printing."""
    readers = {(p.stem, name) for p in SRC.glob("*.py") for name in
               attribute_readers(p.read_text(encoding="utf-8"), "rows")}
    assert readers == {("cli", "cmd_analyze"),
                       ("traintrack", "TransitionMatrix.to_text")}


def test_one_pass_over_the_positivity_digraph():
    """Irreducibility, expansion and invariant subgraphs read one condensation.

    Outside ``TransitionMatrix`` itself, the digraph is walked only by
    ``_condensation``, by the period search ``period`` and by the
    primitivity walk ``has_positive_power``.
    """
    readers = {(p.stem, name) for p in SRC.glob("*.py") for name in
               attribute_readers(p.read_text(encoding="utf-8"), "adjacency")
               if not name.startswith("TransitionMatrix")}
    assert readers == {("traintrack", "_condensation"),
                       ("traintrack", "period"),
                       ("traintrack", "has_positive_power")}


WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def file_writers(source):
    """Qualified names of the functions that open a file for writing, sorted.

    A call opens for writing when it is an ``open`` (builtin, ``os.open``
    or a method) given a mode string holding w, a, x or +, or a flag
    naming a write; ``write_text`` and ``write_bytes`` always do.  Names
    are as in :func:`node_sites`.
    """

    def opens_for_writing(call):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        if name in ("write_text", "write_bytes"):
            return True
        if name != "open":
            return False
        # the builtin and os.open take the path first, Path.open does not
        path_first = isinstance(func, ast.Name) or (
            isinstance(func.value, ast.Name) and func.value.id == "os")
        modes = call.args[1 if path_first else 0:] + [
            k.value for k in call.keywords if k.arg in ("mode", "flags")]
        for mode in modes:
            if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                if set(mode.value) & set("wax+"):
                    return True
            elif any(getattr(n, "attr", getattr(n, "id", None)) in WRITE_FLAGS
                     for n in ast.walk(mode)):
                return True
        return False

    return node_sites(source, lambda node: (
        isinstance(node, ast.Call) and opens_for_writing(node)))


def test_detects_file_writers():
    source = ("import os\n"
              "def read(p):\n"
              "    return open(p, encoding='utf-8').read(), open(p, 'rb')\n"
              "def text(p):\n"
              "    with open(p, 'w') as fh:\n"
              "        fh.write('x')\n"
              "def raw(p):\n"
              "    os.close(os.open(p, os.O_WRONLY | os.O_CREAT, 0o666))\n"
              "def raw_read(p):\n"
              "    os.close(os.open(p, os.O_RDONLY))\n"
              "class Store:\n"
              "    def save(self, path):\n"
              "        path.write_text('x')\n"
              "    def append(self, path):\n"
              "        return path.open(mode='a')\n"
              "open('log', 'a+').close()\n")
    assert file_writers(source) == [
        "", "Store.append", "Store.save", "raw", "text"]


def test_only_io_writes_files():
    """Every file the package writes goes through ``io._write_text``."""
    writers = {(p.stem, name) for p in SRC.glob("*.py")
               for name in file_writers(p.read_text(encoding="utf-8"))}
    assert writers == {("io", "_write_text")}


def test_io_loads_no_openssl():
    """Digests use the interpreter's built-in SHA-256 when it has one."""
    code = ("import importlib.util, sys\n"
            "import ttforge.io\n"
            "print(any(importlib.util.find_spec(name)\n"
            "          for name in ('_sha2', '_sha256')),\n"
            "      '_hashlib' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    if out[0] != "True":
        pytest.skip("no built-in sha256 in this interpreter")
    assert out[1] == "False"


def function_sites(source, name):
    """Whether ``source`` defines and whether it calls a function ``name``.

    A call counts by plain name or as an attribute; a definition at any
    depth counts.
    """
    defines = calls = False
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defines = defines or node.name == name
        elif isinstance(node, ast.Call):
            func = node.func
            calls = calls or name in (getattr(func, "id", None),
                                      getattr(func, "attr", None))
    return defines, calls


def test_detects_function_sites():
    source = ("import m\n"
              "def f():\n    return m.g(1)\n"
              "class C:\n    def h(self):\n        return f()\n")
    assert function_sites(source, "f") == (True, True)
    assert function_sites(source, "g") == (False, True)
    assert function_sites(source, "h") == (True, False)


PACKAGE_SOURCES = {p.stem: p.read_text(encoding="utf-8")
                   for p in SRC.glob("*.py")}


def test_one_lift_search():
    """Every traced lift goes through covers.py; others call lift_graph_map."""
    callers = {module for module, source in PACKAGE_SOURCES.items()
               if function_sites(source, "lift_by_tracing")[1]}
    assert callers == {"covers"}


def test_one_admission_chain():
    """Build, the generator and proptest share traintrack's chain."""
    homes = {module for module, source in PACKAGE_SOURCES.items()
             if function_sites(source, "certification_failure")[0]}
    assert homes == {"traintrack"}


def test_one_stable_quotient_entry_point():
    """The quotient reads build's image chain; no endomorphism route."""
    assert [module for module, source in PACKAGE_SOURCES.items()
            if "chain_quotient" in source] == []
    body = inspect.getsource(freegroup.stable_quotient)
    assert function_sites(body, "image_chain")[1]
    command = inspect.getsource(cli.cmd_quotient)
    assert function_sites(command, "stable_quotient")[1]
    for source in (body, command):
        assert not function_sites(source, "power")[1]
    assert [module for module, source in PACKAGE_SOURCES.items()
            if function_sites(source, "pi1_endomorphism")[1]
            or "is_injective_on" in source] == []


def test_package_layout_is_known_to_io_only():
    """Only ``io`` names the files of a package directory."""
    names = {module for module, source in PACKAGE_SOURCES.items()
             if node_sites(source, lambda node: (
                 isinstance(node, ast.Constant)
                 and node.value in PACKAGE_FILES))}
    assert names == {"io"}


def tilde_sites(source):
    """Qualified names (as in :func:`node_sites`) of strings starting ``~``."""
    return node_sites(source, lambda node: (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("~")))


def test_detects_tilde_sites():
    source = ("T = '~'\n"
              "def f(d):\n"
              "    return d in ('~', '-') or 'a ~ b'\n"
              "class C:\n"
              "    def g(self):\n"
              "        return '~x'\n")
    assert tilde_sites(source) == ["", "C.g", "f"]


SPELLING_CONVERTERS = ("dart_token", "token_dart", "format_path",
                       "reduce_tokens", "_tokens_to_text")


def test_one_dart_spelling():
    """Darts, path text and generator words all mark an inverse with ``-``.

    Nothing converts between spellings, and ``~`` survives only where edge
    ids starting with it are rejected.
    """
    for name in SPELLING_CONVERTERS:
        assert not hasattr(ttforge, name), name
        assert [module for module, source in PACKAGE_SOURCES.items()
                if function_sites(source, name)[0]] == [], name
    sites = {(module, name) for module, source in PACKAGE_SOURCES.items()
             for name in tilde_sites(source)}
    assert sites == {("graphs", "_check_id")}


def defined_names(source):
    """Names a module defines (classes, functions, methods) or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_detects_defined_names():
    source = ("from m import a, b as c\n"
              "def f():\n    return a\n"
              "class C:\n    @property\n    def p(self):\n        return c\n")
    assert defined_names(source) == {"a", "c", "f", "C", "p"}


def test_one_suspension_space():
    """A cover descriptor is the mapping torus of its lift.

    One point type, one height check, and no property restating the
    exponent.
    """
    retired = {"CoverPoint", "_check_period", "dual_index"}
    assert {(module, name) for module, source in PACKAGE_SOURCES.items()
            for name in defined_names(source) & retired} == set()
    assert issubclass(suspension.CoverDescriptor, suspension.MappingTorus)


def test_pair_reads_a_verified_package():
    """The flow-homotopy pair re-checks nothing verify certifies.

    It builds no composite or power of a map, and a point is tracked dart
    by dart rather than through a rebuilt iterated path.
    """
    retired = {"_image_coordinate", "_exact_realization", "seam_crossings"}
    assert defined_names(PACKAGE_SOURCES["suspension"]) & retired == set()
    source = inspect.getsource(suspension.FlowHomotopyPair)
    assert "compose(" not in source and ".power(" not in source


def test_train_track_answers_carry_no_check():
    """Train track routines return answers; `verify_package` re-checks."""
    retired = {"closure_of_taken", "is_legal", "LegalLoop",
               "InvariantSubgraphWitness"}
    assert {(module, name) for module, source in PACKAGE_SOURCES.items()
            for name in defined_names(source) & retired} == set()
    g = ttforge.rose(["a", "b"])
    f = ttforge.GraphMap(g, g, {"v": "v"}, {"a": "a b", "b": "a"})
    assert not hasattr(traintrack.is_train_track(f), "check")


def test_one_subgroup_graph_type():
    """A finite cover is the pointed `SubgroupGraph` Hall completion returns.

    No second labeled-graph type and no component helper; one table of
    iterated image lengths; no helper that only the tests read.
    """
    retired = {"LabeledGraph", "_component_containing", "_transfer_size",
               "basis_names", "basis_images", "summary"}
    assert {(module, name) for module, source in PACKAGE_SOURCES.items()
            for name in defined_names(source) & retired} == set()
    assert not hasattr(ttforge, "LabeledGraph")
    source = inspect.getsource(suspension.make_cover_descriptor)
    assert "is_covering(" not in source


def method_source(method):
    """The dedented source of a method, ready for `ast.parse`."""
    return textwrap.dedent(inspect.getsource(method))


def test_one_path_from_fold_table_to_trace():
    """One fold loop, one graph constructor, one lookup per traced step.

    The fold table is a single loop with no helper closures.  No module
    builds a graph through ``__new__``, so every core passes the checked
    constructors.  A trace reads each dart and its terminus off the step
    table, without asking for either separately.
    """
    table = ast.parse(method_source(freegroup._Folding.table.func))
    functions = [getattr(node, "name", "lambda") for node in ast.walk(table)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda))]
    assert functions == ["table"]
    sites = {(module, name) for module, source in PACKAGE_SOURCES.items()
             for name in node_sites(source, lambda node: (
                 isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "__new__"))}
    assert sites == {("traintrack", "TransitionMatrix.from_entries")}
    trace = method_source(freegroup.SubgroupGraph.trace)
    for name in ("step", "terminus"):
        assert not function_sites(trace, name)[1], name


def test_transfer_is_derived_on_demand():
    """Build, verify and write read the half lift, never the transfer.

    The transfer P, of size about the growth rate to the power K, is the
    package's cached property; no code in `induced` or `io` reads it.
    """
    reads = [(module, node.lineno) for module in ("induced", "io")
             for node in ast.walk(ast.parse(PACKAGE_SOURCES[module]))
             if isinstance(node, ast.Attribute) and node.attr == "transfer"]
    assert reads == []
    assert isinstance(inspect.getattr_static(induced.InducedPackage,
                                             "transfer"), cached_property)
    assert "half_transfer.json" in PACKAGE_FILES
    assert "transfer.json" not in PACKAGE_FILES


def test_package_stores_each_fact_once():
    """The core is the one home of its labeling and basepoint.

    The projection is read off the core, as the transfer is read off the
    half lift, so no field, file or verify comparison holds a second copy;
    every stored map is checked by the one graph-map validator.
    """
    fields = {f.name for f in dataclasses.fields(induced.InducedPackage)}
    assert fields & {"projection", "basepoint"} == set()
    for name in ("projection", "transfer"):
        assert isinstance(inspect.getattr_static(induced.InducedPackage,
                                                 name), cached_property)
    assert "projection.json" not in PACKAGE_FILES
    assert [module for module, source in PACKAGE_SOURCES.items()
            if function_sites(source, "_is_path_map")[0]] == []
    verify = ast.parse(inspect.getsource(induced.verify_package))
    validated = {arg.id for node in ast.walk(verify)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "validate"
                 for arg in node.args if isinstance(arg, ast.Name)}
    assert "H" in validated


def vertex_scans(source):
    """The iterables of every comprehension over a ``.vertices`` attribute."""
    return sorted(ast.unparse(node.iter) for node in ast.walk(
        ast.parse(source)) if isinstance(node, ast.comprehension)
        and isinstance(node.iter, ast.Attribute)
        and node.iter.attr == "vertices")


def test_detects_vertex_scans():
    source = ("a = {v: f(v) for v in graph.vertices}\n"
              "b = all(p(x) for x in core.ambient.vertices)\n"
              "c = [e for e in graph.edge_ids]\n")
    assert vertex_scans(source) == ["core.ambient.vertices",
                                    "graph.vertices"]


def test_transfer_identities_read_one_vertex():
    """Verify decides P p = fbar^K and P f = fbar P at one vertex.

    Lifts through the immersed core that agree at one vertex of a connected
    graph agree everywhere, so verify builds no vertex table of P or of
    fbar^m and scans no vertex set, and it checks that both graphs are
    connected.
    """
    source = inspect.getsource(induced.verify_package)
    assert vertex_scans(source) == []
    connected = {ast.unparse(node.func.value)
                 for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) == "is_connected"}
    assert connected == {"graph", "ambient"}


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


def test_reference_fixtures_are_the_benchmark_maps(named_fixture_maps):
    """The suite's seven reference fixtures are the benchmark's, image for
    image, in the same order."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = {name: f for name, f, _expect in workloads.reference_maps()}
    assert list(reference) == list(named_fixture_maps)
    for name, f in reference.items():
        mine = named_fixture_maps[name]
        assert (mine.domain, mine.codomain, mine.vertex_map) == (
            f.domain, f.codomain, f.vertex_map), name
        assert [mine.dart_image(e) for e in mine.domain.edge_ids] == [
            f.dart_image(e) for e in f.domain.edge_ids], name


README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(text, after, lang):
    """The first ``lang`` fenced block that follows the line ``after``."""
    start = text.index(after)
    match = re.compile(r"```%s\n(.*?)```" % lang, re.S).search(text, start)
    return match.group(1)


def shown_output(code):
    """The output a code block shows in comments, one entry per ``print``.

    A ``print`` line's trailing comment is its entry.  A ``print`` line
    without one takes the comment-only lines right after it instead, joined
    by one space, so a long output can wrap.
    """
    shown = []
    continuing = False
    for line in code.splitlines():
        statement, _, comment = line.partition("#")
        if statement.strip().startswith("print("):
            shown.append(comment.strip())
            continuing = not comment
        elif continuing and not statement.strip() and comment:
            shown[-1] = (shown[-1] + " " + comment.strip()).strip()
        else:
            continuing = False
    return shown


def test_shown_output_reads_wrapped_comments():
    code = ("x = 1\nprint(x)\n# {'a': 1,\n#  'b': 2}\n\n"
            "print(True)   # True\n# not output\n")
    assert shown_output(code) == ["{'a': 1, 'b': 2}", "True"]


def test_readme_quick_start_prints_what_it_shows():
    code = fenced_block(README, "## Quick start", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == shown_output(code)


def test_readme_quotient_report(monkeypatch, capsys):
    command = re.search(r"For example, `(ttforge quotient [^`]*)` reports",
                        README).group(1)
    monkeypatch.chdir(ROOT)
    assert main(command.split()[1:]) == 0
    assert capsys.readouterr().out == fenced_block(
        README, command + "` reports", "text")
