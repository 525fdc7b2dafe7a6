"""Timing wrappers around the public functions of each ttforge layer.

A traced run replaces each function listed in ``TARGETS`` by a wrapper in
every ttforge namespace that holds it, so ``ttforge.induced.fold`` is timed
as well as ``ttforge.freegroup.fold``.  Each call becomes a span with its
self time: its duration minus the durations of the spans it called.  Spans
stay in memory; ``Tracer.take`` folds one pass's spans into totals.

Each span also carries the phase of the pass it ran in (the benchmark's own
outermost call) and, under ``verify_package``, the named check whose
statements called it.  Untraced runs never import this module, so they
run the program as shipped.
"""

import ast
import inspect
import sys
import textwrap
import time
from collections import Counter, defaultdict

from ttforge import graphs, induced

# phase of a pass, named by the benchmark's own outermost call
PHASE_OF_ROOT = {
    "randmaps.random_train_track_map": "generate",
    "induced.build_induced": "build",
    "induced.verify_package": "verify",
    "io.write_package": "write",
}


def _image_symbols(m):
    return sum(len(m.dart_image(e)) for e in m.domain.edge_ids)


# every caller passes these arguments by position
def _fold_input(args, kwargs, result):
    return sum(len(loop) for loop in args[2])


def _positive_power_steps(args, kwargs, result):
    if result is None:
        return args[0].dim ** 2
    return result


# (span name, module, attribute, work counter)
TARGETS = (
    ("graphs.compose", "graphs", "compose",
     lambda args, kwargs, result: _image_symbols(result)),
    ("traintrack.is_train_track", "traintrack", "is_train_track", None),
    ("traintrack.transition_matrix", "traintrack", "transition_matrix", None),
    ("traintrack.is_irreducible", "traintrack", "is_irreducible", None),
    ("traintrack.is_expanding", "traintrack", "is_expanding", None),
    ("traintrack.has_positive_power", "traintrack", "has_positive_power",
     _positive_power_steps),
    ("traintrack.pf_eigenvalue", "traintrack", "pf_eigenvalue",
     lambda args, kwargs, result: result.iterations),
    ("freegroup.fold", "freegroup", "fold", _fold_input),
    ("freegroup.kernel_stabilization", "freegroup", "kernel_stabilization",
     None),
    ("freegroup.image_subgroup", "freegroup", "image_subgroup", None),
    ("freegroup.stable_quotient", "freegroup", "stable_quotient", None),
    ("freegroup.pi1_endomorphism", "freegroup", "pi1_endomorphism", None),
    ("covers.lift_graph_map", "covers", "lift_graph_map", None),
    ("covers.based_lift_power", "covers", "based_lift_power",
     lambda args, kwargs, result: _image_symbols(result)),
    ("induced.injectivity_exponent", "induced", "injectivity_exponent", None),
    ("induced.build_induced", "induced", "build_induced", None),
    ("induced.verify_package", "induced", "verify_package", None),
    ("io.write_package", "io", "write_package", None),
    ("randmaps.random_train_track_map", "randmaps", "random_train_track_map",
     None),
)

# The generator's budgeted promotion probe is ``build_induced`` called
# through the randmaps namespace; it gets a span of its own so that the
# workload's build is not mixed with the generator's.
PROBE = ("randmaps.probe_build", "randmaps", "build_induced")


def verify_check_lines(fn):
    """Source line -> name of the ``report.record`` check it belongs to.

    Statements of ``verify_package`` are assigned, in order, to the first
    ``report.record("<name>", ...)`` at or after them, so a value computed
    ahead of the check that first uses it is charged to that check.
    """
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    body = tree.body[0].body
    out = {}
    pending = []
    for stmt in body:
        pending.append(stmt)
        name = None
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "record" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                name = node.args[0].value
                break
        if name is None:
            continue
        for s in pending:
            for ln in range(s.lineno, s.end_lineno + 1):
                out[ln + first - 1] = name
        pending = []
    return out


class Tracer:
    """Span recorder for one worker process."""

    def __init__(self):
        self.stack = []  # open spans: [name, phase, check, child seconds]
        self.spans = []  # (name, self s, total s, phase, check)
        self.counts = Counter()
        self._verify_code = None
        self._check_of_line = {}

    def wrap(self, name, fn, counter=None):
        stack = self.stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter
        verify_name = "induced.verify_package"
        check_of_line = self._check_of_line
        verify_code = self._verify_code

        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                phase, check = parent[1], parent[2]
                if parent[0] == verify_name:
                    frame = sys._getframe(1)
                    while frame is not None and frame.f_code is not verify_code:
                        frame = frame.f_back
                    check = check_of_line.get(
                        frame.f_lineno if frame is not None else None,
                        "unattributed")
            else:
                phase, check = PHASE_OF_ROOT.get(name, name), None
            span = [name, phase, check, 0.0]
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            if counter is not None:
                counts[name] += counter(args, kwargs, result)
            total = t1 - t0
            spans.append((name, total - span[3], total, phase, check))
            if stack:
                # the parent's self time excludes this call and its counting
                stack[-1][3] += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Put wrappers in place of every target, in every ttforge namespace."""
        self._verify_code = induced.verify_package.__code__
        self._check_of_line.update(verify_check_lines(induced.verify_package))
        modules = [m for n, m in sys.modules.items()
                   if n == "ttforge" or n.startswith("ttforge.")]
        probe_name, probe_module, probe_attr = PROBE
        probe_owner = sys.modules["ttforge." + probe_module]
        probe = self.wrap(probe_name, getattr(probe_owner, probe_attr))
        for name, module, attr, counter in TARGETS:
            original = getattr(sys.modules["ttforge." + module], attr)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    if mod is probe_owner and key == probe_attr:
                        setattr(mod, key, probe)
                    else:
                        setattr(mod, key, wrapper)
        graphs.GraphMap.power = self.wrap("graphs.power",
                                          graphs.GraphMap.power)

    def take(self):
        """Totals of the spans recorded since the last call, then forget them."""
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = Counter()
        by_phase = defaultdict(float)
        by_check = defaultdict(float)
        for name, self_time, total, phase, check in self.spans:
            self_s[name] += self_time
            total_s[name] += total
            calls[name] += 1
            by_phase["%s|%s" % (phase, name.split(".")[0])] += self_time
            if phase == "verify" and check is not None:
                by_check[check] += self_time
        out = {"self_s": dict(self_s), "total_s": dict(total_s),
               "calls": dict(calls), "counts": dict(self.counts),
               "by_phase": dict(by_phase), "by_check": dict(by_check)}
        self.spans.clear()
        self.counts.clear()
        return out
