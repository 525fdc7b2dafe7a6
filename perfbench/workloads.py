"""Workload inputs for the promotion benchmark and their known answers.

Three workloads, each a list of maps promoted with ``build_induced`` and
checked with ``verify_package``:

* ``ring``: the period-n cycle family, rungs n = 2..6.  Injective on the
  fundamental group, verify-bound on a large core.
* ``collapse_ring``: the two-strand version of the same cycle, rungs
  n = 2..6.  Not injective (rank n+1 drops to 1, stabilization 1), the
  regime the promotion exists for; build costs about as much as verify.
* ``corpus``: the seven reference maps and ``CORPUS_SIZE`` random maps
  generated the way ``ttforge proptest`` seeds its cases, from the fixed
  ``CORPUS_SEED``.  Many tiny maps, dominated by generator rejection and
  per-call overhead.

Every map carries the constants it must produce, so a pass can tell a
wrong answer from a slow one.  The benchmark's seed shuffles the order in
which a pass runs the maps; it does not change the maps.  The corpus seed
is fixed because promotion cost is heavy-tailed: about two generated maps
in a thousand take 0.75 s or more, against a median of about 11 ms, so 300
maps drawn afresh for each benchmark seed would spread a pass's time by
about a quarter across seeds.
"""

import random

from ttforge import randmaps
from ttforge.graphs import GraphMap, SerreGraph, rose

RUNGS = (2, 3, 4, 5, 6)
# Rungs up to 4 take well under a second, against several seconds for n=6,
# so a run would time them only as often as it times n=6.  An untraced pass
# promotes each of them this many times instead, which gives the per-map
# medians (map_p50_ms is the n=4 rung) enough samples at a small cost.
CHEAP_RUNG_MAX = 4
CHEAP_RUNG_REPEATS = 5
CORPUS_SIZE = 300
# the seed of the test suite's corpus
CORPUS_SEED = 20260817
# random_train_track_map's bounds, as ``ttforge proptest`` passes them
MAX_EDGES = 6
MAX_IMAGE_LEN = 4
BUILD_BUDGET = 200000


class Case:
    """One map to promote, with the answers the promotion must give.

    ``expect`` maps package constants (and ``transfer_symbols``) to exact
    values.  ``make(stats)`` returns the map: generated cases run the
    generator there, counting into the ``GenerationStats`` passed in, and
    that generation is timed as part of the pass.  An untraced pass
    promotes the case ``repeats`` times.
    """

    def __init__(self, name, make, expect, rung=None):
        self.name = name
        self.make = make
        self.expect = expect
        self.rung = rung
        cheap = rung is not None and rung <= CHEAP_RUNG_MAX
        self.repeats = CHEAP_RUNG_REPEATS if cheap else 1


def _names(prefix, n):
    return ["%s%d" % (prefix, i) for i in range(n)]


def ring(n):
    """Vertices u_i, edges c_i: u_i -> u_{i+1}; c_{n-1} -> c_0 ... c_{n-1} c_0."""
    u = _names("u", n)
    c = _names("c", n)
    graph = SerreGraph(u, [(c[i], u[i], u[(i + 1) % n]) for i in range(n)])
    images = {c[i]: (c[i + 1],) for i in range(n - 1)}
    images[c[n - 1]] = tuple(c) + (c[0],)
    vertex_map = {u[i]: u[(i + 1) % n] for i in range(n)}
    return GraphMap(graph, graph, vertex_map, images)


def ring_expect(n):
    return {"constant": 2 * n, "core_edges": n * 2 ** n,
            "transfer_symbols": n * 4 ** n, "stabilization": 0,
            "period": n, "core_rank": 1}


def collapse_ring(n):
    """Two strands a_i, b_i: u_i -> u_{i+1}; both last edges -> a_0 ... a_{n-1} b_0."""
    u = _names("u", n)
    a = _names("a", n)
    b = _names("b", n)
    edges = []
    for i in range(n):
        edges.append((a[i], u[i], u[(i + 1) % n]))
        edges.append((b[i], u[i], u[(i + 1) % n]))
    graph = SerreGraph(u, edges)
    images = {}
    for i in range(n - 1):
        images[a[i]] = (a[i + 1],)
        images[b[i]] = (b[i + 1],)
    tail = tuple(a) + (b[0],)
    images[a[n - 1]] = tail
    images[b[n - 1]] = tail
    vertex_map = {u[i]: u[(i + 1) % n] for i in range(n)}
    return GraphMap(graph, graph, vertex_map, images)


def collapse_ring_expect(n):
    return {"constant": 2 * n, "core_edges": n * 2 ** n,
            "transfer_symbols": n * 2 ** (2 * n + 1), "stabilization": 1,
            "period": n, "core_rank": 1}


def _rose_map(labels, images):
    g = rose(labels)
    return GraphMap(g, g, {"v": "v"}, images)


def reference_maps():
    """The reference maps of ``scripts/build_packages.py`` with their constants.

    They are the only inputs with stabilization 2 or 3, or with a preperiod
    upstairs.  Their expected constants are the ones the reference packages
    were built with.
    """
    cyc2 = SerreGraph(["u", "w"], [("c1", "u", "w"), ("c2", "w", "u")])
    pre2 = SerreGraph(["v0", "v1", "v2"],
                      [("e0", "v0", "v1"), ("e1", "v2", "v1"),
                       ("e2", "v0", "v2")])
    pre3 = SerreGraph(["v0", "v1", "v2"],
                      [("e0", "v0", "v1"), ("e1", "v2", "v0"),
                       ("e2", "v2", "v1")])
    maps = {
        "sigma": _rose_map(["a", "b"], {"a": "a b", "b": "a b"}),
        "fib": _rose_map(["a", "b"], {"a": "b", "b": "a b"}),
        "cyc2": GraphMap(cyc2, cyc2, {"u": "w", "w": "u"},
                         {"c1": "c2", "c2": "c1 c2 c1"}),
        "stab2": _rose_map(["e0", "e1", "e2", "e3", "e4"], {
            "e0": "-e1 -e3", "e1": "e2", "e2": "e0 -e2 -e2 e4",
            "e3": "e2", "e4": "-e3"}),
        "stab3": _rose_map(["e0", "e1", "e2", "e3", "e4"], {
            "e0": "e1 e3", "e1": "e4", "e2": "-e4", "e3": "-e0",
            "e4": "-e3 e2"}),
        "pre1_r2": GraphMap(pre2, pre2,
                            {"v0": "v2", "v1": "v0", "v2": "v0"}, {
                                "e0": "e1 -e0", "e1": "e0 -e1 -e2",
                                "e2": "-e2 e0 -e1 -e2"}),
        "pre1_r3": GraphMap(pre3, pre3,
                            {"v0": "v1", "v1": "v2", "v2": "v0"}, {
                                "e0": "-e2", "e1": "e0",
                                "e2": "-e1 e2 -e0 -e1"}),
    }
    return [(name, maps[name], REFERENCE_CONSTANTS[name]) for name in maps]


def _ref(period, exponent, preperiod, constant, core_rank, core_edges,
         stabilization, transfer_symbols):
    return {"period": period, "exponent": exponent, "preperiod": preperiod,
            "constant": constant, "core_rank": core_rank,
            "core_edges": core_edges, "stabilization": stabilization,
            "transfer_symbols": transfer_symbols}


REFERENCE_CONSTANTS = {
    "sigma": _ref(1, 1, 0, 2, 1, 2, 1, 8),
    "fib": _ref(1, 1, 0, 2, 2, 2, 0, 5),
    "cyc2": _ref(2, 1, 1, 4, 1, 8, 0, 32),
    "stab2": _ref(1, 2, 0, 4, 3, 16, 2, 145),
    "stab3": _ref(1, 3, 0, 6, 2, 6, 3, 40),
    "pre1_r2": _ref(2, 1, 1, 4, 1, 27, 0, 243),
    "pre1_r3": _ref(3, 1, 1, 6, 1, 24, 0, 192),
}


def _constant(value):
    return lambda stats: value


def _generated(index):
    def make(stats):
        rng = random.Random("%s:%d" % (CORPUS_SEED, index))
        return randmaps.random_train_track_map(
            rng, MAX_EDGES, MAX_IMAGE_LEN, BUILD_BUDGET, stats)
    return make


def cases(workload, seed):
    """The maps of one pass, in the order the pass runs them."""
    if workload == "ring":
        out = [Case("ring%d" % n, _constant(ring(n)), ring_expect(n), rung=n)
               for n in RUNGS]
    elif workload == "collapse_ring":
        out = [Case("collapse_ring%d" % n, _constant(collapse_ring(n)),
                    collapse_ring_expect(n), rung=n) for n in RUNGS]
    elif workload == "corpus":
        out = [Case(name, _constant(f), expect)
               for name, f, expect in reference_maps()]
        out.extend(Case("m%d" % i, _generated(i), {})
                   for i in range(CORPUS_SIZE))
    else:
        raise ValueError("unknown workload %r" % workload)
    random.Random("%s:%s" % (workload, seed)).shuffle(out)
    return out


def warmup_maps(workload):
    """Small maps promoted once before timing, so first-call costs stay out.

    For ``corpus`` that includes two generated maps, from case seeds that no
    measured pass uses.
    """
    if workload == "ring":
        return [ring(2), ring(3)]
    if workload == "collapse_ring":
        return [collapse_ring(2), collapse_ring(3)]
    maps = [f for _name, f, _expect in reference_maps()]
    for i in range(2):
        maps.append(randmaps.random_train_track_map(
            random.Random("warmup:%d" % i), MAX_EDGES, MAX_IMAGE_LEN,
            BUILD_BUDGET))
    return maps


WORKLOADS = ("ring", "collapse_ring", "corpus")
