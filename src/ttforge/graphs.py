"""Serre graphs, dart paths, and graph maps.

Conventions used throughout the package:

* A graph is a finite Serre graph: a set of darts (oriented edges) with a
  fixed-point-free involution and an origin map to the vertex set.  We build
  graphs from unoriented edge data ``(edge_id, origin, terminus)``; the edge id
  names the positively oriented dart and the reversed dart gets a ``-``
  prefix, which is also how text writes it (``"a -b"``).  Edge ids therefore
  may not start with ``-``; ``~`` is rejected too.
* The canonical representative of an unoriented edge is its positive dart,
  the edge id.  Darts are ordered by :func:`dart_key`, every positive dart
  before every reversed one; everything that needs a reproducible order
  (out-darts, transition matrices, certificates, serialized reports) uses it
  or sorts edge ids.
* An edge path is a tuple of dart ids in which consecutive darts are
  incident; :func:`reduce_darts` is its free reduction.  Words in abstract
  generators are spelled the same way, generator names standing for edges.
* A graph map sends vertices to vertices and darts to nontrivial edge paths,
  compatibly with the involution.  Iteration is by substitution *without* free
  reduction; train track maps keep such substitutions reduced, which is what
  the rest of the package exploits for bit-exact identity checking.
"""

from __future__ import annotations

from itertools import chain

INV_PREFIX = "-"


def inv(dart):
    """Inverse dart: toggle the ``-`` prefix."""
    if dart[:1] == INV_PREFIX:
        return dart[1:]
    return INV_PREFIX + dart


def is_positive(dart):
    return dart[:1] != INV_PREFIX


def edge_of(dart):
    """The unoriented edge through ``dart``: its positive dart, the edge id."""
    return dart[1:] if dart[:1] == INV_PREFIX else dart


def dart_key(dart):
    """Sort key of the canonical dart order: positive darts first, then ids."""
    return (dart[:1] == INV_PREFIX, dart)


def _check_id(kind, name):
    if not isinstance(name, str) or not name:
        raise ValueError("%s id must be a nonempty string, got %r" % (kind, name))
    if name.split() != [name]:
        raise ValueError("%s id %r contains whitespace" % (kind, name))
    if kind == "edge" and name[0] in ("~", "-"):
        raise ValueError("edge id %r may not start with '~' or '-'" % name)


class SerreGraph:
    """Finite Serre graph built from unoriented edge data.

    ``edges`` is an iterable of ``(edge_id, origin_vertex, terminus_vertex)``.
    Every vertex and edge id is checked as given, before anything is
    sorted.
    Vertices of valence 0 are rejected unless ``allow_isolated`` is set (the
    folded graph of the trivial subgroup is a lone basepoint, so intermediate
    objects occasionally need this).
    """

    __slots__ = ("_vertices", "_edges", "_edge_ids", "_darts", "_origin",
                 "_terminus", "_out", "_key")

    def __init__(self, vertices, edges, allow_isolated=False):
        vertices = tuple(vertices)
        for v in vertices:
            _check_id("vertex", v)
        vertices = tuple(sorted(vertices))
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex ids")
        edges = [(e, o, t) for e, o, t in edges]
        for e, _o, _t in edges:
            _check_id("edge", e)
        edges = tuple(sorted(edges))
        origin = {}
        terminus = {}
        out = {v: [] for v in vertices}
        reversed_ids = []
        for e, o, t in edges:
            if e in origin:
                raise ValueError("duplicate edge id %r" % e)
            if o not in out or t not in out:
                raise ValueError("edge %r has endpoint outside the vertex set" % e)
            r = INV_PREFIX + e
            reversed_ids.append(r)
            origin[e] = terminus[r] = o
            origin[r] = terminus[e] = t
            out[o].append(e)
        # edges are sorted, so positive darts and then reversed ones, edge
        # by edge, are in the `dart_key` order, at each vertex and overall
        for r, (_e, _o, t) in zip(reversed_ids, edges):
            out[t].append(r)
        out = {v: tuple(darts) for v, darts in out.items()}
        if not allow_isolated:
            for v in vertices:
                if not out[v]:
                    raise ValueError("isolated vertex %r" % v)
        self._vertices = vertices
        self._edges = edges
        self._edge_ids = tuple(e for (e, _, _) in edges)
        self._darts = self._edge_ids + tuple(reversed_ids)
        self._origin = origin
        self._terminus = terminus
        self._out = out
        self._key = (vertices, edges)

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self):
        return self._vertices

    @property
    def edge_ids(self):
        return self._edge_ids

    @property
    def edge_data(self):
        return self._edges

    @property
    def darts(self):
        return self._darts

    def has_dart(self, d):
        return d in self._origin

    def origin(self, d):
        return self._origin[d]

    def terminus(self, d):
        return self._terminus[d]

    def out_darts(self, v):
        return self._out[v]

    def valence(self, v):
        return len(self._out[v])

    def is_connected(self):
        if not self._vertices:
            return True
        seen = {self._vertices[0]}
        stack = [self._vertices[0]]
        while stack:
            v = stack.pop()
            for d in self._out[v]:
                w = self.terminus(d)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._vertices)

    def __eq__(self, other):
        return isinstance(other, SerreGraph) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "SerreGraph(%d vertices, %d edges)" % (
            len(self._vertices), len(self._edges))


def rose(edge_ids, vertex="v"):
    """Rose with one vertex and the given loop edges."""
    return SerreGraph([vertex], [(e, vertex, vertex) for e in edge_ids])


# -- paths -----------------------------------------------------------------


def check_dart_sequence(graph, darts):
    """Raise unless consecutive darts are incident and all darts exist."""
    prev_end = None
    for d in darts:
        if not graph.has_dart(d):
            raise ValueError("unknown dart %r" % d)
        o = graph.origin(d)
        if prev_end is not None and o != prev_end:
            raise ValueError("darts %r do not concatenate" % (darts,))
        prev_end = graph.terminus(d)


def reduce_darts(darts):
    """Freely reduce a dart sequence (cancel adjacent d, -d pairs)."""
    out = []
    for d in darts:
        if out and out[-1] == inv(d):
            out.pop()
        else:
            out.append(d)
    return tuple(out)


class CyclicPath:
    """Nonempty closed edge path; its rotations are different paths.

    The wrap-around turn counts: :meth:`turns` includes the pair at the glued
    basepoint, and :meth:`is_immersed` checks reduction cyclically.
    """

    __slots__ = ("graph", "darts")

    def __init__(self, graph, darts):
        darts = tuple(darts)
        if not darts:
            raise ValueError("cyclic path must be nonempty")
        check_dart_sequence(graph, darts)
        if graph.terminus(darts[-1]) != graph.origin(darts[0]):
            raise ValueError("cyclic path does not close up")
        self.graph = graph
        self.darts = darts

    def is_immersed(self):
        n = len(self.darts)
        if n == 1:
            return True
        return all(self.darts[(i + 1) % n] != inv(self.darts[i]) for i in range(n))

    def turns(self):
        """Unordered turn at each vertex the cycle passes, wrap included."""
        n = len(self.darts)
        out = []
        for i in range(n):
            a = inv(self.darts[i])
            b = self.darts[(i + 1) % n]
            out.append(turn(a, b))
        return out

    def edges_crossed(self):
        return frozenset(edge_of(d) for d in self.darts)

    def __len__(self):
        return len(self.darts)

    def __eq__(self, other):
        return (isinstance(other, CyclicPath) and self.graph == other.graph
                and self.darts == other.darts)

    def __hash__(self):
        return hash(self.darts)

    def __repr__(self):
        return "CyclicPath(%s)" % " ".join(self.darts)


def turn(a, b):
    """Canonical unordered pair of darts (a turn when both share an origin).

    The pair is in `dart_key` order, compared inline: turns are formed once
    per image symbol.
    """
    reversed_a = a[0] == INV_PREFIX
    if reversed_a == (b[0] == INV_PREFIX):
        return (a, b) if a <= b else (b, a)
    return (b, a) if reversed_a else (a, b)


# -- graph maps ------------------------------------------------------------


class _DartTable(dict):
    """Dart -> image path, filled in with the edge ids' images.

    A reversed dart's image, the reversed image of its edge, is computed on
    first use and kept.
    """

    __slots__ = ()

    def __missing__(self, d):
        if is_positive(d):
            raise KeyError(d)
        image = tuple(map(inv, reversed(self[inv(d)])))
        self[d] = image
        return image


class GraphMap:
    """Map of Serre graphs: vertices to vertices, darts to nontrivial paths.

    ``edge_images`` assigns each positive dart (edge id) of the domain a dart
    sequence in the codomain; the image of a reversed dart is the reversed
    image.  Both live in one dart table, so substitution is one lookup per
    symbol.  The constructor stores what it is given so that broken maps can
    be fed to :func:`validate`; operations other than validate assume
    validity.
    """

    __slots__ = ("domain", "codomain", "vertex_map", "_table")

    def __init__(self, domain, codomain, vertex_map, edge_images):
        self.domain = domain
        self.codomain = codomain
        self.vertex_map = dict(vertex_map)
        table = _DartTable()
        for e in domain.edge_ids:
            img = edge_images.get(e, ())
            table[e] = tuple(img.split() if isinstance(img, str) else img)
        self._table = table

    @classmethod
    def identity(cls, graph):
        return cls(graph, graph, {v: v for v in graph.vertices},
                   {e: (e,) for e in graph.edge_ids})

    @property
    def is_self_map(self):
        return self.domain == self.codomain

    def dart_image(self, d):
        return self._table[d]

    def apply_to_darts(self, darts):
        return tuple(chain.from_iterable(map(self._table.__getitem__, darts)))

    def apply_cycle(self, cycle):
        return CyclicPath(self.codomain, self.apply_to_darts(cycle.darts))

    def power(self, k):
        """k-fold self-composition by repeated squaring (k >= 0)."""
        if not self.is_self_map:
            raise ValueError("power needs a self map")
        if k < 0:
            raise ValueError("negative power")
        result = GraphMap.identity(self.domain)
        base = self
        while k:
            if k & 1:
                result = compose(base, result)
            k >>= 1
            if k:
                base = compose(base, base)
        return result

    def __eq__(self, other):
        return (isinstance(other, GraphMap)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.vertex_map == other.vertex_map
                and self._edge_images() == other._edge_images())

    def _edge_images(self):
        return list(map(self._table.__getitem__, self.domain.edge_ids))

    def __hash__(self):
        return hash((self.domain, self.codomain,
                     tuple(sorted(self.vertex_map.items())),
                     tuple(zip(self.domain.edge_ids, self._edge_images()))))

    def __repr__(self):
        ims = ", ".join("%s->%s" % (e, " ".join(self._table[e]))
                        for e in self.domain.edge_ids)
        return "GraphMap(%s)" % ims


def compose(g, h):
    """g after h.  Images are substituted dart by dart, without reduction.

    Composites of train track maps stay immersed without reduction, which is
    what the bit-exact identity checks rely on.
    """
    if h.codomain != g.domain:
        raise ValueError("maps are not composable")
    vertex_map = {v: g.vertex_map[h.vertex_map[v]] for v in h.domain.vertices}
    images = {}
    for e in h.domain.edge_ids:
        images[e] = g.apply_to_darts(h.dart_image(e))
    return GraphMap(h.domain, g.codomain, vertex_map, images)


def iterated_lengths(f):
    """Levels ``lengths[e]``, the length of f^j(e) unreduced, for j = 0, 1, ...

    Level j + 1 substitutes level j into f's edge images, so no iterate is
    built; the total of level j is the symbol count of f^j.
    """
    crossed = {e: tuple(map(edge_of, f.dart_image(e)))
               for e in f.domain.edge_ids}
    level = dict.fromkeys(crossed, 1)
    while True:
        yield level
        level = {e: sum(map(level.__getitem__, edges))
                 for e, edges in crossed.items()}


def validate(m):
    """First violated graph-map invariant as a string, or None if valid.

    Checked in order: graph sanity (no isolated vertices; a self-map's
    one graph is scanned once), vertex images, dart images nonempty
    ("edge collapsed"), incidence, endpoint compatibility, immersed images
    ("not immersed").  Each edge image is read once, so a break in
    incidence is reported only after the image's last dart is known, and
    the first backtrack only after every image is a path between the
    right endpoints.
    """
    scanned = ((m.domain,) if m.codomain == m.domain
               else (m.domain, m.codomain))
    for graph, side in zip(scanned, ("domain", "codomain")):
        for v in graph.vertices:
            if graph.valence(v) == 0:
                return "%s has isolated vertex %r" % (side, v)
    for v in m.domain.vertices:
        w = m.vertex_map.get(v)
        if w is None:
            return "vertex %r has no image" % v
        if w not in m.codomain._out:
            return "vertex %r maps outside the codomain" % v
    origin, terminus = m.codomain._origin, m.codomain._terminus
    backtracks = None  # the first edge whose image backtracks
    for e, o, t in m.domain.edge_data:
        img = m.dart_image(e)
        if not img:
            return "edge collapsed: %r has trivial image" % e
        path = True
        prev = begin = end = None
        for d in img:
            start = origin.get(d)
            if start is None:
                return "image of %r uses unknown dart %r" % (e, d)
            stop = terminus[d]
            if prev is not None:
                path = path and start == end
                # a backtrack ends where the dart before it began
                if stop == begin and backtracks is None and d == inv(prev):
                    backtracks = e
            prev, begin, end = d, start, stop
        if not path:
            return "image of %r is not a path" % e
        if origin[img[0]] != m.vertex_map[o]:
            return "endpoint mismatch at origin of %r" % e
        if end != m.vertex_map[t]:
            return "endpoint mismatch at terminus of %r" % e
    if backtracks is not None:
        return "not immersed: image of %r backtracks" % backtracks
    return None
