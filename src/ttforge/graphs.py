"""Serre graphs, dart paths, and graph maps.

Conventions used throughout the package:

* A graph is a finite Serre graph: a set of darts (oriented edges) with a
  fixed-point-free involution and an origin map to the vertex set.  We build
  graphs from unoriented edge data ``(edge_id, origin, terminus)``; the edge id
  names the positively oriented dart and the reversed dart gets a ``~`` prefix.
  Edge ids therefore may not start with ``~`` (nor ``-``, which the text form
  of paths uses for inverses, see :func:`token_dart`).
* The canonical representative of an unoriented edge is the lexicographically
  smaller of its two dart ids, which by the naming rule is always the positive
  dart.  Everything that needs a reproducible edge order (transition matrices,
  certificates, serialized reports) sorts these representatives.
* An edge path is a tuple of dart ids in which consecutive darts are
  incident; :func:`reduce_darts` is its free reduction.
* A graph map sends vertices to vertices and darts to nontrivial edge paths,
  compatibly with the involution.  Iteration is by substitution *without* free
  reduction; train track maps keep such substitutions reduced, which is what
  the rest of the package exploits for bit-exact identity checking.
"""

from __future__ import annotations

INV_PREFIX = "~"


def inv(dart):
    """Inverse dart: toggle the ``~`` prefix."""
    if dart.startswith(INV_PREFIX):
        return dart[1:]
    return INV_PREFIX + dart


def is_positive(dart):
    return not dart.startswith(INV_PREFIX)


def edge_of(dart):
    """Canonical representative of the unoriented edge through ``dart``.

    Lexicographically smaller of the dart pair; with the ``~`` naming rule this
    is the positive dart, i.e. the edge id.
    """
    other = inv(dart)
    return dart if dart < other else other


def _check_id(kind, name):
    if not isinstance(name, str) or not name:
        raise ValueError("%s id must be a nonempty string, got %r" % (kind, name))
    if any(c.isspace() for c in name):
        raise ValueError("%s id %r contains whitespace" % (kind, name))
    if kind == "edge" and name[0] in ("~", "-"):
        raise ValueError("edge id %r may not start with '~' or '-'" % name)


class SerreGraph:
    """Finite Serre graph built from unoriented edge data.

    ``edges`` is an iterable of ``(edge_id, origin_vertex, terminus_vertex)``.
    Vertices of valence 0 are rejected unless ``allow_isolated`` is set (the
    folded graph of the trivial subgroup is a lone basepoint, so intermediate
    objects occasionally need this).
    """

    __slots__ = ("_vertices", "_edges", "_edge_ids", "_origin", "_out",
                 "_key")

    def __init__(self, vertices, edges, allow_isolated=False):
        vertices = tuple(sorted(vertices))
        for v in vertices:
            _check_id("vertex", v)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex ids")
        edges = tuple(sorted((str(e), o, t) for (e, o, t) in edges))
        vset = set(vertices)
        origin = {}
        for e, o, t in edges:
            _check_id("edge", e)
            if e in origin:
                raise ValueError("duplicate edge id %r" % e)
            if o not in vset or t not in vset:
                raise ValueError("edge %r has endpoint outside the vertex set" % e)
            origin[e] = o
            origin[inv(e)] = t
        out = {v: [] for v in vertices}
        for d, o in origin.items():
            out[o].append(d)
        for v in out:
            out[v] = tuple(sorted(out[v]))
        if not allow_isolated:
            for v in vertices:
                if not out[v]:
                    raise ValueError("isolated vertex %r" % v)
        self._vertices = vertices
        self._edges = edges
        self._edge_ids = tuple(e for (e, _, _) in edges)
        self._origin = origin
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
        return tuple(sorted(self._origin))

    def has_dart(self, d):
        return d in self._origin

    def origin(self, d):
        return self._origin[d]

    def terminus(self, d):
        return self._origin[inv(d)]

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
    """Freely reduce a dart sequence (cancel adjacent d, ~d pairs)."""
    out = []
    for d in darts:
        if out and out[-1] == inv(d):
            out.pop()
        else:
            out.append(d)
    return tuple(out)


def is_reduced(darts):
    return all(darts[i + 1] != inv(darts[i]) for i in range(len(darts) - 1))


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
        return "CyclicPath(%s)" % format_path(self.darts)


def turn(a, b):
    """Canonical unordered pair of darts (a turn when both share an origin)."""
    return (a, b) if a <= b else (b, a)


# -- text form of paths ----------------------------------------------------


def dart_token(dart):
    return "-" + dart[1:] if dart.startswith(INV_PREFIX) else dart


def token_dart(token):
    return INV_PREFIX + token[1:] if token.startswith("-") else token


def format_path(darts):
    return " ".join(dart_token(d) for d in darts)


# -- graph maps ------------------------------------------------------------


class GraphMap:
    """Map of Serre graphs: vertices to vertices, darts to nontrivial paths.

    ``edge_images`` assigns each positive dart (edge id) of the domain a dart
    sequence in the codomain; the image of a reversed dart is the reversed
    image.  The constructor stores what it is given so that broken maps can be
    fed to :func:`validate`; operations other than validate assume validity.
    """

    __slots__ = ("domain", "codomain", "vertex_map", "_images", "_rev_cache")

    def __init__(self, domain, codomain, vertex_map, edge_images):
        self.domain = domain
        self.codomain = codomain
        self.vertex_map = dict(vertex_map)
        images = {}
        for e in domain.edge_ids:
            img = edge_images.get(e, ())
            if isinstance(img, str):
                img = tuple(token_dart(t) for t in img.split())
            images[e] = tuple(img)
        self._images = images
        self._rev_cache = {}

    @classmethod
    def identity(cls, graph):
        return cls(graph, graph, {v: v for v in graph.vertices},
                   {e: (e,) for e in graph.edge_ids})

    @property
    def is_self_map(self):
        return self.domain == self.codomain

    def dart_image(self, d):
        if is_positive(d):
            return self._images[d]
        cached = self._rev_cache.get(d)
        if cached is None:
            cached = tuple(inv(x) for x in reversed(self._images[inv(d)]))
            self._rev_cache[d] = cached
        return cached

    def apply_to_darts(self, darts):
        out = []
        for d in darts:
            out.extend(self.dart_image(d))
        return tuple(out)

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
                and self._images == other._images)

    def __hash__(self):
        return hash((self.domain, self.codomain,
                     tuple(sorted(self.vertex_map.items())),
                     tuple(sorted(self._images.items()))))

    def __repr__(self):
        ims = ", ".join("%s->%s" % (e, format_path(self._images[e]))
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


def validate(m):
    """First violated graph-map invariant as a string, or None if valid.

    Checked in order: graph sanity (no isolated vertices), vertex images,
    dart images nonempty ("edge collapsed"), incidence, endpoint
    compatibility, immersed images ("not immersed").
    """
    for graph, side in ((m.domain, "domain"), (m.codomain, "codomain")):
        for v in graph.vertices:
            if graph.valence(v) == 0:
                return "%s has isolated vertex %r" % (side, v)
    for v in m.domain.vertices:
        w = m.vertex_map.get(v)
        if w is None:
            return "vertex %r has no image" % v
        if w not in m.codomain._out:
            return "vertex %r maps outside the codomain" % v
    for e in m.domain.edge_ids:
        img = m._images[e]
        if not img:
            return "edge collapsed: %r has trivial image" % e
        for d in img:
            if not m.codomain.has_dart(d):
                return "image of %r uses unknown dart %r" % (e, d)
        for i in range(len(img) - 1):
            if m.codomain.terminus(img[i]) != m.codomain.origin(img[i + 1]):
                return "image of %r is not a path" % e
        if m.codomain.origin(img[0]) != m.vertex_map[m.domain.origin(e)]:
            return "endpoint mismatch at origin of %r" % e
        if m.codomain.terminus(img[-1]) != m.vertex_map[m.domain.terminus(e)]:
            return "endpoint mismatch at terminus of %r" % e
    for e in m.domain.edge_ids:
        if not is_reduced(m._images[e]):
            return "not immersed: image of %r backtracks" % e
    return None
