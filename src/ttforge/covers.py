"""Covers of a graph determined by a folded core, and lifting maps into them.

The cover attached to a subgroup is the core plus a forest of hanging trees,
one infinite tree hanging off every missing dart.  `LazyCover` materializes
those trees on demand, which is all that path lifting ever touches.

Every lift comes from one routine, `lift_by_tracing`: choose the image of a
basepoint and trace edge images breadth-first.  Callers differ in what they
trace into (the core, the full lazy cover, a finite covering) and in what a
failure means: try the next basepoint image, or raise, as `based_lift_power`
does because the theory promises its image stays in the core.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import GraphMap, SerreGraph, edge_of, inv, is_positive


class NotLiftableError(ValueError):
    """No choice of basepoint image yields a consistent lift."""


class LazyCover:
    """The cover of the ambient graph with fundamental group the given core.

    Vertices added on demand are named t0, t1, ...; their edges te0, te1, ...
    Positive darts are labeled by positive ambient darts.
    """

    def __init__(self, core):
        self.core_graph = core.graph
        self.ambient = core.ambient
        self._core = core
        self._label = dict(core.edge_label)
        self._vimg = dict(core.vertex_image)
        self._origin = {}
        self._steps = {}
        for e, o, t in core.graph.edge_data:
            self._origin[e] = o
            self._origin[inv(e)] = t
        for d in core.graph.darts:
            self._steps[(core.graph.origin(d), core.dart_label(d))] = d
        self._next_vertex = 0
        self._next_edge = 0
        self._core_vertices = frozenset(core.graph.vertices)
        self._core_edges = frozenset(core.graph.edge_ids)

    @property
    def core(self):
        return self._core

    @property
    def basepoint(self):
        return self._core.basepoint

    def origin(self, d):
        return self._origin[d]

    def terminus(self, d):
        return self._origin[inv(d)]

    def vertex_over(self, v):
        return self._vimg[v]

    def dart_label(self, d):
        if is_positive(d):
            return self._label[d]
        return inv(self._label[inv(d)])

    def project_darts(self, darts):
        return tuple(self.dart_label(d) for d in darts)

    def vertex_in_core(self, v):
        return v in self._core_vertices

    def dart_in_core(self, d):
        return edge_of(d) in self._core_edges

    def step(self, vertex, ambient_dart, materialize=True):
        """The dart over ``ambient_dart`` leaving ``vertex``.

        Covers have exactly one; anything the core lacks is grown as part of
        a hanging tree unless ``materialize`` is off.
        """
        key = (vertex, ambient_dart)
        got = self._steps.get(key)
        if got is not None or not materialize:
            return got
        new_vertex = "t%d" % self._next_vertex
        self._next_vertex += 1
        new_edge = "te%d" % self._next_edge
        self._next_edge += 1
        amb_edge = edge_of(ambient_dart)
        self._label[new_edge] = amb_edge
        if is_positive(ambient_dart):
            o, t = vertex, new_vertex
            self._vimg[new_vertex] = self.ambient.terminus(amb_edge)
        else:
            o, t = new_vertex, vertex
            self._vimg[new_vertex] = self.ambient.origin(amb_edge)
        self._origin[new_edge] = o
        self._origin[inv(new_edge)] = t
        self._steps[(o, amb_edge)] = new_edge
        self._steps[(t, inv(amb_edge))] = inv(new_edge)
        return self._steps[key]

    def lift_path(self, start, ambient_darts, materialize=True):
        """Unique lift of a dart sequence; returns (end vertex, lifted darts)."""
        out = []
        cur = start
        for a in ambient_darts:
            d = self.step(cur, a, materialize=materialize)
            if d is None:
                raise NotLiftableError(
                    "no dart over %r at %r without materializing" % (a, cur))
            out.append(d)
            cur = self.terminus(d)
        return cur, tuple(out)

    def core_fiber(self, ambient_vertex):
        return self._core.fiber(ambient_vertex)

    def materialized_graph(self):
        """Snapshot of everything grown so far, as a plain graph."""
        edges = [(e, self._origin[e], self._origin[inv(e)])
                 for e in sorted(self._label)]
        vertices = sorted(self._vimg)
        return SerreGraph(vertices, edges, allow_isolated=True)


@dataclass
class LiftedMap:
    """A lift of a graph self-map through the cover of a core.

    ``map`` sends the core's graph into the core itself, or into a snapshot
    of the lazy cover when the lift was allowed to wander; the ``cover``
    field carries the labeling needed to project in the latter case.
    ``basepoint_image`` records the choice that pinned the lift down.
    """

    map: GraphMap
    core: object
    basepoint_image: str
    stays_in_core: bool
    cover: object = None

    def _project_darts(self, darts):
        if self.cover is not None:
            return self.cover.project_darts(darts)
        return self.core.project_darts(darts)

    def _project_vertex(self, v):
        if self.cover is not None:
            return self.cover.vertex_over(v)
        return self.core.vertex_image[v]

    def verify_projection(self, f):
        """Check p after the lift equals f after p, dart by dart."""
        core = self.core
        for v in core.graph.vertices:
            want = f.vertex_map[core.vertex_image[v]]
            if self._project_vertex(self.map.vertex_map[v]) != want:
                return False
        for e in core.graph.edge_ids:
            projected = self._project_darts(self.map.dart_image(e))
            if projected != f.dart_image(core.dart_label(e)):
                return False
        return True


def lift_by_tracing(graph, base, image, word_of, trace):
    """Lift a map defined on ``graph`` by breadth-first tracing from ``base``.

    ``image`` is the chosen image of ``base``, ``word_of(d)`` the downstairs
    word the lift must follow over the dart ``d``, and ``trace`` follows a
    word upstairs from a vertex the way LabeledGraph.trace does.  Each edge
    image is forced by tracing from its already placed origin, so the lift
    exists exactly when every trace runs to the end and lands on the image
    already given to the far endpoint.  Returns ``(vertex map, edge
    images)``; raises NotLiftableError otherwise, and ValueError when
    ``graph`` is not connected.
    """
    vm = {base: image}
    images = {}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for d in graph.out_darts(u):
            e = edge_of(d)
            if e in images:
                continue
            word = word_of(d)
            end, lifted, consumed = trace(vm[u], word)
            if consumed != len(word):
                raise NotLiftableError(
                    "image of %r leaves the core after %d darts"
                    % (d, consumed))
            w = graph.terminus(d)
            if w not in vm:
                vm[w] = end
                queue.append(w)
            elif vm[w] != end:
                raise NotLiftableError("lift does not close over %r" % e)
            images[e] = lifted if is_positive(d) else tuple(
                inv(x) for x in reversed(lifted))
    if len(vm) != len(graph.vertices):
        raise ValueError("graph is not connected")
    return vm, images


def lift_graph_map(f, core):
    """Lift of the ambient self-map to a self-map of the core.

    Tries each core vertex over the image of the core's base vertex, in id
    order, as the image of the basepoint; the first consistent assignment
    wins.  Raises NotLiftableError when none works, which for train track
    promotion means the subgroup is not invariant in the required sense.
    """
    if not f.is_self_map or f.domain != core.ambient:
        raise ValueError("need a self map of the core's ambient graph")
    downstairs = f.vertex_map[core.vertex_image[core.basepoint]]
    candidates = sorted(core.fiber(downstairs))
    if not candidates:
        raise NotLiftableError("no core vertex over %r" % downstairs)
    graph = core.graph
    for candidate in candidates:
        try:
            vm, images = lift_by_tracing(
                graph, core.basepoint, candidate,
                lambda d: f.dart_image(core.dart_label(d)), core.trace)
        except NotLiftableError:
            continue
        return LiftedMap(map=GraphMap(graph, graph, vm, images), core=core,
                         basepoint_image=candidate, stays_in_core=True)
    raise NotLiftableError(
        "no consistent lift; tried basepoint images %r" % (candidates,))


def restrict_to_core(lifted):
    """The lifted map as a plain self-map of the core graph.

    For lifts built through the lazy cover this checks that no image touched
    a hanging tree; in-core lifts pass through unchanged.
    """
    if lifted.stays_in_core:
        return lifted.map
    core = lifted.core
    m = lifted.map
    for v in core.graph.vertices:
        if m.vertex_map[v] not in core.graph.vertices:
            raise NotLiftableError(
                "vertex %r is sent outside the core" % v)
    for e in core.graph.edge_ids:
        for d in m.dart_image(e):
            if not core.graph.has_dart(d):
                raise NotLiftableError(
                    "image of %r leaves the core" % e)
    return GraphMap(core.graph, core.graph, dict(m.vertex_map),
                    {e: m.dart_image(e) for e in core.graph.edge_ids})


def based_lift_power(core, f, power):
    """Lift of the given power of f into the core, based at the basepoint.

    The power must return the core's base vertex to itself downstairs.  The
    whole image is traced inside the core; the theory (surjectivity of
    lifted powers) says that is where it lives, and any escape or failure to
    close up raises NotLiftableError.  The resulting map is onto the core
    for every sufficiently large admissible power.
    """
    ambient = core.ambient
    base = core.vertex_image[core.basepoint]
    big = f.power(power)
    if big.vertex_map[base] != base:
        raise ValueError("power %d does not fix %r downstairs" % (power, base))
    vm, images = lift_by_tracing(ambient, base, core.basepoint,
                                 big.dart_image, core.trace)
    return GraphMap(ambient, core.graph, vm, images)


def lift_to_cover(f, core):
    """Lift of f through the full lazy cover, defined on the core's graph.

    Unlike lift_graph_map this never requires images to stay in the core;
    the codomain is a snapshot of whatever got materialized.  Useful for
    exhibiting that the a-priori lift exists before restricting it.
    """
    if not f.is_self_map or f.domain != core.ambient:
        raise ValueError("need a self map of the core's ambient graph")
    downstairs = f.vertex_map[core.vertex_image[core.basepoint]]
    candidates = sorted(core.fiber(downstairs))
    graph = core.graph
    for candidate in candidates:
        cover = LazyCover(core)
        try:
            vm, images = lift_by_tracing(
                graph, core.basepoint, candidate,
                lambda d: f.dart_image(core.dart_label(d)),
                lambda v, word: cover.lift_path(v, word) + (len(word),))
        except NotLiftableError:
            continue
        snapshot = cover.materialized_graph()
        lifted_map = GraphMap(graph, snapshot, vm, images)
        inside = (all(cover.vertex_in_core(x) for x in vm.values())
                  and all(cover.dart_in_core(x)
                          for img in images.values() for x in img))
        return LiftedMap(map=lifted_map, core=core,
                         basepoint_image=candidate,
                         stays_in_core=inside, cover=cover)
    raise NotLiftableError(
        "no consistent lift through the cover; tried %r" % (candidates,))
