"""Lifting maps into the cover of a graph determined by a folded core.

The cover attached to a subgroup is the core plus a forest of hanging trees.
A lift that keeps the core invariant never touches those trees, so every
lift here is traced inside the core or a finite covering.

Every lift comes from one routine, `lift_by_tracing`: choose the image of a
basepoint and trace edge images breadth-first.  Callers differ in what they
trace into (the core, a finite covering) and in what a failure means: try
the next basepoint image, as `lift_graph_map` does, or raise, as
`based_lift_power` does because the theory promises its image stays in the
core.
"""

from __future__ import annotations

from collections import deque

from .graphs import GraphMap, edge_of, inv, is_positive


class NotLiftableError(ValueError):
    """No choice of basepoint image yields a consistent lift."""


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
    """Lift of the ambient self-map to a self-map of the core's graph.

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
        return GraphMap(graph, graph, vm, images)
    raise NotLiftableError(
        "no consistent lift; tried basepoint images %r" % (candidates,))


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
