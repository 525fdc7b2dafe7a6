"""Mapping torus of a graph self-map, its semiflow, and finite covers.

Points of the torus are pairs (point of the graph, height in [0,1)), with
the gluing (x, 1) ~ (map(x), 0).  Flowing for rational time is exact: whole
units apply the map pointwise, the fractional remainder adjusts the height.
Everything downstream (the flow-homotopy pair algebra and descriptor covers
with their longer time unit) reduces to this arithmetic, so all identities
can be sampled and compared bit for bit as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .covers import NotLiftableError, lift_by_tracing
from .freegroup import LabeledGraph, hall_completion, induces_pi1_isomorphism
from .graphs import (
    GraphMap, SerreGraph, compose, edge_of, is_positive, validate,
)


@dataclass(frozen=True)
class GraphPoint:
    """A vertex, or an interior point of an edge at a rational position.

    Positions are measured along the positive orientation and lie strictly
    between 0 and 1; endpoint positions collapse to vertices via
    ``edge_point``.
    """

    vertex: str = None
    edge: str = None
    position: Fraction = None

    @property
    def is_vertex(self):
        return self.vertex is not None

    def __repr__(self):
        if self.is_vertex:
            return "GraphPoint(%r)" % self.vertex
        return "GraphPoint(%r at %s)" % (self.edge, self.position)


def vertex_point(v):
    return GraphPoint(vertex=v)


def edge_point(graph, dart, position):
    """Point of an edge, canonicalized: positive orientation, open interior."""
    position = Fraction(position)
    if not is_positive(dart):
        dart = edge_of(dart)
        position = 1 - position
    if position == 0:
        return GraphPoint(vertex=graph.origin(dart))
    if position == 1:
        return GraphPoint(vertex=graph.terminus(dart))
    if not 0 < position < 1:
        raise ValueError("position %s is outside the edge" % position)
    return GraphPoint(edge=dart, position=position)


def map_point(f, pt):
    """Image of a point under a graph map, with exact edge coordinates.

    An edge maps over its image path at constant speed, so a point at
    position t of an edge with image of combinatorial length L sits at
    arc-length t*L along the path.
    """
    if pt.is_vertex:
        return GraphPoint(vertex=f.vertex_map[pt.vertex])
    path = f.dart_image(pt.edge)
    return _point_on_path(f.codomain, path, pt.position * len(path))


@dataclass(frozen=True)
class TorusPoint:
    point: GraphPoint
    height: Fraction

    def __post_init__(self):
        object.__setattr__(self, "height", Fraction(self.height))
        if not 0 <= self.height < 1:
            raise ValueError("height %s is outside [0,1)" % self.height)


class MappingTorus:
    """The mapping torus of a graph self-map with its suspension semiflow.

    A space for :func:`flow`, like :class:`CoverDescriptor`: time ``unit``
    1, and the self-map as the ``first_return`` of the section.
    """

    unit = 1

    def __init__(self, f):
        if not f.is_self_map:
            raise ValueError("need a self map")
        problem = validate(f)
        if problem is not None:
            raise ValueError("invalid graph map: %s" % problem)
        self.map = f
        self.graph = f.domain

    def point(self, pt, height=0):
        if isinstance(pt, str):
            pt = vertex_point(pt)
        return TorusPoint(pt, Fraction(height))

    def first_return(self, pt):
        return map_point(self.map, pt)

    def __repr__(self):
        return "MappingTorus(%d edges)" % len(self.graph.edge_ids)


def _check_period(space, tp):
    """Reject a point whose height is past the space's time unit."""
    if tp.height >= space.unit:
        raise ValueError("height %s is outside the period %d"
                         % (tp.height, space.unit))
    return tp


def flow(space, tp, s):
    """Semiflow for nonnegative rational time, exactly.

    ``space`` is a mapping torus or a cover descriptor.  Heights run through
    [0, unit); each whole unit of time applies the section's first return.
    """
    s = Fraction(s)
    if s < 0:
        raise ValueError("the semiflow only runs forward")
    _check_period(space, tp)
    total = tp.height + s
    whole = total // space.unit
    pt = tp.point
    for _ in range(whole):
        pt = space.first_return(pt)
    return space.point(pt, total - whole * space.unit)


def return_time(space, tp):
    """Time until the orbit next meets the section at height 0."""
    return space.unit - tp.height


def section_first_return(space, pt):
    """First return of a section point to the section, with its return time.

    For a mapping torus the section is the graph at height 0 and the return
    map is the defining self-map; for a cover descriptor the section is the
    cover at height 0 and the return map is the lift, after one full time
    unit of the longer period.
    """
    hit = flow(space, space.point(pt), space.unit)
    if hit.height != 0:
        raise AssertionError("flow missed its section")
    return Fraction(space.unit), hit


def h_maps(torus):
    """The pair of comparison maps between the torus and itself as a model.

    ``h0`` reads a pair (graph point, height) as "flow up from the section",
    ``h1`` as "apply the return map and keep the height".  Composing them in
    either order is the time-one flow, which the tests sample exactly.
    """

    def h0(tp):
        return flow(torus, TorusPoint(tp.point, Fraction(0)), tp.height)

    def h1(tp):
        return TorusPoint(map_point(torus.map, tp.point), tp.height)

    return h0, h1


@dataclass
class FlowHomotopyPair:
    """Flow-equivariant maps between two mapping tori, inverse up to flowing.

    ``alpha`` and ``beta`` are graph maps whose composites are the
    ``power``-th powers of the respective return maps.  The induced torus
    maps send (theta, t) to (alpha(F(theta)), t); composing the two induced
    maps equals flowing for time power + 2, which is checked pointwise.

    The pointwise realization matters here: flowing iterates the time-one
    map, so a point crosses an iterated image path dart by dart, not at
    constant speed.  When one of the two maps never stretches edges (every
    image a single dart, as a covering projection does), the other lifts
    the ``power``-th iterate through it and is therefore realized by
    tracking the iterated coordinates downstairs; that makes the composite
    identity exact.  Otherwise both maps cross their image paths at
    constant speed, which agrees with iteration only on length-homogeneous
    data, and the sampled checks report any mismatch.
    """

    torus_x: MappingTorus
    torus_y: MappingTorus
    alpha: GraphMap
    beta: GraphMap
    power: int

    def __post_init__(self):
        fx, fy = self.torus_x.map, self.torus_y.map
        if compose(self.alpha, fx) != compose(fy, self.alpha):
            raise ValueError("alpha is not flow-equivariant")
        if compose(self.beta, fy) != compose(fx, self.beta):
            raise ValueError("beta is not flow-equivariant")
        if compose(self.beta, self.alpha) != fx.power(self.power):
            raise ValueError("beta after alpha is not the stated power")
        if compose(self.alpha, self.beta) != fy.power(self.power):
            raise ValueError("alpha after beta is not the stated power")
        self._alpha_point = _exact_realization(
            self.alpha, self.beta, fx, self.power)
        self._beta_point = _exact_realization(
            self.beta, self.alpha, fy, self.power)

    def alpha_hat(self, tp):
        stepped = map_point(self.torus_x.map, tp.point)
        return TorusPoint(self._alpha_point(stepped), tp.height)

    def beta_hat(self, tp):
        stepped = map_point(self.torus_y.map, tp.point)
        return TorusPoint(self._beta_point(stepped), tp.height)

    def check_composite(self, samples_x, samples_y):
        """Both composites against the time-(power+2) flows, exactly."""
        for tp in samples_x:
            if self.beta_hat(self.alpha_hat(tp)) != flow(
                    self.torus_x, tp, self.power + 2):
                return False, ("round trip through the pair misses the flow "
                               "at %r" % (tp,))
        for tp in samples_y:
            if self.alpha_hat(self.beta_hat(tp)) != flow(
                    self.torus_y, tp, self.power + 2):
                return False, ("round trip through the pair misses the flow "
                               "at %r" % (tp,))
        return True, ""

    def check_equivariance(self, samples_x, times):
        for tp in samples_x:
            for s in times:
                left = self.alpha_hat(flow(self.torus_x, tp, s))
                right = flow(self.torus_y, self.alpha_hat(tp), s)
                if left != right:
                    return False, "equivariance fails at %r time %s" % (tp, s)
        return True, ""


def _point_on_path(graph, path, coord):
    """The point at an arc-length coordinate along a dart path."""
    i = coord.numerator // coord.denominator
    if i >= len(path):
        i = len(path) - 1
    return edge_point(graph, path[i], coord - i)


def _exact_realization(forward, back, downstairs, power):
    """Pointwise action of one half of a flow-homotopy pair.

    When the returning map sends every edge to a single dart, the forward
    map's image paths are its lifts of the ``power``-th iterate downstairs,
    and the exact realization follows the iterated coordinates along them.
    Otherwise fall back to constant speed across the image path.
    """
    if all(len(back.dart_image(e)) == 1 for e in back.domain.edge_ids):
        return _tracked(forward, lambda d: d, downstairs, power)
    return lambda pt: map_point(forward, pt)


def _tracked(lift, label, downstairs, power):
    """A lift of the ``power``-th iterate downstairs, realized pointwise.

    ``label`` sends a dart upstairs to the dart it lies over.  The lift's
    image path is crossed following the iterated downstairs steps, not at
    constant speed, so that projecting commutes with flowing bit for bit.
    """
    def point(pt):
        if pt.is_vertex:
            return vertex_point(lift.vertex_map[pt.vertex])
        path, coord = (label(pt.edge),), pt.position
        for _ in range(power):
            path, coord = _image_coordinate(downstairs, path, coord)
        return _point_on_path(lift.codomain, lift.dart_image(pt.edge), coord)
    return point


def iterate_breakpoints(f, dart, power, _cache=None):
    """Positions where the ``power``-fold iterate bends on one dart.

    Flowing iterates the time-one map, so the bends of the composite are
    the pullbacks of dart boundaries through each stage, not the equally
    spaced multiples of one over the composite image length (those agree
    only when all image lengths are equal).  Positions are in traversal
    coordinates of ``dart`` and always include both endpoints.
    """
    if _cache is None:
        _cache = {}
    key = (dart, power)
    if key in _cache:
        return _cache[key]
    if power == 0:
        pts = frozenset((Fraction(0), Fraction(1)))
    else:
        path = f.dart_image(dart)
        length = len(path)
        pts = frozenset(
            Fraction(i + q, length)
            for i, d in enumerate(path)
            for q in iterate_breakpoints(f, d, power - 1, _cache))
    _cache[key] = pts
    return pts


def breakpoint_samples(torus, power, heights=(Fraction(0), Fraction(1, 2))):
    """Deterministic exact sample points including all PL breakpoints.

    For each edge, every bend of the ``power``-fold iterate restricted to
    the edge, plus an equally spaced grid of 1/(2L) steps (L the
    iterated image length) for density between bends.  Vertex points are
    included at every height.
    """
    f = torus.map
    big = f.power(power)
    cache = {}
    out = []
    for v in torus.graph.vertices:
        for h in heights:
            out.append(TorusPoint(vertex_point(v), Fraction(h)))
    for e in torus.graph.edge_ids:
        length = max(1, len(big.dart_image(e)))
        denom = 2 * length
        positions = set(Fraction(i, denom) for i in range(1, denom))
        positions.update(iterate_breakpoints(f, e, power, cache))
        for u in sorted(positions):
            pt = edge_point(torus.graph, e, u)
            if pt.is_vertex:
                continue
            for h in heights:
                out.append(TorusPoint(pt, Fraction(h)))
    return out


# -- finite covers with a longer time unit ------------------------------------


@dataclass(frozen=True)
class CoverPoint:
    point: GraphPoint
    height: Fraction

    def __post_init__(self):
        object.__setattr__(self, "height", Fraction(self.height))
        if self.height < 0:
            raise ValueError("negative height")


class CoverDescriptor:
    """A finite cover of the graph carrying a lift of a power of the map.

    The data is a covering (as a labeled graph), a self-map of the cover,
    and the exponent j with projection after the lift equal to the j-th
    power after projection, dart for dart.  The suspension upstairs uses a
    time unit of length j, so projecting commutes with flowing on the nose;
    j is also the winding number of the upstairs period around the
    downstairs section (the dual pairing of the section class).  Its
    ``unit`` is j and its ``first_return`` is the lift, which is what
    :func:`flow` needs.
    """

    def __init__(self, cover, lift, exponent, base_map):
        if not cover.is_covering():
            raise ValueError("descriptor needs a genuine covering")
        if exponent < 1:
            raise ValueError("exponent must be positive")
        self.cover = cover
        self.lift = lift
        self.exponent = exponent
        self.base = MappingTorus(base_map)
        big = base_map.power(exponent)
        for v in cover.graph.vertices:
            if cover.vertex_image[lift.vertex_map[v]] != \
                    big.vertex_map[cover.vertex_image[v]]:
                raise ValueError("lift does not cover the power on %r" % v)
        for e in cover.graph.edge_ids:
            if cover.project_darts(lift.dart_image(e)) != \
                    big.dart_image(cover.edge_label[e]):
                raise ValueError("lift does not cover the power on %r" % e)
        self.unit = exponent
        self.first_return = _tracked(lift, cover.dart_label, base_map,
                                     exponent)

    def point(self, pt, height=0):
        return _check_period(self, CoverPoint(pt, height))

    @property
    def degree(self):
        return self.cover.degree()

    @property
    def dual_index(self):
        """Crossings of the downstairs section during one upstairs period."""
        start = self.point(vertex_point(self.cover.graph.vertices[0]))
        return seam_crossings(self, start, self.exponent)

    def __repr__(self):
        return "CoverDescriptor(degree %d, exponent %d)" % (
            self.degree, self.exponent)


def _component_containing(cover, base):
    """The connected component of a covering through one vertex."""
    graph = cover.graph
    keep = {base}
    queue = [base]
    while queue:
        v = queue.pop(0)
        for d in graph.out_darts(v):
            w = graph.terminus(d)
            if w not in keep:
                keep.add(w)
                queue.append(w)
    if len(keep) == len(graph.vertices):
        return cover
    edges = [(e, o, t) for e, o, t in graph.edge_data if o in keep]
    sub = SerreGraph(sorted(keep), edges)
    return LabeledGraph(
        sub, cover.ambient,
        {e: cover.edge_label[e] for e, _, _ in edges},
        {v: cover.vertex_image[v] for v in keep})


def make_cover_descriptor(f, sub, max_exponent=12):
    """Build the descriptor for a finite cover: lift the smallest power.

    The self-map must be a homotopy equivalence (checked); the subgroup's
    core is completed to a covering if it is not one already, keeping the
    component through the basepoint.  Exponents are tried in increasing
    order, each with every basepoint fiber vertex as a candidate image, and
    the first consistent lift wins; that exponent is also how far the cover
    winds around the section direction per upstairs period.
    """
    if not induces_pi1_isomorphism(f):
        raise ValueError("descriptors need a homotopy equivalence downstairs")
    if sub.is_covering():
        cover = sub
    else:
        cover = hall_completion(sub)
    base = getattr(sub, "basepoint", None)
    if base is None or base not in cover.graph.vertices:
        base = cover.graph.vertices[0]
    cover = _component_containing(cover, base)

    def trace(vertex, word):
        # tracing through a covering never gets stuck
        end, lifted, consumed = cover.trace(vertex, word)
        if consumed != len(word):
            raise AssertionError("trace failed inside a covering")
        return end, lifted, consumed

    graph = cover.graph
    for j in range(1, max_exponent + 1):
        big = f.power(j)
        target_down = big.vertex_map[cover.vertex_image[base]]
        for candidate in sorted(cover.fiber(target_down)):
            try:
                vm, images = lift_by_tracing(
                    graph, base, candidate,
                    lambda d: big.dart_image(cover.dart_label(d)), trace)
            except NotLiftableError:
                continue
            return CoverDescriptor(cover, GraphMap(graph, graph, vm, images),
                                   j, f)
    raise NotLiftableError(
        "no power up to %d lifts to the cover" % max_exponent)


def _image_coordinate(f, path, coord):
    """Push an arc-length coordinate on a path through one application.

    A point at coordinate i + u (dart index i, offset u) lands at the image
    of that dart's interval: all of f(path[:i]) plus u of the way along
    f(path[i]).  This is the time-one map in path coordinates; iterating it
    is how the semiflow actually moves points, dart by dart, as opposed to
    crossing the whole composite image at constant speed.
    """
    i = coord.numerator // coord.denominator
    if i >= len(path):
        i = len(path) - 1
    u = coord - i
    prefix = 0
    for d in path[:i]:
        prefix += len(f.dart_image(d))
    return f.apply_to_darts(path), prefix + u * len(f.dart_image(path[i]))


def project_point(desc, cp):
    """Projection to the base mapping torus, commuting with the flows.

    Heights upstairs run through [0, exponent); the projected point flows
    from height 0 downstairs for that long.
    """
    pt = _check_period(desc, cp).point
    if pt.is_vertex:
        down = vertex_point(desc.cover.vertex_image[pt.vertex])
    else:
        down = GraphPoint(edge=desc.cover.edge_label[pt.edge],
                          position=pt.position)
    return flow(desc.base, desc.base.point(down), cp.height)


def seam_crossings(desc, cp, duration):
    """How often the projected orbit crosses the downstairs section.

    The base flow meets its section once per unit of time, so over a
    nonnegative duration that is the floor of frac(height) + duration: the
    pairing of the orbit segment with the section's dual class.
    """
    total = _check_period(desc, cp).height % 1 + Fraction(duration)
    return max(0, total.numerator // total.denominator)
