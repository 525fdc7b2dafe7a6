"""Mapping torus of a graph self-map, its semiflow, and finite covers.

Points of the torus are pairs (point of the graph, height in [0, unit)),
with the gluing (x, unit) ~ (map(x), 0).  Flowing for rational time is
exact: whole units apply the map pointwise, the fractional remainder
adjusts the height.  A finite cover where the j-th power of the map lifts
is itself a mapping torus, of the lift with time unit j.  A lift of an
iterate (the cover's return map, a package's transfer) is realized by
following a point one application at a time, dart by dart, through a
table of iterated image lengths, so that projecting commutes with flowing
and all identities can be sampled and compared bit for bit as Fractions.
The flow-homotopy pair is built from a verified promotion package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .covers import NotLiftableError, lift_graph_map
from .freegroup import hall_completion, induces_pi1_isomorphism
from .graphs import compose, edge_of, is_positive, iterated_lengths, validate
from .induced import projection_map, verify_package


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
    """A graph point at a height; the space bounds the height by its unit."""

    point: GraphPoint
    height: Fraction

    def __post_init__(self):
        object.__setattr__(self, "height", Fraction(self.height))
        if self.height < 0:
            raise ValueError("negative height")


class MappingTorus:
    """The mapping torus of a graph self-map with its suspension semiflow.

    The space :func:`flow` runs on: heights in [0, ``unit``), and the
    self-map as the ``first_return`` of the section.
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
        tp = TorusPoint(pt, height)
        if tp.height >= self.unit:
            raise ValueError("height %s is outside the period %d"
                             % (tp.height, self.unit))
        return tp

    def first_return(self, pt):
        return map_point(self.map, pt)

    def __repr__(self):
        return "MappingTorus(%d edges)" % len(self.graph.edge_ids)


def flow(space, tp, s):
    """Semiflow for nonnegative rational time, exactly.

    Heights run through [0, unit); each whole unit of time applies the
    section's first return.
    """
    s = Fraction(s)
    if s < 0:
        raise ValueError("the semiflow only runs forward")
    total = space.point(tp.point, tp.height).height + s
    whole = total // space.unit
    pt = tp.point
    for _ in range(whole):
        pt = space.first_return(pt)
    return space.point(pt, total - whole * space.unit)


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


class FlowHomotopyPair:
    """Flow-equivariant maps between the tori of a package, inverse up to flow.

    The package is verified first, and a failed check is a ValueError.
    ``torus_x`` is the mapping torus of the source f, ``torus_y`` that of
    the induced map fbar, and ``power`` the promotion constant K.  The torus
    maps send (theta, t) to (alpha(F(theta)), t): ``alpha_hat`` through the
    transfer P, ``beta_hat`` through the projection p.  Verification
    certifies that both are flow-equivariant and compose to the K-th powers
    of the return maps, so composing the two torus maps equals flowing for
    time K + 2, which `check_composite` samples pointwise.

    Flowing iterates the time-one map, so a point crosses an iterated image
    path dart by dart, not at constant speed.  P lifts f^K through p, whose
    images are single darts, so P is realized by tracking the point through
    the K applications of f downstairs, and p by `map_point`; both are
    exact.
    """

    def __init__(self, pkg):
        report = verify_package(pkg)
        if not report.ok:
            raise ValueError("package fails verification: %s"
                             % ", ".join(report.failures()))
        self.torus_x = MappingTorus(pkg.source)
        self.torus_y = MappingTorus(pkg.induced)
        self.power = pkg.constant
        self.alpha_hat = _torus_map(pkg.source, _tracked(
            pkg.transfer, lambda d: d, pkg.source, self.power))
        self.beta_hat = _torus_map(
            pkg.induced, lambda pt: map_point(pkg.projection, pt))

    def check_composite(self, samples_x, samples_y):
        """Both composites against the time-(power+2) flows, exactly."""
        for torus, there, back, samples in (
                (self.torus_x, self.alpha_hat, self.beta_hat, samples_x),
                (self.torus_y, self.beta_hat, self.alpha_hat, samples_y)):
            for tp in samples:
                if back(there(tp)) != flow(torus, tp, self.power + 2):
                    return False, ("round trip through the pair misses the "
                                   "flow at %r" % (tp,))
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


def _torus_map(f, realize):
    """(theta, t) to (realize(f(theta)), t): a graph map's torus action."""
    return lambda tp: TorusPoint(realize(map_point(f, tp.point)), tp.height)


def _tracked(lift, label, downstairs, power):
    """A lift of the ``power``-th iterate downstairs, realized pointwise.

    ``label`` sends a dart upstairs to the dart it lies over.  A point at
    offset u of a dart d lands u of the way along f(d), at dart i of it
    with offset u * len f(d) - i; its coordinate on f^power(d) gains the
    lengths of the iterates of the darts before i.  One application at a
    time, this crosses the lift's image path following the iterated
    downstairs steps, not at constant speed, so that projecting commutes
    with flowing bit for bit.
    """
    lengths = list(islice(iterated_lengths(downstairs), power))

    def point(pt):
        if pt.is_vertex:
            return vertex_point(lift.vertex_map[pt.vertex])
        dart, offset, coord = label(pt.edge), pt.position, 0
        for level in reversed(lengths):
            path = downstairs.dart_image(dart)
            offset *= len(path)
            i = offset.numerator // offset.denominator
            coord += sum(level[edge_of(d)] for d in path[:i])
            dart, offset = path[i], offset - i
        return _point_on_path(lift.codomain, lift.dart_image(pt.edge),
                              coord + offset)
    return point


def iterate_breakpoints(f, dart, power):
    """Positions where the ``power``-fold iterate bends on one dart.

    Flowing iterates the time-one map, so the bends of the composite are
    the pullbacks of dart boundaries through each stage, not the equally
    spaced multiples of one over the composite image length (those agree
    only when all image lengths are equal).  Positions are in traversal
    coordinates of ``dart`` and always include both endpoints.
    """
    if power == 0:
        return frozenset((Fraction(0), Fraction(1)))
    path = f.dart_image(dart)
    return frozenset(
        Fraction(i + q, len(path))
        for i, d in enumerate(path)
        for q in iterate_breakpoints(f, d, power - 1))


def breakpoint_samples(torus, power, heights=(Fraction(0), Fraction(1, 2))):
    """Deterministic exact sample points including all PL breakpoints.

    For each edge, every bend of the ``power``-fold iterate restricted to
    the edge, plus an equally spaced grid of 1/(2L) steps (L the
    iterated image length) for density between bends.  Vertex points are
    included at every height.
    """
    f = torus.map
    lengths = next(islice(iterated_lengths(f), power, None))
    out = []
    for v in torus.graph.vertices:
        for h in heights:
            out.append(TorusPoint(vertex_point(v), Fraction(h)))
    for e in torus.graph.edge_ids:
        denom = 2 * lengths[e]
        positions = set(Fraction(i, denom) for i in range(1, denom))
        positions.update(iterate_breakpoints(f, e, power))
        for u in sorted(positions):
            pt = edge_point(torus.graph, e, u)
            if pt.is_vertex:
                continue
            for h in heights:
                out.append(TorusPoint(pt, Fraction(h)))
    return out


# -- finite covers with a longer time unit ------------------------------------


class CoverDescriptor(MappingTorus):
    """The mapping torus of a lift of a power of the map to a finite cover.

    The data is a covering (a `SubgroupGraph`), a self-map of the cover,
    and the exponent j with projection after the lift equal to the j-th
    power after projection, dart for dart.  The torus upstairs has the
    lift as its ``map`` and a time unit of length j, so projecting commutes
    with flowing on the nose; j is also the winding number of the upstairs
    period around the downstairs section (the dual pairing of the section
    class).  The lift of a power may backtrack, so it is not validated as
    a graph map.
    """

    def __init__(self, cover, lift, exponent, base_map):
        if not cover.is_covering():
            raise ValueError("descriptor needs a genuine covering")
        if exponent < 1:
            raise ValueError("exponent must be positive")
        p = projection_map(cover)
        if compose(p, lift) != compose(base_map.power(exponent), p):
            raise ValueError("lift does not cover the power %d" % exponent)
        self.cover = cover
        self.projection = p
        self.map = lift
        self.graph = cover.graph
        self.unit = self.exponent = exponent
        self.base = MappingTorus(base_map)
        self.first_return = _tracked(lift, cover.dart_label, base_map,
                                     exponent)

    @property
    def degree(self):
        return self.cover.degree()

    def __repr__(self):
        return "CoverDescriptor(degree %d, exponent %d)" % (
            self.degree, self.exponent)


def make_cover_descriptor(f, sub, max_exponent=12):
    """Build the descriptor for a finite cover: lift the smallest power.

    The self-map must be a homotopy equivalence (checked); the cover is the
    Hall completion of the subgroup graph, pointed at its basepoint, which
    is the subgroup graph itself when that is a connected covering.
    Exponents are tried in increasing order, each lifted by
    `lift_graph_map` (every basepoint fiber vertex a candidate image, the
    first consistent lift winning); that exponent is also how far the cover
    winds around the section direction per upstairs period.
    """
    if not induces_pi1_isomorphism(f):
        raise ValueError("descriptors need a homotopy equivalence downstairs")
    cover = hall_completion(sub)
    for j in range(1, max_exponent + 1):
        try:
            lift = lift_graph_map(f.power(j), cover)
        except NotLiftableError:
            continue
        return CoverDescriptor(cover, lift, j, f)
    raise NotLiftableError(
        "no power up to %d lifts to the cover" % max_exponent)


def project_point(desc, tp):
    """Projection to the base mapping torus, commuting with the flows.

    Heights upstairs run through [0, exponent); the projected point flows
    from height 0 downstairs for that long.
    """
    tp = desc.point(tp.point, tp.height)
    down = map_point(desc.projection, tp.point)
    return flow(desc.base, desc.base.point(down), tp.height)
