"""Suspension semiflow arithmetic, comparison-map algebra, finite covers.

The maps under test are piecewise linear with rational breakpoints, so
identities are verified by exact Fraction sampling: deterministic
breakpoint grids plus seeded random points, compared bit for bit.
"""

import random
from fractions import Fraction

import pytest

from ttforge.covers import NotLiftableError
from ttforge.freegroup import fold, whole_group_graph
from ttforge.graphs import GraphMap, rose
from ttforge.induced import build_induced
from ttforge.suspension import (
    CoverDescriptor, CoverPoint, FlowHomotopyPair, MappingTorus, TorusPoint,
    breakpoint_samples, edge_point, flow, h_maps, iterate_breakpoints,
    make_cover_descriptor, map_point, project_point, return_time,
    seam_crossings, section_first_return, vertex_point,
)

ROSE2 = rose(["a", "b"])


def identity_map(graph):
    return GraphMap(graph, graph, {v: v for v in graph.vertices},
                    {e: (e,) for e in graph.edge_ids})


def _iterate_point(f, pt, power):
    for _ in range(power):
        pt = map_point(f, pt)
    return pt


def _positions_on_common_edge(points):
    """Positions of interior points that must share one positive edge."""
    assert all(not p.is_vertex for p in points)
    assert len({p.edge for p in points}) == 1
    return [p.position for p in points]


def random_torus_points(torus, rng, count, den=24):
    """Interior edge points and vertices at assorted rational heights."""
    pts = []
    edges = torus.graph.edge_ids
    verts = torus.graph.vertices
    while len(pts) < count:
        h = Fraction(rng.randrange(0, den), den)
        if rng.random() < 0.2:
            gp = vertex_point(rng.choice(verts))
        else:
            gp = edge_point(torus.graph, rng.choice(edges),
                            Fraction(rng.randrange(1, den), den))
        pts.append(TorusPoint(gp, h))
    return pts


class TestGraphPoints:
    def test_edge_point_canonicalizes_orientation(self):
        assert edge_point(ROSE2, "~a", Fraction(1, 4)) \
            == edge_point(ROSE2, "a", Fraction(3, 4))

    def test_endpoints_become_vertices(self):
        assert edge_point(ROSE2, "a", 0) == vertex_point("v")
        assert edge_point(ROSE2, "a", 1) == vertex_point("v")
        with pytest.raises(ValueError):
            edge_point(ROSE2, "a", Fraction(5, 4))

    def test_map_point_linear_reparametrization(self, sigma, fib):
        third = edge_point(ROSE2, "a", Fraction(1, 3))
        assert map_point(sigma, third) \
            == edge_point(ROSE2, "a", Fraction(2, 3))
        assert map_point(sigma, edge_point(ROSE2, "a", Fraction(1, 2))) \
            == vertex_point("v")
        assert map_point(fib, edge_point(ROSE2, "b", Fraction(1, 4))) \
            == edge_point(ROSE2, "a", Fraction(1, 2))

    def test_map_point_over_reversed_dart(self):
        g = rose(["a"], "v")
        f = GraphMap(g, g, {"v": "v"}, {"a": "-a"})
        assert map_point(f, edge_point(g, "a", Fraction(1, 4))) \
            == edge_point(g, "a", Fraction(3, 4))


class TestMappingTorus:
    def test_rejects_non_self_maps(self):
        g, h = rose(["a"], "v"), rose(["x"], "u")
        with pytest.raises(ValueError):
            MappingTorus(GraphMap(g, h, {"v": "u"}, {"a": "x"}))

    def test_rejects_invalid_maps(self):
        g = rose(["a"], "v")
        with pytest.raises(ValueError, match="invalid"):
            MappingTorus(GraphMap(g, g, {"v": "v"}, {"a": "a -a a"}))

    def test_point_constructors(self, sigma):
        torus = MappingTorus(sigma)
        assert torus.point("v") == TorusPoint(vertex_point("v"), Fraction(0))
        with pytest.raises(ValueError):
            torus.point("v", 1)
        with pytest.raises(ValueError):
            torus.point("v", Fraction(-1, 2))


class TestFlow:
    def test_short_flow_only_raises_height(self, sigma):
        torus = MappingTorus(sigma)
        x = TorusPoint(edge_point(ROSE2, "a", Fraction(1, 3)), 0)
        assert flow(torus, x, Fraction(1, 2)) \
            == TorusPoint(x.point, Fraction(1, 2))
        assert flow(torus, x, 0) == x

    def test_unit_flow_applies_the_map(self, sigma):
        torus = MappingTorus(sigma)
        x = TorusPoint(edge_point(ROSE2, "a", Fraction(1, 3)), 0)
        assert flow(torus, x, 1) \
            == TorusPoint(edge_point(ROSE2, "a", Fraction(2, 3)), 0)

    def test_only_forward(self, sigma):
        with pytest.raises(ValueError):
            flow(MappingTorus(sigma), MappingTorus(sigma).point("v"), -1)

    def test_semigroup_law(self, sigma, fib, cyc2):
        rng = random.Random(7)
        for f in (sigma, fib, cyc2):
            torus = MappingTorus(f)
            for x in random_torus_points(torus, rng, 340):
                s = Fraction(rng.randrange(0, 96), 24)
                t = Fraction(rng.randrange(0, 96), 24)
                assert flow(torus, flow(torus, x, s), t) \
                    == flow(torus, x, s + t)

    def test_return_time(self, sigma):
        torus = MappingTorus(sigma)
        x = TorusPoint(vertex_point("v"), Fraction(1, 4))
        assert return_time(torus, x) == Fraction(3, 4)
        assert return_time(torus, torus.point("v")) == 1
        assert flow(torus, x, return_time(torus, x)).height == 0

    def test_section_first_return_is_the_map(self, fib):
        torus = MappingTorus(fib)
        rho, hit = section_first_return(torus, vertex_point("v"))
        assert rho == 1
        assert hit == TorusPoint(vertex_point("v"), Fraction(0))
        pt = edge_point(ROSE2, "b", Fraction(1, 4))
        rho, hit = section_first_return(torus, pt)
        assert (rho, hit) == (1, TorusPoint(map_point(fib, pt), Fraction(0)))


class TestComparisonMaps:
    def test_both_composites_are_the_unit_flow(self, sigma, fib):
        rng = random.Random(11)
        for f in (sigma, fib):
            torus = MappingTorus(f)
            h0, h1 = h_maps(torus)
            for x in random_torus_points(torus, rng, 500):
                expected = flow(torus, x, 1)
                assert h1(h0(x)) == expected
                assert h0(h1(x)) == expected

    def test_height_zero_points_just_map(self, sigma):
        torus = MappingTorus(sigma)
        _, h1 = h_maps(torus)
        x = torus.point("v")
        assert h1(x) == TorusPoint(vertex_point("v"), Fraction(0))
        y = TorusPoint(edge_point(ROSE2, "b", Fraction(1, 3)), 0)
        assert h1(y) == TorusPoint(map_point(sigma, y.point), Fraction(0))


class TestFlowHomotopyPair:
    def sample_sets(self, pair, rng):
        extra = pair.power + 2
        xs = breakpoint_samples(pair.torus_x, extra) \
            + random_torus_points(pair.torus_x, rng, 100)
        ys = breakpoint_samples(pair.torus_y, extra) \
            + random_torus_points(pair.torus_y, rng, 100)
        return xs, ys

    def test_promoted_package_pair(self, sigma):
        pkg = build_induced(sigma)
        pair = FlowHomotopyPair(
            MappingTorus(pkg.source), MappingTorus(pkg.induced),
            pkg.transfer, pkg.projection, pkg.constant)
        xs, ys = self.sample_sets(pair, random.Random(3))
        ok, detail = pair.check_composite(xs, ys)
        assert ok, detail
        ok, detail = pair.check_equivariance(
            xs[:40], [Fraction(0), Fraction(1, 2), 1, Fraction(7, 3)])
        assert ok, detail

    def test_fib_package_pair(self, fib):
        pkg = build_induced(fib)
        pair = FlowHomotopyPair(
            MappingTorus(pkg.source), MappingTorus(pkg.induced),
            pkg.transfer, pkg.projection, pkg.constant)
        xs, ys = self.sample_sets(pair, random.Random(5))
        ok, detail = pair.check_composite(xs, ys)
        assert ok, detail

    def test_multi_vertex_package_pair(self, cyc2):
        pkg = build_induced(cyc2)
        pair = FlowHomotopyPair(
            MappingTorus(pkg.source), MappingTorus(pkg.induced),
            pkg.transfer, pkg.projection, pkg.constant)
        xs, ys = self.sample_sets(pair, random.Random(7))
        ok, detail = pair.check_composite(xs, ys)
        assert ok, detail
        ok, detail = pair.check_equivariance(
            xs[:30], [Fraction(1, 3), 2])
        assert ok, detail

    def test_identity_pair_gives_double_flow(self, fib):
        torus = MappingTorus(fib)
        ident = identity_map(ROSE2)
        pair = FlowHomotopyPair(torus, torus, ident, ident, 0)
        xs, ys = self.sample_sets(pair, random.Random(9))
        ok, detail = pair.check_composite(xs, ys)
        assert ok, detail
        x = TorusPoint(edge_point(ROSE2, "a", Fraction(1, 5)), Fraction(1, 3))
        assert pair.alpha_hat(x) == TorusPoint(map_point(fib, x.point),
                                               x.height)

    def test_map_and_identity_pair(self, sigma):
        torus = MappingTorus(sigma)
        pair = FlowHomotopyPair(torus, torus, sigma, identity_map(ROSE2), 1)
        xs, ys = self.sample_sets(pair, random.Random(13))
        ok, detail = pair.check_composite(xs, ys)
        assert ok, detail

    def test_rejects_wrong_power(self, sigma):
        torus = MappingTorus(sigma)
        with pytest.raises(ValueError, match="power"):
            FlowHomotopyPair(torus, torus, sigma, sigma, 1)

    def test_rejects_non_equivariant_maps(self, sigma):
        torus = MappingTorus(sigma)
        crush = GraphMap(ROSE2, ROSE2, {"v": "v"}, {"a": "a", "b": "a"})
        with pytest.raises(ValueError, match="equivariant"):
            FlowHomotopyPair(torus, torus, crush, identity_map(ROSE2), 1)


class TestBreakpointSamples:
    def test_contains_all_breakpoints(self, sigma):
        torus = MappingTorus(sigma)
        samples = breakpoint_samples(torus, 2)
        big = sigma.power(2)
        for e in ROSE2.edge_ids:
            length = len(big.dart_image(e))
            for i in range(1, length):
                pt = edge_point(ROSE2, e, Fraction(i, length))
                assert TorusPoint(pt, Fraction(0)) in samples

    def test_nonuniform_bends_are_exact(self, fib):
        # The square of the Fibonacci map bends at 3/4 on edge b, which no
        # equally spaced grid over its image length contains.
        assert iterate_breakpoints(fib, "b", 2) == {
            Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)}
        torus = MappingTorus(fib)
        samples = breakpoint_samples(torus, 2)
        pt = edge_point(ROSE2, "b", Fraction(3, 4))
        assert TorusPoint(pt, Fraction(0)) in samples

    def test_reversed_dart_bends_mirror(self, fib):
        forward = iterate_breakpoints(fib, "b", 2)
        backward = iterate_breakpoints(fib, "~b", 2)
        assert backward == {1 - q for q in forward}

    def test_iterated_map_is_linear_between_bends(self, fib, cyc2):
        # Between consecutive bends the iterate crosses one dart at constant
        # speed, so it commutes with affine interpolation of positions.
        for f, power in ((fib, 3), (cyc2, 2)):
            for e in f.domain.edge_ids:
                bends = sorted(iterate_breakpoints(f, e, power))
                for lo, hi in zip(bends, bends[1:]):
                    quarters = [lo + (hi - lo) * Fraction(j, 4)
                                for j in (1, 2, 3)]
                    imgs = [_iterate_point(f, edge_point(f.domain, e, u),
                                           power)
                            for u in quarters]
                    positions = _positions_on_common_edge(imgs)
                    assert positions[1] == (positions[0] + positions[2]) / 2

    def test_contains_vertices_at_every_height(self, fib):
        torus = MappingTorus(fib)
        heights = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
        samples = breakpoint_samples(torus, 1, heights=heights)
        for h in heights:
            assert TorusPoint(vertex_point("v"), h) in samples


@pytest.fixture(scope="module")
def trivial_descriptor(fib):
    return make_cover_descriptor(fib, whole_group_graph(ROSE2, "v"))


@pytest.fixture(scope="module")
def index2_descriptor(fib):
    sub = fold(ROSE2, "v", ["a", "b a -b", "b b"])
    return make_cover_descriptor(fib, sub)


class TestCoverDescriptor:
    def test_trivial_cover(self, trivial_descriptor, fib):
        desc = trivial_descriptor
        assert desc.exponent == 1
        assert desc.degree == 1
        assert desc.dual_index == 1
        for e in desc.cover.graph.edge_ids:
            assert desc.cover.project_darts(desc.lift.dart_image(e)) \
                == fib.dart_image(desc.cover.edge_label[e])

    def test_index_two_cover_needs_the_cube(self, index2_descriptor, fib):
        desc = index2_descriptor
        assert desc.degree == 2
        assert desc.exponent == 3
        assert desc.dual_index == 3
        cube = fib.power(3)
        for e in desc.cover.graph.edge_ids:
            assert desc.cover.project_darts(desc.lift.dart_image(e)) \
                == cube.dart_image(desc.cover.edge_label[e])
        for v in desc.cover.graph.vertices:
            assert desc.cover.vertex_image[desc.lift.vertex_map[v]] \
                == cube.vertex_map[desc.cover.vertex_image[v]]

    def test_needs_homotopy_equivalence(self, sigma):
        with pytest.raises(ValueError, match="homotopy equivalence"):
            make_cover_descriptor(sigma, whole_group_graph(ROSE2, "v"))

    def test_exponent_cap(self, fib):
        sub = fold(ROSE2, "v", ["a", "b a -b", "b b"])
        with pytest.raises(NotLiftableError):
            make_cover_descriptor(fib, sub, max_exponent=2)

    def test_rejects_mismatched_lift(self, trivial_descriptor, fib):
        with pytest.raises(ValueError, match="cover the power"):
            CoverDescriptor(trivial_descriptor.cover,
                            trivial_descriptor.lift, 2, fib)
        with pytest.raises(ValueError, match="positive"):
            CoverDescriptor(trivial_descriptor.cover,
                            trivial_descriptor.lift, 0, fib)

    def test_rejects_non_coverings(self, fib):
        core = fold(ROSE2, "v", ["a b"])
        with pytest.raises(ValueError, match="covering"):
            CoverDescriptor(core, fib, 1, fib)


class TestLiftedFlow:
    def random_cover_points(self, desc, rng, count, den=24):
        pts = []
        graph = desc.cover.graph
        while len(pts) < count:
            h = Fraction(rng.randrange(0, den * desc.exponent), den)
            if rng.random() < 0.2:
                gp = vertex_point(rng.choice(graph.vertices))
            else:
                gp = edge_point(graph, rng.choice(graph.edge_ids),
                                Fraction(rng.randrange(1, den), den))
            pts.append(CoverPoint(gp, h))
        return pts

    def test_time_zero_is_identity(self, index2_descriptor):
        desc = index2_descriptor
        cp = CoverPoint(vertex_point(desc.cover.graph.vertices[0]), 0)
        assert flow(desc, cp, 0) == cp

    def test_bounds(self, index2_descriptor):
        desc = index2_descriptor
        cp = CoverPoint(vertex_point(desc.cover.graph.vertices[0]), 0)
        with pytest.raises(ValueError):
            flow(desc, cp, -1)
        tall = CoverPoint(cp.point, Fraction(7, 2))
        with pytest.raises(ValueError, match="period"):
            flow(desc, tall, 1)
        with pytest.raises(ValueError, match="period"):
            desc.point(cp.point, Fraction(7, 2))
        with pytest.raises(ValueError, match="period"):
            project_point(desc, tall)
        with pytest.raises(ValueError, match="period"):
            seam_crossings(desc, tall, 1)
        with pytest.raises(ValueError, match="period"):
            desc.point(cp.point, desc.unit)
        with pytest.raises(ValueError):
            CoverPoint(cp.point, -1)
        # heights below the period of 3 keep working
        below = desc.point(cp.point, Fraction(5, 2))
        assert project_point(desc, below).height == Fraction(1, 2)
        assert seam_crossings(desc, below, 1) == 1
        assert flow(desc, below, 1).height == Fraction(1, 2)

    def test_projection_commutes_with_flow(self, trivial_descriptor,
                                           index2_descriptor, fib):
        torus = MappingTorus(fib)
        rng = random.Random(17)
        for desc in (trivial_descriptor, index2_descriptor):
            for cp in self.random_cover_points(desc, rng, 120):
                s = Fraction(rng.randrange(0, 96), 12)
                upstairs = project_point(desc, flow(desc, cp, s))
                downstairs = flow(torus, project_point(desc, cp), s)
                assert upstairs == downstairs

    def test_project_point_wraps_heights(self, index2_descriptor, fib):
        desc = index2_descriptor
        v = desc.cover.graph.vertices[0]
        cp = CoverPoint(vertex_point(v), Fraction(5, 2))
        down = project_point(desc, cp)
        assert down.height == Fraction(1, 2)
        image = desc.cover.vertex_image[v]
        assert down.point == vertex_point(
            fib.vertex_map[fib.vertex_map[image]])


class TestSectionDuality:
    def test_first_return_is_the_lift(self, index2_descriptor):
        desc = index2_descriptor
        for v in desc.cover.graph.vertices:
            rho, hit = section_first_return(desc, vertex_point(v))
            assert rho == desc.exponent
            assert hit == CoverPoint(vertex_point(desc.lift.vertex_map[v]), 0)

    def test_flow_around_loop_crosses_once_per_unit(self, trivial_descriptor,
                                                    index2_descriptor):
        for desc in (trivial_descriptor, index2_descriptor):
            start = CoverPoint(vertex_point(desc.cover.graph.vertices[0]), 0)
            assert seam_crossings(desc, start, desc.exponent) == desc.exponent
            assert seam_crossings(desc, start, 0) == 0
            assert seam_crossings(
                desc, start, Fraction(2 * desc.exponent - 1, 2)) \
                == desc.exponent - 1

    def test_seam_crossings_match_stepping_oracle(self, trivial_descriptor,
                                                  index2_descriptor):
        from oracles import seam_crossings_oracle
        for desc in (trivial_descriptor, index2_descriptor):
            graph = desc.cover.graph
            points = [vertex_point(v) for v in graph.vertices]
            points += [edge_point(graph, e, Fraction(1, 3))
                       for e in graph.edge_ids]
            heights = [Fraction(k, 6) for k in range(6 * desc.exponent)]
            durations = [Fraction(k, 4) for k in range(-8, 4 * desc.exponent
                                                       + 9)]
            for pt in points:
                for h in heights:
                    cp = CoverPoint(pt, h)
                    for d in durations:
                        assert seam_crossings(desc, cp, d) \
                            == seam_crossings_oracle(desc, cp, d), (cp, d)
