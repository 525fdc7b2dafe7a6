"""Lifting self-maps and their powers into a core.

The uniqueness and projection identities are rechecked by independent
retraversal: a shuffled-order recomputation must land on the same lift.
"""

import random

import pytest

from ttforge.graphs import GraphMap, compose, edge_of, rose
from ttforge.freegroup import (
    fold, image_subgroup, pi1_endomorphism, whole_group_graph,
)
from ttforge.covers import (
    NotLiftableError, based_lift_power, lift_by_tracing, lift_graph_map,
)
from ttforge.induced import projection_map

ROSE2 = rose(["a", "b"])


def image_edges(m):
    return {edge_of(d) for e in m.domain.edge_ids for d in m.dart_image(e)}


def commutes_with_projection(f, core, lift):
    p = projection_map(core)
    return compose(f, p) == compose(p, lift)


class TestLiftGraphMap:
    def test_sigma_lifts_over_its_image_core(self, sigma):
        core = fold(ROSE2, "v", ["a b"])
        lift = lift_graph_map(sigma, core)
        assert commutes_with_projection(sigma, core, lift)
        assert lift.is_self_map
        # the 2-cycle covers a b, so both edges double
        assert sorted(len(lift.dart_image(e))
                      for e in core.graph.edge_ids) == [2, 2]

    def test_fib_over_trivial_cover_is_itself(self, fib):
        core = whole_group_graph(ROSE2, "v")
        assert lift_graph_map(fib, core) == fib

    def test_non_invariant_subgroup_fails(self, sigma):
        with pytest.raises(NotLiftableError):
            lift_graph_map(sigma, fold(ROSE2, "v", ["a"]))

    def test_rejects_wrong_ambient(self, cyc2):
        with pytest.raises(ValueError):
            lift_graph_map(cyc2, fold(ROSE2, "v", ["a b"]))

    def test_projection_identity_per_dart(self, sigma):
        core = fold(ROSE2, "v", ["a b"])
        lift = lift_graph_map(sigma, core)
        for d in core.graph.darts:
            assert core.project_darts(lift.dart_image(d)) \
                == sigma.dart_image(core.dart_label(d))

    def test_unique_given_basepoint_image(self, sigma):
        """A shuffled independent retraversal reproduces the same lift."""
        core = fold(ROSE2, "v", ["a b"])
        lift = lift_graph_map(sigma, core)
        rng = random.Random(7)
        for _ in range(5):
            vm = {core.basepoint: lift.vertex_map[core.basepoint]}
            images = {}
            pending = list(core.graph.edge_ids)
            rng.shuffle(pending)
            progress = True
            while pending and progress:
                progress = False
                for e in list(pending):
                    o = core.graph.origin(e)
                    if o not in vm:
                        continue
                    word = sigma.dart_image(core.dart_label(e))
                    end, darts, consumed = core.trace(vm[o], word)
                    assert consumed == len(word)
                    vm.setdefault(core.graph.terminus(e), end)
                    assert vm[core.graph.terminus(e)] == end
                    images[e] = darts
                    pending.remove(e)
                    progress = True
            assert not pending
            assert vm == lift.vertex_map
            for e in core.graph.edge_ids:
                assert images[e] == lift.dart_image(e)

    def test_falls_through_to_next_basepoint_image(self):
        """The first basepoint image leaves the core; the second lifts."""
        f = GraphMap(ROSE2, ROSE2, {"v": "v"},
                     {"a": "b a b", "b": "-b -a -b"})
        core = fold(ROSE2, "v", ["a b"])
        first, second = sorted(core.fiber("v"))
        assert core.basepoint == first
        with pytest.raises(NotLiftableError):
            lift_by_tracing(core.graph, core.basepoint, first,
                            lambda d: f.dart_image(core.dart_label(d)),
                            core.trace)
        lift = lift_graph_map(f, core)
        assert lift.vertex_map[core.basepoint] == second
        assert lift.is_self_map
        assert commutes_with_projection(f, core, lift)


class TestBasedLiftPower:
    def test_sigma_power_covers_core(self, sigma):
        core = fold(ROSE2, "v", ["a b"])
        lift = based_lift_power(core, sigma, 1)
        assert image_edges(lift) == set(core.graph.edge_ids)
        assert core.project_darts(lift.dart_image("a")) \
            == sigma.dart_image("a")

    def test_trivial_cover_returns_the_map(self, fib):
        core = whole_group_graph(ROSE2, "v")
        assert based_lift_power(core, fib, 1) == fib

    def test_cyc2_square_covers_eight_cycle(self, cyc2):
        word = "c1 c2 " * 4
        core = fold(cyc2.domain, "u", [word.strip()])
        assert core.rank() == 1 and len(core.graph.edge_ids) == 8
        lift = based_lift_power(core, cyc2, 2)
        assert image_edges(lift) == set(core.graph.edge_ids)

    def test_image_is_core_at_and_past_threshold(
            self, sigma, cyc2, stab2):
        # (map, injectivity exponent, vertex period)
        for f, n, r in ((sigma, 1, 1), (cyc2, 1, 2), (stab2, 2, 1)):
            power = f.power(r)
            base = next(v for v in f.domain.vertices
                        if power.vertex_map[v] == v)
            phi = pi1_endomorphism(power, base)
            core = image_subgroup(phi, n)
            for m in (n * r, (n + 1) * r):
                lift = based_lift_power(core, f, m)
                assert image_edges(lift) == set(core.graph.edge_ids), \
                    (n, r, m)

    def test_power_must_fix_base_vertex(self, cyc2):
        core = fold(cyc2.domain, "u", ["c1 c2"])
        with pytest.raises(ValueError):
            based_lift_power(core, cyc2, 1)

    def test_escaping_image_raises(self, sigma):
        with pytest.raises(NotLiftableError):
            based_lift_power(fold(ROSE2, "v", ["a"]), sigma, 1)

    def test_projection_identity(self, sigma):
        core = fold(ROSE2, "v", ["a b"])
        lift = based_lift_power(core, sigma, 2)
        big = sigma.power(2)
        for e in ROSE2.edge_ids:
            assert core.project_darts(lift.dart_image(e)) \
                == big.dart_image(e)
