"""Lazy covers, path lifting, and lifting self-maps through a core.

The uniqueness and projection identities are rechecked by independent
retraversal: a shuffled-order recomputation must land on the same lift.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ttforge.graphs import GraphMap, edge_of, inv, rose, token_dart
from ttforge.freegroup import (
    fold, image_subgroup, pi1_endomorphism, whole_group_graph,
)
from ttforge.covers import (
    LazyCover, NotLiftableError, based_lift_power, lift_graph_map,
    lift_to_cover, restrict_to_core,
)

ROSE2 = rose(["a", "b"])


def image_edges(m):
    return {edge_of(d) for e in m.domain.edge_ids for d in m.dart_image(e)}


def w(text):
    return tuple(token_dart(t) for t in text.split())


class TestLazyCover:
    def test_core_paths_lift_closed(self):
        cover = LazyCover(fold(ROSE2, "v", ["a b"]))
        end, darts = cover.lift_path(cover.basepoint, ("a", "b"))
        assert end == cover.basepoint
        assert len(darts) == 2
        assert all(cover.dart_in_core(d) for d in darts)
        assert cover.project_darts(darts) == ("a", "b")

    def test_off_core_step_grows_a_tree(self):
        cover = LazyCover(fold(ROSE2, "v", ["a b"]))
        end, darts = cover.lift_path(cover.basepoint, ("b",))
        assert not cover.dart_in_core(darts[0])
        assert not cover.vertex_in_core(end)
        assert cover.vertex_over(end) == "v"

    def test_trivial_path(self):
        cover = LazyCover(fold(ROSE2, "v", ["a b"]))
        end, darts = cover.lift_path(cover.basepoint, ())
        assert end == cover.basepoint and darts == ()

    def test_core_fibers(self):
        assert len(LazyCover(fold(ROSE2, "v", ["a b"])).core_fiber("v")) == 2
        assert len(LazyCover(whole_group_graph(ROSE2, "v")).core_fiber("v")) == 1
        assert len(LazyCover(fold(ROSE2, "v", ["a"])).core_fiber("v")) == 1

    def test_step_without_materializing(self):
        cover = LazyCover(fold(ROSE2, "v", ["a b"]))
        assert cover.step(cover.basepoint, "b", materialize=False) is None
        with pytest.raises(NotLiftableError):
            cover.lift_path(cover.basepoint, ("b",), materialize=False)
        # materializing makes the same query answerable
        cover.lift_path(cover.basepoint, ("b",))
        assert cover.step(cover.basepoint, "b", materialize=False) is not None

    def test_lifting_is_deterministic(self):
        cover = LazyCover(fold(ROSE2, "v", ["a b"]))
        word = w("b -a -b a b")
        first = cover.lift_path(cover.basepoint, word)
        again = cover.lift_path(cover.basepoint, word)
        assert first == again

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_grown_trees_stay_forests(self, seed):
        rng = random.Random(seed)
        core = fold(ROSE2, "v", ["a b", "a a"])
        cover = LazyCover(core)
        letters = [w(t)[0] for t in ("a", "b", "-a", "-b")]
        for _ in range(8):
            word = [rng.choice(letters) for _ in range(rng.randint(1, 10))]
            start = rng.choice(core.graph.vertices)
            cover.lift_path(start, word)
        snapshot = cover.materialized_graph()
        parent = {v: v for v in snapshot.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        core_edges = set(core.graph.edge_ids)
        # collapse the core to one node, then every tree edge must join two
        # distinct components
        for e, o, t in snapshot.edge_data:
            if e in core_edges:
                continue
            o = o if cover.vertex_in_core(o) is False else "CORE"
            t = t if cover.vertex_in_core(t) is False else "CORE"
            parent.setdefault("CORE", "CORE")
            ro, rt = find(o), find(t)
            assert ro != rt, "tree edge %r closes a cycle" % e
            parent[ro] = rt

    def test_retracing_is_consistent(self):
        core = fold(ROSE2, "v", ["a b"])
        cover = LazyCover(core)
        words = [w("b a b"), w("b b"), w("b a -b"),
                 w("-a -a"), w("b"), w("b a")]
        results = [cover.lift_path(cover.basepoint, wd) for wd in words]
        for word, lifted in zip(words, results):
            assert cover.lift_path(cover.basepoint, word) == lifted
        # one dart per (vertex, label): retracing created no duplicates
        snapshot = cover.materialized_graph()
        seen = set()
        for d in snapshot.darts:
            key = (snapshot.origin(d), cover.dart_label(d))
            assert key not in seen
            seen.add(key)


class TestLiftGraphMap:
    def test_sigma_lifts_over_its_image_core(self, sigma):
        core = fold(ROSE2, "v", ["a b"])
        lifted = lift_graph_map(sigma, core)
        assert lifted.stays_in_core
        assert lifted.verify_projection(sigma)
        restricted = restrict_to_core(lifted)
        assert restricted.is_self_map
        # the 2-cycle covers a b, so both edges double
        assert sorted(len(restricted.dart_image(e))
                      for e in core.graph.edge_ids) == [2, 2]

    def test_fib_over_trivial_cover_is_itself(self, fib):
        core = whole_group_graph(ROSE2, "v")
        lifted = lift_graph_map(fib, core)
        assert restrict_to_core(lifted) == fib

    def test_non_invariant_subgroup_fails(self, sigma):
        with pytest.raises(NotLiftableError):
            lift_graph_map(sigma, fold(ROSE2, "v", ["a"]))

    def test_rejects_wrong_ambient(self, cyc2):
        with pytest.raises(ValueError):
            lift_graph_map(cyc2, fold(ROSE2, "v", ["a b"]))

    def test_projection_identity_per_dart(self, sigma):
        core = fold(ROSE2, "v", ["a b"])
        lifted = lift_graph_map(sigma, core)
        m = lifted.map
        for d in core.graph.darts:
            assert core.project_darts(m.dart_image(d)) \
                == sigma.dart_image(core.dart_label(d))

    def test_unique_given_basepoint_image(self, sigma):
        """A shuffled independent retraversal reproduces the same lift."""
        core = fold(ROSE2, "v", ["a b"])
        lifted = lift_graph_map(sigma, core)
        rng = random.Random(7)
        for _ in range(5):
            vm = {core.basepoint: lifted.basepoint_image}
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
            assert vm == lifted.map.vertex_map
            for e in core.graph.edge_ids:
                assert images[e] == lifted.map.dart_image(e)


class TestLiftToCover:
    def test_wandering_lift_leaves_core(self):
        f = GraphMap(ROSE2, ROSE2, {"v": "v"},
                     {"a": "b a b", "b": "-b -a -b"})
        core = fold(ROSE2, "v", ["a b"])
        lifted = lift_to_cover(f, core)
        assert not lifted.stays_in_core
        assert lifted.verify_projection(f)
        with pytest.raises(NotLiftableError):
            restrict_to_core(lifted)

    def test_in_core_lift_agrees_with_direct_lift(self, sigma):
        core = fold(ROSE2, "v", ["a b"])
        through_cover = lift_to_cover(sigma, core)
        direct = lift_graph_map(sigma, core)
        assert through_cover.stays_in_core
        assert through_cover.basepoint_image == direct.basepoint_image
        for e in core.graph.edge_ids:
            assert through_cover.map.dart_image(e) == direct.map.dart_image(e)

    def test_unliftable_map_raises(self, sigma):
        with pytest.raises(NotLiftableError):
            lift_to_cover(sigma, fold(ROSE2, "v", ["a"]))


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
