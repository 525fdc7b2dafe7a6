"""Seeded map generation: determinism, bounds, certificates, statistics."""

import random

import pytest

from ttforge.graphs import inv, reduce_darts, validate
from ttforge.randmaps import (
    GenerationStats, corpus, flip_orientations, random_candidate,
    random_graph, random_train_track_map,
)
from ttforge.traintrack import (
    is_expanding, is_irreducible, is_train_track, transition_matrix,
)


def connected(graph):
    seen = {graph.vertices[0]}
    queue = [graph.vertices[0]]
    while queue:
        v = queue.pop()
        for d in graph.out_darts(v):
            w = graph.terminus(d)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(graph.vertices)


class TestRandomGraph:
    def test_shape_bounds(self):
        rng = random.Random(1)
        for _ in range(300):
            g = random_graph(rng, max_edges=6)
            if g is None:
                continue
            assert 1 <= len(g.vertices) <= 3
            assert len(g.edge_ids) <= 6
            assert connected(g)
            assert all(g.valence(v) >= 2 for v in g.vertices)


class TestRandomCandidate:
    def test_candidates_are_valid_maps(self):
        rng = random.Random(2)
        produced = 0
        for _ in range(300):
            f = random_candidate(rng)
            if f is None:
                continue
            produced += 1
            assert validate(f) is None
            for e in f.domain.edge_ids:
                path = f.dart_image(e)
                assert 1 <= len(path) <= 4
                assert tuple(reduce_darts(path)) == path
        assert produced > 50

    def test_deterministic_per_seed(self):
        assert [random_candidate(random.Random(3)) for _ in range(20)] \
            == [random_candidate(random.Random(3)) for _ in range(20)]


class TestFlipOrientations:
    def test_involution(self, sigma, fib):
        for f in (sigma, fib):
            for flips in (["a"], ["b"], ["a", "b"]):
                assert flip_orientations(flip_orientations(f, flips),
                                         flips) == f

    def test_preserves_certificates(self, sigma, fib, cyc2):
        for f in (sigma, fib, cyc2):
            flipped = flip_orientations(f, list(f.domain.edge_ids)[:1])
            assert validate(flipped) is None
            assert transition_matrix(flipped) == transition_matrix(f)
            assert is_train_track(flipped).is_train_track
            assert is_irreducible(transition_matrix(flipped))
            assert is_expanding(transition_matrix(flipped)).expanding

    def test_flipped_images_mix_signs(self, sigma):
        flipped = flip_orientations(sigma, ["a"])
        darts = [d for e in flipped.domain.edge_ids
                 for d in flipped.dart_image(e)]
        assert any(d.startswith("~") for d in darts)
        assert any(not d.startswith("~") for d in darts)

    def test_endpoints_swap(self, cyc2):
        flipped = flip_orientations(cyc2, ["c1"])
        assert flipped.domain.origin("c1") == cyc2.domain.terminus("c1")
        assert flipped.domain.terminus("c1") == cyc2.domain.origin("c1")


class TestCorpus:
    def test_deterministic(self):
        assert corpus(6, seed=99) == corpus(6, seed=99)
        assert corpus(6, seed=99) != corpus(6, seed=100)

    def test_members_are_certified(self):
        for f in corpus(6, seed=41):
            assert validate(f) is None
            assert is_train_track(f).is_train_track
            assert is_irreducible(transition_matrix(f))
            assert is_expanding(transition_matrix(f)).expanding
            assert len(f.domain.edge_ids) <= 6

    def test_stats_account_for_every_attempt(self):
        stats = GenerationStats()
        members = corpus(6, seed=7, stats=stats)
        assert stats.accepted == len(members) == 6
        assert stats.attempts == (
            stats.stuck + stats.invalid + stats.not_train_track
            + stats.reducible + stats.not_expanding + stats.over_budget
            + stats.accepted)
        assert stats.attempts >= stats.accepted

    def test_single_draw_with_stats(self):
        stats = GenerationStats()
        f = random_train_track_map(random.Random(11), stats=stats)
        assert stats.accepted == 1
        assert validate(f) is None

    def test_budget_rejection_counter(self):
        stats = GenerationStats()
        rng = random.Random(13)
        random_train_track_map(rng, build_budget=300, stats=stats)
        assert stats.over_budget >= 0
        assert stats.accepted == 1
