"""Seeded generation of expanding irreducible train track self-maps.

Naive random maps are almost never train track maps: an image path that
doubles back, or two images whose derivative orbits collide into a
degenerate turn, spoils the condition.  The generator therefore samples
edge images as non-backtracking walks between the prescribed endpoint
images and rejection-filters through the full certificate chain.  Every
accepted map also survives a promotion probe under a symbol budget, so
downstream identity checks on the corpus stay cheap.

Everything is driven by one ``random.Random`` instance, so a corpus is a
pure function of (count, seed, bounds).
"""

import random
from dataclasses import dataclass

from .graphs import GraphMap, SerreGraph, edge_of, inv, validate
from .induced import SizeBudgetExceeded, build_induced
from .traintrack import (
    is_expanding, is_irreducible, is_train_track, transition_matrix,
)


@dataclass
class GenerationStats:
    """Where candidates die, for bounding the rejection rate in tests."""

    attempts: int = 0
    stuck: int = 0
    invalid: int = 0
    not_train_track: int = 0
    reducible: int = 0
    not_expanding: int = 0
    over_budget: int = 0
    accepted: int = 0


def random_graph(rng, max_edges):
    """Connected Serre graph, 1 to 3 vertices, valence 2 or more everywhere."""
    nv = rng.randint(1, 3)
    vertices = ["v%d" % i for i in range(nv)]
    edges = []
    for i in range(1, nv):
        edges.append(("e%d" % (i - 1), vertices[rng.randrange(i)],
                      vertices[i]))
    low = max(2, nv, len(edges) + 1)
    ne = rng.randint(min(low, max_edges), max_edges)
    while len(edges) < ne:
        i = len(edges)
        edges.append(("e%d" % i, rng.choice(vertices), rng.choice(vertices)))
    graph = SerreGraph(vertices, edges)
    if any(graph.valence(v) < 2 for v in vertices):
        return None
    return graph


def _immersed_path_between(rng, graph, a, b, max_len):
    """Randomized search for a non-backtracking path from a to b.

    Lengths are biased short but not deterministically so: reaching b only
    sometimes stops the walk, which spreads the corpus over image lengths.
    """
    for _ in range(8):
        v = a
        prev = None
        darts = []
        while len(darts) < max_len:
            if darts and v == b and rng.random() < 0.45:
                return tuple(darts)
            options = [d for d in graph.out_darts(v)
                       if prev is None or d != inv(prev)]
            if not options:
                break
            d = rng.choice(options)
            darts.append(d)
            prev = d
            v = graph.terminus(d)
        if darts and v == b:
            return tuple(darts)
    return None


def random_candidate(rng, max_edges=6, max_image_len=4):
    """One candidate self-map, or None when a walk gets stuck."""
    graph = random_graph(rng, max_edges)
    if graph is None:
        return None
    vertex_map = {v: rng.choice(graph.vertices) for v in graph.vertices}
    images = {}
    for e, o, t in graph.edge_data:
        path = _immersed_path_between(
            rng, graph, vertex_map[o], vertex_map[t], max_image_len)
        if path is None:
            return None
        images[e] = path
    return GraphMap(graph, graph, vertex_map, images)


def flip_orientations(f, flip_edges):
    """Conjugate a self-map by reversing the orientation of some edges.

    The result is the same dynamical system on a relabeled graph, so every
    certified property transfers; its images mix signs, which is the point.
    """
    flip = set(flip_edges)
    graph = f.domain

    def sigma(d):
        return inv(d) if edge_of(d) in flip else d

    edges = [(e, t, o) if e in flip else (e, o, t)
             for e, o, t in graph.edge_data]
    new_graph = SerreGraph(graph.vertices, edges)
    images = {}
    for e in graph.edge_ids:
        base = f.dart_image(inv(e)) if e in flip else f.dart_image(e)
        images[e] = tuple(sigma(d) for d in base)
    return GraphMap(new_graph, new_graph, dict(f.vertex_map), images)


def certification_failure(f):
    """The :class:`GenerationStats` field a candidate fails at, or None.

    The chain runs in the generator's order: a valid graph map, a train
    track map, an irreducible transition matrix, an expanding map.
    """
    if validate(f) is not None:
        return "invalid"
    if not is_train_track(f).is_train_track:
        return "not_train_track"
    matrix = transition_matrix(f)
    if not is_irreducible(matrix):
        return "reducible"
    if not is_expanding(matrix).expanding:
        return "not_expanding"
    return None


def random_train_track_map(rng, max_edges=6, max_image_len=4,
                           build_budget=200000, stats=None):
    """Keep sampling until a certified map survives the promotion probe."""
    if stats is None:
        stats = GenerationStats()
    while True:
        stats.attempts += 1
        f = random_candidate(rng, max_edges, max_image_len)
        if f is None:
            stats.stuck += 1
            continue
        failure = certification_failure(f)
        if failure is not None:
            setattr(stats, failure, getattr(stats, failure) + 1)
            continue
        flips = [e for e in f.domain.edge_ids if rng.random() < 0.4]
        if flips:
            f = flip_orientations(f, flips)
        try:
            build_induced(f, size_budget=build_budget)
        except SizeBudgetExceeded:
            stats.over_budget += 1
            continue
        stats.accepted += 1
        return f


def corpus(count, seed, max_edges=6, max_image_len=4, build_budget=200000,
           stats=None):
    """Deterministic list of certified maps for a seed."""
    rng = random.Random(seed)
    return [random_train_track_map(rng, max_edges, max_image_len,
                                   build_budget, stats)
            for _ in range(count)]
