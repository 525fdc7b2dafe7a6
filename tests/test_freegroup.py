"""Subgroup cores, induced endomorphisms, and the stable image.

Membership and kernel claims are cross-checked against brute-force word
enumeration (oracles.py); the enumeration relies only on free reduction,
never on the folding code under test.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ttforge.graphs import (
    GraphMap, SerreGraph, inv, rose,
)
from ttforge.freegroup import (
    SubgroupGraph, endomorphism_on_rose, fold, hall_completion,
    image_chain, image_subgroup, induces_pi1_isomorphism,
    kernel_stabilization, map_subgroup, pi1_endomorphism, stable_quotient,
    subgroup_rank, whole_group_graph,
)
from ttforge.induced import find_periodic_vertex

from oracles import apply_endo, ball, fold_oracle, kernel_ball

ROSE2 = rose(["a", "b"])

# ambient graphs for comparing fold with the reference fold: roses of two
# and three petals, a theta graph with a loop, a triangle with a chord and
# a loop
FOLD_AMBIENTS = (
    ROSE2,
    rose(["a", "b", "c"]),
    SerreGraph(["u", "w"], [("p", "u", "w"), ("q", "u", "w"),
                            ("r", "w", "u"), ("s", "u", "u")]),
    SerreGraph(["x", "y", "z"], [("e", "x", "y"), ("f", "y", "z"),
                                 ("g", "z", "x"), ("h", "x", "z"),
                                 ("k", "y", "y")]),
)


def w(text):
    """Path text to dart tuple."""
    return tuple(text.split())


def subgroup_ball(generator_words, depth):
    """All elements expressible as a product of at most ``depth`` generators.

    For a Nielsen-reduced generating set this contains every subgroup element
    of reduced length <= depth, because each factor contributes at least one
    surviving letter.
    """
    gens = []
    for text in generator_words:
        darts = w(text)
        gens.append(darts)
        gens.append(tuple(inv(d) for d in reversed(darts)))

    from ttforge.graphs import reduce_darts
    seen = {()}
    frontier = [()]
    for _ in range(depth):
        new = []
        for word in frontier:
            for g in gens:
                prod = reduce_darts(word + g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return seen


def closed_walk(graph, base, steps, cancel):
    """Walk from ``base`` taking out-dart ``i mod valence`` for each i in
    ``steps`` (backtracks included), then home along a BFS tree path; with
    ``cancel`` the walk is followed by its inverse, so it reduces to nothing.
    """
    home = {base: ()}
    queue = [base]
    for v in queue:
        for d in graph.out_darts(v):
            if graph.terminus(d) not in home:
                home[graph.terminus(d)] = (inv(d),) + home[v]
                queue.append(graph.terminus(d))
    darts = []
    v = base
    for i in steps:
        outs = graph.out_darts(v)
        darts.append(outs[i % len(outs)])
        v = graph.terminus(darts[-1])
    if cancel:
        return tuple(darts) + tuple(inv(d) for d in reversed(darts))
    return tuple(darts) + home[v]


class TestFold:
    def test_single_loop_core(self):
        h = fold(ROSE2, "v", ["a b"])
        assert h.rank() == 1
        assert len(h.graph.vertices) == 2
        assert h.is_immersion()
        assert not h.core_violations()

    def test_full_group(self):
        h = fold(ROSE2, "v", ["a", "b"])
        assert h.rank() == 2
        assert len(h.graph.vertices) == 1
        assert h.is_covering()

    def test_no_loops_gives_point(self):
        h = fold(ROSE2, "v", [])
        assert h.rank() == 0
        assert len(h.graph.vertices) == 1
        assert not h.graph.edge_ids

    def test_shared_prefix_folds(self):
        g3 = rose(["a", "b", "c"])
        h = fold(g3, "v", ["a b", "a c"])
        assert h.rank() == 2
        assert len(h.graph.vertices) == 2

    def test_accepts_paths_and_dart_tuples(self):
        from_darts = fold(ROSE2, "v", [w("a b")])
        from_text = fold(ROSE2, "v", ["a b"])
        assert from_darts == from_text

    def test_rejects_open_path(self):
        theta = SerreGraph(["p", "q"],
                           [("x", "p", "q"), ("y", "p", "q")])
        with pytest.raises(ValueError):
            fold(theta, "p", [("x",)])

    def test_rejects_unknown_basepoint(self):
        with pytest.raises(ValueError):
            fold(ROSE2, "nope", [])

    def test_confluence_under_permutation(self):
        words = ["a b", "b a -b", "a a b", "-b a"]
        reference = fold(ROSE2, "v", words)
        for perm in itertools.permutations(words):
            other = fold(ROSE2, "v", list(perm))
            assert other == reference
            assert hash(other) == hash(reference)
            assert other.canonical_key() == reference.canonical_key()

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_confluence_on_random_words(self, seed):
        rng = random.Random(seed)
        letters = ["a", "b", "-a", "-b"]
        words = []
        for _ in range(rng.randint(1, 4)):
            word = " ".join(rng.choice(letters)
                            for _ in range(rng.randint(1, 6)))
            words.append(word)
        reference = fold(ROSE2, "v", words)
        shuffled = words[:]
        rng.shuffle(shuffled)
        assert fold(ROSE2, "v", shuffled) == reference
        # refolding the computed basis reproduces the same core
        basis_words = [w for _, _, w in reference.basis()]
        assert fold(ROSE2, "v", basis_words) == reference

    def test_refold_of_basis_is_identity(self):
        h = fold(ROSE2, "v", ["a a", "b b", "a b"])
        assert fold(ROSE2, "v", [w for _, _, w in h.basis()]) == h

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_fold(self, data):
        graph = data.draw(st.sampled_from(FOLD_AMBIENTS))
        base = data.draw(st.sampled_from(graph.vertices))
        drawn = data.draw(st.lists(
            st.tuples(st.lists(st.integers(0, 5), max_size=12),
                      st.booleans()),
            max_size=5))
        loops = [closed_walk(graph, base, steps, cancel)
                 for steps, cancel in drawn]
        h = fold(graph, base, loops)
        reference = fold_oracle(graph, base, loops)
        assert h.canonical_key() == reference.canonical_key()
        # no trim pass: reduced loops never leave a stray valence-one vertex
        assert h.core_violations() == ()
        # zero, one or several loops, some cancelling to nothing
        assert subgroup_rank(graph, base, loops) == reference.rank()

    def test_rank_examples(self):
        assert subgroup_rank(ROSE2, "v", []) == 0
        assert subgroup_rank(ROSE2, "v", ["a -a"]) == 0
        assert subgroup_rank(ROSE2, "v", ["a -a", "b a -a -b"]) == 0
        assert subgroup_rank(ROSE2, "v", ["a b -a"]) == 1
        assert subgroup_rank(ROSE2, "v", ["a", "a a", "b -b"]) == 1
        assert subgroup_rank(ROSE2, "v", ["a b", "b a"]) == 2
        assert subgroup_rank(ROSE2, "v", ["a", "b", "a b"]) == 2
        with pytest.raises(ValueError):
            subgroup_rank(ROSE2, "u", ["a"])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rank_of_images_matches_reference_fold(self, data):
        # substituted images come unreduced, endomorphism images reduced
        graph = FOLD_AMBIENTS[1]
        images = {e: tuple(data.draw(st.lists(
            st.sampled_from(graph.darts), min_size=1, max_size=4)))
            for e in graph.edge_ids}
        f = GraphMap(graph, graph, {"v": "v"}, images)
        phi = pi1_endomorphism(f)
        drawn = data.draw(st.lists(
            st.tuples(st.lists(st.integers(0, 5), max_size=8),
                      st.booleans()),
            max_size=4))
        loops = [closed_walk(graph, "v", steps, cancel)
                 for steps, cancel in drawn]
        for words in ([f.apply_to_darts(loop) for loop in loops],
                      [phi.apply_word(loop) for loop in loops]):
            assert subgroup_rank(graph, "v", words) \
                == fold_oracle(graph, "v", words).rank()

    def test_stem_at_the_basepoint_is_kept(self):
        h = fold(ROSE2, "v", ["a b -a"])
        assert h.rank() == 1
        assert len(h.graph.vertices) == 2
        assert h.graph.valence(h.basepoint) == 1
        assert h.core_violations() == ()

    def test_merge_over_distinct_ambient_vertices_is_loud(self):
        # not an edge path: the loop l starts at p although x ends at q, so
        # folding the two x darts at p would identify vertices over p and q
        graph = SerreGraph(["p", "q"], [("x", "p", "q"), ("l", "p", "p")])
        with pytest.raises(AssertionError):
            fold(graph, "p", [("x", "l", "-x")])


def is_member(h, word):
    """Membership by `SubgroupGraph.rewrite`, which rejects non-members."""
    try:
        h.rewrite(word)
    except ValueError:
        return False
    return True


class TestMembership:
    def test_membership_examples(self):
        h = fold(ROSE2, "v", ["a b"])
        assert is_member(h, w("a b a b"))
        assert not is_member(h, w("a"))
        assert is_member(h, ())

    def test_rewrite_round_trip(self):
        h = fold(ROSE2, "v", ["a b"])
        assert h.rewrite(w("a b a b")) == ("g0", "g0")
        assert h.rewrite(w("-b -a")) == ("-g0",)
        with pytest.raises(ValueError):
            h.rewrite(w("a"))

    def test_rewrite_reuses_the_basis_tree(self, monkeypatch):
        calls = []
        tree = SubgroupGraph.spanning_tree
        monkeypatch.setattr(SubgroupGraph, "spanning_tree",
                            lambda self: calls.append(self) or tree(self))
        h = fold(ROSE2, "v", ["a a", "b a -b", "a b a"])
        for name, _loop, word in h.basis():
            assert h.rewrite(word) == (name,)
            assert h.rewrite(word + word) == (name, name)
        assert len(calls) == 1

    @pytest.mark.parametrize("gens", [
        ["a b"],
        ["a", "b a -b"],
        ["a a", "b b"],
    ])
    def test_membership_matches_product_enumeration(self, gens):
        h = fold(ROSE2, "v", gens)
        members = subgroup_ball(gens, 8)
        rng = random.Random(42)
        words = [wd for wd in
                 (tuple(w(" ".join(word))) for word in [])] or []
        # every reduced word of length <= 4, plus random longer ones
        letters = ["a", "b", "-a", "-b"]
        for length in range(0, 5):
            for combo in itertools.product(letters, repeat=length):
                word = w(" ".join(combo))
                from ttforge.graphs import reduce_darts
                if reduce_darts(word) == word:
                    words.append(word)
        for _ in range(150):
            length = rng.randint(5, 8)
            word = []
            for _ in range(length):
                options = [x for x in letters
                           if not word or w(x)[0] != inv(word[-1])]
                word.append(w(rng.choice(options))[0])
            words.append(tuple(word))
        for word in words:
            assert is_member(h, word) == (word in members), word

    def test_trace_and_step(self):
        h = fold(ROSE2, "v", ["a b"])
        end, lifted, consumed = h.trace(h.basepoint, w("a b"))
        assert end == h.basepoint and consumed == 2
        assert h.project_darts(lifted) == w("a b")
        assert h.step(h.basepoint, "-b") is not None
        assert h.step(h.basepoint, "b") is None


def _two_darts_labeled_a():
    """Two edges out of w0, both labeled a: no immersion."""
    graph = SerreGraph(["w0", "w1", "w2"],
                       [("p0", "w0", "w1"), ("p1", "w0", "w2")])
    return graph, {"p0": "a", "p1": "a"}, {"w0": "v", "w1": "v", "w2": "v"}


class TestSubgroupGraphChecks:
    @pytest.mark.parametrize("labels,message", [
        ({"p0": "c", "p1": "a"}, "label 'c' is not an ambient edge"),
        ({"p0": "-a", "p1": "a"}, "label '-a' is not an ambient edge"),
    ], ids=["non_ambient", "reversed"])
    def test_rejects_label(self, labels, message):
        graph, _labels, images = _two_darts_labeled_a()
        with pytest.raises(ValueError) as err:
            SubgroupGraph(graph, ROSE2, labels, images, "w0")
        assert str(err.value) == message

    @pytest.mark.parametrize("end", ["origin", "terminus"])
    def test_rejects_broken_incidence(self, end):
        # a: u -> w in the ambient graph; p0's other end sits over u
        ambient = SerreGraph(["u", "w"], [("a", "u", "w"), ("b", "w", "u")])
        graph = SerreGraph(["x", "y"], [("p0", "x", "y"), ("p1", "y", "x")])
        images = {"x": "w", "y": "w"} if end == "origin" \
            else {"x": "u", "y": "u"}
        with pytest.raises(ValueError) as err:
            SubgroupGraph(graph, ambient, {"p0": "a", "p1": "b"}, images, "x")
        assert str(err.value) == "labeling of 'p0' breaks incidence"

    def test_rejects_unknown_basepoint(self):
        graph, labels, images = _two_darts_labeled_a()
        with pytest.raises(ValueError) as err:
            SubgroupGraph(graph, ROSE2, labels, images, "w9")
        assert str(err.value) == "basepoint 'w9' is not a vertex"


class TestLabeledGraphPredicates:
    def test_unfolded_graph_is_not_immersion(self):
        graph, labels, images = _two_darts_labeled_a()
        lab = SubgroupGraph(graph, ROSE2, labels, images, "w0")
        assert not lab.is_immersion()
        # the step table keeps the last dart written: positive darts in
        # edge order, then reversed ones
        assert (lab.step("w0", "a"), lab.step("w1", "-a"),
                lab.step("w2", "-a"), lab.step("w0", "-a")) \
            == ("p1", "-p0", "-p1", None)
        assert lab.trace("w0", ("a", "-a", "a")) \
            == ("w2", ("p1", "-p1", "p1"), 3)
        assert lab.trace("w1", ("-a", "a", "b")) == ("w2", ("-p0", "p1"), 2)

    def test_whole_group_graph_is_degree_one_cover(self):
        full = whole_group_graph(ROSE2, "v")
        assert full.is_covering()
        assert full.degree() == 1
        assert full.rank() == 2

    def test_proper_core_is_not_a_cover(self):
        h = fold(ROSE2, "v", ["a b"])
        assert not h.is_covering()


class TestInducedEndomorphism:
    def test_sigma_basis_images(self, sigma):
        phi = pi1_endomorphism(sigma)
        assert phi.basis == {"x0": ("a",), "x1": ("b",)}
        assert phi.apply_word(("a",)) == phi.apply_word(("b",)) == w("a b")

    def test_fib_basis_images(self, fib):
        phi = pi1_endomorphism(fib)
        assert phi.basis == {"x0": ("a",), "x1": ("b",)}
        assert phi.apply_word(("a",)) == ("b",)
        assert phi.apply_word(("b",)) == w("a b")

    def test_identity_endomorphism(self):
        ident = GraphMap(ROSE2, ROSE2, {"v": "v"}, {"a": "a", "b": "b"})
        phi = pi1_endomorphism(ident)
        for loop in phi.basis.values():
            assert phi.apply_word(loop) == loop

    def test_apply_word_iterates(self, sigma):
        phi = pi1_endomorphism(sigma)
        word = w("a -b")
        assert phi.apply_word(word, 2) == phi.apply_word(phi.apply_word(word))
        assert phi.apply_word(word, 0) == word

    def test_needs_fixed_basepoint(self, cyc2):
        with pytest.raises(ValueError):
            pi1_endomorphism(cyc2)
        phi = pi1_endomorphism(cyc2.power(2), "u")
        assert phi.rank == 1

    def test_rejects_unfixed_choice(self, pre1_r2):
        with pytest.raises(ValueError):
            pi1_endomorphism(pre1_r2, "v0")

    def test_rose_realization_matches_graph_map(self, sigma):
        f = endomorphism_on_rose(["a", "b"], {"a": "a b", "b": "a b"})
        assert f == sigma
        phi = pi1_endomorphism(f, "v")
        direct = pi1_endomorphism(sigma)
        assert phi.basis == direct.basis
        for loop in phi.basis.values():
            assert phi.apply_word(loop) == direct.apply_word(loop)


class TestImageChain:
    def test_image_subgroup_examples(self, sigma, fib, nilp):
        phi = pi1_endomorphism(sigma)
        assert image_subgroup(phi, 1).rank() == 1
        assert image_subgroup(pi1_endomorphism(fib), 5).rank() == 2
        assert image_subgroup(pi1_endomorphism(nilp), 3).rank() == 0
        assert image_subgroup(phi, 0) == whole_group_graph(ROSE2, "v")
        with pytest.raises(ValueError):
            image_subgroup(phi, -1)

    def test_map_subgroup_examples(self, sigma, fib):
        assert map_subgroup(sigma, fold(ROSE2, "v", ["a"])) \
            == fold(ROSE2, "v", ["a b"])
        ident = GraphMap(ROSE2, ROSE2, {"v": "v"}, {"a": "a", "b": "b"})
        for loops in (["a b", "b b"], ["a b -a"], []):
            h = fold(ROSE2, "v", loops)
            # the basepoint's hanging path is kept
            assert map_subgroup(ident, h) == h
        assert map_subgroup(fib, fold(ROSE2, "v", ["a"])) \
            == fold(ROSE2, "v", ["b"])

    def test_map_subgroup_trims_hanging_trees(self):
        # b -b cancels between the images of the two edges of the loop a b,
        # leaving a hanging edge that the pointed core does not have
        f = GraphMap(ROSE2, ROSE2, {"v": "v"}, {"a": "a b", "b": "-b a"})
        assert map_subgroup(f, fold(ROSE2, "v", ["a b"])) \
            == fold(ROSE2, "v", ["a a"])
        assert map_subgroup(f, fold(ROSE2, "v", ["a b -a"])) \
            == fold(ROSE2, "v", ["a b -b a -b -a"])

    def test_chain_needs_a_return_to_the_base(self, cyc2):
        with pytest.raises(ValueError, match="period"):
            image_chain(cyc2, "u", 1)
        assert image_chain(cyc2, "u", 2)[1] == image_chain(cyc2, "w", 2)[1]

    def test_chain_needs_a_positive_period(self, sigma):
        for period in (0, -1):
            with pytest.raises(ValueError, match="not positive"):
                image_chain(sigma, "v", period)

    def test_stabilization_constants(self, sigma, fib, nilp, stab2, stab3):
        for f, expected in ((fib, 0), (sigma, 1), (nilp, 3),
                            (stab2, 2), (stab3, 3)):
            assert kernel_stabilization(pi1_endomorphism(f)) == expected

    def test_rank_chain_strictly_decreases_then_freezes(
            self, named_fixture_maps, nilp):
        maps = dict(named_fixture_maps)
        maps["nilp"] = nilp
        for name, f in maps.items():
            for r in range(1, len(f.domain.vertices) + 1):
                power = f.power(r)
                if any(power.vertex_map[v] == v
                       for v in f.domain.vertices):
                    break
            phi = pi1_endomorphism(power)
            K = kernel_stabilization(phi)
            ranks = [image_subgroup(phi, k).rank() for k in range(K + 3)]
            for k in range(K):
                assert ranks[k] > ranks[k + 1], name
            assert ranks[K] == ranks[K + 1] == ranks[K + 2], name

    def test_chain_equals_direct_power_images(
            self, named_fixture_maps, nilp, corpus100):
        """The single-step chain of f against folding phi^k of the basis.

        The chain returns H_{max(K, 1)}, an image under a power of the
        return map phi = (f^r)_*, and stops folding once it has it; from
        H_K on, the direct folds keep H_K's rank.
        """
        maps = list(named_fixture_maps.values()) + [nilp] + list(corpus100)
        for f in maps:
            v, r = find_periodic_vertex(f)
            phi = pi1_endomorphism(f.power(r), v)
            link, K = image_chain(f, v, r)
            assert K == kernel_stabilization(phi)
            for k in range(1, K + 3):
                direct = fold(phi.ambient, phi.base,
                              [phi.apply_word(loop, k)
                               for loop in phi.basis.values()])
                assert image_subgroup(phi, k) == direct, (f, k)
                if k == max(K, 1):
                    assert link == direct, (f, k)
                if k == K + 1:
                    assert direct.rank() == image_subgroup(phi, K).rank(), f


class TestKernelWitnesses:
    IMAGES = {"a": ("c",), "b": ("c",), "c": ("a", "-b")}

    def test_kernel_chain_witnesses(self, nilp):
        phi = pi1_endomorphism(nilp)
        assert phi.apply_word(w("a -b"), 1) == ()
        assert phi.apply_word(w("a c -b"), 1) != ()
        assert phi.apply_word(w("a c -b"), 2) == ()
        deep = w("c a b -a -c")
        assert phi.apply_word(deep, 2) != ()
        assert phi.apply_word(deep, 3) == ()

    def test_kernel_balls_nest(self):
        k1 = set(kernel_ball(self.IMAGES, ["a", "b", "c"], 1, 3))
        k2 = set(kernel_ball(self.IMAGES, ["a", "b", "c"], 2, 3))
        k3 = set(kernel_ball(self.IMAGES, ["a", "b", "c"], 3, 3))
        assert k1 < k2 < k3
        assert ("a", "-b") in k1
        assert ("a", "c", "-b") in k2 - k1

    def test_every_short_word_eventually_dies(self):
        for word in ball(["a", "b", "c"], 3):
            assert apply_endo(self.IMAGES, word, 3) == ()


class TestStableQuotient:
    def test_sigma_squares_a_generator(self, sigma):
        report = stable_quotient(sigma, "v")
        assert report.exponent == 1
        assert report.core.rank() == 1
        assert map_subgroup(sigma, report.core).rank() == report.core.rank()
        assert report.restriction == {"g0": "g0 g0"}

    def test_fib_is_already_stable(self, fib):
        report = stable_quotient(fib, "v")
        assert report.exponent == 0
        assert report.core.rank() == 2
        assert map_subgroup(fib, report.core).rank() == report.core.rank()
        assert report.core == whole_group_graph(ROSE2, "v")

    def test_nilp_collapses(self, nilp):
        report = stable_quotient(nilp, "v")
        assert report.exponent == 3
        assert report.core.rank() == 0
        assert report.restriction == {}
        assert map_subgroup(nilp, report.core).rank() == report.core.rank()

    def test_rank_is_stable_downstream(self, sigma, nilp, stab2):
        for f in (sigma, nilp, stab2):
            phi = pi1_endomorphism(f)
            report = stable_quotient(f, "v")
            for m in range(1, 4):
                assert image_subgroup(
                    phi, report.exponent + m).rank() == report.core.rank()


class TestHomotopyEquivalence:
    def test_fixture_verdicts(self, sigma, fib, nilp, stab2, stab3):
        assert induces_pi1_isomorphism(fib)
        assert not induces_pi1_isomorphism(sigma)
        assert not induces_pi1_isomorphism(nilp)
        assert not induces_pi1_isomorphism(stab2)
        assert not induces_pi1_isomorphism(stab3)

    def test_identity_and_cyclic_relabel(self):
        ident = GraphMap(ROSE2, ROSE2, {"v": "v"}, {"a": "a", "b": "b"})
        swap = GraphMap(ROSE2, ROSE2, {"v": "v"}, {"a": "b", "b": "a"})
        assert induces_pi1_isomorphism(ident)
        assert induces_pi1_isomorphism(swap)


class TestHallCompletion:
    def test_single_loop_degree_one(self):
        h = fold(ROSE2, "v", ["a"])
        cover = hall_completion(h)
        assert cover.is_covering()
        assert cover.degree() == 1
        assert len(cover.graph.edge_ids) == 2

    def test_two_segment_path_closes_cyclically(self):
        graph = SerreGraph(["w0", "w1", "w2"],
                           [("p0", "w0", "w1"), ("p1", "w1", "w2")])
        sub = SubgroupGraph(graph, ROSE2, {"p0": "a", "p1": "a"},
                            {"w0": "v", "w1": "v", "w2": "v"}, "w0")
        cover = hall_completion(sub)
        assert cover.is_covering() and cover.basepoint == "w0"
        assert cover.degree() == 3
        # original edges kept verbatim
        for e in graph.edge_ids:
            assert cover.graph.origin(e) == graph.origin(e)
            assert cover.graph.terminus(e) == graph.terminus(e)
            assert cover.edge_label[e] == sub.edge_label[e]

    def test_cover_input_is_returned_unchanged(self):
        full = whole_group_graph(ROSE2, "v")
        cover = hall_completion(full)
        assert cover.degree() == 1
        assert cover.graph.edge_data == ROSE2.edge_data
        assert cover == full

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=50, deadline=None)
    def test_random_cores_embed_in_covers(self, seed):
        rng = random.Random(seed)
        k = rng.randint(2, 3)
        ambient = rose(["a", "b", "c"][:k])
        letters = [x for g in ambient.edge_ids for x in (g, "-" + g)]
        words = [" ".join(rng.choice(letters)
                          for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(1, 3))]
        sub = fold(ambient, "v", words)
        cover = hall_completion(sub)
        assert cover.is_covering() and cover.graph.is_connected()
        assert cover.basepoint == sub.basepoint
        assert cover.degree() >= 1
        for e in sub.graph.edge_ids:
            assert cover.edge_label[e] == sub.edge_label[e]
            assert cover.graph.origin(e) == sub.graph.origin(e)
            assert cover.graph.terminus(e) == sub.graph.terminus(e)
        for v in sub.graph.vertices:
            assert cover.vertex_image[v] == sub.vertex_image[v]
