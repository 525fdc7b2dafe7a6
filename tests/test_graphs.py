import pytest
from hypothesis import given, settings, strategies as st

from ttforge.graphs import (
    CyclicPath, GraphMap, SerreGraph, check_dart_sequence, compose,
    dart_token, edge_of, format_path, inv, is_positive, reduce_darts, rose,
    token_dart, validate,
)


def theta_graph():
    return SerreGraph(["p", "q"], [("x", "p", "q"), ("y", "p", "q"),
                                   ("z", "p", "q")])


class TestSerreGraph:
    def test_darts_come_in_inverse_pairs(self):
        g = theta_graph()
        assert set(g.darts) == {"x", "y", "z", "~x", "~y", "~z"}
        for d in g.darts:
            assert inv(inv(d)) == d
            assert inv(d) != d
            assert g.origin(d) == g.terminus(inv(d))

    def test_out_darts_partition(self):
        g = theta_graph()
        assert set(g.out_darts("p")) == {"x", "y", "z"}
        assert set(g.out_darts("q")) == {"~x", "~y", "~z"}

    def test_rejects_isolated_vertex(self):
        with pytest.raises(ValueError):
            SerreGraph(["a", "b"], [("e", "a", "a")])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            SerreGraph(["a"], [("e", "a", "a"), ("e", "a", "a")])

    def test_rose(self):
        g = rose(["a", "b"])
        assert g.vertices == ("v",)
        assert g.valence("v") == 4

    def test_connectivity(self):
        g = SerreGraph(["a", "b", "c", "d"],
                       [("e1", "a", "b"), ("e2", "c", "d")])
        assert not g.is_connected()
        assert theta_graph().is_connected()


def parse(text):
    return tuple(token_dart(t) for t in text.split())


class TestPaths:
    def test_parse_format_round_trip(self):
        g = theta_graph()
        darts = parse("x -y z -x")
        assert darts == ("x", "~y", "z", "~x")
        assert format_path(darts) == "x -y z -x"
        check_dart_sequence(g, darts)
        assert g.origin(darts[0]) == "p" and g.terminus(darts[-1]) == "p"

    def test_token_inverse_convention(self):
        assert token_dart("-a") == inv("a")
        assert dart_token(inv("a")) == "-a"
        assert token_dart(dart_token("~a")) == "~a"

    def test_rejects_non_path(self):
        g = theta_graph()
        # x ends at q and y starts at p; the loop would close up at p
        with pytest.raises(ValueError, match="concatenate"):
            CyclicPath(g, parse("x y"))
        with pytest.raises(ValueError, match="unknown dart"):
            CyclicPath(g, ("x", "~w"))
        with pytest.raises(ValueError, match="close up"):
            CyclicPath(g, ("x",))

    def test_cyclic_rotation_is_explicit(self):
        g = theta_graph()
        c1 = CyclicPath(g, parse("x -y"))
        c2 = CyclicPath(g, ("~y", "x"))
        assert c1 != c2
        assert set(c1.turns()) == set(c2.turns())

    def test_cyclic_immersion_sees_wraparound(self):
        g = theta_graph()
        assert not CyclicPath(g, parse("x -y y -x")).is_immersed()
        assert CyclicPath(g, parse("x -y")).is_immersed()


# random path machinery for property tests

def _random_walk(g, rng, length):
    v = rng.choice(list(g.vertices))
    darts = []
    for _ in range(length):
        d = rng.choice(list(g.out_darts(v)))
        darts.append(d)
        v = g.terminus(d)
    return darts


@given(seed=st.integers(0, 10 ** 9), length=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_tighten_idempotent_and_nonincreasing(seed, length):
    # free reduction of a dart path: idempotent, never longer, and (when
    # something is left) a path between the same endpoints
    import random
    g = theta_graph()
    darts = _random_walk(g, random.Random(seed), length)
    t = reduce_darts(darts)
    assert len(t) <= len(darts)
    assert len(t) % 2 == len(darts) % 2
    assert reduce_darts(t) == t
    if t:
        check_dart_sequence(g, t)
        assert g.origin(t[0]) == g.origin(darts[0])
        assert g.terminus(t[-1]) == g.terminus(darts[-1])
    else:
        assert g.origin(darts[0]) == g.terminus(darts[-1])


class TestGraphMap:
    def test_identity(self, sigma):
        ident = GraphMap.identity(sigma.domain)
        assert validate(ident) is None
        assert compose(sigma, ident) == sigma
        assert compose(ident, sigma) == sigma

    def test_validate_catches_broken_endpoints(self):
        g = rose(["a", "b"])
        bad = GraphMap(g, g, {"v": "v"}, {"a": "a", "b": ""})
        assert validate(bad) is not None

    def test_validate_catches_missing_vertex_image(self):
        g = theta_graph()
        f = GraphMap(g, g, {"p": "p"}, {e: (e,) for e in g.edge_ids})
        assert validate(f) is not None

    def test_image_of_reversed_dart(self, sigma):
        assert sigma.dart_image("~a") == tuple(
            inv(d) for d in reversed(sigma.dart_image("a")))

    def test_power_matches_iterated_substitution(self, fib):
        from oracles import iterate_darts
        f4 = fib.power(4)
        for e in fib.domain.edge_ids:
            assert f4.dart_image(e) == iterate_darts(fib, (e,), 4)

    def test_power_zero_is_identity(self, fib):
        assert fib.power(0) == GraphMap.identity(fib.domain)

    def test_power_composes_nothing_longer_than_its_result(
            self, sigma, monkeypatch):
        # repeated squaring must stop squaring once the top bit is used
        from ttforge import graphs
        sizes = []

        def counting(*args, **kwargs):
            out = compose(*args, **kwargs)
            sizes.append(_symbols(out))
            return out

        monkeypatch.setattr(graphs, "compose", counting)
        for k in range(1, 10):
            sizes.clear()
            result = _symbols(sigma.power(k))
            assert result == 2 ** (k + 1)
            assert max(sizes) <= result, (k, sizes)

    def test_compose_is_substitution_without_reduction(self, sigma, fib):
        gh = compose(sigma, fib)
        for e in "ab":
            expect = sigma.apply_to_darts(fib.dart_image(e))
            assert gh.dart_image(e) == expect


def _symbols(f):
    return sum(len(f.dart_image(e)) for e in f.domain.edge_ids)


@given(seed=st.integers(0, 10 ** 9))
@settings(max_examples=150, deadline=None)
def test_compose_of_valid_maps_is_valid(seed):
    import random
    rng = random.Random(seed)
    g = theta_graph()
    maps = []
    for _ in range(2):
        vm = {"p": rng.choice(["p", "q"])}
        vm["q"] = rng.choice(["p", "q"])
        images = {}
        for e in g.edge_ids:
            length = rng.randrange(1, 4)
            while True:
                walk = _random_walk_between(g, rng, vm["p"], vm["q"], length)
                if walk is None:
                    length += 1
                elif tuple(reduce_darts(walk)) == tuple(walk):
                    images[e] = tuple(walk)
                    break
        maps.append(GraphMap(g, g, vm, images))
    assert validate(maps[0]) is None and validate(maps[1]) is None
    # the unreduced composite is a graph map whose images may backtrack
    problem = validate(compose(maps[0], maps[1]))
    assert problem is None or problem.startswith("not immersed"), problem
    # substitution without reduction is associative on the nose
    raw = compose(compose(maps[0], maps[1]), maps[0])
    assert raw == compose(maps[0], compose(maps[1], maps[0]))


def _random_walk_between(g, rng, a, b, length):
    v = a
    darts = []
    for remaining in range(length, 0, -1):
        options = [d for d in g.out_darts(v)]
        rng.shuffle(options)
        picked = None
        for d in options:
            # a theta graph flips sides every dart, so parity decides
            w = g.terminus(d)
            if (remaining - 1) % 2 == (0 if w == b else 1):
                picked = d
                break
        if picked is None:
            return None
        darts.append(picked)
        v = g.terminus(picked)
    return darts if v == b else None


def test_reduce_darts_pairs():
    assert reduce_darts(("a", "~a", "b")) == ("b",)
    assert reduce_darts(("a", "b", "~b", "~a")) == ()
    assert reduce_darts(()) == ()


def test_positive_edge_helpers():
    assert is_positive("a") and not is_positive("~a")
    assert edge_of("~a") == "a" == edge_of("a")
