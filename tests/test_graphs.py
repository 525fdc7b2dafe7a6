import pytest
from hypothesis import given, settings, strategies as st

from ttforge.graphs import (
    INV_PREFIX, CyclicPath, GraphMap, SerreGraph, _check_id,
    check_dart_sequence, compose, dart_key, edge_of, inv, is_positive,
    reduce_darts, rose, turn, validate,
)

from oracles import validate_oracle


def theta_graph():
    return SerreGraph(["p", "q"], [("x", "p", "q"), ("y", "p", "q"),
                                   ("z", "p", "q")])


class TestSerreGraph:
    def test_darts_come_in_inverse_pairs(self):
        g = theta_graph()
        assert set(g.darts) == {"x", "y", "z", "-x", "-y", "-z"}
        for d in g.darts:
            assert inv(inv(d)) == d
            assert inv(d) != d
            assert g.origin(d) == g.terminus(inv(d))

    def test_out_darts_partition(self):
        g = theta_graph()
        assert set(g.out_darts("p")) == {"x", "y", "z"}
        assert set(g.out_darts("q")) == {"-x", "-y", "-z"}

    def test_rejects_isolated_vertex(self):
        with pytest.raises(ValueError):
            SerreGraph(["a", "b"], [("e", "a", "a")])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            SerreGraph(["a"], [("e", "a", "a"), ("e", "a", "a")])

    @pytest.mark.parametrize("edges,message", [
        ([("e", "a", "a"), ("e", "a", "b")], "duplicate edge id 'e'"),
        ([("e", "a", "z")], "edge 'e' has endpoint outside the vertex set"),
        ([("z", "x", "b")], "edge 'z' has endpoint outside the vertex set"),
        ([("e f", "a", "b")], "edge id 'e f' contains whitespace"),
    ], ids=["duplicate", "terminus_outside", "origin_outside", "whitespace"])
    def test_edge_checks_name_the_edge(self, edges, message):
        with pytest.raises(ValueError) as err:
            SerreGraph(["a", "b"], edges)
        assert str(err.value) == message

    @pytest.mark.parametrize("edge_id", [None, 1, 1.5])
    def test_rejects_non_string_edge_id(self, edge_id):
        # checked as given: no id is converted to a string first
        with pytest.raises(ValueError) as err:
            SerreGraph(["a"], [("b", "a", "a"), (edge_id, "a", "a")])
        assert str(err.value) == (
            "edge id must be a nonempty string, got %r" % (edge_id,))

    @pytest.mark.parametrize("vertex_id", [None, 1, 1.5])
    def test_rejects_non_string_vertex_id(self, vertex_id):
        # checked as given, before the ids are sorted
        with pytest.raises(ValueError) as err:
            SerreGraph(["a", vertex_id], [("b", "a", "a")])
        assert str(err.value) == (
            "vertex id must be a nonempty string, got %r" % (vertex_id,))

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
    return tuple(text.split())


class TestPaths:
    def test_parse_format_round_trip(self):
        g = theta_graph()
        darts = parse("x -y z -x")
        assert darts == ("x", inv("y"), "z", inv("x"))
        assert " ".join(darts) == "x -y z -x"
        check_dart_sequence(g, darts)
        assert g.origin(darts[0]) == "p" and g.terminus(darts[-1]) == "p"

    def test_token_inverse_convention(self):
        assert INV_PREFIX == "-"
        assert inv("a") == "-a" and inv("-a") == "a"

    def test_rejects_non_path(self):
        g = theta_graph()
        # x ends at q and y starts at p; the loop would close up at p
        with pytest.raises(ValueError, match="concatenate"):
            CyclicPath(g, parse("x y"))
        with pytest.raises(ValueError, match="unknown dart"):
            CyclicPath(g, ("x", "-w"))
        with pytest.raises(ValueError, match="close up"):
            CyclicPath(g, ("x",))

    def test_cyclic_rotation_is_explicit(self):
        g = theta_graph()
        c1 = CyclicPath(g, parse("x -y"))
        c2 = CyclicPath(g, ("-y", "x"))
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
        assert sigma.dart_image("-a") == tuple(
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


@given(seed=st.integers(0, 10 ** 9))
@settings(max_examples=400, deadline=None)
def test_validate_names_the_first_failing_invariant(seed):
    # one pass per edge image returns what one pass per invariant does:
    # maps between a theta graph and a graph with an isolated vertex, with
    # vertex images missing or outside, images walked from the right
    # vertex and then perhaps broken, ending anywhere and backtracking
    import random
    rng = random.Random(seed)
    theta = theta_graph()
    lonely = SerreGraph(["p", "q", "r"], [("x", "p", "q"), ("w", "q", "q")],
                        allow_isolated=True)
    domain, codomain = rng.choices(
        [(theta, theta), (theta, lonely), (lonely, theta), (lonely, lonely)],
        weights=(6, 1, 1, 1))[0]
    vm = {v: rng.choice(codomain.vertices) for v in domain.vertices}
    roll = rng.random()
    if roll < 0.1:
        del vm[rng.choice(domain.vertices)]
    elif roll < 0.3:
        vm[rng.choice(domain.vertices)] = rng.choice([None, "s"])
    images = {}
    for e in domain.edge_ids:
        v = vm.get(domain.origin(e))
        walk = []
        for _ in range(rng.randrange(0, 5)):
            out = codomain.out_darts(v) if v in codomain.vertices else ()
            d = rng.choice(out) if out and rng.random() < 0.9 else \
                rng.choice(codomain.darts + ("-u",))
            walk.append(d)
            v = codomain.terminus(d) if codomain.has_dart(d) else None
        images[e] = tuple(walk)
    m = GraphMap(domain, codomain, vm, images)
    assert validate(m) == validate_oracle(m)


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
    assert reduce_darts(("a", "-a", "b")) == ("b",)
    assert reduce_darts(("a", "b", "-b", "-a")) == ()
    assert reduce_darts(()) == ()


def test_positive_edge_helpers():
    assert is_positive("a") and not is_positive("-a")
    assert edge_of("-a") == "a" == edge_of("a")
    # the edge is the id, however its first character sorts
    assert edge_of("-\u00e9") == "\u00e9" == edge_of("\u00e9")


def _inv_by_startswith(dart):
    return dart[1:] if dart.startswith("-") else "-" + dart


def _has_space_by_char(name):
    return any(c.isspace() for c in name)


# Unicode whitespace that str.isspace and str.split both know, and two
# format characters (zero-width space, BOM) that neither treats as space
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(
    "ab~-_0 \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0"
    "\u1680\u2000\u2028\u2029\u3000\u200b\ufeff"), max_size=6)
    | st.text(max_size=6))
def test_string_shortcuts_match_their_definitions(name):
    """inv's prefix slice and _check_id's split agree with str methods."""
    assert inv(name) == _inv_by_startswith(name)
    if name:
        try:
            _check_id("vertex", name)
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == _has_space_by_char(name)


# Edge ids whose first character sorts below "~": among them, spelling the
# reversed dart "~id" puts every positive dart first, then plain string
# order.  That is the order of every out-dart list, core renaming and turn
# list the golden reports record, so dart_key must keep it.
_BELOW_TILDE = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7d),
    min_size=1, max_size=3).filter(lambda e: e[0] not in "-~")


@settings(max_examples=300, deadline=None)
@given(st.lists(_BELOW_TILDE, min_size=1, max_size=8, unique=True))
def test_dart_key_is_the_tilde_string_order(edge_ids):
    darts = edge_ids + [inv(e) for e in edge_ids]

    def tilde(d):
        return "~" + edge_of(d) if not is_positive(d) else d

    assert ([tilde(d) for d in sorted(darts, key=dart_key)]
            == sorted(map(tilde, darts)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=3).filter(
    lambda e: e[0] not in "-~"), min_size=2, max_size=2, unique=True),
    st.booleans(), st.booleans())
def test_turn_is_in_dart_key_order(pair, flip_a, flip_b):
    a, b = pair
    a, b = inv(a) if flip_a else a, inv(b) if flip_b else b
    assert turn(a, b) == turn(b, a) == tuple(sorted((a, b), key=dart_key))
