"""Train track analysis against independent oracles.

Certificates are rechecked through their own ``check`` methods and against
the brute-force reimplementations in oracles.py, which share no code with
the package.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ttforge.graphs import CyclicPath, GraphMap, inv, rose, turn, validate
from ttforge.traintrack import (
    ExpansionReport, TransitionMatrix, TurnSystem,
    find_invariant_subgraph, has_positive_power, is_expanding,
    is_irreducible, is_train_track, legal_loop_through, pf_eigenvalue,
    transition_matrix,
)
from ttforge.randmaps import random_candidate

from oracles import (
    expansion_oracle, invariant_subgraph_search, irreducible_oracle,
    iterate_darts, darts_reduced, primitivity_exponent_oracle,
    spectral_radius, train_track_oracle,
)

GOLDEN = (1 + 5 ** 0.5) / 2


def rose_map(images):
    g = rose(sorted(images), "v")
    return GraphMap(g, g, {"v": "v"}, images)


def valid_candidates(seed, count, max_edges=5):
    """Deterministic stream of validate-clean self-maps."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_candidate(rng, max_edges=max_edges)
        if f is not None and validate(f) is None:
            out.append(f)
    return out


class TestTransitionMatrix:
    def test_fixture_matrices(self, sigma, fib, cyc2):
        assert transition_matrix(sigma).rows == ((1, 1), (1, 1))
        assert transition_matrix(sigma).labels == ("a", "b")
        assert transition_matrix(fib).rows == ((0, 1), (1, 1))
        m = transition_matrix(cyc2)
        assert m.labels == ("c1", "c2")
        assert m.rows == ((0, 1), (2, 1))

    def test_row_sums_are_image_lengths(self, named_fixture_maps):
        for f in named_fixture_maps.values():
            m = transition_matrix(f)
            for e, row in zip(m.labels, m.rows):
                assert sum(row) == len(f.dart_image(e))

    def test_counts_both_orientations(self):
        f = rose_map({"a": "a -a b", "b": "a"})
        # not a valid map (backtracking image) but counting ignores that
        m = transition_matrix(f)
        assert m.labels == ("a", "b")
        assert m.rows[0] == (2, 1)

    def test_rejects_bad_shape_and_sign(self):
        with pytest.raises(ValueError):
            TransitionMatrix(("a", "b"), ((1, 1),))
        with pytest.raises(ValueError):
            TransitionMatrix(("a",), ((-1,),))

    def test_needs_self_map(self):
        g = rose(["a"], "v")
        h = rose(["x", "y"], "w")
        f = GraphMap(g, h, {"v": "w"}, {"a": "x y"})
        with pytest.raises(ValueError):
            transition_matrix(f)


class TestIrreducibility:
    def test_fixture_verdicts(self, sigma, cyc2):
        assert is_irreducible(transition_matrix(sigma)) is True
        assert is_irreducible(transition_matrix(cyc2)) is True

    def test_identity_matrix_reducible(self):
        m = TransitionMatrix(("a", "b"), ((1, 0), (0, 1)))
        assert is_irreducible(m) is False

    @given(seed=st.integers(0, 10 ** 9), dim=st.integers(0, 9),
           density=st.sampled_from((0.05, 0.15, 0.3, 0.5, 0.8)))
    @settings(max_examples=300, deadline=None)
    def test_matches_reachability_oracle(self, seed, dim, density):
        rng = random.Random(seed)
        rows = [[rng.randint(1, 3) if rng.random() < density else 0
                 for _ in range(dim)] for _ in range(dim)]
        if dim and rng.random() < 0.5:
            # a spanning cycle makes the support irreducible
            order = rng.sample(range(dim), dim)
            for a, b in zip(order, order[1:] + order[:1]):
                rows[a][b] = max(rows[a][b], 1)
        assert is_irreducible(square_matrix(rows)) == irreducible_oracle(rows)

    @pytest.mark.parametrize("rows,expected", [
        ([], True),
        ([[0]], False),
        ([[1]], True),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], True),
        ([[2, 1, 1], [0, 1, 3], [0, 0, 1]], False),
    ], ids=["empty", "zero", "loop", "permutation", "upper_triangular"])
    def test_small_cases(self, rows, expected):
        assert irreducible_oracle(rows) == expected
        assert is_irreducible(square_matrix(rows)) == expected

    def test_positive_power_exponents(self, sigma, fib):
        assert has_positive_power(transition_matrix(sigma)) == 1
        assert has_positive_power(transition_matrix(fib)) == 2

    def test_permutation_matrix_never_positive(self):
        m = TransitionMatrix(("a", "b"), ((0, 1), (1, 0)))
        assert has_positive_power(m) is None

    def test_positive_power_by_direct_squaring(self, named_fixture_maps):
        for f in named_fixture_maps.values():
            m = transition_matrix(f)
            assert has_positive_power(m) == primitivity_exponent_oracle(
                m.rows)


def square_matrix(rows):
    return TransitionMatrix(["e%d" % i for i in range(len(rows))], rows)


def arcs_matrix(n, arcs):
    rows = [[0] * n for _ in range(n)]
    for i, j in arcs:
        rows[i][j] = 1
    return square_matrix(rows)


class TestPositivePower:
    @given(seed=st.integers(0, 10 ** 9), dim=st.integers(0, 9),
           density=st.sampled_from((0.05, 0.15, 0.3, 0.5, 0.8, 1.0)))
    @settings(max_examples=300, deadline=None)
    def test_matches_boolean_powers(self, seed, dim, density):
        rng = random.Random(seed)
        rows = [[rng.randint(1, 3) if rng.random() < density else 0
                 for _ in range(dim)] for _ in range(dim)]
        if dim and rng.random() < 0.5:
            # a spanning cycle makes the support irreducible, so many
            # cases are primitive and the search ends on an exponent
            order = rng.sample(range(dim), dim)
            for a, b in zip(order, order[1:] + order[:1]):
                rows[a][b] = max(rows[a][b], 1)
        if dim and rng.random() < 0.5:
            i = rng.randrange(dim)
            rows[i][i] = rng.randint(1, 3)
        if dim and rng.random() < 0.2:
            rows[rng.randrange(dim)] = [0] * dim
        expected = primitivity_exponent_oracle(rows)
        assert has_positive_power(square_matrix(rows)) == expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_wielandt_matrix_reaches_the_bound(self, n):
        arcs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0), (n - 1, 1)]
        assert has_positive_power(arcs_matrix(n, arcs)) == (n - 1) ** 2 + 1

    @pytest.mark.parametrize("period,block", [(2, 3), (3, 1), (3, 2)])
    def test_block_cyclic_is_never_positive(self, period, block):
        # classes of ``block`` indices, every arc into the next class
        n = period * block
        arcs = [(i, j) for i in range(n) for j in range(n)
                if j // block == (i // block + 1) % period]
        m = arcs_matrix(n, arcs)
        assert is_irreducible(m)
        assert has_positive_power(m) is None

    def test_upper_triangular_is_never_positive(self):
        m = square_matrix([[2, 1, 1], [0, 1, 3], [0, 0, 1]])
        assert has_positive_power(m) is None

    def test_degenerate_sizes(self):
        assert has_positive_power(square_matrix([])) is None
        assert has_positive_power(square_matrix([[0]])) is None
        assert has_positive_power(square_matrix([[1]])) == 1
        assert has_positive_power(square_matrix([[3]])) == 1


class TestExpansion:
    def test_fixtures_expand(self, named_fixture_maps):
        for name, f in named_fixture_maps.items():
            assert is_expanding(transition_matrix(f)).expanding, name

    def test_identity_map_is_not_expanding(self):
        f = rose_map({"a": "a", "b": "b"})
        report = is_expanding(transition_matrix(f))
        assert not report.expanding
        assert report.witness_edge == "a"
        assert report.stable_length == 1

    def test_partial_growth_is_not_expanding(self):
        f = rose_map({"a": "a", "b": "a b"})
        report = is_expanding(transition_matrix(f))
        assert not report.expanding
        assert report.witness_edge == "a"
        assert "b" not in report.bounded_edges

    def test_stable_length_of_a_swap(self):
        g = rose(["a", "b"], "v")
        f = GraphMap(g, g, {"v": "v"}, {"a": "b b", "b": "a"})
        report = is_expanding(transition_matrix(f))
        assert report.expanding

    def test_agrees_with_iteration_oracle_on_fixtures(
            self, named_fixture_maps, nilp):
        for f in list(named_fixture_maps.values()) + [nilp]:
            verdict, bounded = expansion_oracle(f)
            report = is_expanding(transition_matrix(f))
            assert report.expanding == verdict
            assert tuple(sorted(bounded)) == report.bounded_edges

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_iteration_oracle(self, seed):
        # bounded edges repeat a path long before any cap, so a small blow
        # keeps the oracle exact while the expanding edges cross it sooner
        for f in valid_candidates(seed, 2):
            verdict, bounded = expansion_oracle(f, blow=512)
            report = is_expanding(transition_matrix(f))
            assert report.expanding == verdict
            assert tuple(sorted(bounded)) == report.bounded_edges

    def test_bounded_witness_really_is_bounded(self):
        f = rose_map({"a": "b", "b": "a", "c": "c a b"})
        report = is_expanding(transition_matrix(f))
        assert not report.expanding
        lengths = set()
        darts = (report.witness_edge,)
        for k in range(1, 20):
            darts = f.apply_to_darts(darts)
            lengths.add(len(darts))
        assert max(lengths) == report.stable_length


class TestPFEigenvalue:
    def test_fixture_values(self, sigma, fib, cyc2):
        assert abs(pf_eigenvalue(transition_matrix(sigma)).value - 2) <= 1e-9
        assert abs(pf_eigenvalue(transition_matrix(fib)).value
                   - GOLDEN) <= 1e-9
        assert abs(pf_eigenvalue(transition_matrix(cyc2)).value - 2) <= 1e-9

    def test_against_numpy_on_fixtures(self, named_fixture_maps):
        for f in named_fixture_maps.values():
            m = transition_matrix(f)
            got = pf_eigenvalue(m)
            assert got.error_bound <= 1e-9
            assert abs(got.value - spectral_radius(m.rows)) <= 1e-7

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_against_numpy_on_random_maps(self, seed):
        for f in valid_candidates(seed, 2):
            m = transition_matrix(f)
            if not is_irreducible(m):
                continue
            assert abs(pf_eigenvalue(m).value
                       - spectral_radius(m.rows)) <= 1e-7

    def test_rejects_reducible(self):
        m = TransitionMatrix(("a", "b"), ((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            pf_eigenvalue(m)


class TestTurnSystem:
    def test_derivative_and_taken_turns(self, sigma):
        ts = TurnSystem(sigma)
        assert ts.df["a"] == "a"
        assert ts.df["b"] == "a"
        assert ts.df[inv("a")] == inv("b")
        assert ts.taken == frozenset({turn(inv("a"), "b")})

    def test_orbit_reaches_fixed_turn(self, sigma):
        ts = TurnSystem(sigma)
        orbit = ts.orbit(turn(inv("a"), "b"))
        assert orbit[-1] == turn(inv("b"), "a")
        assert ts.apply(orbit[-1]) == orbit[-1]
        assert ts.is_legal(turn(inv("a"), "b"))

    def test_degenerate_turn_is_illegal(self, sigma):
        ts = TurnSystem(sigma)
        assert not ts.is_legal(turn("a", "a"))

    def test_closure_contains_taken(self, named_fixture_maps):
        for f in named_fixture_maps.values():
            ts = TurnSystem(f)
            closure = ts.closure_of_taken()
            assert ts.taken <= closure
            for t in closure:
                assert ts.apply(t) in closure or t[0] == t[1]


class TestTrainTrack:
    def test_fixtures_are_train_tracks(self, named_fixture_maps):
        for name, f in named_fixture_maps.items():
            cert = is_train_track(f)
            assert cert.is_train_track, name
            assert cert.check(f), name

    def test_degenerating_candidate(self):
        f = rose_map({"a": "a b", "b": "-b -a"})
        cert = is_train_track(f)
        assert not cert.is_train_track
        assert cert.degenerate_orbit is not None
        assert cert.check(f)
        assert not train_track_oracle(f)

    def test_non_surjective_candidate(self):
        f = rose_map({"a": "a", "b": "a"})
        cert = is_train_track(f)
        assert not cert.is_train_track
        assert "surjective" in cert.reason
        assert cert.check(f)

    def test_tampered_certificate_fails(self, sigma):
        cert = is_train_track(sigma)
        bad = type(cert)(True, None, frozenset(), None)
        assert not bad.check(sigma)

    def test_powers_restricted_to_edges_are_immersed(
            self, named_fixture_maps):
        for f in named_fixture_maps.values():
            assert is_train_track(f).is_train_track
            for e in sorted(f.domain.edge_ids):
                darts = (e,)
                for _ in range(10):
                    darts = f.apply_to_darts(darts)
                    if len(darts) > 40000:
                        break
                    assert darts_reduced(darts)

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_turn_walker_oracle(self, seed):
        for f in valid_candidates(seed, 2):
            cert = is_train_track(f)
            assert cert.is_train_track == train_track_oracle(f)
            assert cert.check(f)

    def test_corpus_certificates_recheck(self, corpus100):
        for f in corpus100:
            cert = is_train_track(f)
            assert cert.is_train_track and cert.check(f)
            assert train_track_oracle(f)


class TestLegalLoop:
    def test_loops_through_each_fixture_edge(self, named_fixture_maps):
        for f in named_fixture_maps.values():
            for e in sorted(f.domain.edge_ids):
                loop = legal_loop_through(f, e)
                assert e in loop.cycle.edges_crossed()
                assert loop.cycle.is_immersed()
                assert loop.check(f)

    def test_pushforwards_stay_immersed(self, sigma, cyc2):
        for f, e in ((sigma, "a"), (sigma, "b"), (cyc2, "c1")):
            cycle = legal_loop_through(f, e).cycle
            for _ in range(10):
                cycle = f.apply_cycle(cycle)
                assert cycle.is_immersed()

    def test_unknown_edge(self, sigma):
        with pytest.raises(ValueError):
            legal_loop_through(sigma, "zz")

    def test_certificate_detects_foreign_cycle(self, sigma):
        loop = legal_loop_through(sigma, "a")
        alien = CyclicPath(sigma.domain, ("a", "b"))
        assert not type(loop)(alien, loop.orbits).check(sigma) \
            or set(alien.turns()) <= {t for t, _ in loop.orbits}

    def test_corpus_loops(self, corpus100):
        for f in corpus100[:25]:
            e = sorted(f.domain.edge_ids)[0]
            loop = legal_loop_through(f, e)
            assert e in loop.cycle.edges_crossed()
            assert loop.check(f)


class TestInvariantSubgraph:
    def test_irreducible_fixtures_have_none(self, named_fixture_maps):
        for f in named_fixture_maps.values():
            assert find_invariant_subgraph(f) is None

    def test_reducible_map_witness(self):
        f = rose_map({"a": "a", "b": "a b"})
        w = find_invariant_subgraph(f)
        assert w is not None
        assert w.edges == frozenset({"a"})
        assert w.check(f)

    def test_degenerate_witnesses_rejected(self, sigma):
        from ttforge.traintrack import InvariantSubgraphWitness
        assert not InvariantSubgraphWitness(frozenset()).check(sigma)
        assert not InvariantSubgraphWitness(
            frozenset(sigma.domain.edge_ids)).check(sigma)

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_search_and_irreducibility(self, seed):
        for f in valid_candidates(seed, 2):
            w = find_invariant_subgraph(f)
            exhaustive = invariant_subgraph_search(f)
            irreducible = is_irreducible(transition_matrix(f))
            assert (w is None) == (not exhaustive) == irreducible
            if w is not None:
                assert w.check(f)
                assert w.edges in exhaustive

    def test_corpus_is_irreducible(self, corpus100):
        for f in corpus100:
            assert find_invariant_subgraph(f) is None
            assert not invariant_subgraph_search(f)
