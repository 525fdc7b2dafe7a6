"""Train track analysis against independent oracles.

Answers are compared with the brute-force reimplementations in oracles.py,
which share no code with the package.
"""

import random
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ttforge.graphs import (
    GraphMap, SerreGraph, inv, iterated_lengths, rose, turn, validate,
)
from ttforge.traintrack import (
    ExpansionReport, TransitionMatrix, TurnSystem, certification_failure,
    find_invariant_subgraph, has_positive_power, is_expanding,
    is_irreducible, is_train_track, legal_loop_through, period,
    pf_eigenvalue, transition_matrix,
)
from ttforge.induced import _growth_rate_mismatch, build_induced
from ttforge.io import load_input_file
from ttforge.randmaps import GenerationStats, random_candidate

from oracles import (
    dense_transition_rows, expansion_matrix_oracle, expansion_oracle,
    growth_rate_mismatch_oracle, invariant_subgraph_oracle,
    invariant_subgraph_search, irreducible_oracle, iterate_darts,
    darts_reduced, period_oracle, positive_power_oracle,
    primitivity_exponent_oracle, spectral_radius, train_track_oracle,
    transfer_size_oracle,
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


def rows_map(rows):
    """A rose self-map with these transition rows; images may be empty."""
    names = ["e%d" % i for i in range(len(rows))]
    g = SerreGraph(["v"], [(e, "v", "v") for e in names],
                   allow_isolated=True)
    return GraphMap(g, g, {"v": "v"}, {
        e: tuple(x for x, a in zip(names, row) for _ in range(a))
        for e, row in zip(names, rows)})


def arcs_matrix(n, arcs):
    rows = [[0] * n for _ in range(n)]
    for i, j in arcs:
        rows[i][j] = 1
    return square_matrix(rows)


@st.composite
def dense_rows(draw, max_dim=7, irreducible=False):
    """Nonnegative square matrices: empty, 1x1, zero rows, spanning cycles.

    With ``irreducible`` every matrix is nonempty with a spanning cycle.
    """
    dim = draw(st.integers(int(irreducible), max_dim))
    rows = draw(st.lists(
        st.lists(st.sampled_from((0, 0, 0, 1, 1, 2, 3)), min_size=dim,
                 max_size=dim), min_size=dim, max_size=dim))
    if irreducible or (dim and draw(st.booleans())):
        order = draw(st.permutations(range(dim)))
        for a, b in zip(order, order[1:] + order[:1]):
            rows[a][b] = max(rows[a][b], 1)
    elif dim:
        for i in draw(st.lists(st.integers(0, dim - 1), max_size=2)):
            rows[i] = [0] * dim
    return rows


class TestSparseRows:
    """The sparse-row routines against dense reference versions."""

    @given(rows=dense_rows())
    @settings(max_examples=400, deadline=None)
    def test_routines_match_dense_oracles(self, rows):
        m = square_matrix(rows)
        assert m.rows == tuple(tuple(row) for row in rows)
        assert m == TransitionMatrix.from_entries(m.labels, m.entries)
        assert is_irreducible(m) == irreducible_oracle(rows)
        assert has_positive_power(m) == primitivity_exponent_oracle(rows)
        assert period(m) == period_oracle(rows)
        bounded, _stable = expansion_matrix_oracle(rows)
        report = is_expanding(m)
        assert report == ExpansionReport(
            not bounded, tuple(m.labels[i] for i in bounded),
            m.labels[bounded[0]] if bounded else None)
        closure = invariant_subgraph_oracle(rows)
        witness = find_invariant_subgraph(m)
        assert witness == (
            None if closure is None
            else frozenset(m.labels[i] for i in closure))
        if all(any(row) for row in rows):
            assert (witness is None) == is_irreducible(m)
        f = rows_map(rows)
        assert transition_matrix(f) == m
        for power, lengths in enumerate(islice(iterated_lengths(f), 4)):
            assert sum(lengths.values()) == transfer_size_oracle(rows, power)

    @given(down=dense_rows(max_dim=4, irreducible=True), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_growth_rate_mismatch_matches_dense_products(self, down, data):
        # a core of up to 8 edges over the down matrix's edges; half the
        # cases split each down entry over the columns with that label, so
        # the identity holds unless a label has no core edge
        k = len(down)
        size = data.draw(st.integers(1, 8))
        label = data.draw(st.lists(st.integers(0, k - 1), min_size=size,
                                   max_size=size))
        up = [[0] * size for _ in range(size)]
        if data.draw(st.booleans()):
            for e in range(size):
                for c, count in enumerate(down[label[e]]):
                    over = [j for j in range(size) if label[j] == c]
                    for _ in range(count if over else 0):
                        up[e][data.draw(st.sampled_from(over))] += 1
        else:
            up = data.draw(st.lists(st.lists(
                st.integers(0, 2), min_size=size, max_size=size),
                min_size=size, max_size=size))
        a_down = square_matrix(down)
        a_up = TransitionMatrix(["c%d" % i for i in range(size)], up)
        edge_label = {"c%d" % e: "e%d" % label[e] for e in range(size)}
        core = SimpleNamespace(edge_label=edge_label)
        assert _growth_rate_mismatch(
            core, a_down, a_up, is_irreducible(a_up)
        ) == growth_rate_mismatch_oracle(
            a_up.labels, up, a_down.labels, down, edge_label)

    def test_rows_are_a_dense_count(self, named_fixture_maps, corpus100):
        for f in list(named_fixture_maps.values()) + list(corpus100):
            assert transition_matrix(f).rows == dense_transition_rows(f)


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
        m = square_matrix(rows)
        assert has_positive_power(m) == expected
        assert period(m) == period_oracle(rows)
        assert (period(m) == 1) == (expected is not None)

    def test_period_gate_matches_the_stepping_loop(self):
        # supports with arcs only from class c to class c + 1 mod p: for
        # p > 1 every irreducible one is imprimitive; p = 1 is unrestricted
        # and gives the reducible and primitive cases
        rng = random.Random(1977)
        seen = set()
        for _ in range(3000):
            dim = rng.randint(0, 9)
            period = rng.randint(1, 3)
            group = [rng.randrange(period) for _ in range(dim)]
            density = rng.choice((0.2, 0.5, 0.8, 1.0))
            rows = [[rng.randint(1, 2) if rng.random() < density
                     and (group[j] - group[i] - 1) % period == 0 else 0
                     for j in range(dim)] for i in range(dim)]
            m = square_matrix(rows)
            expected = positive_power_oracle(m)
            assert has_positive_power(m) == expected, rows
            seen.add((is_irreducible(m), expected is not None))
        assert seen == {(False, False), (True, False), (True, True)}

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

    def test_period_on_block_cyclic_supports(self):
        # arcs only from class c to class c + 1 mod p: every cycle's
        # length is a multiple of p, so p divides an irreducible support's
        # period
        rng = random.Random(1507)
        seen = set()
        for _ in range(400):
            dim = rng.randint(0, 8)
            classes = rng.randint(1, 4)
            group = [rng.randrange(classes) for _ in range(dim)]
            rows = [[rng.randint(1, 2) if rng.random() < 0.6
                     and (group[j] - group[i] - 1) % classes == 0 else 0
                     for j in range(dim)] for i in range(dim)]
            m = square_matrix(rows)
            got = period(m)
            assert got == period_oracle(rows), rows
            if got is not None:
                assert got % classes == 0, rows
            seen.add(got)
        assert {None, 1, 2, 3, 4} <= seen

    def test_period_of_empty_and_reducible_is_none(self):
        assert period(square_matrix([])) is None
        assert period(square_matrix([[0]])) is None
        assert period(square_matrix([[2, 1, 1], [0, 1, 3], [0, 0, 1]])) \
            is None
        assert period(square_matrix([[1, 1], [0, 0]])) is None
        assert period(square_matrix([[3]])) == 1
        assert period(square_matrix([[0, 1], [1, 0]])) == 2

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
        bounded, stable = expansion_matrix_oracle(dense_transition_rows(f))
        assert report.witness_edge == sorted(f.domain.edge_ids)[bounded[0]]
        lengths = set()
        darts = (report.witness_edge,)
        for k in range(1, 20):
            darts = f.apply_to_darts(darts)
            lengths.add(len(darts))
        assert max(lengths) == stable


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
        assert all(a != b for a, b in orbit)

    def test_degenerate_turn_is_illegal(self, sigma):
        ts = TurnSystem(sigma)
        assert ts.orbit(turn("a", "a")) == [turn("a", "a")]


class TestTrainTrack:
    def test_fixtures_are_train_tracks(self, named_fixture_maps):
        for name, f in named_fixture_maps.items():
            assert is_train_track(f).is_train_track, name
            assert train_track_oracle(f), name

    def test_degenerating_candidate(self):
        f = rose_map({"a": "a b", "b": "-b -a"})
        verdict = is_train_track(f)
        assert not verdict.is_train_track
        assert "degenerates" in verdict.reason
        assert not train_track_oracle(f)

    def test_non_surjective_candidate(self):
        f = rose_map({"a": "a", "b": "a"})
        verdict = is_train_track(f)
        assert not verdict.is_train_track
        assert "surjective" in verdict.reason
        assert not train_track_oracle(f)

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
            assert is_train_track(f).is_train_track == train_track_oracle(f)

    def test_corpus_certificates_recheck(self, corpus100):
        for f in corpus100:
            assert is_train_track(f).is_train_track
            assert train_track_oracle(f)


class TestLegalLoop:
    def test_loops_through_each_fixture_edge(self, named_fixture_maps):
        for f in named_fixture_maps.values():
            for e in sorted(f.domain.edge_ids):
                loop = legal_loop_through(f, e)
                assert e in loop.edges_crossed()
                assert loop.is_immersed()

    def test_pushforwards_stay_immersed(self, sigma, cyc2):
        for f, e in ((sigma, "a"), (sigma, "b"), (cyc2, "c1")):
            cycle = legal_loop_through(f, e)
            for _ in range(10):
                cycle = f.apply_cycle(cycle)
                assert cycle.is_immersed()

    def test_unknown_edge(self, sigma):
        with pytest.raises(ValueError):
            legal_loop_through(sigma, "zz")

    def test_corpus_loops(self, corpus100):
        for f in corpus100[:25]:
            e = sorted(f.domain.edge_ids)[0]
            loop = legal_loop_through(f, e)
            assert e in loop.edges_crossed()
            assert loop.is_immersed()


class TestInvariantSubgraph:
    def test_irreducible_fixtures_have_none(self, named_fixture_maps):
        for f in named_fixture_maps.values():
            assert find_invariant_subgraph(transition_matrix(f)) is None

    def test_reducible_map_witness(self):
        f = rose_map({"a": "a", "b": "a b"})
        w = find_invariant_subgraph(transition_matrix(f))
        assert w == frozenset({"a"})
        assert w in invariant_subgraph_search(f)

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_search_and_irreducibility(self, seed):
        for f in valid_candidates(seed, 2):
            matrix = transition_matrix(f)
            w = find_invariant_subgraph(matrix)
            exhaustive = invariant_subgraph_search(f)
            irreducible = is_irreducible(matrix)
            assert (w is None) == (not exhaustive) == irreducible
            if w is not None:
                assert w in exhaustive

    def test_corpus_is_irreducible(self, corpus100):
        for f in corpus100:
            assert find_invariant_subgraph(transition_matrix(f)) is None
            assert not invariant_subgraph_search(f)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestCertificationFailure:
    """One admission chain: a field for the generator, a message for build."""

    @pytest.mark.parametrize("name,field,message", [
        ("backtracking.json", "invalid", "invalid graph map: not immersed"),
        ("nilp.json", "not_train_track", "not a train track map: "),
        ("reducible.json", "reducible",
         "transition matrix is not irreducible"),
        ("nonexpanding.json", "not_expanding", "not expanding: edge "),
    ])
    def test_first_failed_check(self, name, field, message):
        f = load_input_file(FIXTURES / name).graph_map
        failure = certification_failure(f)
        assert failure[0] == field and failure[1].startswith(message)
        assert hasattr(GenerationStats(), field)
        with pytest.raises(ValueError) as raised:
            build_induced(f)
        assert str(raised.value) == failure[1]

    def test_self_map_is_required(self):
        f = GraphMap(rose(["a", "b"]), rose(["a"]), {"v": "v"},
                     {"a": "a", "b": "a"})
        assert certification_failure(f) == ("invalid", "need a self map")

    def test_fixtures_that_promote_pass(self, sigma, fib, cyc2, pre1_r2):
        for f in (sigma, fib, cyc2, pre1_r2):
            assert certification_failure(f) is None

    def test_one_condensation_pass(self, fib, monkeypatch):
        """Irreducibility and expansion read one condensation of the matrix.

        Each pass walks ``adjacency`` from one read of it, so the reads
        count the passes.
        """
        slot = TransitionMatrix.adjacency
        passes = []

        def read(matrix):
            passes.append(matrix)
            return slot.__get__(matrix)

        monkeypatch.setattr(TransitionMatrix, "adjacency",
                            property(read, slot.__set__))
        assert certification_failure(fib) is None
        assert len(passes) == 1
