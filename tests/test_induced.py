"""End-to-end promotion pipeline: constants, identities, verification.

Expected constants for the named fixtures were frozen from hand
computation; the verification report is additionally stress-tested by
tampering with packages and watching the right check fail.
"""

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ttforge.graphs import GraphMap, SerreGraph, compose, rose, validate
from ttforge.traintrack import (
    has_positive_power, pf_eigenvalue, transition_matrix,
)
from ttforge.freegroup import image_chain
from ttforge.randmaps import random_candidate
from ttforge.induced import (
    SizeBudgetExceeded, _transfer_size, build_induced, conjugacy_check,
    find_periodic_vertex, injectivity_exponent, projection_map,
    smallest_multiple_reaching, verify_package,
)

from oracles import orbit_chains_oracle, orbit_exponents_oracle

ROSE2 = rose(["a", "b"])


def rose_map(images):
    g = rose(sorted(images), "v")
    return GraphMap(g, g, {"v": "v"}, images)


@pytest.fixture(scope="module")
def packages(named_fixture_maps):
    return {name: build_induced(f)
            for name, f in named_fixture_maps.items()}


class TestPeriodicVertex:
    def test_examples(self, sigma, fib, cyc2, pre1_r2, pre1_r3):
        assert find_periodic_vertex(sigma) == ("v", 1)
        assert find_periodic_vertex(fib) == ("v", 1)
        assert find_periodic_vertex(cyc2) == ("u", 2)
        assert find_periodic_vertex(pre1_r2) == ("v0", 2)
        assert find_periodic_vertex(pre1_r3) == ("v0", 3)

    def test_needs_self_map(self):
        g = rose(["a"], "v")
        h = rose(["x"], "u")
        with pytest.raises(ValueError):
            find_periodic_vertex(GraphMap(g, h, {"v": "u"}, {"a": "x"}))

    def test_returned_vertex_really_is_periodic(self, named_fixture_maps):
        for f in named_fixture_maps.values():
            v, r = find_periodic_vertex(f)
            cur = v
            for _ in range(r):
                cur = f.vertex_map[cur]
            assert cur == v
            # and the period is exact
            cur = v
            for step in range(1, r):
                cur = f.vertex_map[cur]
                assert cur != v


class TestInjectivityExponent:
    def test_examples(self, sigma, fib, cyc2, stab2, stab3):
        for f, v, r, n in ((sigma, "v", 1, 1), (fib, "v", 1, 1),
                           (cyc2, "u", 2, 1), (stab2, "v", 1, 2),
                           (stab3, "v", 1, 3)):
            assert injectivity_exponent(image_chain(f, v, r)) == n

    def test_constant_along_orbit(self, cyc2, pre1_r3):
        # the chain from any orbit vertex gives the exponent that the
        # basis-loop oracle finds at every orbit vertex
        for f, v, r in ((cyc2, "u", 2), (pre1_r3, "v0", 3)):
            oracle = orbit_exponents_oracle(f, orbit_chains_oracle(f, v, r))
            assert oracle == [1] * r
            for _ in range(r):
                assert injectivity_exponent(image_chain(f, v, r)) == 1
                v = f.vertex_map[v]


def assert_chain_matches_oracle(f):
    """K, the exponent and every link's canonical key, against the oracle.

    The oracle runs the basis-loop chain of the return map at every vertex
    of the periodic orbit; the single-step chain runs once, from the first.
    """
    v, r = find_periodic_vertex(f)
    links, K = image_chain(f, v, r)
    orbit = orbit_chains_oracle(f, v, r)
    oracle_links, oracle_K = orbit[0][1]
    assert K == oracle_K
    assert [link.canonical_key() for link in links] \
        == [link.canonical_key() for link in oracle_links]
    n = injectivity_exponent((links, K))
    assert orbit_exponents_oracle(f, orbit) == [n] * r


class TestImageChainOracle:
    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_generated_maps(self, seed):
        # any valid self-map, train track or not, so that edge images
        # cancel and folds leave hanging trees to trim
        f = random_candidate(random.Random(seed))
        assume(f is not None and validate(f) is None)
        assert_chain_matches_oracle(f)

    def test_fixtures(self, named_fixture_maps, nilp):
        for f in list(named_fixture_maps.values()) + [nilp]:
            assert_chain_matches_oracle(f)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ring_families(self, n):
        assert_chain_matches_oracle(_two_strand_ring(n))
        assert_chain_matches_oracle(_three_strand_ring(n))


class TestMultiplierArithmetic:
    def test_examples(self):
        assert smallest_multiple_reaching(1, 1) == 1
        assert smallest_multiple_reaching(1, 5) == 5
        assert smallest_multiple_reaching(3, 1) == 3
        assert smallest_multiple_reaching(3, 7) == 9
        assert smallest_multiple_reaching(4, 4) == 4
        assert smallest_multiple_reaching(2, 3) == 4

    @given(step=st.integers(1, 40), floor=st.integers(1, 400))
    @settings(max_examples=200)
    def test_minimal_multiple(self, step, floor):
        k = smallest_multiple_reaching(step, floor)
        assert k % step == 0
        assert k >= floor
        assert k - step < floor


class TestBuildInduced:
    def test_sigma_package(self, packages):
        pkg = packages["sigma"]
        assert pkg.constants() == {
            "periodic_vertex": "v", "period": 1, "exponent": 1,
            "preperiod": 0, "orbit_period": 1, "multiplier": 1,
            "constant": 2, "core_rank": 1, "core_edges": 2,
            "stabilization": 1,
        }
        assert len(pkg.transfer.dart_image("a")) == 4
        assert len(pkg.transfer.dart_image("b")) == 4

    def test_fib_package_is_trivial_cover(self, packages):
        pkg = packages["fib"]
        c = pkg.constants()
        assert c["constant"] == 2
        assert c["core_rank"] == 2 and c["core_edges"] == 2
        assert c["stabilization"] == 0 and c["exponent"] == 1
        assert len(pkg.core.graph.vertices) == 1
        # projection is a relabeling bijection on darts
        for e in pkg.core.graph.edge_ids:
            assert len(pkg.projection.dart_image(e)) == 1

    def test_cyc2_package(self, packages):
        pkg = packages["cyc2"]
        c = pkg.constants()
        assert c["period"] == 2 and c["constant"] == 4
        assert c["core_rank"] == 1 and c["core_edges"] == 8
        lam = pf_eigenvalue(transition_matrix(pkg.induced))
        assert abs(lam.value - 2) <= 1e-9

    def test_frozen_profile_constants(self, packages):
        profiles = {
            "stab2": dict(exponent=2, period=1, constant=4),
            "stab3": dict(exponent=3, period=1, constant=6),
            "pre1_r2": dict(exponent=1, period=2, preperiod=1, constant=4),
            "pre1_r3": dict(exponent=1, period=3, preperiod=1, constant=6),
        }
        for name, want in profiles.items():
            got = packages[name].constants()
            for key, value in want.items():
                assert got[key] == value, (name, key)

    def test_rejects_bad_inputs(self, nilp):
        with pytest.raises(ValueError, match="train track"):
            build_induced(nilp)
        with pytest.raises(ValueError, match="irreducible"):
            build_induced(rose_map({"a": "a", "b": "a b"}))
        with pytest.raises(ValueError, match="expanding"):
            build_induced(rose_map({"a": "b", "b": "a"}))
        with pytest.raises(ValueError, match="invalid"):
            build_induced(rose_map({"a": "a -a a", "b": "b"}))

    def test_size_budget(self, sigma):
        with pytest.raises(SizeBudgetExceeded):
            build_induced(sigma, size_budget=3)
        assert build_induced(sigma, size_budget=10 ** 6).constant == 2

    @pytest.mark.parametrize("K", range(7))
    def test_transfer_size_is_power_image_length(self, named_fixture_maps,
                                                 K):
        for f in named_fixture_maps.values():
            fk = f.power(K)
            assert _transfer_size(transition_matrix(f), K) == sum(
                len(fk.dart_image(e)) for e in f.domain.edge_ids)

    def test_deterministic(self, sigma, packages):
        again = build_induced(sigma)
        pkg = packages["sigma"]
        assert again.induced == pkg.induced
        assert again.transfer == pkg.transfer
        assert again.constants() == pkg.constants()

    def test_projection_matches_core_labels(self, packages):
        for pkg in packages.values():
            assert pkg.projection == projection_map(pkg.core)
            for e in pkg.core.graph.edge_ids:
                assert pkg.projection.dart_image(e) \
                    == (pkg.core.edge_label[e],)

    def test_transfer_basepoint_is_periodic_upstairs(self, packages):
        for name, pkg in packages.items():
            z = pkg.transfer_basepoint
            cur = z
            for _ in range(pkg.orbit_period * pkg.period):
                cur = pkg.induced.vertex_map[cur]
            assert cur == z, name

    def test_fold_input_is_linear_in_core_edges(self, monkeypatch):
        # one chain of single-step map folds: every symbol read into a fold
        # is an edge image of f, so the input stays a small multiple of the
        # core's size instead of growing like the images of f^r
        from ttforge import freegroup
        symbols = []
        real_init = freegroup._Folding.__init__

        def counting_init(self, ambient, over, paths):
            symbols.append(sum(len(darts) for _i, darts, _j in paths))
            real_init(self, ambient, over, paths)

        monkeypatch.setattr(freegroup._Folding, "__init__", counting_init)
        for family in (_two_strand_ring, _three_strand_ring):
            for n in range(2, 6):
                symbols.clear()
                pkg = build_induced(family(n))
                core_edges = pkg.constants()["core_edges"]
                assert 0 < sum(symbols) < 5 * core_edges, (
                    family.__name__, n, sum(symbols), core_edges)


def _two_strand_ring(n):
    """Strands a_i, b_i: u_i -> u_{i+1}; both last edges -> a_0 .. a_n-1 b_0.

    Rank n + 1 drops to 1 under the map: the non-injective regime.
    """
    u = ["u%d" % i for i in range(n)]
    edges = [(s + str(i), u[i], u[(i + 1) % n])
             for i in range(n) for s in "ab"]
    images = {s + str(i): (s + str(i + 1),)
              for i in range(n - 1) for s in "ab"}
    tail = tuple("a%d" % i for i in range(n)) + ("b0",)
    images["a%d" % (n - 1)] = images["b%d" % (n - 1)] = tail
    g = SerreGraph(u, edges)
    return GraphMap(g, g, {u[i]: u[(i + 1) % n] for i in range(n)}, images)


def _three_strand_ring(n):
    """Strands a_i, b_i, c_i: u_i -> u_{i+1}; a_n-1, b_n-1 -> a_0 .. a_n-1 c_0
    and c_n-1 -> b_0 .. b_n-1 a_0.

    Rank 2n + 1 drops to n + 1, a stable image of rank at least 2.
    """
    u = ["u%d" % i for i in range(n)]
    edges = [(s + str(i), u[i], u[(i + 1) % n])
             for i in range(n) for s in "abc"]
    images = {s + str(i): (s + str(i + 1),)
              for i in range(n - 1) for s in "abc"}
    images["a%d" % (n - 1)] = images["b%d" % (n - 1)] = \
        tuple("a%d" % i for i in range(n)) + ("c0",)
    images["c%d" % (n - 1)] = tuple("b%d" % i for i in range(n)) + ("a0",)
    g = SerreGraph(u, edges)
    return GraphMap(g, g, {u[i]: u[(i + 1) % n] for i in range(n)}, images)


def _ring(n):
    """Edges c_i: u_i -> u_{i+1}; c_i -> c_{i+1}, c_n-1 -> c_0 .. c_n-1 c_0.

    Injective on the fundamental group, with period n.
    """
    u = ["u%d" % i for i in range(n)]
    c = ["c%d" % i for i in range(n)]
    g = SerreGraph(u, [(c[i], u[i], u[(i + 1) % n]) for i in range(n)])
    images = {c[i]: (c[i + 1],) for i in range(n - 1)}
    images[c[n - 1]] = tuple(c) + (c[0],)
    return GraphMap(g, g, {u[i]: u[(i + 1) % n] for i in range(n)}, images)


class TestVerifyPackage:
    def test_fixture_packages_all_green(self, packages):
        for name, pkg in packages.items():
            report = verify_package(pkg)
            assert report.ok, (name, report.failures())
            assert report.failures() == []
            assert "ok" in report.summary()

    def test_identities_bit_exact(self, packages):
        for pkg in packages.values():
            f, p = pkg.source, pkg.projection
            fbar, P, K = pkg.induced, pkg.transfer, pkg.constant
            assert compose(f, p) == compose(p, fbar)
            assert compose(p, P) == f.power(K)
            assert compose(P, p) == fbar.power(K)
            assert compose(P, f) == compose(fbar, P)

    def test_growth_rates_agree(self, packages):
        for pkg in packages.values():
            down = pf_eigenvalue(transition_matrix(pkg.source)).value
            up = pf_eigenvalue(transition_matrix(pkg.induced)).value
            assert abs(down - up) <= 1e-8

    def test_tampered_constant_is_caught(self, packages):
        pkg = packages["sigma"]
        bad = dataclasses.replace(pkg, constant=pkg.constant + 2)
        report = verify_package(bad)
        assert not report.ok
        assert "constant_consistent" in report.failures()
        assert "transfer_covers_power" in report.failures()

    def test_tampered_transfer_is_caught(self, packages):
        pkg = packages["sigma"]
        bad = dataclasses.replace(pkg, transfer=compose(
            pkg.transfer, pkg.source))
        report = verify_package(bad)
        assert not report.ok
        assert "transfer_covers_power" in report.failures()

    def test_wrong_growth_rate_is_caught(self, packages):
        pkg = packages["sigma"]
        bad = dataclasses.replace(pkg, induced=pkg.induced.power(2))
        report = verify_package(bad)
        assert "growth_rate" in report.failures()
        _ok, detail = report.checks["growth_rate"]
        assert any(repr(e) in detail for e in pkg.core.graph.edge_ids)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("family,down", [
        (_ring, lambda n: n), (_two_strand_ring, lambda n: 2 * n - 1),
    ], ids=["ring", "collapse_ring"])
    def test_ring_families_transfer_positive_powers(self, family, down, n):
        # the benchmark's ring and collapse ring: the induced map's
        # transition matrix turns positive at 2n, the source's earlier
        pkg = build_induced(family(n))
        up = 2 * n
        assert has_positive_power(transition_matrix(pkg.source)) == down(n)
        assert has_positive_power(transition_matrix(pkg.induced)) == up
        report = verify_package(pkg)
        assert report.ok, report.failures()
        assert report.checks["positive_power_transfer"] == (
            True, "down %d up %d" % (down(n), up))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_three_strand_family_closed_forms(self, n):
        # the stable image has rank n + 1 >= 3, so H_{K+1} is rank-tested
        # on the folding table rather than by the single-loop shortcut
        pkg = build_induced(_three_strand_ring(n))
        c = pkg.constants()
        assert (c["period"], c["exponent"], c["stabilization"],
                c["preperiod"], c["constant"]) == (n, 1, 1, 0, 2 * n)
        assert c["core_rank"] == n + 1
        assert c["core_edges"] == n * 2 ** (n + 1)
        transfer_symbols = sum(len(pkg.transfer.dart_image(e))
                               for e in pkg.transfer.domain.edge_ids)
        assert transfer_symbols == 3 * n * 4 ** n
        report = verify_package(pkg)
        assert report.ok, report.failures()

    def test_non_injective_induced_map_is_caught(self, packages):
        # fib's core is a rose of rank 2; a self-map sending both edges to
        # the same loop has an image of rank 1, so it is not injective
        pkg = packages["fib"]
        core = pkg.core.graph
        assert len(core.vertices) == 1 and pkg.core.rank() == 2
        loop = tuple(sorted(core.edge_ids))
        collapsed = GraphMap(core, core, {v: v for v in core.vertices},
                             {e: loop for e in core.edge_ids})
        report = verify_package(dataclasses.replace(pkg, induced=collapsed))
        assert report.checks["induced_pi1_injective"][0] is False

    def test_report_records_named_checks(self, packages):
        report = verify_package(packages["fib"])
        for name in ("projection_commutes", "transfer_covers_power",
                     "transfer_after_projection", "equivariance",
                     "constant_consistent", "induced_train_track",
                     "induced_irreducible", "induced_expanding",
                     "growth_rate", "induced_pi1_injective", "core_shape",
                     "rank_matches_quotient", "transfer_onto_core",
                     "positive_power_transfer",
                     "exponent_matches_stabilization"):
            assert name in report.checks

    def test_corpus_packages_verify(self, corpus100):
        for f in corpus100:
            pkg = build_induced(f)
            report = verify_package(pkg)
            assert report.ok, report.failures()


class TestConjugacy:
    def test_fixture_witnesses(self, packages):
        for name in ("sigma", "fib", "cyc2"):
            result = conjugacy_check(packages[name])
            assert result.matched, name
            assert result.conjugator == ()
            assert result.subgroup_conjugate
            assert result.candidates_tried >= 1

    def test_all_fixtures_match(self, packages):
        for name, pkg in packages.items():
            result = conjugacy_check(pkg)
            assert result.matched, name
            assert result.subgroup_conjugate, name

    def test_search_bound_is_respected(self, packages):
        result = conjugacy_check(packages["sigma"], max_length=0,
                                 max_candidates=1)
        # identity works for this fixture even with the tightest bounds
        assert result.matched and result.candidates_tried == 1
