"""End-to-end promotion pipeline: constants, identities, verification.

Expected constants for the named fixtures were frozen from hand
computation; the verification report is additionally stress-tested by
tampering with packages and watching the right check fail.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ttforge import graphs, induced
from ttforge.covers import NotLiftableError, lift_by_tracing
from ttforge.graphs import (
    GraphMap, SerreGraph, compose, inv, iterated_lengths, reduce_darts, rose,
    validate,
)
from ttforge.traintrack import (
    certification_failure, has_positive_power, is_expanding,
    is_irreducible, is_train_track, pf_eigenvalue, transition_matrix,
)
from ttforge.freegroup import (
    SubgroupGraph, image_chain, pi1_endomorphism, stable_quotient,
    whole_group_graph,
)
from ttforge.randmaps import random_candidate
from ttforge.induced import (
    SizeBudgetExceeded, basepoint_orbit, build_induced,
    find_periodic_vertex, injectivity_exponent,
    projection_map, smallest_multiple_reaching, verify_package,
)
from ttforge.io import load_package, write_package

from oracles import (
    core_oracle, equivariance_oracle, image_chain_oracle,
    lifting_premises_oracle, orbit_chains_oracle, orbit_exponents_oracle,
    transfer_after_projection_oracle,
)

ROOT = Path(__file__).resolve().parent.parent
ROSE2 = rose(["a", "b"])


def rose_map(images):
    g = rose(sorted(images), "v")
    return GraphMap(g, g, {"v": "v"}, images)


def image_symbols(m):
    return sum(len(m.dart_image(e)) for e in m.domain.edge_ids)


def counting_composes(monkeypatch):
    """The output symbol counts of every compose from here on, in a list."""
    symbols = []
    real_compose = graphs.compose

    def counting_compose(g, h):
        result = real_compose(g, h)
        symbols.append(image_symbols(result))
        return result

    monkeypatch.setattr(graphs, "compose", counting_compose)
    monkeypatch.setattr(induced, "compose", counting_compose)
    return symbols


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
    """K, the exponent and the link's canonical key, against the oracle.

    The oracle runs the basis-loop chain of the return map at every vertex
    of the periodic orbit; the single-step chain runs once, from the first,
    and its link is the oracle's H_max(K, 1).
    """
    v, r = find_periodic_vertex(f)
    link, K = image_chain(f, v, r)
    orbit = orbit_chains_oracle(f, v, r)
    oracle_links, oracle_K = orbit[0][1]
    assert K == oracle_K
    assert link.canonical_key() == oracle_links[max(K, 1)].canonical_key()
    n = injectivity_exponent((link, K))
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

    def test_non_link_fold_trims_a_hanging_tree(self, monkeypatch):
        # period 2, so G_1 is no link and G_2 is folded from G_1's trimmed
        # table: there e2 -> e0 e2 -e0 runs from the seed over v0 out to
        # the base and back, which leaves that seed hanging by e0; the
        # link G_2 is renamed and never read as a fold input
        from ttforge import freegroup
        g = SerreGraph(["v0", "v1"], [("e0", "v0", "v1"),
                                      ("e1", "v0", "v0"),
                                      ("e2", "v1", "v1")])
        f = GraphMap(g, g, {"v0": "v1", "v1": "v0"},
                     {"e0": "-e0", "e1": "-e2", "e2": "e0 e2 -e0"})
        trimmed = []
        real_edges = freegroup._Folding.labeled_edges

        def counting_edges(self):
            live = sum(darts is not None for darts in self.table[2])
            out = real_edges(self)
            trimmed.append(live - len(out[1]))
            return out

        monkeypatch.setattr(freegroup._Folding, "labeled_edges",
                            counting_edges)
        assert find_periodic_vertex(f) == ("v0", 2)
        link, K = image_chain(f, "v0", 2)
        assert (trimmed, K, link.rank()) == ([1], 1, 1)
        assert_chain_matches_oracle(f)


def assert_core_matches_oracle(folding, core):
    """``core``, the `_Folding.core` of ``folding``, against `core_oracle`.

    Same canonical key, dart order, out-darts at every vertex, and step
    from every vertex along every ambient dart.
    """
    oracle = core_oracle(folding)
    assert core.canonical_key() == oracle.canonical_key()
    assert core.graph.darts == oracle.graph.darts
    for v in oracle.graph.vertices:
        assert core.graph.out_darts(v) == oracle.graph.out_darts(v)
        for a in folding.ambient.darts:
            assert core.step(v, a) == oracle.step(v, a), (v, a)


def links_match_core_oracle(monkeypatch, maps):
    """Check every link `image_chain` renames for ``maps``; the count."""
    from ttforge import freegroup
    real_core = freegroup._Folding.core
    checked = []

    def checking_core(self):
        core = real_core(self)
        assert_core_matches_oracle(self, core)
        checked.append(core)
        return core

    monkeypatch.setattr(freegroup._Folding, "core", checking_core)
    for f in maps:
        v, r = find_periodic_vertex(f)
        image_chain(f, v, r)
    return len(checked)


class TestCoreOracle:
    """The one-pass renaming against the visited-edge BFS it replaced."""

    def test_fixtures(self, monkeypatch, named_fixture_maps, nilp):
        maps = list(named_fixture_maps.values()) + [nilp]
        assert links_match_core_oracle(monkeypatch, maps) >= len(maps)

    def test_corpus(self, monkeypatch, corpus100):
        assert links_match_core_oracle(monkeypatch, corpus100) \
            >= len(corpus100)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ring_families(self, monkeypatch, n):
        maps = [_two_strand_ring(n), _three_strand_ring(n)]
        assert links_match_core_oracle(monkeypatch, maps) >= len(maps)

    def test_lone_basepoint(self):
        # a tree x -a-> y read through a -> a b: the path from seed x to
        # seed y trims away, leaving the base with no edge
        from ttforge import freegroup
        f = GraphMap(ROSE2, ROSE2, {"v": "v"}, {"a": "a b", "b": "a"})
        folding = freegroup._map_folding(
            f, "x", {"x": "v", "y": "v"}, [("x", "a", "y")])
        assert len(folding.table[0]) == 3
        core = folding.core()
        assert_core_matches_oracle(folding, core)
        assert (core.graph.vertices, core.graph.edge_ids) == (("w0",), ())


def assert_quotient_matches_oracle(f):
    """`stable_quotient` of f against the basis-loop chain of phi = (f^r)_*.

    The oracle's restriction pushes each basis word of its stable core
    through phi once and rewrites it in that core's basis.
    """
    v, r = find_periodic_vertex(f)
    q = stable_quotient(f, v, r)
    phi = pi1_endomorphism(f.power(r), v)
    links, K = image_chain_oracle(phi)
    core = links[K]
    restriction = {name: " ".join(core.rewrite(phi.apply_word(word)))
                   for name, _loop, word in core.basis()}
    assert (q.exponent, q.core.canonical_key(), q.restriction) \
        == (K, core.canonical_key(), restriction)


class TestStableQuotientOracle:
    def test_fixtures(self, named_fixture_maps, nilp):
        for f in list(named_fixture_maps.values()) + [nilp]:
            assert_quotient_matches_oracle(f)

    def test_corpus(self, corpus100):
        for f in corpus100:
            assert_quotient_matches_oracle(f)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_families(self, n):
        assert_quotient_matches_oracle(_two_strand_ring(n))
        assert_quotient_matches_oracle(_three_strand_ring(n))


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
            assert next(islice(iterated_lengths(f), K, None)) == {
                e: len(fk.dart_image(e)) for e in f.domain.edge_ids}

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

    def test_one_graph_per_build(self, monkeypatch, stab2, stab3):
        # build renames one fold table, the chain's link, into the one
        # subgroup graph it builds, and verify builds none; stab2 and stab3
        # (K = 2, 3) step past image subgroups before their link
        from ttforge import freegroup
        cores, graphs_built = [], []
        real_core = freegroup._Folding.core
        real_init = freegroup.SubgroupGraph.__init__

        def counting_core(self):
            cores.append(self)
            return real_core(self)

        def counting_init(self, *args, **kwargs):
            graphs_built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(freegroup._Folding, "core", counting_core)
        monkeypatch.setattr(freegroup.SubgroupGraph, "__init__",
                            counting_init)
        maps = [("%s(%d)" % (family.__name__, n), family(n), 1)
                for family in (_two_strand_ring, _three_strand_ring)
                for n in range(2, 6)]
        maps += [("stab2", stab2, 2), ("stab3", stab3, 3)]
        for name, f, K in maps:
            cores.clear()
            graphs_built.clear()
            pkg = build_induced(f)
            assert pkg.chain[1] == K, name
            assert len(cores) == 1, name
            assert graphs_built == [pkg.core], name
            graphs_built.clear()
            assert verify_package(pkg).ok
            assert graphs_built == [], name


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


def _doubled_rose_ladder(s):
    """The rose ladder a_i -> a_i+1, b_i -> b_i+1, a_s-1, b_s-1 -> a_0 ..
    a_s-1 b_0, with each edge x split into xP and xQ, and every image
    letter y of xP written yQ (and of xQ written yP).

    Its transition digraph is bipartite, so both matrices have period 2.
    """
    images = {x + str(i): (x + str(i + 1),)
              for i in range(s - 1) for x in "ab"}
    images["a%d" % (s - 1)] = images["b%d" % (s - 1)] = \
        tuple("a%d" % i for i in range(s)) + ("b0",)
    return rose_map({x + mine: tuple(y + other for y in img)
                     for x, img in images.items()
                     for mine, other in ("PQ", "QP")})


class TestVerifyPackage:
    def test_fixture_packages_all_green(self, packages):
        for name, pkg in packages.items():
            report = verify_package(pkg)
            assert report.ok, (name, report.failures())
            assert report.failures() == []

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

    @pytest.mark.parametrize("name", ["sigma", "cyc2", "pre1_r2"])
    def test_tampered_orbit_constants_are_caught(self, packages, name):
        # verify re-derives the periodic vertex and the basepoint orbit
        # upstairs, and reads the transfer basepoint off the transfer
        pkg = packages[name]
        edits = [("preperiod", pkg.preperiod + 1),
                 ("orbit_period", pkg.orbit_period + 1)]
        for field, vertices in (
                ("transfer_basepoint", pkg.core.graph.vertices),
                ("periodic_vertex", pkg.source.domain.vertices)):
            edits += [(field, w) for w in vertices
                      if w != getattr(pkg, field)][:1]
        assert {field for field, _ in edits} >= {
            "preperiod", "orbit_period", "transfer_basepoint"}
        for field, value in edits:
            report = verify_package(
                dataclasses.replace(pkg, **{field: value}))
            ok, detail = report.checks["constant_consistent"]
            assert not ok, (field, value)
            assert detail == "K=%d k=%d n=%d r=%d" % (
                pkg.constant, pkg.multiplier, pkg.exponent, pkg.period)

    def test_basepoint_orbit_gives_the_package_constants(self, packages):
        for pkg in packages.values():
            assert basepoint_orbit(
                pkg.induced, pkg.core.basepoint, pkg.period) == (
                pkg.preperiod, pkg.orbit_period, pkg.transfer_basepoint)
            assert pkg.transfer.vertex_map[pkg.periodic_vertex] == \
                pkg.transfer_basepoint

    def test_tampered_transfer_is_caught(self, packages):
        # the transfer is tampered through its stored half
        pkg = packages["sigma"]
        bad = dataclasses.replace(pkg, half=compose(pkg.half, pkg.source))
        report = verify_package(bad)
        assert not report.ok
        assert "transfer_covers_power" in report.failures()

    @pytest.mark.parametrize("K", [20, 21, 22, 23, 10 ** 6])
    def test_hostile_constant_is_rejected_cheaply(self, packages, K):
        # H's image lengths are read against level K/2 of the iterated
        # lengths before f^(K/2) or any K-step vertex loop is built
        pkg = packages["sigma"]
        edits = {"constant": K}
        if K % 2 == 0:
            edits["multiplier"] = K // 2  # K = 2knr still holds
        bad = dataclasses.replace(pkg, **edits)
        start = time.perf_counter()
        report = verify_package(bad)
        assert time.perf_counter() - start < 0.1
        assert not report.ok
        assert "transfer_covers_power" in report.failures()
        tracemalloc.start()
        try:
            verify_package(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    @pytest.mark.parametrize("kind", [float, str, bool])
    @pytest.mark.parametrize("field", [
        "period", "exponent", "preperiod", "orbit_period", "multiplier",
        "constant"])
    def test_non_integer_constant_is_reported(self, packages, field, kind,
                                              tmp_path):
        # 1.0 and True equal 1, so only the type tells them apart; verify
        # reports them, and loading names the field before the chain runs
        pkg = packages["sigma"]
        value = kind(getattr(pkg, field))
        report = verify_package(dataclasses.replace(pkg, **{field: value}))
        assert not report.ok
        assert "constant_consistent" in report.failures()
        write_package(tmp_path, pkg, verify_package(pkg))
        path = tmp_path / "constants.json"
        obj = json.loads(path.read_text())
        obj[field] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="constants.json: %s " % field):
            load_package(tmp_path)

    @pytest.mark.parametrize("field,edit", [
        ("periodic_vertex",
         lambda c: c.update(periodic_vertex=[c["periodic_vertex"]])),
        ("multiplier", lambda c: c.pop("multiplier")),
        ("periodic_vertex", lambda c: c.pop("periodic_vertex")),
    ], ids=["list_periodic_vertex", "no_multiplier", "no_periodic_vertex"])
    def test_malformed_constants_name_the_field(self, packages, field, edit,
                                                tmp_path, monkeypatch):
        pkg = packages["sigma"]
        write_package(tmp_path, pkg, verify_package(pkg))
        path = tmp_path / "constants.json"
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        monkeypatch.setattr("ttforge.io.image_chain",
                            lambda *args: pytest.fail("the chain ran"))
        with pytest.raises(ValueError, match="constants.json: %s " % field):
            load_package(tmp_path)

    @pytest.mark.parametrize("pair", [("sigma", "fib"), ("_ring2", "_ring3")])
    @pytest.mark.parametrize("field",
                             ["core", "induced", "half"])
    def test_mixed_packages_are_reported(self, lifting_packages, pair,
                                         field):
        # maps of another package are not composed, so nothing raises
        for mine, theirs in (pair, pair[::-1]):
            bad = dataclasses.replace(
                lifting_packages[mine],
                **{field: getattr(lifting_packages[theirs], field)})
            assert not verify_package(bad).ok, (mine, field)

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
        # verify decides by period, without stepping either power
        assert report.checks["positive_power_transfer"] == (
            True, "period down 1 up 1")

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_doubled_ladder_is_imprimitive(self, s):
        f = _doubled_rose_ladder(s)
        assert certification_failure(f) is None
        report = verify_package(build_induced(f))
        assert report.ok, report.failures()
        assert report.checks["positive_power_transfer"] == (
            True, "period down 2 up 2")

    def test_doubled_ladder_verifies_fast(self):
        # the primitivity check stops at the period, not at Wielandt's
        # bound over a 320-edge core
        code = ("from test_induced import _doubled_rose_ladder as ladder\n"
                "from ttforge.induced import build_induced, verify_package\n"
                "assert verify_package(build_induced(ladder(5))).ok\n")
        path = os.pathsep.join(str(ROOT / d) for d in ("src", "tests"))
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=path),
                              timeout=10, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

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

    # Swapping the labels a and b of sigma's core keeps its graph and rank
    # but folds <b a> instead of the stable image <a b>; the projection,
    # read off the core, then no longer commutes f with the induced map,
    # which the three transfer identities also take as a premise.
    SWAP = {"a": "b", "b": "a"}
    RELABELED_FAILURES = [
        "projection_commutes", "transfer_covers_power",
        "transfer_after_projection", "equivariance",
        "rank_matches_quotient"]

    def test_relabeled_core_is_caught(self, packages):
        pkg = packages["sigma"]
        core = pkg.core
        swapped = SubgroupGraph(
            core.graph, core.ambient,
            {e: self.SWAP[label] for e, label in core.edge_label.items()},
            core.vertex_image, core.basepoint)
        assert swapped.rank() == core.rank() and swapped != core
        report = verify_package(dataclasses.replace(pkg, core=swapped))
        assert report.failures() == self.RELABELED_FAILURES
        assert report.checks["rank_matches_quotient"] == (False, "rank 1")

    def test_relabeled_core_file_is_caught(self, packages, tmp_path):
        pkg = packages["sigma"]
        write_package(tmp_path, pkg, verify_package(pkg))
        path = tmp_path / "core.json"
        obj = json.loads(path.read_text())
        obj["labels"] = {e: self.SWAP[label]
                         for e, label in obj["labels"].items()}
        path.write_text(json.dumps(obj))
        report = verify_package(load_package(tmp_path))
        assert report.failures() == self.RELABELED_FAILURES

    def test_moved_projection_vertex_file_is_caught(self, packages,
                                                    tmp_path):
        # the projection is read off the core, so moving w1 to v2 is an
        # edit of core.json, and the labeling then breaks incidence
        pkg = packages["pre1_r2"]
        write_package(tmp_path, pkg, verify_package(pkg))
        path = tmp_path / "core.json"
        obj = json.loads(path.read_text())
        assert obj["vertex_images"]["w1"] != "v2"
        obj["vertex_images"]["w1"] = "v2"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as err:
            load_package(tmp_path)
        assert str(err.value) == "labeling of 'e0' breaks incidence"

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

    @pytest.mark.parametrize("family", [_ring, _two_strand_ring],
                             ids=["ring", "collapse_ring"])
    def test_compose_output_is_linear_in_transfer(self, family,
                                                  monkeypatch):
        # every map verify builds is a small multiple of the stored maps,
        # the half lift H and the induced map: the transfer P = fbar^m H,
        # of size about |H| times the growth rate to the power m, and
        # induced^K are never built
        symbols = counting_composes(monkeypatch)
        for n in range(2, 7):
            pkg = build_induced(family(n))
            stored = image_symbols(pkg.half) + image_symbols(pkg.induced)
            symbols.clear()
            assert verify_package(pkg).ok
            assert 0 < sum(symbols) < 10 * stored, (n, sum(symbols), stored)
        # the transfer itself is far larger, so the bound excludes it
        assert image_symbols(pkg.transfer) > 10 * stored

    def test_corpus_packages_verify(self, corpus100):
        for f in corpus100:
            pkg = build_induced(f)
            report = verify_package(pkg)
            assert report.ok, report.failures()


def _edited(m, vertex=None, image=None):
    """m with one vertex image or one edge image replaced."""
    vertex_map = dict(m.vertex_map)
    images = {e: m.dart_image(e) for e in m.domain.edge_ids}
    if vertex is not None:
        vertex_map[vertex[0]] = vertex[1]
    if image is not None:
        images[image[0]] = image[1]
    return GraphMap(m.domain, m.codomain, vertex_map, images)


def tampered_packages(pkg):
    """The package, then variants wrong in one place or lifted otherwise.

    One dart of one image of the half lift H is replaced by a core dart
    with the same label (so the image stops being a path while p after H
    is unchanged), by one with another label, and by its reverse; one
    vertex image of H and of the induced map moves within its fiber or
    leaves it; the induced map becomes its square and H becomes H after f;
    one image of H is reversed; and H and the induced map are retraced
    from other vertices of the fiber, which keeps every premise of the
    lifting decision but moves the vertex maps.
    """
    core, f = pkg.core, pkg.source
    H, fbar = pkg.half, pkg.induced
    darts = core.graph.darts
    out = [pkg]
    e = H.domain.edge_ids[-1]
    img = H.dart_image(e)
    i = len(img) // 2
    label = core.dart_label(img[i])
    same = [d for d in darts
            if d != img[i] and core.dart_label(d) == label]
    other = [d for d in darts if core.dart_label(d) != label]
    for d in same[:1] + other[:1] + [inv(img[i])]:
        out.append(dataclasses.replace(pkg, half=_edited(
            H, image=(e, img[:i] + (d,) + img[i + 1:]))))
    out.append(dataclasses.replace(pkg, half=_edited(
        H, image=(e, tuple(reversed(img))))))
    for m, field in ((H, "half"), (fbar, "induced")):
        v = m.domain.vertices[0]
        moved = [w for w in core.graph.vertices if w != m.vertex_map[v]]
        fiber = [w for w in moved if core.vertex_image[w]
                 == core.vertex_image[m.vertex_map[v]]]
        for w in fiber[:1] + [w for w in moved if w not in fiber][:1]:
            out.append(dataclasses.replace(
                pkg, **{field: _edited(m, vertex=(v, w))}))
    out.append(dataclasses.replace(pkg, induced=fbar.power(2)))
    out.append(dataclasses.replace(pkg, half=compose(H, f)))
    fm = f.power(pkg.constant // 2)
    base = core.vertex_image[core.basepoint]
    for start, m, word_of, field in (
            (base, H, fm.dart_image, "half"),
            (core.basepoint, fbar,
             lambda d: f.dart_image(core.dart_label(d)), "induced")):
        graph = m.domain
        for w in core.fiber(core.vertex_image[m.vertex_map[start]]):
            if w == m.vertex_map[start]:
                continue
            try:
                vm, images = lift_by_tracing(graph, start, w, word_of,
                                             core.trace)
            except NotLiftableError:
                continue
            out.append(dataclasses.replace(pkg, **{field: GraphMap(
                graph, core.graph, vm, images)}))
    return out


@pytest.fixture(scope="module")
def lifting_packages(packages):
    """The fixture packages and both ring families at n = 2..4, by name."""
    pkgs = dict(packages)
    for family in (_ring, _two_strand_ring):
        for n in (2, 3, 4):
            pkgs["%s%d" % (family.__name__, n)] = build_induced(family(n))
    return pkgs


def _disjoint_union(pkg):
    """The package beside a primed copy of itself, maps taken componentwise.

    Every lifting premise holds on it and both transfer identities hold
    when built in full, but neither graph is connected.
    """
    def prime(path):
        return tuple(d + "'" for d in path)

    def union(graph):
        return SerreGraph(
            list(graph.vertices) + [v + "'" for v in graph.vertices],
            list(graph.edge_data) + [prime(row) for row in graph.edge_data])

    def doubled(m, domain, codomain):
        vertex_map = dict(m.vertex_map)
        vertex_map.update((v + "'", w + "'") for v, w in m.vertex_map.items())
        images = {e: m.dart_image(e) for e in m.domain.edge_ids}
        images.update((e + "'", prime(m.dart_image(e)))
                      for e in m.domain.edge_ids)
        return GraphMap(domain, codomain, vertex_map, images)

    core = pkg.core
    ambient, graph = union(core.ambient), union(core.graph)
    labels = dict(core.edge_label)
    labels.update((e + "'", a + "'") for e, a in core.edge_label.items())
    images = dict(core.vertex_image)
    images.update((v + "'", w + "'") for v, w in core.vertex_image.items())
    return dataclasses.replace(
        pkg, source=doubled(pkg.source, ambient, ambient),
        core=SubgroupGraph(graph, ambient, labels, images, core.basepoint),
        induced=doubled(pkg.induced, graph, graph),
        half=doubled(pkg.half, ambient, graph))


TRANSFER_IDENTITIES = [
    ("transfer_after_projection", transfer_after_projection_oracle),
    ("equivariance", equivariance_oracle),
]


class TestTransferAfterProjection:
    """The one-vertex decisions against the maps built in full."""

    def test_matches_materialized_comparison(self, lifting_packages,
                                             monkeypatch):
        # where the lifting premises hold, one vertex decides each identity
        # exactly as the built maps do; where one fails, the package is
        # rejected; either way verify builds no map much larger than H and
        # fbar
        symbols = counting_composes(monkeypatch)
        outcomes = {}
        for pkg in lifting_packages.values():
            for bad in tampered_packages(pkg):
                symbols.clear()
                report = verify_package(bad)
                stored = image_symbols(bad.half) + image_symbols(bad.induced)
                assert sum(symbols) < 10 * stored
                held = lifting_premises_oracle(bad)
                for check, oracle in TRANSFER_IDENTITIES:
                    got = report.checks[check][0]
                    if held:
                        assert got == oracle(bad), check
                    else:
                        assert not got and not report.ok, check
                    outcomes.setdefault((check, held, got), []).append(
                        bad is pkg)
        # every built package is accepted, and a failed premise rejects;
        # no variant here keeps the premises but moves a vertex map, as a
        # retraced H does not once f̄^m is applied after it
        for check, _ in TRANSFER_IDENTITIES:
            assert outcomes[check, True, True].count(True) == len(
                lifting_packages)
            assert outcomes[check, False, False]
        assert {key[1:] for key in outcomes} <= {(True, True), (False, False)}

    @pytest.mark.parametrize("name", ["sigma", "cyc2", "pre1_r3"])
    def test_disconnected_package_fails_by_premise(self, lifting_packages,
                                                   name):
        # one vertex decides only on a connected graph: the union keeps
        # every other premise and both identities, yet fails both checks
        pkg = _disjoint_union(lifting_packages[name])
        assert not pkg.core.graph.is_connected()
        assert not pkg.core.ambient.is_connected()
        assert lifting_premises_oracle(pkg)
        report = verify_package(pkg)
        for check, oracle in TRANSFER_IDENTITIES:
            assert oracle(pkg)
            assert report.checks[check][0] is False, check
        assert report.checks["transfer_covers_power"][0] is True
        assert not report.ok


def test_no_tampered_package_passes(lifting_packages, corpus100):
    """Every tampered package fails a check; an invalid f̄ fails its own.

    A variant whose derived transfer and induced map equal the genuine
    ones is skipped and counted.  An invalid f̄ fails the train track and
    injectivity checks without being folded, which on nine corpus
    packages raised "fold merged distinct ambient vertices" instead of
    reporting.
    """
    pkgs = list(lifting_packages.items()) + [
        ("corpus[%d]" % i, build_induced(f)) for i, f in enumerate(corpus100)]
    invalid_induced = []
    skipped = Counter()
    for name, pkg in pkgs:
        good, *tampered = tampered_packages(pkg)
        assert verify_package(good).ok, name
        for bad in tampered:
            if (bad.transfer, bad.induced) == (good.transfer, good.induced):
                skipped[name] += 1
                continue
            report = verify_package(bad)
            assert not report.ok, name
            problem = validate(bad.induced)
            if problem is not None:
                invalid_induced.append(name)
                for check in ("induced_train_track", "induced_pi1_injective"):
                    assert report.checks[check] == (
                        False, "invalid graph map: " + problem), name
    # f̄^m absorbs many edits of H, retraced H in particular, and leaves
    # the transfer unchanged: 319 of the 1136 variants
    assert sum(skipped.values()) == 319
    # f̄ with one vertex moved within its fiber used to pass all 15 checks
    assert {"cyc2", "pre1_r2", "pre1_r3"} <= set(invalid_induced)


class TestTransferLemmas:
    """Train track by projection, primitivity by period, and expansion and
    the growth-rate identity by transfer.

    Verify transfers these properties from f through p instead of walking
    turn orbits, stepping matrix powers or comparing A_up row by row on
    the core; these tests pin the verdicts to the full re-derivation, the
    cost to the base graph, and verify to one reading of each map.
    """

    def test_verdicts_match_the_rederivation(self, lifting_packages,
                                             corpus100):
        # every tampered variant, and the lifting packages with one image
        # of the induced map replaced by another dart's, which is where
        # the verdicts come out False
        variants = [bad for pkg in list(lifting_packages.values()) + [
            build_induced(f) for f in corpus100]
            for bad in tampered_packages(pkg)]
        for pkg in lifting_packages.values():
            fbar = pkg.induced
            e = fbar.domain.edge_ids[0]
            variants += [dataclasses.replace(pkg, induced=_edited(
                fbar, image=(e, fbar.dart_image(d))))
                for d in fbar.domain.darts]
        seen = Counter()
        for bad in variants:
            report = verify_package(bad)
            checks = report.checks
            if validate(bad.induced) is None:
                verdict = checks["induced_train_track"][0]
                assert verdict == is_train_track(bad.induced).is_train_track
                seen["train track", verdict] += 1
            a_down = transition_matrix(bad.source)
            a_up = transition_matrix(bad.induced)
            down = has_positive_power(a_down)
            up = has_positive_power(a_up)
            verdict = checks["positive_power_transfer"][0]
            assert verdict == (down is None or up is not None)
            seen["positive power", verdict] += 1
            irreducible = is_irreducible(a_up)
            assert checks["induced_irreducible"][0] == irreducible
            seen["irreducible", irreducible] += 1
            # each lemma's verdict is the direct one, counted by whether
            # its premises held (the lemma decided) or not (the fallback)
            commutes = checks["projection_commutes"][0]
            expansion = is_expanding(a_up)
            assert checks["induced_expanding"] == (
                expansion.expanding, "" if expansion.expanding
                else "bounded %r" % (expansion.bounded_edges,))
            lemma = commutes and is_expanding(a_down).expanding
            seen["expanding", lemma, expansion.expanding] += 1
            growth = induced._growth_rate_mismatch(
                bad.core, a_down, a_up, irreducible)
            assert checks["growth_rate"] == (
                growth is None, growth or "difference 0.000e+00")
            seen["growth rate", commutes, growth is None] += 1
        # a lemma's verdict is always True, so only the fallbacks reach
        # False, and both reach True
        assert set(seen) == {
            ("train track", True), ("train track", False),
            ("positive power", True), ("positive power", False),
            ("irreducible", True), ("irreducible", False),
            ("expanding", True, True), ("expanding", False, True),
            ("expanding", False, False),
            ("growth rate", True, True), ("growth rate", False, True),
            ("growth rate", False, False),
        }, seen

    @pytest.mark.parametrize("name,edge,dart,reason", [
        ("sigma", "e0", "-e0", "taken turn ('e1', '-e0') degenerates"),
        ("fib", "e0", "-e0", "taken turn ('e1', '-e0') degenerates"),
        ("fib", "e1", "e0", "not surjective: edge 'e0' is never crossed"),
    ], ids=["sigma_turn", "fib_turn", "fib_uncrossed"])
    def test_failing_premise_falls_back_to_the_turn_walk(
            self, packages, name, edge, dart, reason):
        # one image of the induced map replaced by another dart's keeps it
        # a valid map but breaks f p = p fbar, so the full walk decides
        pkg = packages[name]
        fbar = _edited(pkg.induced,
                       image=(edge, pkg.induced.dart_image(dart)))
        assert validate(fbar) is None
        assert is_train_track(fbar).reason == reason
        report = verify_package(dataclasses.replace(pkg, induced=fbar))
        assert report.checks["induced_train_track"] == (False, reason)

    def test_uncertified_source_fails(self, packages):
        # the identity is not expanding, the backtracking loop not a train
        # track map; swapped in as the source, verify rejects either
        for name, pkg in packages.items():
            g = pkg.source.domain
            identity = GraphMap(g, g, {v: v for v in g.vertices},
                                {e: (e,) for e in g.edge_ids})
            sources = [identity]
            e = g.edge_ids[0]
            if g.origin(e) == g.terminus(e):
                sources.append(_edited(identity, image=(e, (e, inv(e), e))))
            for source in sources:
                assert certification_failure(source) is not None
                report = verify_package(dataclasses.replace(
                    pkg, source=source))
                assert not report.ok, name

    def test_package_of_an_uncertified_map_fails_only_the_train_track(
            self, monkeypatch):
        # promoted with the admission check skipped, this rose map's
        # package is consistent, but f has a degenerating turn and so has
        # its lift: the premise on f fails and the turn walk names the turn
        f = rose_map({"e0": "e2 e2 -e1", "e1": "e0 e2 -e1", "e2": "e1"})
        failure = certification_failure(f)
        assert failure is not None and failure[0] == "not_train_track"
        monkeypatch.setattr(induced, "certification_failure", lambda f: None)
        pkg = build_induced(f)
        verdict = is_train_track(pkg.induced)
        assert not verdict.is_train_track
        report = verify_package(pkg)
        assert report.failures() == ["induced_train_track"]
        assert report.checks["induced_train_track"] == (False, verdict.reason)

    def test_no_check_steps_a_power_or_walks_the_core(self, packages,
                                                      monkeypatch):
        # is_train_track runs on the source only; has_positive_power never
        walked = []
        real = induced.is_train_track
        monkeypatch.setattr(induced, "is_train_track",
                            lambda m: walked.append(m) or real(m))
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("ttforge") \
                    and hasattr(module, "has_positive_power"):
                monkeypatch.setattr(
                    module, "has_positive_power",
                    lambda m: pytest.fail("verify stepped a matrix power"))
        pkgs = list(packages.values()) + [
            build_induced(_two_strand_ring(n)) for n in (2, 3, 4)]
        for pkg in pkgs:
            walked.clear()
            assert verify_package(pkg).ok
            assert walked == [pkg.source]

    def test_verify_reads_each_map_once(self, monkeypatch):
        # two transition matrices (f, f̄), three validations (f, f̄, H) and
        # one composite (p after H): f p = p f̄ is compared edge by edge,
        # and the edges f̄ hits are read off A_up
        pkg = build_induced(_two_strand_ring(4))
        calls = {}
        for name in ("transition_matrix", "validate", "compose"):
            def counted(*maps, _real=getattr(induced, name), _name=name):
                calls.setdefault(_name, []).append(maps)
                return _real(*maps)
            monkeypatch.setattr(induced, name, counted)
        assert verify_package(pkg).ok
        f, fbar, H = pkg.source, pkg.induced, pkg.half
        assert calls == {"transition_matrix": [(f,), (fbar,)],
                         "validate": [(fbar,), (f,), (H,)],
                         "compose": [(pkg.projection, H)]}


def test_induced_action_is_the_lifted_return_map(lifting_packages):
    """f̄^(qr) acts on loops at z exactly as the lift of f^(qr).

    No conjugator: for every basis loop γ at the transfer basepoint z, the
    reduced image of γ under f̄^(qr) is the lift at z of the reduced image
    of p(γ) under f^(qr), the exact form of "f̄ represents the injective
    endomorphism of the stable quotient".
    """
    for name, pkg in lifting_packages.items():
        core, z = pkg.core, pkg.transfer_basepoint
        power = pkg.orbit_period * pkg.period
        up = pkg.induced.power(power)
        down = pkg.source.power(power)
        assert up.vertex_map[z] == z, name
        for _gen, loop, _word in whole_group_graph(core.graph, z).basis():
            returned = reduce_darts(
                down.apply_to_darts(core.project_darts(loop)))
            end, lifted, consumed = core.trace(z, returned)
            assert (end, consumed) == (z, len(returned)), name
            assert reduce_darts(up.apply_to_darts(loop)) == lifted, name
