"""Whole-pipeline acceptance checks, one test per shipped guarantee.

Each test gathers its failures, prints exactly one visible pass or fail
line (bypassing capture so the line shows up in any pytest invocation),
and enforces the stated numeric tolerance or wall-clock budget.  Random
inputs come from the shared seeded corpus, so runs are reproducible.
"""

import random
import time
from fractions import Fraction

import pytest

from ttforge.covers import based_lift_power
from ttforge.freegroup import (
    fold, hall_completion, image_chain, image_subgroup, pi1_endomorphism,
    stable_quotient, whole_group_graph,
)
from ttforge.graphs import GraphMap, compose, edge_of, format_path, inv, rose
from ttforge.induced import (
    build_induced, find_periodic_vertex, injectivity_exponent, verify_package,
)
from ttforge.suspension import (
    CoverPoint, MappingTorus, TorusPoint, breakpoint_samples, edge_point,
    FlowHomotopyPair, flow, h_maps, make_cover_descriptor,
    project_point, seam_crossings, section_first_return, vertex_point,
)
from ttforge.traintrack import (
    TurnSystem, find_invariant_subgraph, has_positive_power, is_expanding,
    is_irreducible, is_train_track, legal_loop_through, pf_eigenvalue,
    transition_matrix,
)

from oracles import (
    apply_endo, ball, darts_reduced, invariant_subgraph_search,
    orbit_chains_oracle, orbit_exponents_oracle, spectral_radius,
)

GOLDEN = 1.6180339887
TIGHT = Fraction(1, 10 ** 12)


@pytest.fixture
def announce(capfd):
    """One visible verdict line per test, then the assertion."""
    def _announce(label, failures, elapsed=None, budget=None):
        notes = [str(x) for x in failures]
        if budget is not None and elapsed is not None and elapsed > budget:
            notes.append("time budget %.0fs exceeded: %.2fs"
                         % (budget, elapsed))
        verdict = "PASS" if not notes else "FAIL"
        stamp = "" if elapsed is None else " [%.2fs]" % elapsed
        with capfd.disabled():
            print("%s: %s%s" % (label, verdict, stamp))
        assert not notes, "\n".join(notes[:8])
    return _announce


@pytest.fixture(scope="module")
def promotion(sigma, fib, cyc2, corpus100):
    """Packages and verification reports for the trio plus the corpus.

    Building and re-checking are timed together; the first test holds that
    total to its budget, later tests reuse the packages for free.
    """
    cases = [("sigma", sigma), ("fib", fib), ("cyc2", cyc2)]
    cases += [("corpus[%d]" % i, f) for i, f in enumerate(corpus100)]
    start = time.monotonic()
    checked = []
    for name, f in cases:
        pkg = build_induced(f)
        checked.append((name, f, pkg, verify_package(pkg)))
    elapsed = time.monotonic() - start
    return elapsed, checked


def image_edges(m):
    return {edge_of(d) for e in m.domain.edge_ids for d in m.dart_image(e)}


def random_torus_points(torus, rng, count, den=24):
    pts = []
    edges = torus.graph.edge_ids
    verts = torus.graph.vertices
    while len(pts) < count:
        h = Fraction(rng.randrange(0, den), den)
        if rng.random() < 0.2:
            gp = vertex_point(rng.choice(verts))
        else:
            gp = edge_point(torus.graph, rng.choice(edges),
                            Fraction(rng.randrange(1, den), den))
        pts.append(TorusPoint(gp, h))
    return pts


def random_cover_points(desc, rng, count, den=24):
    pts = []
    graph = desc.cover.graph
    while len(pts) < count:
        h = Fraction(rng.randrange(0, den * desc.exponent), den)
        if rng.random() < 0.2:
            gp = vertex_point(rng.choice(graph.vertices))
        else:
            gp = edge_point(graph, rng.choice(graph.edge_ids),
                            Fraction(rng.randrange(1, den), den))
        pts.append(CoverPoint(gp, h))
    return pts


def test_promotion_identities_bit_exact(announce, promotion, corpus100):
    """Both semi-conjugacies and both round trips, as exact map equalities."""
    elapsed, checked = promotion
    failures = []
    if len(corpus100) < 100:
        failures.append("corpus holds only %d maps" % len(corpus100))
    for i, f in enumerate(corpus100):
        if len(f.domain.edge_ids) > 6:
            failures.append("corpus[%d] has too many edges" % i)
        if any(len(f.dart_image(e)) > 12 for e in f.domain.edge_ids):
            failures.append("corpus[%d] image too long" % i)
    identity_checks = ("projection_commutes", "equivariance",
                       "transfer_covers_power", "transfer_after_projection",
                       "constant_consistent")
    for name, f, pkg, report in checked:
        for check in identity_checks:
            ok, detail = report.checks[check]
            if not ok:
                failures.append("%s: %s %s" % (name, check, detail))
        if pkg.constant != 2 * pkg.multiplier * pkg.exponent * pkg.period:
            failures.append("%s: constant %d breaks 2*k*n*r"
                            % (name, pkg.constant))
    # recompute the four identities from scratch on the named trio
    for name, f, pkg, report in checked[:3]:
        down, up, big = pkg.projection, pkg.transfer, pkg.constant
        if compose(f, down) != compose(down, pkg.induced):
            failures.append("%s: projection fails to intertwine" % name)
        if compose(down, up) != f.power(big):
            failures.append("%s: downstairs round trip is not the power"
                            % name)
        if compose(up, down) != pkg.induced.power(big):
            failures.append("%s: upstairs round trip is not the power" % name)
        if compose(up, f) != compose(pkg.induced, up):
            failures.append("%s: transfer fails to intertwine" % name)
    announce("promotion identities bit-exact on %d maps" % len(checked),
             failures, elapsed, budget=10.0)


def test_certificates_transfer_to_induced_map(announce, promotion):
    """The induced map keeps every certified dynamical property."""
    _, checked = promotion
    failures = []
    for name, f, pkg, report in checked:
        fbar = pkg.induced
        if not is_train_track(fbar).is_train_track:
            failures.append("%s: induced map is not a train track map" % name)
        matrix = transition_matrix(fbar)
        if not is_irreducible(matrix):
            failures.append("%s: induced matrix is reducible" % name)
        if not is_expanding(matrix).expanding:
            failures.append("%s: induced map is not expanding" % name)
        if has_positive_power(transition_matrix(f)) is not None \
                and has_positive_power(matrix) is None:
            failures.append("%s: positive power lost" % name)
        for check in ("induced_train_track", "induced_irreducible",
                      "induced_expanding", "positive_power_transfer"):
            if not report.checks[check][0]:
                failures.append("%s: reported %s failed" % (name, check))
    announce("train track, irreducible, expanding, primitivity all transfer",
             failures)


def test_growth_rate_is_preserved(announce, promotion):
    """Same leading eigenvalue upstairs and downstairs, to 1e-8."""
    _, checked = promotion
    failures = []
    named = {}
    for name, f, pkg, report in checked:
        source = transition_matrix(f)
        lam = pf_eigenvalue(source, tol=TIGHT)
        lam_bar = pf_eigenvalue(transition_matrix(pkg.induced), tol=TIGHT)
        gap = abs(lam.value - lam_bar.value)
        if gap > 1e-8:
            failures.append("%s: growth rates differ by %.3g" % (name, gap))
        if abs(lam.value - spectral_radius(source.rows)) > 1e-6:
            failures.append("%s: disagrees with the dense eigensolver" % name)
        named[name] = lam.value
    for name, target in (("sigma", 2.0), ("cyc2", 2.0), ("fib", GOLDEN)):
        if abs(named[name] - target) > 1e-9:
            failures.append("%s: growth %.12f, wanted %.10f"
                            % (name, named[name], target))
    announce("growth rate preserved within 1e-8 on every package", failures)


def test_stable_quotient_profiles(announce, sigma, fib, nilp):
    """Frozen quotient data, cross-checked against a reduced-word oracle."""
    start = time.monotonic()
    failures = []
    profiles = (("sigma", sigma, 1, 1), ("fib", fib, 0, 2),
                ("nilp", nilp, 3, 0))
    for name, f, want_exp, want_rank in profiles:
        q = stable_quotient(pi1_endomorphism(f, "v"))
        if q.exponent != want_exp:
            failures.append("%s: stabilizes at %d, wanted %d"
                            % (name, q.exponent, want_exp))
        if q.rank != want_rank:
            failures.append("%s: quotient rank %d, wanted %d"
                            % (name, q.rank, want_rank))
        if not q.injective:
            failures.append("%s: restriction not injective" % name)
        # oracle: kernel membership of every reduced word up to length 6
        gens = sorted(f.domain.edge_ids)
        images = {e: tuple(format_path(f.dart_image(e)).split())
                  for e in gens}
        words = ball(gens, 6)
        powers = sorted({max(want_exp - 1, 0), want_exp,
                         want_exp + 1, want_exp + 2})
        dead = {p: {w for w in words if not apply_endo(images, w, p)}
                for p in powers}
        if not dead[want_exp] == dead[want_exp + 1] == dead[want_exp + 2]:
            failures.append("%s: kernel ball still moving past power %d"
                            % (name, want_exp))
        if want_exp >= 1 and not dead[want_exp - 1] < dead[want_exp]:
            failures.append("%s: kernel ball already stable at power %d"
                            % (name, want_exp - 1))
        if name == "nilp" and dead[want_exp] != set(words):
            failures.append("nilp: some word of the ball survives")
    q = stable_quotient(pi1_endomorphism(sigma, "v"))
    if q.restriction != {"g0": "g0 g0"}:
        failures.append("sigma: restriction %r is not squaring"
                        % (q.restriction,))
    elapsed = time.monotonic() - start
    announce("stable quotient profiles match the 6-ball word oracle",
             failures, elapsed, budget=5.0)


def test_injectivity_exponent_constant_on_orbit(announce, corpus100,
                                                named_fixture_maps):
    """One exponent per orbit, and lifted powers land onto the whole core."""
    failures = []
    cases = list(named_fixture_maps.items())
    cases += [("corpus[%d]" % i, f) for i, f in enumerate(corpus100)]
    for name, f in cases:
        v, r = find_periodic_vertex(f)
        n = injectivity_exponent(image_chain(f, v, r))
        # the basis-loop oracle, run at every orbit vertex
        oracle = orbit_exponents_oracle(f, orbit_chains_oracle(f, v, r))
        if oracle != [n] * r:
            failures.append("%s: exponent %d, oracle %r along the orbit"
                            % (name, n, oracle))
            continue
        core = image_subgroup(pi1_endomorphism(f.power(r), v), n)
        for m in (n * r, (n + 1) * r):
            lift = based_lift_power(core, f, m)
            if image_edges(lift) != set(core.graph.edge_ids):
                failures.append("%s: power %d does not cover the core"
                                % (name, m))
    announce("injectivity exponent constant on orbit; lifted powers onto "
             "the core", failures)


def test_legal_loops_survive_ten_pushforwards(announce, corpus100,
                                              named_fixture_maps):
    """A certified legal loop through every edge, immersed after pushing."""
    failures = []
    cases = list(named_fixture_maps.items())
    cases += [("corpus[%d]" % i, f) for i, f in enumerate(corpus100)]
    loops = {}
    for name, f in cases:
        ts = TurnSystem(f)
        for e in f.domain.edge_ids:
            loop = legal_loop_through(f, e)
            loops[(name, e)] = loop
            if not loop.check(f):
                failures.append("%s/%s: certificate fails recheck"
                                % (name, e))
            if e not in loop.cycle.edges_crossed():
                failures.append("%s/%s: loop misses the edge" % (name, e))
            for t in set(loop.cycle.turns()):
                cur = t
                for k in range(1, 11):
                    cur = ts.apply(cur)
                    if cur[0] == cur[1]:
                        failures.append("%s/%s: turn degenerates at step %d"
                                        % (name, e, k))
                        break
    # cross-check the turn walk by materializing the image paths while the
    # dart count stays workable
    spot_checks = [("sigma", 200000), ("fib", 200000), ("cyc2", 200000)]
    spot_checks += [("corpus[%d]" % i, 20000) for i in range(10)]
    materialized = 0
    for name, cap in spot_checks:
        f = dict(cases)[name]
        for e in sorted(f.domain.edge_ids):
            seq = loops[(name, e)].cycle.darts
            for k in range(1, 11):
                seq = f.apply_to_darts(seq)
                if len(seq) > cap:
                    break
                materialized += 1
                if not darts_reduced(seq) or seq[0] == inv(seq[-1]):
                    failures.append("%s/%s: image path cancels at power %d"
                                    % (name, e, k))
                    break
            if cap == 20000:
                break
    if materialized < 100:
        failures.append("only %d materialized spot checks ran" % materialized)
    announce("legal loops through all %d edges stay immersed under ten "
             "pushforwards" % len(loops), failures)


def test_invariant_subgraph_search_matches_oracle(announce, corpus100,
                                                  named_fixture_maps):
    """Certified search output equals exhaustive subset enumeration."""
    failures = []
    two = rose(["a", "b"])
    three = rose(["a", "b", "c"])
    reducibles = [
        ("identity", GraphMap(two, two, {"v": "v"}, {"a": "a", "b": "b"})),
        ("stairs", GraphMap(two, two, {"v": "v"}, {"a": "a", "b": "a b"})),
        ("block", GraphMap(three, three, {"v": "v"},
                           {"a": "b", "b": "a", "c": "c a b"})),
    ]
    cases = list(named_fixture_maps.items()) + reducibles
    cases += [("corpus[%d]" % i, f) for i, f in enumerate(corpus100)]
    for name, f in cases:
        if len(f.domain.edge_ids) > 8:
            failures.append("%s: too large for the exhaustive oracle" % name)
            continue
        hits = invariant_subgraph_search(f)
        found = find_invariant_subgraph(f)
        irreducible = is_irreducible(transition_matrix(f))
        if (found is None) != (not hits):
            failures.append("%s: search found %r, oracle found %d sets"
                            % (name, found, len(hits)))
        if irreducible != (found is None):
            failures.append("%s: irreducibility flag disagrees" % name)
        if found is not None and (not found.check(f)
                                  or found.edges not in set(hits)):
            failures.append("%s: witness %r is not invariant" % (name, found))
    announce("invariant subgraph search matches exhaustive enumeration on "
             "%d maps" % len(cases), failures)


def test_flow_algebra_identities(announce, promotion):
    """Semigroup law, comparison maps, and the promoted pair, all exact."""
    _, checked = promotion
    packages = {name: pkg for name, _, pkg, _ in checked[:3]}
    start = time.monotonic()
    failures = []
    steps = ((Fraction(1, 3), Fraction(2, 3)), (Fraction(3, 2),
                                                Fraction(7, 4)))
    for name in ("sigma", "fib", "cyc2"):
        pkg = packages[name]
        torus = MappingTorus(pkg.source)
        extra = pkg.constant + 2
        rng = random.Random("flow:%s" % name)
        xs = breakpoint_samples(torus, extra)
        xs += random_torus_points(torus, rng, max(0, 1000 - len(xs)))
        if len(xs) < 1000:
            failures.append("%s: only %d samples" % (name, len(xs)))
        h0, h1 = h_maps(torus)
        for x in xs:
            if any(flow(torus, x, s + t) != flow(torus, flow(torus, x, s), t)
                   for s, t in steps):
                failures.append("%s: semigroup law fails at %r" % (name, x))
                break
            once = flow(torus, x, 1)
            if h1(h0(x)) != once or h0(h1(x)) != once:
                failures.append("%s: comparison maps fail at %r" % (name, x))
                break
        torus_bar = MappingTorus(pkg.induced)
        pair = FlowHomotopyPair(torus, torus_bar, pkg.transfer,
                                pkg.projection, pkg.constant)
        ys = breakpoint_samples(torus_bar, extra)
        ys += random_torus_points(torus_bar, rng, max(0, 1000 - len(ys)))
        ok, detail = pair.check_composite(xs, ys)
        if not ok:
            failures.append("%s: %s" % (name, detail))
        ok, detail = pair.check_equivariance(
            xs[:100], [Fraction(1, 2), 1, Fraction(5, 3)])
        if not ok:
            failures.append("%s: %s" % (name, detail))
    elapsed = time.monotonic() - start
    announce("flow algebra identities exact at 1000+ samples per torus",
             failures, elapsed, budget=5.0)


def test_cover_descriptors_flow_correctly(announce, fib):
    """First-return data and flow projection on the two reference covers."""
    failures = []
    two = rose(["a", "b"])
    trivial = make_cover_descriptor(fib, whole_group_graph(two, "v"))
    index2 = make_cover_descriptor(fib, fold(two, "v",
                                             ["a", "b a -b", "b b"]))
    if (trivial.degree, trivial.exponent, trivial.dual_index) != (1, 1, 1):
        failures.append("trivial cover shape off: %r" % (trivial,))
    if (index2.degree, index2.exponent, index2.dual_index) != (2, 3, 3):
        failures.append("index-two cover shape off: %r" % (index2,))
    torus = MappingTorus(fib)
    rng = random.Random("descriptors")
    for label, desc in (("trivial", trivial), ("index2", index2)):
        for v in desc.cover.graph.vertices:
            rho, hit = section_first_return(desc, vertex_point(v))
            expected = CoverPoint(vertex_point(desc.lift.vertex_map[v]), 0)
            if rho != desc.exponent or hit != expected:
                failures.append("%s: first return at %s gives (%s, %r)"
                                % (label, v, rho, hit))
        base = CoverPoint(vertex_point(desc.cover.graph.vertices[0]), 0)
        if seam_crossings(desc, base, desc.exponent) != desc.dual_index:
            failures.append("%s: seam crossings over one period off" % label)
        for cp in random_cover_points(desc, rng, 100):
            s = Fraction(rng.randrange(0, 96), 12)
            upstairs = project_point(desc, flow(desc, cp, s))
            if upstairs != flow(torus, project_point(desc, cp), s):
                failures.append("%s: projection breaks at %r + %s"
                                % (label, cp, s))
                break
    announce("cover descriptors: first return and 100-sample flow "
             "projection", failures)


def test_random_cores_complete_to_covers(announce):
    """Every folded core embeds in a finite cover of bounded degree."""
    failures = []
    rng = random.Random(20260817)
    for i in range(50):
        k = rng.randint(1, 3)
        ambient = rose(["a", "b", "c"][:k])
        letters = [x for g in ambient.edge_ids for x in (g, "-" + g)]
        words = [" ".join(rng.choice(letters)
                          for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(1, 3))]
        sub = fold(ambient, "v", words)
        cover = hall_completion(sub)
        if not cover.is_covering():
            failures.append("case %d: completion is not a covering" % i)
        if cover.degree() > len(sub.graph.vertices):
            failures.append("case %d: degree %d above %d core vertices"
                            % (i, cover.degree(), len(sub.graph.vertices)))
        for v in sub.graph.vertices:
            if v not in cover.graph.vertices \
                    or cover.vertex_image[v] != sub.vertex_image[v]:
                failures.append("case %d: vertex %s not embedded" % (i, v))
        for e in sub.graph.edge_ids:
            if e not in cover.graph.edge_ids \
                    or cover.graph.origin(e) != sub.graph.origin(e) \
                    or cover.graph.terminus(e) != sub.graph.terminus(e) \
                    or cover.edge_label[e] != sub.edge_label[e]:
                failures.append("case %d: edge %s not embedded" % (i, e))
    announce("50 random folded cores embed in genuine finite covers",
             failures)
