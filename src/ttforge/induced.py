"""Promotion of an expanding irreducible train track map to the stable image.

A train track self-map need not be injective on the fundamental group.  Its
stable image subgroup (where the kernels of the iterates have settled) is
carried by a folded core, and the map lifts to an expanding irreducible
train track self-map of that core.  This module builds the whole package:
the core, the induced map, the transfer map from the ambient graph into the
core, and the exponent tying their powers together, then re-verifies every
claimed identity bit for bit.

Conventions: v is the chosen periodic vertex, r its period, n the smallest
power such that the map is injective on the image subgroup of its (nr)-th
power at v, read off the one image chain of single steps of the map, and
the transfer map is a lift of the (2knr)-th power of the input, with k
chosen so the basepoint orbit upstairs has settled into its cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .covers import based_lift_power, lift_graph_map
from .freegroup import (
    Pi1Endomorphism, chain_quotient, fold, image_chain, is_injective_on,
    pi1_endomorphism, reduce_tokens, whole_group_graph,
)
from .graphs import GraphMap, compose, edge_of, inv, reduce_darts, validate
from .traintrack import (
    has_positive_power, is_expanding, is_irreducible, is_train_track,
    transition_matrix,
)


class SizeBudgetExceeded(ValueError):
    """Building the transfer map would blow past the symbol budget."""


def find_periodic_vertex(f):
    """A vertex of minimal period under the self-map, ties broken by id.

    Returns (vertex, period).  Vertex orbits of a finite graph always hit a
    cycle, so some vertex is periodic.
    """
    if not f.is_self_map:
        raise ValueError("need a self map")
    best = None
    for v in f.domain.vertices:
        cur = v
        for step in range(1, len(f.domain.vertices) + 1):
            cur = f.vertex_map[cur]
            if cur == v:
                if best is None or step < best[1]:
                    best = (v, step)
                break
    if best is None:
        raise AssertionError("finite graph self-map with no periodic vertex")
    return best


def injectivity_exponent(chain):
    """Smallest n >= 1 with f injective on the n-th image subgroup.

    ``chain`` is the `image_chain` of f at a vertex of period r.  f is
    injective on the j-th image of the fundamental group exactly from the
    chain's first rank plateau j* on, so the n-th image subgroup, the
    (nr)-th, qualifies exactly when nr >= j*: n is max(K, 1) with
    K = ceil(j* / r).
    """
    return max(chain[1], 1)


@dataclass
class InducedPackage:
    """Everything the promotion produces, ready for verification.

    ``core`` is the folded graph of the stable image subgroup; ``induced``
    the promoted train track map on it; ``projection`` the labeling as a
    graph map; ``transfer`` the semi-conjugating map from the ambient graph
    into the core, a lift of the ``constant``-th power of the source.
    """

    source: GraphMap
    core: object
    induced: GraphMap
    projection: GraphMap
    transfer: GraphMap
    periodic_vertex: str
    period: int
    exponent: int
    preperiod: int
    orbit_period: int
    multiplier: int
    constant: int
    basepoint: str
    transfer_basepoint: str
    endomorphism: Pi1Endomorphism
    quotient: object

    def constants(self):
        return {
            "periodic_vertex": self.periodic_vertex,
            "period": self.period,
            "exponent": self.exponent,
            "preperiod": self.preperiod,
            "orbit_period": self.orbit_period,
            "multiplier": self.multiplier,
            "constant": self.constant,
            "core_rank": self.core.rank(),
            "core_edges": len(self.core.graph.edge_ids),
            "stabilization": self.quotient.exponent,
        }


def smallest_multiple_reaching(step, floor):
    """Least positive multiple of ``step`` that is >= ``floor``.

    Applied to the basepoint orbit upstairs: with preperiod s and period q,
    any multiple of q at least max(s, 1) lands the iterate count inside the
    cycle, which is what makes the transfer map close up.
    """
    k = step
    while k < floor:
        k += step
    return k


def projection_map(core):
    """The core's labeling as a graph map onto the ambient graph."""
    return GraphMap(core.graph, core.ambient,
                    dict(core.vertex_image),
                    {e: (core.edge_label[e],) for e in core.graph.edge_ids})


def _transfer_size(matrix, power):
    """Total image length of the power-th iterate: 1^T A^power 1."""
    lengths = [1] * matrix.dim
    for _ in range(power):
        lengths = [sum(a * x for a, x in zip(row, lengths))
                   for row in matrix.rows]
    return sum(lengths)


def build_induced(f, size_budget=None):
    """Run the whole promotion and return the package.

    The input must be a valid expanding irreducible train track map; each
    precondition failure raises ValueError with the violated property.  A
    ``size_budget`` caps the total symbol count of the transfer map's edge
    images (its length grows like the growth rate to the power 2knr).
    """
    problem = validate(f)
    if problem is not None:
        raise ValueError("invalid graph map: %s" % problem)
    if not f.is_self_map:
        raise ValueError("need a self map")
    cert = is_train_track(f)
    if not cert.is_train_track:
        raise ValueError("not a train track map: %s" % cert.reason)
    matrix = transition_matrix(f)
    if not is_irreducible(matrix):
        raise ValueError("transition matrix is not irreducible")
    expansion = is_expanding(matrix)
    if not expansion.expanding:
        raise ValueError("not expanding: edge %r stays bounded"
                         % expansion.witness_edge)

    v, r = find_periodic_vertex(f)
    chain = image_chain(f, v, r)
    n = injectivity_exponent(chain)
    phi = pi1_endomorphism(f.power(r), v)
    quotient = chain_quotient(phi, chain)
    # the chain's links run up to index max(K, 1), which is n
    core = chain[0][n]
    if core.rank() == 0:
        raise ValueError("stable image subgroup is trivial")

    fbar = lift_graph_map(f, core)

    # orbit of the basepoint upstairs under the r-th power of the lift
    fbar_r_vertex = {}
    for x in core.graph.vertices:
        cur = x
        for _ in range(r):
            cur = fbar.vertex_map[cur]
        fbar_r_vertex[x] = cur
    seq = [core.basepoint]
    first_seen = {core.basepoint: 0}
    while True:
        nxt = fbar_r_vertex[seq[-1]]
        if nxt in first_seen:
            preperiod = first_seen[nxt]
            orbit_period = len(seq) - preperiod
            break
        first_seen[nxt] = len(seq)
        seq.append(nxt)
    k = smallest_multiple_reaching(orbit_period, max(preperiod, 1))
    K = 2 * k * n * r

    if size_budget is not None:
        if _transfer_size(matrix, K) > size_budget:
            raise SizeBudgetExceeded(
                "transfer map needs more than %d symbols" % size_budget)

    half = based_lift_power(core, phi.map, k * n)
    transfer = compose(fbar.power(k * n * r), half)

    z = core.basepoint
    for _ in range(k):
        z = fbar_r_vertex[z]

    return InducedPackage(
        source=f,
        core=core,
        induced=fbar,
        projection=projection_map(core),
        transfer=transfer,
        periodic_vertex=v,
        period=r,
        exponent=n,
        preperiod=preperiod,
        orbit_period=orbit_period,
        multiplier=k,
        constant=K,
        basepoint=core.basepoint,
        transfer_basepoint=z,
        endomorphism=phi,
        quotient=quotient,
    )


@dataclass
class VerificationReport:
    """Outcome of re-checking a package, one named result per property."""

    checks: dict = field(default_factory=dict)

    def record(self, name, ok, detail=""):
        self.checks[name] = (bool(ok), detail)

    @property
    def ok(self):
        return all(ok for ok, _ in self.checks.values())

    def failures(self):
        return [name for name, (ok, _) in self.checks.items() if not ok]

    def summary(self):
        lines = []
        for name in sorted(self.checks):
            ok, detail = self.checks[name]
            mark = "ok" if ok else "FAIL"
            lines.append("%-28s %s%s" % (name, mark,
                                         " (%s)" % detail if detail else ""))
        return "\n".join(lines)


def _growth_rate_mismatch(core, a_down, a_up, up_irreducible):
    """Why the source and induced growth rates may differ, or None.

    Pi is the 0/1 matrix sending each core edge to its label.  Row e of
    A_up Pi adds A_up's row e into columns by label; row e of Pi A_down is
    A_down's row for the label of e.  The identity A_up Pi = Pi A_down and
    the irreducibility of both matrices make Pi times A_down's Perron
    vector a positive eigenvector of A_up for the source's growth rate, so
    by Perron-Frobenius the two growth rates are equal.
    """
    if not is_irreducible(a_down):
        return "source matrix is reducible"
    if not up_irreducible:
        return "induced matrix is reducible"
    column = {e: j for j, e in enumerate(a_down.labels)}
    down_row = dict(zip(a_down.labels, a_down.rows))
    label_column = [column[core.edge_label[e]] for e in a_up.labels]
    for e, row in zip(a_up.labels, a_up.rows):
        summed = [0] * a_down.dim
        for j, x in enumerate(row):
            summed[label_column[j]] += x
        if tuple(summed) != down_row[core.edge_label[e]]:
            return "A_up Pi differs from Pi A_down at core edge %r" % e
    return None


def verify_package(pkg):
    """Re-derive every property the promotion claims.

    The four semi-conjugacy identities are compared as graph maps with
    unreduced substitution, so equality is bit-exact.  Growth rates are
    compared exactly, without eigenvalues: both transition matrices must be
    irreducible and satisfy the integer identity A_up Pi = Pi A_down, where
    Pi sends each core edge to its label.
    """
    report = VerificationReport()
    f = pkg.source
    fbar = pkg.induced
    p = pkg.projection
    P = pkg.transfer
    K = pkg.constant

    report.record(
        "projection_commutes",
        compose(f, p) == compose(p, fbar),
        "f after p versus p after induced")
    report.record(
        "transfer_covers_power",
        compose(p, P) == f.power(K),
        "p after transfer versus f^%d" % K)
    report.record(
        "transfer_after_projection",
        compose(P, p) == fbar.power(K),
        "transfer after p versus induced^%d" % K)
    report.record(
        "equivariance",
        compose(P, f) == compose(fbar, P),
        "transfer after f versus induced after transfer")

    k, n, r = pkg.multiplier, pkg.exponent, pkg.period
    report.record(
        "constant_consistent",
        K == 2 * k * n * r and k % pkg.orbit_period == 0
        and k >= max(pkg.preperiod, 1) and n >= 1 and r >= 1,
        "K=%d k=%d n=%d r=%d" % (K, k, n, r))
    report.record(
        "exponent_matches_stabilization",
        n == max(pkg.quotient.exponent, 1),
        "n=%d stabilization=%d" % (n, pkg.quotient.exponent))

    cert = is_train_track(fbar)
    report.record("induced_train_track", cert.is_train_track,
                  cert.reason or "")
    a_down = transition_matrix(f)
    a_up = transition_matrix(fbar)
    up_irreducible = is_irreducible(a_up)
    report.record("induced_irreducible", up_irreducible)
    expansion = is_expanding(a_up)
    report.record("induced_expanding", expansion.expanding,
                  "" if expansion.expanding
                  else "bounded %r" % (expansion.bounded_edges,))
    down_pos = has_positive_power(a_down)
    up_pos = has_positive_power(a_up)
    report.record(
        "positive_power_transfer",
        down_pos is None or up_pos is not None,
        "down %r up %r" % (down_pos, up_pos))

    growth = _growth_rate_mismatch(pkg.core, a_down, a_up, up_irreducible)
    # equal growth rates: the detail keeps the difference format
    report.record("growth_rate", growth is None,
                  growth or "difference 0.000e+00")

    # kernel stabilization 0: injective on the whole group
    report.record("induced_pi1_injective", is_injective_on(
        fbar, whole_group_graph(fbar.domain, fbar.domain.vertices[0])))

    core = pkg.core
    labels = set(core.edge_label.values())
    vertex_images = set(core.vertex_image.values())
    report.record(
        "core_shape",
        core.is_immersion() and not core.core_violations()
        and labels == set(core.ambient.edge_ids)
        and vertex_images == set(core.ambient.vertices),
        "folded core projecting onto the whole graph")
    report.record(
        "rank_matches_quotient",
        core.rank() == pkg.quotient.rank,
        "rank %d" % core.rank())

    crossed = set()
    for e in f.domain.edge_ids:
        for d in P.dart_image(e):
            crossed.add(edge_of(d))
    report.record(
        "transfer_onto_core",
        crossed == set(core.graph.edge_ids),
        "%d of %d edges hit" % (len(crossed), len(core.graph.edge_ids)))

    return report


@dataclass
class ConjugacyReport:
    """Result of matching the induced action against the stable restriction."""

    matched: bool
    conjugator: tuple
    candidates_tried: int
    subgroup_conjugate: bool = True
    detail: str = ""


def _conjugate_word(u, word):
    return reduce_tokens(u + word + tuple((n, -s) for n, s in reversed(u)))


def conjugacy_check(pkg, max_length=4, max_candidates=20000):
    """Compare the induced map's group action with the return endomorphism.

    Both actions are written at the periodic point upstairs, where the
    induced map's relevant power is based: one pushes fundamental group
    basis loops through that power, the other applies the return map to
    their projections and lifts back.  The two agree up to one inner
    automorphism; the conjugator is searched outward from the identity,
    where every fixture lands.  Also records whether the subgroup carried
    by the periodic point is conjugate to the stable image by the
    connecting path, which is the "up to conjugacy" in the statement that
    the promoted map represents the stable endomorphism.
    """
    core = pkg.core
    fbar = pkg.induced
    q = pkg.orbit_period
    power = q * pkg.period
    z = pkg.transfer_basepoint
    cur = z
    for _ in range(power):
        cur = fbar.vertex_map[cur]
    if cur != z:
        return ConjugacyReport(False, (), 0, False,
                               "periodic point is not fixed by the power")

    helper = whole_group_graph(core.graph, z)
    big = fbar.power(power)
    phi = pkg.endomorphism

    upstairs = {}
    downstairs = {}
    for name, loop, _word in helper.basis():
        upstairs[name] = helper.rewrite(big.apply_to_darts(loop))
        projected = core.project_darts(loop)
        returned = phi.apply_word(projected, q)
        end, lifted, consumed = core.trace(z, returned)
        if consumed != len(returned) or end != z:
            return ConjugacyReport(False, (), 0, False,
                                   "return image does not lift closed")
        downstairs[name] = helper.rewrite(lifted)

    # the subgroup at the periodic point versus the stable image: conjugate
    # by the projection of any path connecting the basepoints
    _, path_to = core.spanning_tree()
    delta = core.project_darts(path_to[z])
    moved = [reduce_darts(delta + core.project_darts(loop)
                          + tuple(inv(d) for d in reversed(delta)))
             for _name, loop, _word in helper.basis()]
    ambient = core.ambient
    base_down = core.vertex_image[core.basepoint]
    conjugate_ok = (fold(ambient, base_down, moved)
                    == fold(ambient, base_down, core.generator_words()))

    names = sorted(upstairs)
    tried = 0
    gens = []
    for name in names:
        gens.append((name, 1))
        gens.append((name, -1))
    frontier = [()]
    seen = {()}
    while frontier and tried < max_candidates:
        u = frontier.pop(0)
        tried += 1
        if all(_conjugate_word(u, downstairs[g]) == upstairs[g]
               for g in names):
            return ConjugacyReport(True, u, tried, conjugate_ok)
        if len(u) < max_length:
            for g in gens:
                if u and u[-1][0] == g[0] and u[-1][1] == -g[1]:
                    continue
                nxt = u + (g,)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return ConjugacyReport(False, (), tried, conjugate_ok,
                           "no conjugator within bounds")
