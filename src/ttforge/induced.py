"""Promotion of an expanding irreducible train track map to the stable image.

A train track self-map need not be injective on the fundamental group.  Its
stable image subgroup (where the kernels of the iterates have settled) is
carried by a folded core, and the map lifts to an expanding irreducible
train track self-map of that core.  This module builds the whole package:
the core, the induced map, the transfer map from the ambient graph into the
core, and the exponent tying their powers together, then re-verifies every
claimed identity bit for bit.  That the promoted map represents the stable
endomorphism needs no check of its own: with the projection commuting and
the transfer basepoint on the induced map's cycle, the induced action on
loops there is the lift of the source's, by unique path lifting.

Conventions: v is the chosen periodic vertex, r its period, n the smallest
power such that the map is injective on the image subgroup of its (nr)-th
power at v, read off the one image chain of single steps of the map, and
the transfer map is a lift of the (2knr)-th power of the input, with k
chosen so the basepoint orbit upstairs has settled into its cycle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .covers import based_lift_power, lift_graph_map
from .freegroup import image_chain, is_injective_on, whole_group_graph
from .graphs import GraphMap, compose, edge_of, iterate_lengths, validate
from .traintrack import (
    certification_failure, has_positive_power, is_expanding, is_irreducible,
    is_train_track, transition_matrix,
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
    ``chain`` is the `image_chain` ``(links, K)`` of the source at the
    periodic vertex with its period: ``links[K]`` is the stable image
    subgroup and K the kernel stabilization constant of the return map.
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
    chain: tuple

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
            "stabilization": self.chain[1],
        }


def basepoint_orbit(fbar, base, r):
    """The orbit of ``base`` under the r-th power of the lift fbar.

    Returns ``(preperiod, orbit_period, landing)``: the orbit enters its
    cycle after ``preperiod`` steps and then repeats every
    ``orbit_period``, so every multiple of the period that is at least the
    preperiod lands on the same cycle point, ``landing``.
    """
    step = {}  # orbit point -> its step, in orbit order
    cur = base
    while cur not in step:
        step[cur] = len(step)
        for _ in range(r):
            cur = fbar.vertex_map[cur]
    preperiod = step[cur]
    orbit_period = len(step) - preperiod
    landing = list(step)[preperiod + -preperiod % orbit_period]
    return preperiod, orbit_period, landing


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


def build_induced(f, size_budget=None):
    """Run the whole promotion and return the package.

    The input must be a valid expanding irreducible train track map; else
    ValueError names the first admission check it fails (see
    `traintrack.certification_failure`).  A ``size_budget`` caps the total
    symbol count of the transfer map's edge images (its length grows like
    the growth rate to the power 2knr).
    """
    failure = certification_failure(f)
    if failure is not None:
        raise ValueError(failure[1])

    v, r = find_periodic_vertex(f)
    chain = image_chain(f, v, r)
    n = injectivity_exponent(chain)
    # the chain's links run up to index max(K, 1), which is n
    core = chain[0][n]
    if core.rank() == 0:
        raise ValueError("stable image subgroup is trivial")

    fbar = lift_graph_map(f, core)
    preperiod, orbit_period, z = basepoint_orbit(fbar, core.basepoint, r)
    k = smallest_multiple_reaching(orbit_period, max(preperiod, 1))
    K = 2 * k * n * r

    if size_budget is not None:
        if sum(iterate_lengths(f, K + 1)[K].values()) > size_budget:
            raise SizeBudgetExceeded(
                "transfer map needs more than %d symbols" % size_budget)

    half = based_lift_power(core, f, k * n * r)
    transfer = compose(fbar.power(k * n * r), half)

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
        chain=chain,
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
    down_row = dict(zip(a_down.labels, a_down.entries))
    label_column = [column[core.edge_label[e]] for e in a_up.labels]
    for e, row in zip(a_up.labels, a_up.entries):
        summed = Counter()
        for j, x in row:
            summed[label_column[j]] += x
        if tuple(sorted(summed.items())) != down_row[core.edge_label[e]]:
            return "A_up Pi differs from Pi A_down at core edge %r" % e
    return None


def _is_path_map(m, domain, codomain):
    """Whether m maps domain to codomain, each edge onto a nonempty path
    from the image of its origin to the image of its terminus."""
    if m.domain != domain or m.codomain != codomain:
        return False
    origin = {d: codomain.origin(d) for d in codomain.darts}
    terminus = {d: codomain.terminus(d) for d in codomain.darts}
    vm = m.vertex_map
    try:
        for e, o, t in domain.edge_data:
            img = m.dart_image(e)
            if not img or ([vm[o]] + [terminus[d] for d in img]
                           != [origin[d] for d in img] + [vm[t]]):
                return False
    except KeyError:
        return False
    return True


def _transfer_after_projection(pkg, premises_held):
    """Whether P after p equals fbar^K: transfer, projection, induced map.

    Decided by unique path lifting when these premises hold: the core is
    immersed; ``premises_held``, that is p is the core's labeling,
    f p = p fbar, p P = f^K and fbar is a graph map (``graphs.validate``);
    and fbar, a self-map of the core graph, and P send every edge to a
    nonempty core path from the image of its origin to the image of its
    terminus.  Unreduced substitution is associative, so p fbar^K = f^K p
    and p (P p) = (p P) p = f^K p.  For a core edge e, fbar^K(e) and
    P(p(e)) are then core paths with one label sequence, f^K(p(e)): lifts
    of one ambient path, starting at fbar^K(o(e)) and at P(p(o(e))).  In an
    immersion a path is determined by its start and its labels, so the two
    maps are equal exactly when P(p(v)) = fbar^K(v) at every core vertex v,
    which costs O(K V) instead of the size of fbar^K.  When a premise
    fails, both maps are built and compared.
    """
    core, p, P, fbar = pkg.core, pkg.projection, pkg.transfer, pkg.induced
    if not (premises_held and core.is_immersion()
            and fbar.domain == core.graph == fbar.codomain
            and _is_path_map(P, core.ambient, core.graph)):
        return compose(P, p) == fbar.power(pkg.constant)
    power = {v: v for v in core.graph.vertices}
    for _ in range(pkg.constant):
        power = {v: fbar.vertex_map[w] for v, w in power.items()}
    return all(P.vertex_map[p.vertex_map[v]] == w for v, w in power.items())


def verify_package(pkg):
    """Re-derive every property the promotion claims.

    Three semi-conjugacy identities are compared as graph maps with
    unreduced substitution, so equality is bit-exact; the first also asks
    that p be the core's labeling.  The fourth, transfer
    after projection against the induced map's K-th power, follows from two
    of them up to the vertex maps by unique path lifting, so it compares
    vertex maps whenever its premises hold (see
    `_transfer_after_projection`); otherwise it too compares the maps.
    No check builds a map much larger than the transfer.  Growth rates are
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

    commutes = (p == projection_map(pkg.core)
                and compose(f, p) == compose(p, fbar))
    report.record(
        "projection_commutes", commutes,
        "f after p versus p after induced")
    covers = compose(p, P) == f.power(K)
    report.record(
        "transfer_covers_power", covers,
        "p after transfer versus f^%d" % K)
    invalid = validate(fbar)
    report.record(
        "transfer_after_projection",
        _transfer_after_projection(pkg, commutes and covers
                                   and invalid is None),
        "transfer after p versus induced^%d" % K)
    report.record(
        "equivariance",
        compose(P, f) == compose(fbar, P),
        "transfer after f versus induced after transfer")

    k, n, r = pkg.multiplier, pkg.exponent, pkg.period
    links, stabilization = pkg.chain
    core = pkg.core
    # the orbit constants are re-derived, the orbit only on a valid lift
    periodic = find_periodic_vertex(f)
    orbit = (invalid is None and fbar.domain == core.graph == fbar.codomain
             and basepoint_orbit(fbar, core.basepoint, periodic[1]))
    report.record(
        "constant_consistent",
        orbit == (pkg.preperiod, pkg.orbit_period, pkg.transfer_basepoint)
        and periodic == (pkg.periodic_vertex, r)
        and pkg.basepoint == core.basepoint
        and P.vertex_map.get(pkg.periodic_vertex) == pkg.transfer_basepoint
        and K == 2 * k * n * r and k % pkg.orbit_period == 0
        and k >= max(pkg.preperiod, 1) and n >= 1,
        "K=%d k=%d n=%d r=%d" % (K, k, n, r))
    report.record(
        "exponent_matches_stabilization",
        n == max(stabilization, 1),
        "n=%d stabilization=%d" % (n, stabilization))

    if invalid is None:
        verdict = is_train_track(fbar)
        report.record("induced_train_track", verdict.is_train_track,
                      verdict.reason or "")
    else:
        report.record("induced_train_track", False,
                      "invalid graph map: %s" % invalid)
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

    # kernel stabilization 0: injective on the whole group, which only a
    # graph map can be folded over
    report.record(
        "induced_pi1_injective",
        invalid is None and is_injective_on(
            fbar, whole_group_graph(fbar.domain, fbar.domain.vertices[0])),
        "" if invalid is None else "invalid graph map: %s" % invalid)

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
        core == links[max(stabilization, 1)],
        "rank %d" % core.rank())

    darts = set(chain.from_iterable(map(P.dart_image, f.domain.edge_ids)))
    crossed = set(map(edge_of, darts))
    report.record(
        "transfer_onto_core",
        crossed == set(core.graph.edge_ids),
        "%d of %d edges hit" % (len(crossed), len(core.graph.edge_ids)))

    return report

