"""Promotion of an expanding irreducible train track map to the stable image.

A train track self-map need not be injective on the fundamental group.  Its
stable image subgroup (where the kernels of the iterates have settled) is
carried by a folded core, and the map lifts to an expanding irreducible
train track self-map of that core.  This module builds the whole package:
the core, the induced map, the half of the transfer map from the ambient
graph into the core, and the exponent tying their powers together, then
re-verifies every claimed identity bit for bit.  That the promoted map
represents the stable endomorphism needs no check of its own: with the
projection commuting and the transfer basepoint on the induced map's
cycle, the induced action on loops there is the lift of the source's, by
unique path lifting.

Conventions: v is the chosen periodic vertex, r its period, n the smallest
power such that the map is injective on the image subgroup of its (nr)-th
power at v, read off the one image chain of single steps of the map, and
the transfer map is a lift of the (2knr)-th power of the input, with k
chosen so the basepoint orbit upstairs has settled into its cycle.  It is
the induced map's (knr)-th power after the half, the based lift of the
(knr)-th power, which is what a package stores.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice

from .covers import based_lift_power, lift_graph_map
from .freegroup import image_chain, is_pi1_injective
from .graphs import GraphMap, compose, edge_of, iterated_lengths, validate
from .traintrack import (
    certification_failure, has_positive_power, is_expanding, is_irreducible,
    is_train_track, transition_matrix,
)


# the package constants that verify reads as integers
INTEGER_CONSTANTS = ("period", "exponent", "preperiod", "orbit_period",
                     "multiplier", "constant")


def is_integer(x):
    """Whether x is an int and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


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
    graph map; ``half`` the based lift H of the source's m-th power into
    the core, m = ``constant`` // 2.  ``transfer``, built on first read,
    is induced^m after H: the semi-conjugating map into the core lifting
    the ``constant``-th power.
    ``chain`` is the `image_chain` ``(links, K)`` of the source at the
    periodic vertex with its period: ``links[K]`` is the stable image
    subgroup and K the kernel stabilization constant of the return map.
    """

    source: GraphMap
    core: object
    induced: GraphMap
    projection: GraphMap
    half: GraphMap
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

    @cached_property
    def transfer(self):
        return compose(self.induced.power(self.constant // 2), self.half)


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


def _level(f, j, bound):
    """Level j of f's iterated lengths, None if j < 0 or a level up to j
    totals over ``bound``: levels never shrink, so the walk stops there."""
    level = None
    for level in islice(iterated_lengths(f), max(j + 1, 0)):
        if sum(level.values()) > bound:
            return None
    return level


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

    if size_budget is not None and _level(f, K, size_budget) is None:
        raise SizeBudgetExceeded(
            "transfer map needs more than %d symbols" % size_budget)

    return InducedPackage(
        source=f,
        core=core,
        induced=fbar,
        projection=projection_map(core),
        half=based_lift_power(core, f, k * n * r),
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
    origin, terminus = codomain.origin, codomain.terminus
    vm = m.vertex_map
    try:
        for e, o, t in domain.edge_data:
            img = m.dart_image(e)
            if not img or ([vm[o]] + list(map(terminus, img))
                           != list(map(origin, img)) + [vm[t]]):
                return False
    except KeyError:
        return False
    return True


def verify_package(pkg):
    """Re-derive every property the promotion claims.

    Maps are compared with unreduced substitution, so bit for bit, and
    composed only once they are paths between the right graphs.  The
    transfer P = fbar^m H, m = K // 2, is certified without building it,
    from these premises: f and fbar are valid graph maps, fbar and H path
    maps into the immersed core, p the core's labeling with f p = p fbar,
    and p H = f^m, built only once H's image lengths are f^m's.  Then
    p P = f^m p H = f^K by associativity, and P p against fbar^K, like P f
    against fbar P, are lifts of one ambient map through the immersion,
    equal exactly when their vertex maps agree (Stallings 1983).  A check
    whose premise fails fails, and so do the premises that need m when
    the `INTEGER_CONSTANTS` are not all integers.  Growth rates are
    compared exactly: both transition matrices are irreducible and
    A_up Pi = Pi A_down, where Pi sends each core edge to its label.
    """
    report = VerificationReport()
    f, fbar, p, H = pkg.source, pkg.induced, pkg.projection, pkg.half
    K, core = pkg.constant, pkg.core
    integral = all(is_integer(getattr(pkg, name))
                   for name in INTEGER_CONSTANTS)
    m = K // 2 if integral else None
    graph, ambient = core.graph, core.ambient

    invalid = validate(fbar)
    # f and fbar valid self-maps of the ambient graph and of the core
    maps_ok = (invalid is None and fbar.domain == graph == fbar.codomain
               and f.domain == f.codomain == ambient and validate(f) is None)
    commutes = (maps_ok and p == projection_map(core)
                and compose(f, p) == compose(p, fbar))
    report.record(
        "projection_commutes", commutes,
        "f after p versus p after induced")
    # f^m is built only once H's lengths are f^m's; no level over |H| is read
    lengths = {e: len(H.dart_image(e)) for e in H.domain.edge_ids}
    fits = (integral and maps_ok and core.is_immersion()
            and _is_path_map(H, ambient, graph)
            and _level(f, m, sum(lengths.values())) == lengths)
    # P's vertex map and crossed edges: m pushes of H's through fbar
    power, transfer_vertex, crossed = {v: v for v in graph.vertices}, {}, set()
    if fits:
        hit = {e: set(map(edge_of, fbar.dart_image(e)))
               for e in graph.edge_ids}
        crossed = set(map(edge_of, chain.from_iterable(
            map(H.dart_image, ambient.edge_ids))))
        for _ in range(m):
            power = {v: fbar.vertex_map[w] for v, w in power.items()}
            crossed = set().union(*map(hit.__getitem__, crossed))
        transfer_vertex = {x: power[H.vertex_map[x]]
                           for x in ambient.vertices}
    lifts = fits and commutes and compose(p, H) == f.power(m)
    report.record(
        "transfer_covers_power", lifts and K % 2 == 0,
        "p after transfer versus f^%s" % (K,))
    report.record(
        "transfer_after_projection",
        lifts and K % 2 == 0
        and all(transfer_vertex[p.vertex_map[v]] == power[power[v]]
                for v in graph.vertices),
        "transfer after p versus induced^%s" % (K,))
    report.record(
        "equivariance",
        lifts and all(transfer_vertex[f.vertex_map[x]]
                      == fbar.vertex_map[transfer_vertex[x]]
                      for x in ambient.vertices),
        "transfer after f versus induced after transfer")

    k, n, r = pkg.multiplier, pkg.exponent, pkg.period
    links, stabilization = pkg.chain
    # the orbit constants are re-derived, the orbit only on a valid lift
    periodic = find_periodic_vertex(f)
    orbit = maps_ok and basepoint_orbit(fbar, core.basepoint, periodic[1])
    report.record(
        "constant_consistent",
        integral
        and orbit == (pkg.preperiod, pkg.orbit_period, pkg.transfer_basepoint)
        and periodic == (pkg.periodic_vertex, r)
        and pkg.basepoint == core.basepoint
        and transfer_vertex.get(pkg.periodic_vertex)
        == pkg.transfer_basepoint
        and K == 2 * k * n * r and k % pkg.orbit_period == 0
        and k >= max(pkg.preperiod, 1) and n >= 1,
        "K=%s k=%s n=%s r=%s" % (K, k, n, r))
    report.record(
        "exponent_matches_stabilization",
        n == max(stabilization, 1),
        "n=%s stabilization=%d" % (n, stabilization))

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

    growth = (_growth_rate_mismatch(core, a_down, a_up, up_irreducible)
              if fbar.domain == graph and f.domain == ambient
              else "induced map and core are over different graphs")
    # equal growth rates: the detail keeps the difference format
    report.record("growth_rate", growth is None,
                  growth or "difference 0.000e+00")

    # kernel stabilization 0: injective on the whole group, which only a
    # graph map can be folded over
    report.record(
        "induced_pi1_injective",
        invalid is None and is_pi1_injective(fbar),
        "" if invalid is None else "invalid graph map: %s" % invalid)

    labels = set(core.edge_label.values())
    vertex_images = set(core.vertex_image.values())
    report.record(
        "core_shape",
        core.is_immersion() and not core.core_violations()
        and labels == set(ambient.edge_ids)
        and vertex_images == set(ambient.vertices),
        "folded core projecting onto the whole graph")
    report.record(
        "rank_matches_quotient",
        core == links[max(stabilization, 1)],
        "rank %d" % core.rank())

    report.record(
        "transfer_onto_core",
        crossed == set(graph.edge_ids),
        "%d of %d edges hit" % (len(crossed), len(graph.edge_ids)))

    return report

