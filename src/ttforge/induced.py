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
from itertools import islice

from .covers import based_lift_power, lift_graph_map
from .freegroup import image_chain, is_pi1_injective
from .graphs import GraphMap, compose, edge_of, iterated_lengths, validate
from .traintrack import (
    certification_failure, is_expanding, is_irreducible, is_train_track,
    period, transition_matrix,
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

    ``core`` is the folded graph of the stable image subgroup, and the
    only home of its labeling and basepoint; ``induced`` the promoted
    train track map on it; ``half`` the based lift H of the source's m-th
    power into the core, m = ``constant`` // 2.  Two maps are read off
    these on first use and never stored: ``projection``, the core's
    labeling as a graph map, and ``transfer``, induced^m after H, the
    semi-conjugating map into the core lifting the ``constant``-th power.
    ``chain`` is the `image_chain` ``(link, K)`` of the source at the
    periodic vertex with its period: ``link`` is the n-th image subgroup,
    n = max(K, 1), which ``core`` must equal, and K the kernel
    stabilization constant of the return map.
    """

    source: GraphMap
    core: object
    induced: GraphMap
    half: GraphMap
    periodic_vertex: str
    period: int
    exponent: int
    preperiod: int
    orbit_period: int
    multiplier: int
    constant: int
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
    def projection(self):
        return projection_map(self.core)

    @cached_property
    def transfer(self):
        return compose(self.induced.power(self.constant // 2), self.half)


def vertex_power(f, v, j):
    """Where j steps of f's vertex map take the vertex v."""
    for _ in range(j):
        v = f.vertex_map[v]
    return v


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
        cur = vertex_power(fbar, cur, r)
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
    return max(-(-floor // step), 1) * step


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

    The input must be a valid expanding irreducible train track map on a
    connected graph; else ValueError names the first admission check it
    fails (see `traintrack.certification_failure`) or the graph.  A ``size_budget`` caps the total
    symbol count of the transfer map's edge images (its length grows like
    the growth rate to the power 2knr).
    """
    failure = certification_failure(f)
    if failure is not None:
        raise ValueError(failure[1])
    if not f.domain.is_connected():
        raise ValueError("graph is not connected")

    v, r = find_periodic_vertex(f)
    chain = image_chain(f, v, r)
    n = injectivity_exponent(chain)
    core = chain[0]
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
        half=based_lift_power(core, f, k * n * r),
        periodic_vertex=v,
        period=r,
        exponent=n,
        preperiod=preperiod,
        orbit_period=orbit_period,
        multiplier=k,
        constant=K,
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


def _growth_rate_mismatch(core, a_down, a_up, up_irreducible,
                          commutes=False):
    """Why the source and induced growth rates may differ, or None.

    Pi is the 0/1 matrix sending each core edge to its label.  Row e of
    A_up Pi adds A_up's row e into columns by label; row e of Pi A_down is
    A_down's row for the label of e.  The identity A_up Pi = Pi A_down and
    the irreducibility of both matrices make Pi times A_down's Perron
    vector a positive eigenvector of A_up for the source's growth rate, so
    by Perron-Frobenius the two growth rates are equal.  When f p = p fbar
    holds unreduced (``commutes``), the identity needs no comparison: row
    e of A_up Pi counts the edges of p(fbar(e)) = f(p(e)), which row p(e)
    of A_down counts.
    """
    if not is_irreducible(a_down):
        return "source matrix is reducible"
    if not up_irreducible:
        return "induced matrix is reducible"
    if commutes:
        return None
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


def verify_package(pkg):
    """Re-derive every property the promotion claims.

    Maps are compared with unreduced substitution, so bit for bit, and
    composed only once they are valid graph maps between the right
    graphs.  Each stored map is validated once, f and fbar have one
    transition matrix each, which every count of crossings reads, and
    f p = p fbar is compared edge image by edge image, with no composite
    built.  The transfer P = fbar^m H, m = K // 2, is certified without
    building it, from these premises: f, fbar and H are valid graph maps,
    fbar and H into the immersed core, f p = p fbar for the core's
    labeling p (read off the core, so there is no second copy to
    compare), and p H = f^m, built only once H's image lengths are f^m's.
    Then p P = f^m p H = f^K by associativity, so P p and fbar^K lift
    f^K p, and P f and fbar P lift f^(K+1).  In the immersed core a dart
    sequence is fixed by its first vertex and its projection, unreduced
    (Stallings 1983): maps into it whose projections agree dart for dart
    are equal once they agree at one vertex of a connected domain, each
    dart's image being the one lift of one path from one vertex, termini
    included.  So each comparison reads the core's basepoint w or p(w),
    failing by its premise on a disconnected graph.  A check whose
    premise fails fails, and so do the premises that need m when the
    `INTEGER_CONSTANTS` are not all integers.

    The dynamics transfer from f through p, as in the paper, rather than
    being re-derived on the core; when a lemma's premise fails, the
    direct computation on the core decides, with the same detail.
    Train track by projection: f p = p fbar unreduced gives
    p fbar^j(e) = f^j(p(e)), and p sends a backtrack to a backtrack, so
    fbar is a train track map when f is one (on the base graph) and fbar
    crosses every core edge (no column of A_up is zero); else the full
    turn walk names the first uncrossed edge or degenerating turn.
    Expanding by transfer: f p = p fbar unreduced and p sends each dart
    to one dart, so |fbar^j(e)| = |f^j(p(e))|, and fbar is expanding
    when f is.
    Growth rates are compared exactly, without eigenvalues: both
    transition matrices are irreducible and A_up Pi = Pi A_down, where Pi
    sends each core edge to its label, and when f p = p fbar holds that
    identity follows row by row (see `_growth_rate_mismatch`), which is
    compared only when it does not.  Primitivity by period: an
    irreducible matrix is primitive exactly when its period is 1, so
    "down primitive implies up primitive" is decided by one breadth-first
    search per matrix, with detail "period down %r up %r".  When the
    premises hold, the checks of expansion and of the growth rate
    re-derive nothing on the core; irreducibility is read off the
    condensation of A_up, which `period` needs anyway, and no check steps
    a matrix power or walks a turn orbit there.
    """
    report = VerificationReport()
    f, fbar, p, H = pkg.source, pkg.induced, pkg.projection, pkg.half
    K, core = pkg.constant, pkg.core
    integral = all(is_integer(getattr(pkg, name))
                   for name in INTEGER_CONSTANTS)
    m = K // 2 if integral else None
    graph, ambient = core.graph, core.ambient
    immersed = core.is_immersion()

    invalid = validate(fbar)
    # f and fbar valid self-maps of the ambient graph and of the core
    maps_ok = (invalid is None and fbar.domain == graph == fbar.codomain
               and f.domain == f.codomain == ambient and validate(f) is None)
    # f p = p fbar, edge image by edge image.  The vertex maps then agree
    # too: f and fbar are valid, and so is p, the core's labeling
    # respecting incidence, so both composites are valid maps; a core
    # vertex v has an out-dart d, fbar's domain having no isolated vertex,
    # and both composites send d to the same nonempty path (a reversed
    # dart to its edge's image reversed), which starts at both images of v
    commutes = maps_ok and all(
        f.dart_image(core.edge_label[e])
        == p.apply_to_darts(fbar.dart_image(e)) for e in graph.edge_ids)
    report.record(
        "projection_commutes", commutes,
        "f after p versus p after induced")
    # f^m is built only once H's lengths are f^m's; no level over |H| is read
    lengths = {e: len(H.dart_image(e)) for e in H.domain.edge_ids}
    fits = (integral and maps_ok and immersed
            and H.domain == ambient and H.codomain == graph
            and validate(H) is None
            and _level(f, m, sum(lengths.values())) == lengths)
    lifts = fits and commutes and compose(p, H) == f.power(m)
    w, x = core.basepoint, p.vertex_map[core.basepoint]  # x below w
    report.record(
        "transfer_covers_power", lifts and K % 2 == 0,
        "p after transfer versus f^%s" % (K,))
    report.record(
        "transfer_after_projection",
        lifts and K % 2 == 0 and graph.is_connected()
        and vertex_power(fbar, H.vertex_map[x], m)
        == vertex_power(fbar, w, K),
        "transfer after p versus induced^%s" % (K,))
    report.record(
        "equivariance",
        lifts and ambient.is_connected()
        and vertex_power(fbar, H.vertex_map[f.vertex_map[x]], m)
        == vertex_power(fbar, H.vertex_map[x], m + 1),
        "transfer after f versus induced after transfer")

    k, n, r = pkg.multiplier, pkg.exponent, pkg.period
    link, stabilization = pkg.chain
    # the orbit constants are re-derived, the orbit only on a valid lift
    periodic = find_periodic_vertex(f)
    orbit = maps_ok and basepoint_orbit(fbar, core.basepoint, periodic[1])
    report.record(
        "constant_consistent",
        integral
        and orbit == (pkg.preperiod, pkg.orbit_period, pkg.transfer_basepoint)
        and periodic == (pkg.periodic_vertex, r)
        and fits and vertex_power(fbar, H.vertex_map[periodic[0]], m)
        == pkg.transfer_basepoint
        and K == 2 * k * n * r and k % pkg.orbit_period == 0
        and k >= max(pkg.preperiod, 1) and n >= 1,
        "K=%s k=%s n=%s r=%s" % (K, k, n, r))
    report.record(
        "exponent_matches_stabilization",
        n == max(stabilization, 1),
        "n=%s stabilization=%d" % (n, stabilization))

    a_down = transition_matrix(f)
    a_up = transition_matrix(fbar)
    # the columns of the edges P crosses: m pushes of H's through A_up,
    # where a set that a push fixes stays fixed
    crossed = set()
    if fits:
        column = {e: j for j, e in enumerate(a_up.labels)}
        crossed = {column[edge_of(d)] for e in ambient.edge_ids
                   for d in H.dart_image(e)}
        for _ in range(m):
            pushed = {j for i in crossed for j, _x in a_up.entries[i]}
            if pushed == crossed:
                break
            crossed = pushed
    # train track by projection, else the turn walk that names a failure
    if (commutes and immersed
            and len({j for row in a_up.entries for j, _x in row}) == a_up.dim
            and is_train_track(f).is_train_track):
        report.record("induced_train_track", True, "")
    elif invalid is None:
        verdict = is_train_track(fbar)
        report.record("induced_train_track", verdict.is_train_track,
                      verdict.reason or "")
    else:
        report.record("induced_train_track", False,
                      "invalid graph map: %s" % invalid)
    up_irreducible = is_irreducible(a_up)
    report.record("induced_irreducible", up_irreducible)
    # expanding by transfer, else by the condensation of A_up
    if commutes and is_expanding(a_down).expanding:
        report.record("induced_expanding", True, "")
    else:
        expansion = is_expanding(a_up)
        report.record("induced_expanding", expansion.expanding,
                      "" if expansion.expanding
                      else "bounded %r" % (expansion.bounded_edges,))
    # primitive is period 1; the period of a reducible matrix is None
    down_period, up_period = period(a_down), period(a_up)
    report.record(
        "positive_power_transfer",
        down_period != 1 or up_period == 1,
        "period down %r up %r" % (down_period, up_period))

    growth = (_growth_rate_mismatch(core, a_down, a_up, up_irreducible,
                                    commutes)
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
        immersed and not core.core_violations()
        and labels == set(ambient.edge_ids)
        and vertex_images == set(ambient.vertices),
        "folded core projecting onto the whole graph")
    report.record(
        "rank_matches_quotient",
        core == link,
        "rank %d" % core.rank())

    report.record(
        "transfer_onto_core", len(crossed) == len(graph.edge_ids),
        "%d of %d edges hit" % (len(crossed), len(graph.edge_ids)))

    return report
