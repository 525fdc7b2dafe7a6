"""Train track analysis of graph self-maps.

Transition matrices over arbitrary-precision integers, irreducibility (a
plain verdict from the strongly connected components) and primitivity, the
expansion dichotomy, Perron-Frobenius values by exact power iteration (which
``analyze`` reports; verification compares growth rates by an integer
identity instead), turn calculus with legality certificates, legal loops
through a prescribed edge, and invariant subgraph detection.

A self-map f is a train track map when it is surjective (every edge occurs in
some image) and every iterate restricted to every edge is an immersion.  The
iterate condition is equivalent to: no turn taken by an image path has a
derivative orbit that reaches a degenerate turn.  That closure argument is
what :func:`is_train_track` certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_

from .graphs import CyclicPath, edge_of, inv, turn


class TransitionMatrix:
    """Nonnegative integer matrix indexed by the sorted edge ids of a graph.

    Entry ``(e, e')`` counts occurrences of e' or its reverse in the image of
    e, so row sums are image lengths.  Entries are plain Python ints and never
    overflow.
    """

    __slots__ = ("labels", "rows")

    def __init__(self, labels, rows):
        self.labels = tuple(labels)
        self.rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(self.labels)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("matrix shape does not match labels")
        if any(x < 0 for row in self.rows for x in row):
            raise ValueError("negative entry")

    @property
    def dim(self):
        return len(self.labels)

    def support(self):
        """Adjacency lists of the positivity digraph (by index)."""
        return [tuple(j for j, x in enumerate(row) if x > 0)
                for row in self.rows]

    def to_text(self):
        lines = [" ".join(self.labels)]
        for row in self.rows:
            lines.append(" ".join(str(x) for x in row))
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, TransitionMatrix)
                and self.labels == other.labels and self.rows == other.rows)

    def __hash__(self):
        return hash((self.labels, self.rows))

    def __repr__(self):
        return "TransitionMatrix(%s)" % (self.to_text().replace("\n", "; "),)


def transition_matrix(f):
    if not f.is_self_map:
        raise ValueError("transition matrix needs a self map")
    labels = tuple(sorted(f.domain.edge_ids))
    index = {e: i for i, e in enumerate(labels)}
    rows = []
    for e in labels:
        row = [0] * len(labels)
        for d in f.dart_image(e):
            row[index[edge_of(d)]] += 1
        rows.append(row)
    return TransitionMatrix(labels, rows)


def is_irreducible(matrix):
    """Strong connectivity of the positivity digraph.

    Every index reaches every index, itself included, by a path of length at
    least one: the digraph is one strongly connected component and no row is
    zero, which for a 1x1 matrix asks for a loop.  The empty matrix passes.
    """
    adj = matrix.support()
    return all(adj) and len(_strongly_connected_components(adj)) <= 1


def has_positive_power(matrix):
    """Smallest t with every entry of A^t positive, or None.

    The rows of A^t are int bitsets: row i of A^(t+1) = A A^t is the OR of
    the rows k of A^t over the support of row i of A, O(nnz(A)) big-int ORs
    per step.  A primitive matrix turns positive by Wielandt's bound
    (n-1)^2 + 1, so a matrix not positive by then never is.
    """
    n = matrix.dim
    if n == 0:
        return None
    full = (1 << n) - 1
    adj = matrix.support()
    rows = [sum(1 << j for j in out) for out in adj]
    for t in range(1, (n - 1) ** 2 + 2):
        if all(row == full for row in rows):
            return t
        rows = [reduce(or_, [rows[k] for k in out], 0) for out in adj]
    return None


# -- expansion --------------------------------------------------------------


def _strongly_connected_components(adj):
    """Tarjan, iterative.  Returns list of components (sets of indices)."""
    n = len(adj)
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    comps = []
    counter = [0]
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                onstack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] is None:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.add(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


@dataclass(frozen=True)
class ExpansionReport:
    """Outcome of the expansion dichotomy.

    ``expanding`` edges have image length under iteration going to infinity.
    When the map is not expanding, ``witness_edge`` is the smallest bounded
    edge and ``stable_length`` the eventual (maximal periodic) length of its
    iterated images.
    """

    expanding: bool
    bounded_edges: tuple
    witness_edge: str | None
    stable_length: int | None


def is_expanding(matrix):
    """Decide per-edge length growth via the condensation of the support.

    An edge is bounded exactly when every walk from it in the transition
    digraph meets only components that are simple cycles with multiplicity
    one, and meets at most one such cyclic component.  Any branching
    component, multiplicity two, or a walk through two cycles forces growth.
    """
    labels = matrix.labels
    n = matrix.dim
    adj = matrix.support()
    comps = _strongly_connected_components(adj)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    growing = []
    cyclic = []
    for comp in comps:
        internal_arcs = 0
        grow = False
        for v in comp:
            internal_mult = sum(matrix.rows[v][j] for j in comp)
            if internal_mult >= 2:
                grow = True
            internal_arcs += sum(1 for j in adj[v] if j in comp)
        has_cycle = internal_arcs > 0
        cyclic.append(has_cycle)
        growing.append(grow)
    # condensation DAG edges
    succ = [set() for _ in comps]
    for v in range(n):
        for w in adj[v]:
            if comp_of[v] != comp_of[w]:
                succ[comp_of[v]].add(comp_of[w])
    # DAG dynamic programming, memoized on component index
    reach_grow = {}
    max_cycles = {}

    def visit(ci):
        if ci in reach_grow:
            return
        rg = growing[ci]
        mc = 1 if cyclic[ci] else 0
        best = 0
        for d in succ[ci]:
            visit(d)
            rg = rg or reach_grow[d]
            best = max(best, max_cycles[d])
        reach_grow[ci] = rg
        max_cycles[ci] = mc + best

    for ci in range(len(comps)):
        visit(ci)
    bounded = []
    for i, e in enumerate(labels):
        ci = comp_of[i]
        if not reach_grow[ci] and max_cycles[ci] <= 1:
            bounded.append(e)
    if not bounded:
        return ExpansionReport(True, (), None, None)
    witness = bounded[0]
    stable = _stable_length(matrix, labels.index(witness), set(
        labels.index(e) for e in bounded))
    return ExpansionReport(False, tuple(bounded), witness, stable)


def _stable_length(matrix, start, bounded_idx):
    """Eventual periodic maximum of |f^m(e)| for a bounded edge.

    Iterates the length vector restricted to the bounded edges (which are
    closed under reachability) and detects the cycle of states.
    """
    idx = sorted(bounded_idx)
    pos = {v: i for i, v in enumerate(idx)}
    rows = [tuple(matrix.rows[v][w] for w in idx) for v in idx]
    state = tuple(1 for _ in idx)
    seen = {state: 0}
    hist = [state]
    while True:
        state = tuple(sum(a * s for a, s in zip(row, state)) for row in rows)
        if state in seen:
            first = seen[state]
            cycle = hist[first:]
            j = pos[start]
            return max(s[j] for s in cycle)
        seen[state] = len(hist)
        hist.append(state)


# -- Perron-Frobenius value --------------------------------------------------


@dataclass(frozen=True)
class PFEigenvalue:
    value: float
    error_bound: float
    iterations: int


# power iteration steps before pf_eigenvalue gives up with ArithmeticError
PF_MAX_STEPS = 10000


def pf_eigenvalue(matrix, tol=Fraction(1, 10**9)):
    """Spectral radius of an irreducible nonnegative integer matrix.

    Exact power iteration with Collatz-Wielandt bracketing: iterate x -> Bx
    for B = A + I (primitive whenever A is irreducible, and shifting by one
    only translates the dominant eigenvalue), keep the vector in big integers
    reduced by their gcd, and stop once max_i (Bx)_i/x_i and min_i agree to
    within ``tol``.  The bracket always contains the eigenvalue, so the
    midpoint is correct to tol/2.
    """
    if not is_irreducible(matrix):
        raise ValueError("matrix is not irreducible")
    n = matrix.dim
    rows = [tuple(matrix.rows[i][j] + (1 if i == j else 0) for j in range(n))
            for i in range(n)]
    x = [1] * n
    for step in range(1, PF_MAX_STEPS + 1):
        y = [sum(a * b for a, b in zip(row, x)) for row in rows]
        ratios = [Fraction(yi, xi) for yi, xi in zip(y, x)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol:
            mid = (lo + hi) / 2 - 1
            return PFEigenvalue(float(mid), float(hi - lo) / 2.0, step)
        g = 0
        for yi in y:
            g = gcd(g, yi)
        x = [yi // g for yi in y] if g > 1 else y
    raise ArithmeticError(
        "power iteration did not bracket within %d steps" % PF_MAX_STEPS)


# -- turns and the train track condition -------------------------------------


class TurnSystem:
    """Directions, derivative map, and the turns taken by a self-map.

    The derivative sends a dart to the first dart of its image; taken turns
    are the unordered dart pairs crossed inside image paths.  Legality of a
    turn means its derivative orbit never reaches a degenerate pair.
    """

    __slots__ = ("map", "df", "taken")

    def __init__(self, f):
        self.map = f
        df = {}
        for d in f.domain.darts:
            df[d] = f.dart_image(d)[0]
        self.df = df
        taken = set()
        for e in f.domain.edge_ids:
            img = f.dart_image(e)
            for i in range(len(img) - 1):
                taken.add(turn(inv(img[i]), img[i + 1]))
        self.taken = frozenset(taken)

    def apply(self, t):
        return turn(self.df[t[0]], self.df[t[1]])

    def orbit(self, t):
        """Derivative orbit of a turn until it repeats or degenerates."""
        seen = []
        seen_set = set()
        cur = t
        while cur not in seen_set:
            seen.append(cur)
            seen_set.add(cur)
            if cur[0] == cur[1]:
                break
            cur = self.apply(cur)
        return seen

    def is_legal(self, t):
        orbit = self.orbit(t)
        return orbit[-1][0] != orbit[-1][1]

    def closure_of_taken(self):
        """All turns reachable from taken turns under the derivative."""
        frontier = set(self.taken)
        seen = set()
        while frontier:
            t = frontier.pop()
            if t in seen:
                continue
            seen.add(t)
            if t[0] == t[1]:
                continue
            frontier.add(self.apply(t))
        return frozenset(seen)


@dataclass(frozen=True)
class TrainTrackCertificate:
    is_train_track: bool
    reason: str | None
    # closure of taken turns under the derivative when legal; otherwise the
    # orbit that degenerates, starting from a taken turn
    legal_closure: frozenset | None
    degenerate_orbit: tuple | None

    def check(self, f):
        ts = TurnSystem(f)
        if self.is_train_track:
            return (self.legal_closure == ts.closure_of_taken()
                    and all(t[0] != t[1] for t in self.legal_closure))
        if self.degenerate_orbit:
            o = self.degenerate_orbit
            if o[0] not in ts.taken:
                return False
            for a, b in zip(o, o[1:]):
                if ts.apply(a) != b:
                    return False
            return o[-1][0] == o[-1][1]
        return True


def is_train_track(f):
    """Certify the train track condition for a valid self-map.

    Surjectivity on edges plus: the derivative closure of the taken turns
    contains no degenerate turn.  The certificate stores the closed legal set
    or the degenerating orbit, and can be rechecked independently.
    """
    covered = set()
    for e in f.domain.edge_ids:
        for d in f.dart_image(e):
            covered.add(edge_of(d))
    missing = sorted(set(f.domain.edge_ids) - covered)
    if missing:
        return TrainTrackCertificate(
            False, "not surjective: edge %r is never crossed" % missing[0],
            None, None)
    ts = TurnSystem(f)
    for t in sorted(ts.taken):
        orbit = ts.orbit(t)
        if orbit[-1][0] == orbit[-1][1]:
            return TrainTrackCertificate(
                False, "taken turn %r degenerates" % (t,), None, tuple(orbit))
    return TrainTrackCertificate(True, None, ts.closure_of_taken(), None)


# -- legal loops --------------------------------------------------------------


@dataclass(frozen=True)
class LegalLoop:
    """Immersed cyclic path all of whose turns are legal, with certificate.

    ``orbits`` maps each turn of the cycle to its full derivative orbit; the
    recheck walks every orbit and confirms none degenerates, in at most
    (number of turns)^2 derivative steps.
    """

    cycle: CyclicPath
    orbits: tuple  # ((turn, orbit tuple), ...)

    def check(self, f):
        ts = TurnSystem(f)
        turns = set(self.cycle.turns())
        recorded = dict(self.orbits)
        if turns - set(recorded):
            return False
        for t, orbit in self.orbits:
            if tuple(ts.orbit(t)) != tuple(orbit):
                return False
            if orbit[-1][0] == orbit[-1][1]:
                return False
        return self.cycle.is_immersed()


def legal_loop_through(f, edge):
    """Legal loop crossing the given edge, for expanding irreducible f.

    Iterate the edge until some image crosses an edge twice in the same
    direction, cut the cyclic subword between the two crossings (its turns are
    all taken, hence legal), then push the loop forward until it crosses the
    requested edge.  Pushing a legal loop forward keeps it immersed, so the
    result is returned without free reduction.
    """
    graph = f.domain
    if edge not in graph.edge_ids:
        raise ValueError("unknown edge %r" % edge)
    n_darts = len(graph.darts)
    word = f.dart_image(edge)
    for _ in range(4 * n_darts + 8):
        first = {}
        found = None
        for i, d in enumerate(word):
            if d in first:
                found = (first[d], i)
                break
            first[d] = i
        if found:
            i, j = found
            cycle = CyclicPath(graph, word[i:j])
            break
        word = f.apply_to_darts(word)
    else:
        raise ValueError("no repeated dart; map does not look expanding")
    for _ in range(len(graph.edge_ids) ** 2 + len(graph.edge_ids) + 3):
        if edge in cycle.edges_crossed():
            break
        cycle = f.apply_cycle(cycle)
    else:
        raise ValueError(
            "loop never crosses %r; map does not look irreducible" % edge)
    ts = TurnSystem(f)
    orbits = []
    for t in sorted(set(cycle.turns())):
        orbit = ts.orbit(t)
        if orbit[-1][0] == orbit[-1][1]:
            raise ValueError("turn %r of the loop is illegal" % (t,))
        orbits.append((t, tuple(orbit)))
    return LegalLoop(cycle, tuple(orbits))


# -- invariant subgraphs -------------------------------------------------------


@dataclass(frozen=True)
class InvariantSubgraphWitness:
    edges: frozenset

    def check(self, f):
        if not self.edges or self.edges == frozenset(f.domain.edge_ids):
            return False
        for e in self.edges:
            for d in f.dart_image(e):
                if edge_of(d) not in self.edges:
                    return False
        return True


def find_invariant_subgraph(f):
    """Smallest-generated proper nonempty invariant edge set, if any.

    Grows the image closure of each single edge in id order and returns the
    first proper one; every minimal invariant set arises this way, and the
    map is irreducible exactly when the search is empty.
    """
    all_edges = tuple(sorted(f.domain.edge_ids))
    full = frozenset(all_edges)
    for e in all_edges:
        closure = {e}
        frontier = [e]
        while frontier:
            cur = frontier.pop()
            for d in f.dart_image(cur):
                e2 = edge_of(d)
                if e2 not in closure:
                    closure.add(e2)
                    frontier.append(e2)
        if frozenset(closure) != full:
            return InvariantSubgraphWitness(frozenset(closure))
    return None
