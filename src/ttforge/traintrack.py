"""Train track analysis of graph self-maps.

Transition matrices over arbitrary-precision integers, stored as sparse
rows, so that primitivity, Perron-Frobenius values by exact power iteration
(which ``analyze`` reports; verification compares growth rates by an
integer identity instead) and one condensation of the positivity digraph
each cost O(nnz) per pass rather than O(dim^2); that condensation answers
irreducibility, the expansion dichotomy and invariant subgraph detection.
Then turn calculus, the admission chain of the promotion and the generator,
and legal loops through a prescribed edge.

A self-map f is a train track map when it is surjective (every edge occurs in
some image) and every iterate restricted to every edge is an immersion.  The
iterate condition is equivalent to: no turn taken by an image path has a
derivative orbit that reaches a degenerate turn.  That closure argument is
what :func:`is_train_track` decides.  Every routine returns a plain answer;
`induced.verify_package` is the runtime re-check of a built package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count
from math import gcd
from operator import or_

from .graphs import CyclicPath, dart_key, edge_of, inv, turn, validate


class TransitionMatrix:
    """Nonnegative integer matrix indexed by the sorted edge ids of a graph.

    Entry ``(e, e')`` counts occurrences of e' or its reverse in the image of
    e, so row sums are image lengths.  Entries are plain Python ints and never
    overflow.  Rows are stored sparse: ``entries[i]`` holds the sorted
    ``(column, count)`` pairs of row i with a positive count, and
    ``adjacency[i]`` their columns, the positivity digraph every routine here
    walks, so each costs O(nnz) rather than O(dim^2).  The constructor takes
    dense rows; ``rows`` is a dense view, for printing.
    """

    __slots__ = ("labels", "entries", "adjacency", "_condensed")

    def __init__(self, labels, rows):
        labels = tuple(labels)
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix shape does not match labels")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("negative entry")
        self._fill(labels, (tuple((j, x) for j, x in enumerate(row) if x)
                            for row in rows))

    @classmethod
    def from_entries(cls, labels, entries):
        """Matrix from sparse rows of sorted, positive ``(column, count)``."""
        matrix = cls.__new__(cls)
        matrix._fill(labels, entries)
        return matrix

    def _fill(self, labels, entries):
        self.labels = tuple(labels)
        self.entries = tuple(map(tuple, entries))
        self.adjacency = tuple(tuple(j for j, _x in row)
                               for row in self.entries)
        self._condensed = None

    @property
    def dim(self):
        return len(self.labels)

    @property
    def rows(self):
        return tuple(tuple(dict(row).get(j, 0) for j in range(self.dim))
                     for row in self.entries)

    def to_text(self):
        lines = [" ".join(self.labels)]
        for row in self.rows:
            lines.append(" ".join(str(x) for x in row))
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, TransitionMatrix)
                and self.labels == other.labels
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.labels, self.entries))

    def __repr__(self):
        return "TransitionMatrix(%s)" % (self.to_text().replace("\n", "; "),)


def transition_matrix(f):
    """The transition matrix of a self-map, each edge image read once.

    A dart and its reverse share their edge's column, so a row counts its
    image's darts into a plain dict by one lookup each.
    """
    if not f.is_self_map:
        raise ValueError("transition matrix needs a self map")
    labels = tuple(sorted(f.domain.edge_ids))
    column = {}
    for j, e in enumerate(labels):
        column[e] = column[inv(e)] = j
    rows = []
    for e in labels:
        row = {}
        for d in f.dart_image(e):
            j = column[d]
            row[j] = row.get(j, 0) + 1
        rows.append(sorted(row.items()))
    return TransitionMatrix.from_entries(labels, rows)


def _condensation(matrix):
    """Strongly connected components of the positivity digraph.

    Returns ``(comp, succ)``: ``comp[i]`` numbers the component of index i,
    and ``succ[c]`` is the set of other components that c's arcs enter.
    Tarjan's pass, iterative, closes a component only after every component
    it reaches, so every number in ``succ[c]`` is below c and one loop over
    the components in increasing order sees each successor first.  The
    pass runs once per matrix, which keeps its result in ``_condensed``.
    """
    if matrix._condensed is not None:
        return matrix._condensed
    adj = matrix.adjacency
    n = len(adj)
    comp = [None] * n
    found = [None] * n
    low = [0] * n
    tick = count()
    stack = []
    succ = []
    for root in range(n):
        work = [(root, iter(adj[root]))] if found[root] is None else []
        while work:
            v, arcs = work[-1]
            if found[v] is None:
                found[v] = low[v] = next(tick)
                stack.append(v)
            for w in arcs:
                if found[w] is None:
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] is None:
                    low[v] = min(low[v], found[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == found[v]:
                    # v roots a component: the stack above it, v included
                    c = len(succ)
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    for w in members:
                        comp[w] = c
                    succ.append(frozenset(
                        {comp[w] for u in members for w in adj[u]} - {c}))
    matrix._condensed = tuple(comp), tuple(succ)
    return matrix._condensed


def is_irreducible(matrix):
    """Strong connectivity of the positivity digraph.

    Every index reaches every index, itself included, by a path of length at
    least one: the digraph is one strongly connected component and no row is
    zero, which for a 1x1 matrix asks for a loop.  The empty matrix passes.
    """
    return all(matrix.entries) and len(_condensation(matrix)[1]) <= 1


def period(matrix):
    """Period of an irreducible matrix, or None if empty or reducible.

    The gcd of the lengths of the positivity digraph's cycles, which is
    the gcd of level(u) + 1 - level(v) over the arcs u -> v, with levels
    from one breadth-first search (Denardo 1977): O(nnz).
    """
    if matrix.dim == 0 or not is_irreducible(matrix):
        return None
    adj = matrix.adjacency
    level = {0: 0}
    frontier = [0]
    for u in frontier:
        for v in adj[u]:
            if v not in level:
                level[v] = level[u] + 1
                frontier.append(v)
    return reduce(gcd, (level[u] + 1 - level[v]
                        for u in frontier for v in adj[u]), 0)


def has_positive_power(matrix):
    """Smallest t with every entry of A^t positive, or None.

    Only a primitive matrix has one: irreducible, with `period` 1, so any
    other matrix is answered in O(nnz).  On a primitive one the rows of A^t
    are int bitsets: row i of A^(t+1) = A A^t is the OR of the rows k of
    A^t over the support of row i of A, O(nnz(A)) big-int ORs per step,
    until every row is full, by Wielandt's bound (n-1)^2 + 1 at the latest.
    """
    if period(matrix) != 1:
        return None
    n, adj = matrix.dim, matrix.adjacency
    full = (1 << n) - 1
    rows = [sum(1 << j for j in out) for out in adj]
    for t in range(1, (n - 1) ** 2 + 2):
        if all(row == full for row in rows):
            return t
        rows = [reduce(or_, map(rows.__getitem__, out), 0) for out in adj]
    return None


# -- expansion --------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    """Outcome of the expansion dichotomy.

    ``expanding`` edges have image length under iteration going to infinity.
    ``bounded_edges`` are the others, in id order; when there are any,
    ``witness_edge`` is the smallest.
    """

    expanding: bool
    bounded_edges: tuple
    witness_edge: str | None


def is_expanding(matrix):
    """Decide per-edge length growth via the condensation of the support.

    An edge is bounded exactly when every walk from it in the transition
    digraph meets only components that are simple cycles with multiplicity
    one, and meets at most one such cyclic component.  Any branching
    component, multiplicity two, or a walk through two cycles forces growth.
    """
    comp, succ = _condensation(matrix)
    # the largest row sum inside a component: 0 for an index without a
    # loop, 1 for a simple cycle, 2 or more for a branching component
    mult = [0] * len(succ)
    for v, row in enumerate(matrix.entries):
        c = comp[v]
        mult[c] = max(mult[c], sum(x for w, x in row if comp[w] == c))
    # cyclic components met by the walks from c, where 2 stands for growth
    met = []
    for c, out in enumerate(succ):
        met.append(min(2, mult[c] + max((met[d] for d in out), default=0)))
    bounded = tuple(label for label, c in zip(matrix.labels, comp)
                    if met[c] <= 1)
    return ExpansionReport(not bounded, bounded,
                           bounded[0] if bounded else None)


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
    # B = A + I, with the identity's ones kept as a separate x_i term
    x = [1] * matrix.dim
    for step in range(1, PF_MAX_STEPS + 1):
        y = [xi + sum(a * x[j] for j, a in row)
             for xi, row in zip(x, matrix.entries)]
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


def _turn_key(t):
    """Turns in `dart_key` order, the order the walks below take them in."""
    return dart_key(t[0]), dart_key(t[1])


class TurnSystem:
    """Directions, derivative map, and the turns taken by a self-map.

    The derivative sends a dart to the first dart of its image; taken turns
    are the unordered dart pairs crossed inside image paths.  Legality of a
    turn means its derivative orbit never reaches a degenerate pair.
    """

    __slots__ = ("df", "taken")

    def __init__(self, f):
        # a reversed dart's image is its edge's image reversed, so its first
        # dart is the reverse of the edge image's last
        df = {}
        taken = set()
        for e in f.domain.edge_ids:
            img = f.dart_image(e)
            df[e] = img[0]
            df[inv(e)] = inv(img[-1])
            for i in range(len(img) - 1):
                taken.add(turn(inv(img[i]), img[i + 1]))
        self.df = df
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


@dataclass(frozen=True)
class TrainTrackVerdict:
    is_train_track: bool
    reason: str | None


def is_train_track(f):
    """Decide the train track condition for a valid self-map.

    Surjectivity on edges plus: the derivative closure of the taken turns
    contains no degenerate turn, which is the union of the taken turns'
    orbits, each walked once.  A failure names the first uncrossed edge or
    the first taken turn, in `dart_key` order, whose orbit degenerates.
    """
    covered = set()
    for e in f.domain.edge_ids:
        for d in f.dart_image(e):
            covered.add(edge_of(d))
    missing = sorted(set(f.domain.edge_ids) - covered)
    if missing:
        return TrainTrackVerdict(
            False, "not surjective: edge %r is never crossed" % missing[0])
    ts = TurnSystem(f)
    closure = set()
    for t in sorted(ts.taken, key=_turn_key):
        # an orbit already walked holds t's whole orbit, legal throughout
        if t in closure:
            continue
        orbit = ts.orbit(t)
        if orbit[-1][0] == orbit[-1][1]:
            return TrainTrackVerdict(
                False, "taken turn %r degenerates" % (t,))
        closure.update(orbit)
    return TrainTrackVerdict(True, None)


def certification_failure(f):
    """The first admission check f fails, or None.

    In order: a valid graph map, a self-map, a train track map, an
    irreducible transition matrix, expanding.  A failure is ``(field,
    message)``: the `randmaps.GenerationStats` field counting it and the
    ValueError message of `induced.build_induced`.
    """
    problem = validate(f)
    if problem is not None:
        return "invalid", "invalid graph map: %s" % problem
    if not f.is_self_map:
        return "invalid", "need a self map"
    verdict = is_train_track(f)
    if not verdict.is_train_track:
        return "not_train_track", "not a train track map: %s" % verdict.reason
    matrix = transition_matrix(f)
    if not is_irreducible(matrix):
        return "reducible", "transition matrix is not irreducible"
    expansion = is_expanding(matrix)
    if not expansion.expanding:
        return "not_expanding", ("not expanding: edge %r stays bounded"
                                 % expansion.witness_edge)
    return None


# -- legal loops --------------------------------------------------------------


def legal_loop_through(f, edge):
    """Legal loop crossing the given edge, for expanding irreducible f.

    Iterate the edge until some image crosses an edge twice in the same
    direction, cut the cyclic subword between the two crossings (its turns are
    all taken, hence legal), then push the loop forward until it crosses the
    requested edge.  Pushing a legal loop forward keeps it immersed, so the
    `CyclicPath` is returned without free reduction, after the orbit of each
    of its turns is walked: an illegal turn raises ValueError.
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
    for t in sorted(set(cycle.turns()), key=_turn_key):
        orbit = ts.orbit(t)
        if orbit[-1][0] == orbit[-1][1]:
            raise ValueError("turn %r of the loop is illegal" % (t,))
    return cycle


# -- invariant subgraphs -------------------------------------------------------


def find_invariant_subgraph(matrix):
    """Smallest-generated proper nonempty invariant edge set, if any.

    An edge's image closure is every edge its component reaches, its own
    component included; the first edge in id order with a proper closure
    gives the answer, a frozenset of edge ids.  Every minimal invariant set
    arises this way, and a matrix without zero rows is irreducible exactly
    when there is none.
    """
    comp, succ = _condensation(matrix)
    reach = [set() for _ in succ]
    for label, c in zip(matrix.labels, comp):
        reach[c].add(label)
    for c, out in enumerate(succ):
        for d in out:
            reach[c] |= reach[d]
    for c in comp:
        if len(reach[c]) < matrix.dim:
            return frozenset(reach[c])
    return None
