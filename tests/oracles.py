"""Independent, deliberately naive reimplementations used as test oracles.

Everything here favors obviousness over speed: string substitution instead
of dart arithmetic, exhaustive search instead of certificates, LAPACK
eigenvalues instead of exact power iteration.
"""

import functools
import itertools
import math
import operator

import numpy

from ttforge.freegroup import (
    SubgroupGraph, fold, pi1_endomorphism, subgroup_rank, whole_group_graph,
)
from ttforge.suspension import edge_point, vertex_point
from ttforge.graphs import (
    SerreGraph, compose, dart_key, edge_of, inv, is_positive, reduce_darts,
    validate,
)
from ttforge.induced import projection_map


# -- free words over string generators ----------------------------------------


def winv(word):
    return tuple(("-" + t if not t.startswith("-") else t[1:])
                 for t in reversed(word))


def wreduce(word):
    out = []
    for t in word:
        if out and out[-1] == ("-" + t if not t.startswith("-") else t[1:]):
            out.pop()
        else:
            out.append(t)
    return tuple(out)


def wsub(images, word):
    """One substitution step; images maps generator name -> token tuple."""
    out = []
    for t in word:
        if t.startswith("-"):
            out.extend(winv(images[t[1:]]))
        else:
            out.extend(images[t])
    return tuple(out)


def apply_endo(images, word, times):
    for _ in range(times):
        word = wreduce(wsub(images, word))
    return word


def ball(generators, radius):
    """All nonempty reduced words up to the radius."""
    letters = list(generators) + ["-" + g for g in generators]
    out = []
    for length in range(1, radius + 1):
        for combo in itertools.product(letters, repeat=length):
            if wreduce(combo) == combo:
                out.append(combo)
    return out


def kernel_ball(images, generators, power, radius):
    """Reduced words up to the radius killed by the power-th iterate."""
    return [w for w in ball(generators, radius)
            if not apply_endo(images, w, power)]


# -- Stallings folding ---------------------------------------------------------


# The folding routine as it stood before the one-dart-per-label table: a
# wedge of loops with edge and vertex union-finds, a rescanning queue of
# dart lists, and a trim pass.  Kept unchanged as the reference.


def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def fold_oracle(ambient, basepoint, loops):
    """Stallings core of the subgroup generated by loops at the basepoint.

    Builds the wedge of the (freely reduced) loops, folds equal-labeled darts
    until the graph is an immersion, trims stray valence-one vertices, and
    renames everything by breadth-first search from the basepoint so that the
    result is canonical: permuting the input loops returns an identical
    object.
    """
    if basepoint not in ambient._out and basepoint not in ambient.vertices:
        raise ValueError("unknown basepoint %r" % basepoint)
    words = []
    for loop in loops:
        if isinstance(loop, str):
            darts = tuple(loop.split())
        else:
            darts = tuple(loop)
        darts = reduce_darts(darts)
        if not darts:
            continue
        if (ambient.origin(darts[0]) != basepoint
                or ambient.terminus(darts[-1]) != basepoint):
            raise ValueError("loop %r is not closed at the basepoint" % (darts,))
        words.append(darts)

    # wedge: vertices and edges as integers, edges carry (ambient edge, o, t)
    vparent = [0]
    vamb = [basepoint]
    eparent = []
    elabel = []
    eends = []  # [origin, terminus] per edge

    def new_vertex(u):
        vparent.append(len(vparent))
        vamb.append(u)
        return len(vparent) - 1

    def new_edge(label, o, t):
        eparent.append(len(eparent))
        elabel.append(label)
        eends.append([o, t])
        return len(eparent) - 1

    for word in words:
        cur = 0
        for i, d in enumerate(word):
            last = i == len(word) - 1
            nxt = 0 if last else new_vertex(ambient.terminus(d))
            if is_positive(d):
                new_edge(d, cur, nxt)
            else:
                new_edge(inv(d), nxt, cur)
            cur = nxt

    # darts_at[v]: signed label -> list of (edge, side); side 0 is the
    # positive dart at the origin, side 1 the reversed dart at the terminus
    darts_at = {v: {} for v in range(len(vparent))}
    for e in range(len(eparent)):
        o, t = eends[e]
        darts_at[o].setdefault(elabel[e], []).append((e, 0))
        darts_at[t].setdefault(inv(elabel[e]), []).append((e, 1))

    queue = list(range(len(vparent)))
    while queue:
        v = _find(vparent, queue.pop())
        table = darts_at.get(v)
        if table is None:
            continue
        refold = False
        for slabel, entries in list(table.items()):
            live = []
            seen = set()
            for e, side in entries:
                er = _find(eparent, e)
                if er not in seen:
                    seen.add(er)
                    live.append((er, side))
            table[slabel] = live
            if len(live) < 2:
                continue
            (e1, s1), (e2, s2) = live[0], live[1]
            # same signed label at the same vertex: identify the two edges
            # and their far endpoints
            a = _find(vparent, eends[e1][1 - s1])
            b = _find(vparent, eends[e2][1 - s2])
            eparent[_find(eparent, e2)] = _find(eparent, e1)
            if a != b:
                if vamb[a] != vamb[b]:
                    raise AssertionError("fold merged distinct ambient vertices")
                # merge smaller dart table into larger
                if len(darts_at[a]) < len(darts_at[b]):
                    a, b = b, a
                vparent[b] = a
                for sl, lst in darts_at[b].items():
                    darts_at[a].setdefault(sl, []).extend(lst)
                del darts_at[b]
                queue.append(a)
            refold = True
            break
        if refold:
            queue.append(v)

    # surviving edges and vertices
    edges = {}
    for e in range(len(eparent)):
        er = _find(eparent, e)
        if er not in edges:
            o = _find(vparent, eends[er][0])
            t = _find(vparent, eends[er][1])
            edges[er] = [elabel[er], o, t]
        # normalize stored endpoints as we go
    for er, (lab, o, t) in edges.items():
        edges[er] = [lab, _find(vparent, o), _find(vparent, t)]

    incident = {}
    for er, (lab, o, t) in edges.items():
        incident.setdefault(o, set()).add((er, 0))
        incident.setdefault(t, set()).add((er, 1))
    base = _find(vparent, 0)
    incident.setdefault(base, set())

    # trim hanging trees away from the basepoint (reduced inputs rarely
    # produce any, but the pass keeps the core invariant unconditional)
    changed = True
    while changed:
        changed = False
        for v, inc in list(incident.items()):
            if v == base or len(inc) != 1:
                continue
            (er, side) = next(iter(inc))
            lab, o, t = edges[er]
            other = t if side == 0 else o
            del edges[er]
            del incident[v]
            incident[other].discard((er, 1 - side))
            changed = True

    # canonical renaming by BFS from the basepoint
    order = {base: "w0"}
    seq = [base]
    new_edges = []
    elab = {}
    vimg = {order[base]: vamb[base]}
    visited_edges = set()
    head = 0
    while head < len(seq):
        v = seq[head]
        head += 1
        # darts at v sorted by signed ambient label, every positive label
        # before every reversed one; folded graphs have at most one dart per
        # label so the order is total
        local = []
        for (er, side) in incident[v]:
            lab = edges[er][0]
            slabel = lab if side == 0 else inv(lab)
            local.append((side, slabel, er))
        for side, slabel, er in sorted(local):
            if er in visited_edges:
                continue
            visited_edges.add(er)
            lab, o, t = edges[er]
            far = t if side == 0 else o
            if far not in order:
                order[far] = "w%d" % len(order)
                vimg[order[far]] = vamb[far]
                seq.append(far)
            name = "e%d" % len(new_edges)
            new_edges.append((name, order[o], order[t]))
            elab[name] = lab
    graph = SerreGraph(list(order.values()), new_edges,
                       allow_isolated=not new_edges)
    return SubgroupGraph(graph, ambient, elab, vimg, "w0")



# The renaming of a trimmed fold table as `_Folding.core` did it before the
# one-pass version: a visited-edge set, labels sorted by `dart_key`, and
# string names throughout.  Kept unchanged as the reference.


def core_oracle(folding):
    """The pointed core of a `_Folding`'s trimmed table, renamed by BFS."""
    base = folding.trimmed
    parent, over, out = folding.table
    order = {base: "w0"}
    seq = [base]
    new_edges = []
    elab = {}
    vimg = {"w0": over[base]}
    visited_edges = set()
    for v in seq:
        for label in sorted(out[v], key=dart_key):
            far = _find(parent, out[v][label])
            o, t, lab = ((v, far, label) if is_positive(label)
                         else (far, v, inv(label)))
            if (o, lab) in visited_edges:
                continue
            visited_edges.add((o, lab))
            if far not in order:
                order[far] = "w%d" % len(order)
                vimg[order[far]] = over[far]
                seq.append(far)
            name = "e%d" % len(new_edges)
            new_edges.append((name, order[o], order[t]))
            elab[name] = lab
    graph = SerreGraph(list(order.values()), new_edges,
                       allow_isolated=not new_edges)
    return SubgroupGraph(graph, folding.ambient, elab, vimg, "w0")


# -- the basis-loop image chain -----------------------------------------------


# The image chain as it stood before single-step map folds: at each vertex of
# the periodic orbit, phi = (f^r)_* there and H_{k+1} = fold(phi(basis of
# H_k)), whose words grow like lambda^r.  Kept unchanged as the reference.


def image_chain_oracle(phi):
    """``(links, K)``: H_0 .. H_max(K,1), K the first k with rank kept."""
    links = [whole_group_graph(phi.ambient, phi.base)]
    while True:
        words = [phi.apply_word(w) for _, _, w in links[-1].basis()]
        K = len(links) - 1
        kept = (subgroup_rank(phi.ambient, phi.base, words)
                == links[-1].rank())
        if not kept or K == 0:
            links.append(fold(phi.ambient, phi.base, words))
        if kept:
            return links, K


def orbit_chains_oracle(f, v, r):
    """``(phi, chain)`` at each vertex of v's orbit, phi = (f^r)_* there."""
    fr = f.power(r)
    orbit = []
    vi = v
    for _ in range(r):
        phi = pi1_endomorphism(fr, vi)
        orbit.append((phi, image_chain_oracle(phi)))
        vi = f.vertex_map[vi]
    return orbit


def orbit_exponents_oracle(f, orbit):
    """Per orbit vertex, the least n >= 1 with f injective on H_n there.

    Injectivity is the rank of the subgroup that f's images of H_n's basis
    generate at the next orbit vertex; None when no n up to max(K, 1) works.
    """
    exponents = []
    for phi, (links, K) in orbit:
        found = None
        for n in range(1, max(K, 1) + 1):
            sub = links[n]
            words = [f.apply_to_darts(w) for _, _, w in sub.basis()]
            if subgroup_rank(f.domain, f.vertex_map[phi.base],
                             words) == sub.rank():
                found = n
                break
        exponents.append(found)
    return exponents


# -- irreducibility ------------------------------------------------------------


def irreducible_oracle(rows):
    """Every index reaches every index, itself included, in >= 1 steps.

    One depth-first search per index over the positivity digraph, starting
    from the index's successors so that reaching itself needs a real path.
    """
    n = len(rows)
    adj = [[j for j, x in enumerate(row) if x > 0] for row in rows]
    for i in range(n):
        seen = set(adj[i])
        stack = list(adj[i])
        while stack:
            k = stack.pop()
            for j in adj[k]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            return False
    return True


def dense_transition_rows(f):
    """Transition matrix of a self-map as dense rows, counted edge by edge."""
    labels = sorted(f.domain.edge_ids)
    return tuple(tuple(sum(1 for d in f.dart_image(e) if edge_of(d) == c)
                       for c in labels) for e in labels)


def transitive_closure(rows):
    """reach[i][j]: a path of length >= 1 from i to j (Floyd-Warshall)."""
    n = len(rows)
    reach = [[x > 0 for x in row] for row in rows]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def expansion_matrix_oracle(rows):
    """``(bounded indices, stable length of the first or None)``.

    Index i is bounded when every cyclic index it reaches lies in a simple
    cycle of multiplicity one (each member has internal row sum 1), and no
    cyclic index it reaches reaches a cyclic index of another component.
    A bounded index's walk counts (A^m 1)_i are periodic from m = 2n on, so
    its stable length is their maximum over m = 2n .. 3n, iterated dense.
    """
    n = len(rows)
    reach = transitive_closure(rows)
    cyclic = [j for j in range(n) if reach[j][j]]

    def component(j):
        return [k for k in range(n) if reach[j][k] and reach[k][j]]

    def simple(j):
        return all(sum(rows[a][b] for b in component(j)) == 1
                   for a in component(j))

    bounded = []
    for i in range(n):
        met = [j for j in cyclic if reach[i][j]]
        if all(simple(j) for j in met) and not any(
                reach[j][k] and not reach[k][j] for j in met for k in cyclic):
            bounded.append(i)
    if not bounded:
        return bounded, None
    lengths = [1] * n
    seen = []
    for m in range(3 * n + 1):
        if m >= 2 * n:
            seen.append(lengths[bounded[0]])
        lengths = [sum(a * x for a, x in zip(row, lengths)) for row in rows]
    return bounded, max(seen)


def transfer_size_oracle(rows, power):
    """1^T A^power 1 with dense matrix-vector products."""
    lengths = [1] * len(rows)
    for _ in range(power):
        lengths = [sum(a * x for a, x in zip(row, lengths)) for row in rows]
    return sum(lengths)


def growth_rate_mismatch_oracle(up_labels, up_rows, down_labels, down_rows,
                                edge_label):
    """The first reason A_up Pi = Pi A_down fails, dense, or None.

    Pi is the 0/1 matrix with Pi[e][c] = 1 when core edge e is labeled c;
    both products are formed in full and compared row by row.
    """
    if not irreducible_oracle(down_rows):
        return "source matrix is reducible"
    if not irreducible_oracle(up_rows):
        return "induced matrix is reducible"
    pi = [[int(edge_label[e] == c) for c in down_labels] for e in up_labels]

    def product(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(len(b[0]) if b else 0)]
                for i in range(len(a))]

    left = product(up_rows, pi)
    right = product(pi, down_rows)
    for e, lrow, rrow in zip(up_labels, left, right):
        if lrow != rrow:
            return "A_up Pi differs from Pi A_down at core edge %r" % e
    return None


# -- spectral radius -----------------------------------------------------------


def spectral_radius(rows):
    values = numpy.linalg.eigvals(numpy.array(rows, dtype=float))
    return float(max(abs(values)))


def primitivity_exponent_oracle(rows):
    """Least t with every entry of A^t positive, or None.

    Boolean matrix powers A, A^2, ... up to dim^2, past Wielandt's bound.
    """
    n = len(rows)
    limit = n * n
    cur = [tuple(x > 0 for x in row) for row in rows]
    step = [row[:] if isinstance(row, list) else list(row) for row in cur]
    for t in range(1, limit + 1):
        if all(all(row) for row in cur):
            return t
        nxt = []
        for row in cur:
            acc = [False] * n
            for k, a in enumerate(row):
                if a:
                    srow = step[k]
                    for j in range(n):
                        if srow[j]:
                            acc[j] = True
            nxt.append(acc)
        cur = nxt
    return None


def positive_power_oracle(matrix):
    """Least t with every entry of A^t positive, or None, by stepping.

    Bitset rows of A^t, one O(nnz) step at a time up to Wielandt's bound
    (n-1)^2 + 1, whatever the matrix: no primitivity gate.
    """
    n = matrix.dim
    if n == 0:
        return None
    full = (1 << n) - 1
    adj = matrix.adjacency
    rows = [sum(1 << j for j in out) for out in adj]
    for t in range(1, (n - 1) ** 2 + 2):
        if all(row == full for row in rows):
            return t
        rows = [functools.reduce(operator.or_, (rows[k] for k in out), 0)
                for out in adj]
    return None


def period_oracle(rows):
    """gcd of the t <= 2n with a positive diagonal entry of A^t, or None.

    Boolean matrix powers; every cycle of the positivity digraph is made of
    simple ones, of length at most n.  None for an empty or reducible
    matrix.
    """
    n = len(rows)
    if n == 0 or not irreducible_oracle(rows):
        return None
    support = [[x > 0 for x in row] for row in rows]
    cur = support
    g = 0
    for t in range(1, 2 * n + 1):
        if any(cur[i][i] for i in range(n)):
            g = math.gcd(g, t)
        cur = [[any(cur[i][k] and support[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
    return g


# -- graph-map invariants ------------------------------------------------------


def validate_oracle(m):
    """`graphs.validate`'s first message, one invariant per pass.

    Both graphs' valences, then every vertex image, then each edge image's
    darts, incidence and endpoints, then every image's reduction.
    """
    for graph, side in ((m.domain, "domain"), (m.codomain, "codomain")):
        for v in graph.vertices:
            if not graph.out_darts(v):
                return "%s has isolated vertex %r" % (side, v)
    for v in m.domain.vertices:
        if m.vertex_map.get(v) is None:
            return "vertex %r has no image" % v
        if m.vertex_map[v] not in m.codomain.vertices:
            return "vertex %r maps outside the codomain" % v
    c = m.codomain
    for e in m.domain.edge_ids:
        img = m.dart_image(e)
        if not img:
            return "edge collapsed: %r has trivial image" % e
        unknown = [d for d in img if not c.has_dart(d)]
        if unknown:
            return "image of %r uses unknown dart %r" % (e, unknown[0])
        if any(c.terminus(a) != c.origin(b) for a, b in zip(img, img[1:])):
            return "image of %r is not a path" % e
        if c.origin(img[0]) != m.vertex_map[m.domain.origin(e)]:
            return "endpoint mismatch at origin of %r" % e
        if c.terminus(img[-1]) != m.vertex_map[m.domain.terminus(e)]:
            return "endpoint mismatch at terminus of %r" % e
    for e in m.domain.edge_ids:
        if reduce_darts(m.dart_image(e)) != m.dart_image(e):
            return "not immersed: image of %r backtracks" % e
    return None


# -- direct iterate checks -----------------------------------------------------


def iterate_darts(f, darts, k):
    for _ in range(k):
        darts = f.apply_to_darts(darts)
    return darts


def darts_reduced(darts):
    return all(darts[i + 1] != inv(darts[i]) for i in range(len(darts) - 1))


def power_locally_injective(f, k):
    """Every edge's k-th image path reduced, by direct computation."""
    return all(darts_reduced(iterate_darts(f, (e,), k))
               for e in f.domain.edge_ids)


def train_track_oracle(f):
    """Walk every taken turn's derivative orbit, first darts only.

    A turn (pair of darts out of one vertex) degenerates when both sides
    reach the same dart; each step replaces a dart by the first dart of its
    image.  Orbits live on finitely many pairs, so walking one step past
    the pair count is conclusive.  Taken turns are the adjacent-dart pairs
    inside image paths.
    """
    covered = set()
    for e in f.domain.edge_ids:
        for d in f.dart_image(e):
            covered.add(edge_of(d))
    if covered != set(f.domain.edge_ids):
        return False
    taken = set()
    for d in sorted(f.domain.darts):
        img = f.dart_image(d)
        for i in range(len(img) - 1):
            taken.add((inv(img[i]), img[i + 1]))
    cap = (2 * len(f.domain.edge_ids)) ** 2 + 1
    for (a, b) in taken:
        x, y = a, b
        for _ in range(cap):
            if x == y:
                return False
            x = f.dart_image(x)[0]
            y = f.dart_image(y)[0]
    return True


def expansion_oracle(f, blow=4096):
    """Bounded edges repeat an image path before its length passes the bound;
    expanding edges pass it.  Either happens in finitely many steps."""
    bounded = []
    for e in f.domain.edge_ids:
        seen = set()
        cur = (e,)
        while True:
            cur = f.apply_to_darts(cur)
            if len(cur) > blow:
                break
            if cur in seen:
                bounded.append(e)
                break
            seen.add(cur)
    return not bounded, bounded


def invariant_subgraph_search(f):
    """All proper nonempty edge subsets closed under taking image edges."""
    edges = list(f.domain.edge_ids)
    hits = []
    for size in range(1, len(edges)):
        for combo in itertools.combinations(edges, size):
            keep = set(combo)
            if all(edge_of(d) in keep
                   for e in keep for d in f.dart_image(e)):
                hits.append(frozenset(keep))
    return hits


def invariant_subgraph_oracle(rows):
    """The first proper image closure of a single index, or None.

    Grows the closure of each index in order, one breadth-first search over
    the positivity digraph apiece, the index itself included, and returns
    the first closure that misses some index, as a frozenset of indices.
    """
    n = len(rows)
    for i in range(n):
        closure = {i}
        frontier = [i]
        while frontier:
            cur = frontier.pop()
            for j, x in enumerate(rows[cur]):
                if x and j not in closure:
                    closure.add(j)
                    frontier.append(j)
        if len(closure) != n:
            return frozenset(closure)
    return None


def transfer_after_projection_oracle(pkg):
    """P after p against fbar^K, both built in full and compared."""
    return compose(pkg.transfer, pkg.projection) \
        == pkg.induced.power(pkg.constant)


def equivariance_oracle(pkg):
    """P after f against fbar after P, both built in full and compared."""
    return compose(pkg.transfer, pkg.source) \
        == compose(pkg.induced, pkg.transfer)


def lifting_premises_oracle(pkg):
    """Whether the premises of the vertex-map decision hold, read on maps
    built in full: f, fbar and H valid graph maps between the right graphs,
    the core immersed, p its labeling with f p = p fbar, p H = f^m, K = 2m.
    """
    f, fbar, p, half, core = (pkg.source, pkg.induced, pkg.projection,
                              pkg.half, pkg.core)
    graph, ambient = core.graph, core.ambient
    return (f.domain == f.codomain == ambient == half.domain
            and fbar.domain == fbar.codomain == graph == half.codomain
            and validate(f) is None and validate(fbar) is None
            and validate(half) is None and core.is_immersion()
            and p == projection_map(core)
            and compose(f, p) == compose(p, fbar)
            and compose(p, half) == f.power(pkg.constant // 2)
            and pkg.constant % 2 == 0)


# -- points tracked through an iterate ----------------------------------------


def _image_coordinate(f, path, coord):
    """Push an arc-length coordinate on a path through one application.

    A point at coordinate i + u (dart index i, offset u) lands at the image
    of that dart's interval: all of f(path[:i]) plus u of the way along
    f(path[i]).  The whole image path is rebuilt at every step.
    """
    i = coord.numerator // coord.denominator
    if i >= len(path):
        i = len(path) - 1
    u = coord - i
    prefix = 0
    for d in path[:i]:
        prefix += len(f.dart_image(d))
    return f.apply_to_darts(path), prefix + u * len(f.dart_image(path[i]))


def tracked_point_oracle(lift, label, downstairs, power, pt):
    """Where a lift of the ``power``-th iterate sends a point.

    The coordinate is pushed along the iterated image path of the dart
    below, one application at a time, then read off the lift's image.
    """
    if pt.is_vertex:
        return vertex_point(lift.vertex_map[pt.vertex])
    path, coord = (label(pt.edge),), pt.position
    for _ in range(power):
        path, coord = _image_coordinate(downstairs, path, coord)
    image = lift.dart_image(pt.edge)
    i = min(coord.numerator // coord.denominator, len(image) - 1)
    return edge_point(lift.codomain, image[i], coord - i)
