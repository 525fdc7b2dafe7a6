"""Subgroups of free groups as folded labeled graphs.

The fundamental group of a finite graph is free; a finitely generated
subgroup is stored as its pointed Stallings core: a folded graph immersed
over the ambient graph by a labeling of edges, a `SubgroupGraph`.  A
finite cover is the same object, the core of a finite-index subgroup.
Folding loops and graph maps into cores, membership by path tracing, rank
counting, images of subgroups under graph maps, kernel stabilization, the
stable quotient data, and Hall completion of a core to a pointed finite
cover all live here.

One folding table serves everything (Kapovich-Myasnikov): paths are read
in between seeded vertices, with at most one dart per signed ambient label
at each vertex, and vertices are identified whenever a label would repeat.
`fold` seeds the basepoint and reads reduced loops, which leave no
valence-one vertex except possibly the basepoint.  A breadth-first renaming
turns the table into a canonical graph; `subgroup_rank` stops before it and
reads the rank E - V + 1 off the table.

Images come from folding a graph map f over a labeled graph H, without
basis loops: each vertex u of H is seeded over f of the vertex below it,
and each edge is read in as the f-image of its label.  Trimming the
valence-one vertices other than the basepoint leaves the pointed core of
f_*(H) (Stallings 1983); renamed, that is `map_subgroup`.  `image_chain`
takes such single steps of f from the whole group up to its one link, so
its words are edge images of f even when the return map is a power of f.
Each step is folded from the last step's trimmed table as it stands, the
others count only by rank, and only the link is renamed into a graph.
Stabilization, the stable quotient and the injectivity exponent read that
one chain: the promotion's core is its link, and `stable_quotient`, behind
`ttforge quotient`, writes the return map's restriction to the link (the
whole group if K = 0) in that core's basis.  Injectivity on the whole
domain, by Hopficity, is a rank query on one map fold.

A labeling sends positive darts to positive ambient darts; the label of a
reversed dart is the reversed label.  Folded means no vertex carries two
out-darts with the same label, so tracing an ambient path through the graph
is deterministic wherever it is possible at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import (
    INV_PREFIX, GraphMap, SerreGraph, edge_of, inv, is_positive,
    reduce_darts, rose,
)


class SubgroupGraph:
    """Pointed graph labeled over an ambient graph: a subgroup or a cover.

    ``edge_label`` maps each edge id to an ambient edge id (positive darts to
    positive darts); ``vertex_image`` maps vertices to ambient vertices.  The
    labeling must respect incidence.  A folded core represents the
    finitely generated subgroup of loops at ``basepoint``; a finite cover is
    the core of a finite-index subgroup (see `hall_completion`).

    The step table sends ``(vertex, signed ambient label)`` to ``(dart,
    terminus)``, filled with the positive darts and then the reversed ones,
    so on a graph that is no immersion the last such dart wins.  The graph
    is an immersion exactly when no two darts collide there.
    """

    def __init__(self, graph, ambient, edge_label, vertex_image, basepoint):
        self.graph = graph
        self.ambient = ambient
        self.edge_label = edge_label = dict(edge_label)
        self.vertex_image = vertex_image = dict(vertex_image)
        origin, terminus = ambient._origin, ambient._terminus
        edges = graph.edge_data
        steps = {}
        for e, o, t in edges:
            a = edge_label[e]
            if not (isinstance(a, str) and a[:1] != INV_PREFIX
                    and a in origin):
                raise ValueError("label %r is not an ambient edge" % a)
            if vertex_image[o] != origin[a] or vertex_image[t] != terminus[a]:
                raise ValueError("labeling of %r breaks incidence" % e)
            steps[o, a] = (e, t)
        for (e, o, t), r in zip(edges, graph.darts[len(edges):]):
            steps[t, INV_PREFIX + edge_label[e]] = (r, o)
        self._steps = steps
        self._immersed = len(steps) == len(graph.darts)
        if basepoint not in graph._out:
            raise ValueError("basepoint %r is not a vertex" % basepoint)
        self.basepoint = basepoint

    def dart_label(self, d):
        if is_positive(d):
            return self.edge_label[d]
        return inv(self.edge_label[inv(d)])

    def project_darts(self, darts):
        return tuple(self.dart_label(d) for d in darts)

    def is_immersion(self):
        return self._immersed

    def step(self, vertex, ambient_dart):
        """The unique dart at ``vertex`` labeled ``ambient_dart``, or None."""
        found = self._steps.get((vertex, ambient_dart))
        return None if found is None else found[0]

    def trace(self, vertex, ambient_darts):
        """Lift an ambient dart sequence from a vertex, while possible.

        Returns ``(end_vertex, lifted_darts, consumed)``; ``consumed`` is the
        number of steps that existed.  A step is one step-table lookup.
        """
        steps = self._steps
        out = []
        cur = vertex
        for a in ambient_darts:
            found = steps.get((cur, a))
            if found is None:
                break
            d, cur = found
            out.append(d)
        return cur, tuple(out), len(out)

    def fiber(self, ambient_vertex):
        return tuple(v for v in self.graph.vertices
                     if self.vertex_image[v] == ambient_vertex)

    def is_covering(self):
        """Every vertex carries exactly one dart per ambient dart upstairs."""
        if not self._immersed:
            return False
        for v in self.graph.vertices:
            have = sorted(self.dart_label(d) for d in self.graph.out_darts(v))
            want = sorted(self.ambient.out_darts(self.vertex_image[v]))
            if have != want:
                return False
        return True

    def degree(self):
        sizes = {u: len(self.fiber(u)) for u in self.ambient.vertices}
        if len(set(sizes.values())) != 1:
            raise ValueError("fibers have unequal sizes; not a covering")
        return next(iter(sizes.values()))

    def rank(self):
        return len(self.graph.edge_ids) - len(self.graph.vertices) + 1

    def core_violations(self):
        """Non-basepoint vertices of valence < 2 (a pointed core has none)."""
        return tuple(v for v in self.graph.vertices
                     if v != self.basepoint and self.graph.valence(v) < 2)

    def spanning_tree(self):
        """BFS tree from the basepoint: (tree edge set, dart path to each vertex)."""
        parent_path = {self.basepoint: ()}
        tree = set()
        queue = [self.basepoint]
        while queue:
            v = queue.pop(0)
            for d in self.graph.out_darts(v):
                w = self.graph.terminus(d)
                if w not in parent_path:
                    parent_path[w] = parent_path[v] + (d,)
                    tree.add(edge_of(d))
                    queue.append(w)
        return tree, parent_path

    @cached_property
    def _tree_basis(self):
        """The basis triples and the non-tree dart -> generator dart map."""
        tree, path_to = self.spanning_tree()
        gens = []
        generator = {}
        extra = [e for e in self.graph.edge_ids if e not in tree]
        for i, e in enumerate(sorted(extra)):
            o = self.graph.origin(e)
            t = self.graph.terminus(e)
            loop = reduce_darts(
                path_to[o] + (e,) + tuple(inv(d) for d in reversed(path_to[t])))
            name = generator[e] = "g%d" % i
            generator[inv(e)] = inv(name)
            gens.append((name, loop, self.project_darts(loop)))
        return gens, generator

    def basis(self):
        """Free basis from the non-tree edges.

        Returns a list of ``(name, loop_darts, ambient_word)`` triples; the
        loop runs through the tree to the extra edge and back, freely
        reduced, and the ambient word is its projection.
        """
        return self._tree_basis[0]

    def rewrite(self, ambient_darts):
        """Express a member loop in the basis, as a word of generator darts.

        Crossing a non-tree edge positively emits its generator name ``g``,
        negatively ``-g``; tree crossings emit nothing.  The result is freely
        reduced as a word in the abstract generators.  The tree and the names
        are `basis`'s.
        """
        word = reduce_darts(tuple(ambient_darts))
        end, lifted, consumed = self.trace(self.basepoint, word)
        if consumed != len(word) or end != self.basepoint:
            raise ValueError("word is not in the subgroup")
        generator = self._tree_basis[1]
        return reduce_darts(generator[d] for d in lifted if d in generator)

    def canonical_key(self):
        return (self.graph.vertices, self.graph.edge_data,
                tuple(sorted(self.edge_label.items())),
                tuple(sorted(self.vertex_image.items())),
                self.basepoint)

    def __eq__(self, other):
        return (isinstance(other, SubgroupGraph)
                and self.ambient == other.ambient
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return "SubgroupGraph(rank %d, %d vertices)" % (
            self.rank(), len(self.graph.vertices))


def whole_group_graph(ambient, basepoint):
    """The ambient graph as the degree-one cover of itself."""
    return SubgroupGraph(
        ambient, ambient,
        {e: e for e in ambient.edge_ids},
        {v: v for v in ambient.vertices},
        basepoint)


# -- folding -----------------------------------------------------------------


def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _loop_folding(ambient, basepoint, loops):
    """The loops, freely reduced and trivial ones dropped, ready to fold."""
    if basepoint not in ambient._out:
        raise ValueError("unknown basepoint %r" % basepoint)
    paths = []
    for loop in loops:
        darts = reduce_darts(loop.split() if isinstance(loop, str) else loop)
        if not darts:
            continue
        if (ambient.origin(darts[0]) != basepoint
                or ambient.terminus(darts[-1]) != basepoint):
            raise ValueError("loop %r is not closed at the basepoint" % (darts,))
        paths.append((0, darts, 0))
    return _Folding(ambient, [basepoint], paths)


class _Folding:
    """Paths between seeded vertices, folded only as far as asked.

    Seed i lies over the ambient vertex ``over[i]``, seed 0 being the
    basepoint; each path ``(i, darts, j)`` is read in from seed i to seed j.
    ``table`` is the Kapovich-Myasnikov pass, run at most once, and `rank`
    reads it without a graph.  `trimmed` cuts it down to the core in place;
    `core` renames that into a `SubgroupGraph`, and `labeled_edges` hands
    it to the next map fold as it is, which is how `image_chain` steps.
    """

    def __init__(self, ambient, over, paths):
        self.ambient = ambient
        self.over = over
        self.paths = paths

    @cached_property
    def table(self):
        """``(parent, over, out)`` per vertex id.

        The union-find parent, the ambient vertex below, and the signed
        ambient label -> target table (targets may be stale ids), None once
        the vertex is merged away.  ``out`` is the fold's step table: a
        dart whose label is already at its vertex collides, and the two
        targets are queued for identification.
        """
        parent = list(range(len(self.over)))
        over = list(self.over)
        out = [{} for _ in over]
        pending = []
        terminus = self.ambient._terminus
        flip = {d: inv(d) for d in self.ambient.darts}
        for start, word, stop in self.paths:
            cur = _find(parent, start)
            for d in word[:-1]:
                nxt = out[cur].get(d)
                if nxt is None:
                    nxt = len(parent)
                    parent.append(nxt)
                    over.append(terminus[d])
                    out.append({flip[d]: cur})
                    out[cur][d] = nxt
                    cur = nxt
                else:
                    cur = nxt if parent[nxt] == nxt else _find(parent, nxt)
            last, w = word[-1], _find(parent, stop)
            for v, label, u in ((cur, last, w), (w, flip[last], cur)):
                x = out[v].setdefault(label, u)
                if x != u:
                    pending.append((x, u))
            while pending:
                a, b = pending.pop()
                a, b = _find(parent, a), _find(parent, b)
                if a == b:
                    continue
                if over[a] != over[b]:
                    raise AssertionError(
                        "fold merged distinct ambient vertices")
                if len(out[a]) < len(out[b]):
                    a, b = b, a
                parent[b] = a
                into, table, out[b] = out[a], out[b], None
                for label, x in table.items():
                    y = into.setdefault(label, x)
                    if y != x:
                        pending.append((y, x))
        return parent, over, out

    def rank(self):
        """E - V + 1 of the table, which holds one entry per live dart."""
        live = [darts for darts in self.table[2] if darts is not None]
        return sum(map(len, live)) // 2 - len(live) + 1

    @cached_property
    def trimmed(self):
        """The base's table id, once the table is trimmed to the core.

        Valence-one vertices other than the base are trimmed off the table
        in place, once, which leaves its rank alone (Stallings 1983).
        """
        parent, _over, out = self.table
        base = _find(parent, 0)
        hanging = [v for v, darts in enumerate(out)
                   if darts is not None and len(darts) == 1 and v != base]
        while hanging:
            v = hanging.pop()
            (label, w), = out[v].items()
            w = _find(parent, w)
            out[v] = None
            del out[w][inv(label)]
            if len(out[w]) == 1 and w != base:
                hanging.append(w)
        return base

    def labeled_edges(self):
        """The trimmed table as a fold input, nothing renamed.

        ``(base, vertex images, edges)`` with table ids for vertices and
        ``(origin, ambient label, terminus)`` edges, one per positive dart
        left in the table; see `_map_folding`.  `image_chain` reads its
        steps here, so the sign test and the root lookup are inline.
        """
        base = self.trimmed
        parent, over, out = self.table
        live = [v for v, darts in enumerate(out) if darts is not None]
        edges = [(v, label, w if parent[w] == w else _find(parent, w))
                 for v in live for label, w in out[v].items()
                 if label[0] != INV_PREFIX]
        return base, {v: over[v] for v in live}, edges

    def core(self):
        """The pointed core of the table as a `SubgroupGraph`.

        The `trimmed` table is renamed in one breadth-first pass from the
        base, vertices numbered as reached.  Darts at a vertex go in the
        order of their signed ambient label in ``ambient.darts``, the
        `dart_key` order.  An edge is named from the first of its endpoints
        reached, a loop from its positive dart.  Both checked constructors
        run, so the step table holds ``(dart, terminus)`` and immersion is
        read off step collisions, as for any `SubgroupGraph`.
        """
        base = self.trimmed
        parent, over, out = self.table
        position = {d: i for i, d in
                    enumerate(self.ambient.darts)}.__getitem__
        index = {base: 0}
        seq = [base]
        names = ["w0"]
        edges = []
        labels = {}
        for i, v in enumerate(seq):
            row = out[v]
            for label in sorted(row, key=position):
                far = row[label]
                if parent[far] != far:
                    far = _find(parent, far)
                j = index.get(far)
                if j is None:
                    j = index[far] = len(seq)
                    seq.append(far)
                    names.append("w%d" % j)
                elif j < i or (j == i and label[0] == INV_PREFIX):
                    continue
                name = "e%d" % len(edges)
                if label[0] == INV_PREFIX:
                    edges.append((name, names[j], names[i]))
                    labels[name] = label[1:]
                else:
                    edges.append((name, names[i], names[j]))
                    labels[name] = label
        graph = SerreGraph(names, edges, allow_isolated=not edges)
        return SubgroupGraph(graph, self.ambient, labels,
                             dict(zip(names, map(over.__getitem__, seq))),
                             "w0")


def _map_folding(f, base, vertex_image, edges):
    """f after a labeled graph immersed in f's domain, ready to fold.

    The graph is a labeled edge list: ``vertex_image`` maps its vertices to
    the ambient vertices below, and ``edges`` holds ``(origin, ambient
    label, terminus)`` triples.  Each vertex u is a seed over f of the
    ambient vertex below it, ``base`` first, and each edge is the path
    f(label) between its endpoints' seeds.  The fold's fundamental group
    at the first seed is the image of the graph's at ``base`` under f_*
    (Stallings 1983).  `map_subgroup` supplies the list of a
    `SubgroupGraph`, `_domain_folding` the domain itself, and a trimmed
    `_Folding` its `labeled_edges`.
    """
    order = [base] + [u for u in vertex_image if u != base]
    seed = {u: i for i, u in enumerate(order)}
    over = [f.vertex_map[vertex_image[u]] for u in order]
    paths = [(seed[o], f.dart_image(a), seed[t]) for o, a, t in edges]
    return _Folding(f.codomain, over, paths)


def _domain_folding(f, base):
    """f after its whole domain at ``base``, each edge labeled by itself.

    The same fold as over `whole_group_graph`, with no `SubgroupGraph`
    built (see `_map_folding`).
    """
    graph = f.domain
    return _map_folding(f, base, {v: v for v in graph.vertices},
                        [(o, e, t) for e, o, t in graph.edge_data])


def fold(ambient, basepoint, loops):
    """Stallings core of the subgroup generated by loops at the basepoint.

    Each freely reduced loop is read from the basepoint into a table that
    holds at most one dart per signed ambient label at each vertex: darts
    already there are followed, missing ones get a new vertex, and the last
    dart closes onto the basepoint.  A second dart with a label already
    present queues its target for identification with the first one's;
    identifying two vertices re-adds the smaller table's darts to the
    larger, which may queue more.  No trimming is needed: every vertex a
    reduced loop creates carries two different labels, and identification
    never loses a label, so only the basepoint can end with valence one.
    Everything is then renamed by breadth-first search from the basepoint,
    so permuting the input loops returns an identical object.  Callers that
    need only the rank use `subgroup_rank`, which skips the renaming.
    """
    return _loop_folding(ambient, basepoint, loops).core()


def subgroup_rank(ambient, basepoint, loops):
    """Rank of the subgroup generated by loops at the basepoint.

    E - V + 1 of `fold`'s table, with no renaming and no graph; 0 when every
    loop reduces to nothing.  A folded graph's rank is E - V + 1 whatever
    trees hang off it (Stallings 1983), so hanging trees need no trimming.
    """
    return _loop_folding(ambient, basepoint, loops).rank()


# -- endomorphisms of the fundamental group ----------------------------------


class Pi1Endomorphism:
    """Endomorphism of the fundamental group carried by a graph self-map.

    Stores the basepoint (which the map must fix) and a free basis as
    reduced loops; arbitrary loops are pushed through the map and freely
    reduced.  No command builds one: `stable_quotient` reads the image
    chain of the map itself, and this word-level form stays as the
    reference that the chain is checked against.
    """

    def __init__(self, f, base, basis):
        self.map = f
        self.ambient = f.domain
        self.base = base
        self.basis = dict(basis)  # name -> dart tuple (reduced loop at base)

    @property
    def rank(self):
        return len(self.basis)

    def apply_word(self, darts, times=1):
        word = tuple(darts)
        for _ in range(times):
            word = reduce_darts(self.map.apply_to_darts(word))
        return word

    def __repr__(self):
        return "Pi1Endomorphism(rank %d at %r)" % (self.rank, self.base)


def pi1_endomorphism(f, base=None):
    """Induced endomorphism at a fixed vertex of a graph self-map.

    The basepoint must be fixed by the map; pass an iterate of the map at a
    periodic vertex otherwise.  The basis is that of the whole group's
    graph: one generator x0, x1, ... per non-tree edge of its breadth-first
    spanning tree, through the tree, across the edge, and back.
    """
    if not f.is_self_map:
        raise ValueError("need a self map")
    graph = f.domain
    if base is None:
        fixed = [v for v in graph.vertices if f.vertex_map[v] == v]
        if not fixed:
            raise ValueError("map fixes no vertex; pass a suitable iterate")
        base = fixed[0]
    if f.vertex_map[base] != base:
        raise ValueError("basepoint %r is not fixed" % base)
    if not graph.is_connected():
        raise ValueError("graph is not connected")
    basis = {"x%d" % i: loop for i, (_name, loop, _word)
             in enumerate(whole_group_graph(graph, base).basis())}
    return Pi1Endomorphism(f, base, basis)


def endomorphism_on_rose(generators, images):
    """Abstract endomorphism of a free group, realized as a rose self-map.

    ``images`` maps generator names to words over the generators, as text
    or dart tuples, which `GraphMap` reads.
    """
    rose_graph = rose(generators)
    return GraphMap(rose_graph, rose_graph, {"v": "v"},
                    {g: images[g] for g in generators})


def map_subgroup(f, sub):
    """Image of a subgroup under a graph map, as a folded core.

    One fold of f after the immersion of ``sub`` (see `_map_folding`), based
    over the image of ``sub``'s basepoint.
    """
    if f.domain != sub.ambient:
        raise ValueError("map does not start on the subgroup's ambient graph")
    label = sub.edge_label
    return _map_folding(
        f, sub.basepoint, sub.vertex_image,
        [(o, label[e], t) for e, o, t in sub.graph.edge_data]).core()


def image_chain(f, base, period=1):
    """The stable link of f's image chain and the stabilization constant.

    G_0 is the whole group at ``base``, which f returns to after ``period``
    steps, and G_{j+1} is one map fold of f over G_j.  Ranks never
    increase; at the first step j* that keeps the rank, f is injective on
    G_{j*}, and every later step keeps it too (free groups are Hopfian).
    Ranks do not depend on the basepoint, so one chain serves the whole
    orbit.  Returns ``(link, K)``: K = ceil(j* / period) is the kernel
    stabilization constant of the return map f^period, and ``link`` is
    G_{period max(K, 1)}, its max(K, 1)-th image subgroup at ``base``.
    Each step folds the last trimmed table as it stands; ranks are read
    off the tables (G_0's is E - V + 1 of the domain), and only the link,
    where the chain stops, is renamed into a `SubgroupGraph`.
    """
    if period < 1:
        raise ValueError("period %r is not positive" % (period,))
    if not f.is_self_map:
        raise ValueError("need a self map")
    cur = base
    for _ in range(period):
        cur = f.vertex_map.get(cur)
    if cur != base:
        raise ValueError("%r is not a vertex of period %d" % (base, period))
    rank = len(f.domain.edge_ids) - len(f.domain.vertices) + 1
    # last folds G_j (None for G_0) and image G_{j+1}
    last, image, j = None, _domain_folding(f, base), 0
    while (image_rank := image.rank()) != rank:
        rank, last, j = image_rank, image, j + 1
        image = _map_folding(f, *image.labeled_edges())
    K = -(-j // period)
    ahead = period * max(K, 1) - j  # the link is G_{j + ahead}, ahead >= 0
    link = last if ahead == 0 else image
    for _ in range(ahead - 1):
        link = _map_folding(f, *link.labeled_edges())
    return link.core(), K


def image_subgroup(phi, k):
    """Stallings graph of the image of the k-th power (k = 0: whole group)."""
    if k < 0:
        raise ValueError("negative power")
    sub = whole_group_graph(phi.ambient, phi.base)
    for _ in range(k):
        sub = map_subgroup(phi.map, sub)
    return sub


def is_pi1_injective(f):
    """Whether a graph map is injective on its domain's fundamental group.

    Finitely generated free groups are Hopfian, so f is injective exactly
    when the image keeps the domain's rank.  That rank is read off
    `_domain_folding`'s table, as `image_chain` reads its ranks, with no
    graph built.
    """
    graph = f.domain
    rank = len(graph.edge_ids) - len(graph.vertices) + 1
    return _domain_folding(f, graph.vertices[0]).rank() == rank


def kernel_stabilization(phi):
    """Smallest K with the kernel of the (K+1)-st power equal to the K-th.

    Equivalently the first K at which the endomorphism is injective on the
    image of its K-th power; ranks of the image chain strictly decrease
    until then and are preserved from K on (see `image_chain`).
    """
    return image_chain(phi.map, phi.base)[1]


@dataclass
class StableQuotientReport:
    """Stable image data of a free group endomorphism.

    ``exponent`` is the kernel stabilization constant; ``core`` the folded
    graph of the stable image subgroup, on which the endomorphism restricts
    injectively; ``restriction`` expresses that restriction in the core's
    basis, as text words of generator darts (``"g0 -g1"``).
    """

    exponent: int
    core: SubgroupGraph
    restriction: dict


def stable_quotient(f, base, period=1):
    """The stable image of f^period at ``base`` and the restriction to it.

    The core is G_{period K}: the link of `image_chain(f, base, period)`,
    the one the promotion reads, when K > 0, and the whole group when
    K = 0.  Each of its basis words is stepped through f ``period`` times,
    freely reduced after each step, and rewritten in the core's basis; no
    power of f is built.
    """
    if not f.domain.is_connected():
        raise ValueError("graph is not connected")
    link, K = image_chain(f, base, period)
    core = link if K else whole_group_graph(f.domain, base)
    restriction = {}
    for name, _loop, word in core.basis():
        for _ in range(period):
            word = reduce_darts(f.apply_to_darts(word))
        restriction[name] = " ".join(core.rewrite(word))
    return StableQuotientReport(exponent=K, core=core, restriction=restriction)


def induces_pi1_isomorphism(f):
    """Whether a graph self-map is a homotopy equivalence.

    Surjectivity on the fundamental group is checked by one map fold of f
    over the whole group and asking for the degree-one cover; injectivity
    then follows from Hopficity and is not checked separately.
    """
    graph = f.domain
    if not graph.is_connected():
        return False
    image = _domain_folding(f, graph.vertices[0]).core()
    return (image.is_covering()
            and len(image.graph.vertices) == len(graph.vertices))


# -- Hall completion ----------------------------------------------------------


def _fresh_names(prefix, taken, count):
    out = []
    i = 0
    while len(out) < count:
        name = "%s%d" % (prefix, i)
        if name not in taken:
            out.append(name)
        i += 1
    return out


def hall_completion(sub):
    """The finite cover in which a subgroup graph embeds, pointed like it.

    Fibers are padded to a common size with fresh vertices, then for every
    ambient edge the partially defined source-to-target matching given by
    ``sub`` is completed to a bijection, pairing unmatched sources with
    unmatched targets in vertex-id order (Stallings 1983).  The component
    through ``sub.basepoint`` is returned, based there: the core of a
    finite-index subgroup containing ``sub``'s.  The vertices and edges of
    ``sub`` there keep their ids and labels, so a connected ``sub`` embeds
    by the identity and a connected covering comes back unchanged.  The
    degree never exceeds the number of vertices of ``sub`` (plus padding
    needed to even out the fibers).
    """
    ambient = sub.ambient
    graph = sub.graph
    fibers = {u: list(sub.fiber(u)) for u in ambient.vertices}
    degree = max(1, max(len(f) for f in fibers.values()))
    pads = iter(_fresh_names("h", set(graph.vertices), sum(
        degree - len(f) for f in fibers.values())))
    vertex_image = dict(sub.vertex_image)
    for u in sorted(fibers):
        while len(fibers[u]) < degree:
            name = next(pads)
            fibers[u].append(name)
            vertex_image[name] = u
    edges = list(graph.edge_data)
    edge_label = dict(sub.edge_label)
    new_edge_names = iter(_fresh_names(
        "q", set(graph.edge_ids), degree * len(ambient.edge_ids)))
    for a in sorted(ambient.edge_ids):
        u, w = ambient.origin(a), ambient.terminus(a)
        matched_src = set()
        matched_dst = set()
        for x in fibers[u]:
            d = sub.step(x, a)
            if d is not None:
                matched_src.add(x)
                matched_dst.add(graph.terminus(d))
        free_src = sorted(x for x in fibers[u] if x not in matched_src)
        free_dst = sorted(y for y in fibers[w] if y not in matched_dst)
        # self-loops upstairs: u == w shares the fiber, counts still balance
        if len(free_src) != len(free_dst):
            raise AssertionError("unbalanced partial matching for %r" % a)
        for x, y in zip(free_src, free_dst):
            name = next(new_edge_names)
            edges.append((name, x, y))
            edge_label[name] = a
    all_vertices = [v for f in fibers.values() for v in f]
    keep = SubgroupGraph(SerreGraph(all_vertices, edges), ambient, edge_label,
                         vertex_image, sub.basepoint).spanning_tree()[1]
    edges = [(e, o, t) for e, o, t in edges if o in keep]
    cover = SubgroupGraph(SerreGraph(keep, edges), ambient,
                          {e: edge_label[e] for e, _, _ in edges},
                          {v: vertex_image[v] for v in keep}, sub.basepoint)
    if not cover.is_covering():
        raise AssertionError("completion failed to produce a covering")
    return cover
