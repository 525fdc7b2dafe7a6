"""Independent, deliberately naive reimplementations used as test oracles.

Everything here favors obviousness over speed: string substitution instead
of dart arithmetic, exhaustive search instead of certificates, LAPACK
eigenvalues instead of exact power iteration.
"""

import itertools

import numpy

from ttforge.graphs import edge_of, inv


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
