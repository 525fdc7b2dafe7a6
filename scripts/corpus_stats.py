"""Generate a random map corpus and summarize it end to end.

Reports where rejected candidates die, then promotes every accepted map
and prints the distribution of promotion constants, core sizes, and
growth rates.  Useful for eyeballing how the constants behave as the
generator knobs move.
"""

import argparse
import collections
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ttforge.induced import build_induced, verify_package
from ttforge.randmaps import GenerationStats, corpus
from ttforge.traintrack import pf_eigenvalue, transition_matrix


def spread(values):
    values = sorted(values)
    mid = values[len(values) // 2]
    return "min %.4f  median %.4f  max %.4f" % (values[0], mid, values[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--max-edges", type=int, default=6)
    parser.add_argument("--max-image-len", type=int, default=4)
    args = parser.parse_args(argv)

    stats = GenerationStats()
    try:
        maps = corpus(args.count, args.seed, max_edges=args.max_edges,
                      max_image_len=args.max_image_len, stats=stats)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    print("generation (seed %r):" % args.seed)
    rejected = stats.attempts - stats.accepted
    print("  %d attempts for %d maps (%d rejected)"
          % (stats.attempts, stats.accepted, rejected))
    for reason in ("stuck", "invalid", "not_train_track", "reducible",
                   "not_expanding", "over_budget"):
        n = getattr(stats, reason)
        if n:
            print("    %-16s %d" % (reason, n))

    constants = collections.Counter()
    profiles = collections.Counter()
    growth_gaps = []
    growths = []
    core_edges = []
    bad = 0
    for f in maps:
        pkg = build_induced(f)
        if not verify_package(pkg).ok:
            bad += 1
        constants[pkg.constant] += 1
        profiles[(pkg.period, pkg.exponent, pkg.multiplier)] += 1
        lam = pf_eigenvalue(transition_matrix(f)).value
        lam_bar = pf_eigenvalue(transition_matrix(pkg.induced)).value
        growths.append(lam)
        growth_gaps.append(abs(lam - lam_bar))
        core_edges.append(len(pkg.core.graph.edge_ids))

    print("\npromotion over %d maps (%d failed verification):"
          % (len(maps), bad))
    if maps:
        print("  constant K:     %s" % ", ".join(
            "%d x%d" % (value, n) for value, n in sorted(constants.items())))
        print("  (r, n, k):      %s" % ", ".join(
            "%r x%d" % (p, n) for p, n in sorted(profiles.items())))
        print("  core edges:     min %d  max %d"
              % (min(core_edges), max(core_edges)))
        print("  growth rate:    %s" % spread(growths))
        print("  growth gap:     max %.2e" % max(growth_gaps))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
