"""Build, verify, and save promotion packages for the reference maps.

Writes one package directory per map under the output directory and prints
a table of the promotion constants next to the growth rates upstairs and
downstairs.  Exits nonzero if any verification report comes back bad.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ttforge.graphs import GraphMap, SerreGraph, rose
from ttforge.induced import build_induced, verify_package
from ttforge.io import write_package
from ttforge.traintrack import pf_eigenvalue, transition_matrix


def rose_map(labels, images):
    g = rose(labels)
    return GraphMap(g, g, {"v": "v"}, images)


def reference_maps():
    cyc2 = SerreGraph(["u", "w"], [("c1", "u", "w"), ("c2", "w", "u")])
    pre2 = SerreGraph(["v0", "v1", "v2"],
                      [("e0", "v0", "v1"), ("e1", "v2", "v1"),
                       ("e2", "v0", "v2")])
    pre3 = SerreGraph(["v0", "v1", "v2"],
                      [("e0", "v0", "v1"), ("e1", "v2", "v0"),
                       ("e2", "v2", "v1")])
    return {
        "sigma": rose_map(["a", "b"], {"a": "a b", "b": "a b"}),
        "fib": rose_map(["a", "b"], {"a": "b", "b": "a b"}),
        "cyc2": GraphMap(cyc2, cyc2, {"u": "w", "w": "u"},
                         {"c1": "c2", "c2": "c1 c2 c1"}),
        "stab2": rose_map(["e0", "e1", "e2", "e3", "e4"], {
            "e0": "-e1 -e3", "e1": "e2", "e2": "e0 -e2 -e2 e4",
            "e3": "e2", "e4": "-e3"}),
        "stab3": rose_map(["e0", "e1", "e2", "e3", "e4"], {
            "e0": "e1 e3", "e1": "e4", "e2": "-e4", "e3": "-e0",
            "e4": "-e3 e2"}),
        "pre1_r2": GraphMap(pre2, pre2,
                            {"v0": "v2", "v1": "v0", "v2": "v0"}, {
                                "e0": "e1 -e0", "e1": "e0 -e1 -e2",
                                "e2": "-e2 e0 -e1 -e2"}),
        "pre1_r3": GraphMap(pre3, pre3,
                            {"v0": "v1", "v1": "v2", "v2": "v0"}, {
                                "e0": "-e2", "e1": "e0",
                                "e2": "-e1 e2 -e0 -e1"}),
    }


def growth(f):
    return pf_eigenvalue(transition_matrix(f)).value


COLUMNS = ("name", "r", "n", "k", "K", "core rank", "core edges",
           "growth", "induced growth", "verified")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="packages",
                        help="directory that receives one package per map")
    args = parser.parse_args(argv)

    rows = []
    all_ok = True
    for name, f in reference_maps().items():
        pkg = build_induced(f)
        report = verify_package(pkg)
        all_ok = all_ok and report.ok
        write_package(os.path.join(args.out, name), pkg, report)
        rows.append((name, pkg.period, pkg.exponent, pkg.multiplier,
                     pkg.constant, pkg.core.rank(),
                     len(pkg.core.graph.edge_ids),
                     "%.6f" % growth(f), "%.6f" % growth(pkg.induced),
                     "ok" if report.ok else ",".join(report.failures())))

    widths = [max(len(str(row[i])) for row in [COLUMNS] + rows)
              for i in range(len(COLUMNS))]
    for row in [COLUMNS] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
              .rstrip())
    print("\npackages written under %s" % args.out)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
