"""Build, verify, and save promotion packages for the reference maps.

The maps are the benchmark's `reference_maps()` from
``perfbench/workloads.py``, which this script only reads.

Writes one package directory per map under the output directory and prints
a table of the promotion constants next to the growth rates upstairs and
downstairs.  Exits nonzero if any verification report comes back bad.
"""

import argparse
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from ttforge.induced import build_induced, verify_package
from ttforge.io import write_package
from ttforge.traintrack import pf_eigenvalue, transition_matrix
from workloads import reference_maps


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
    for name, f, _expect in reference_maps():
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
