"""One workload of the promotion benchmark, in a process of its own.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  Sets
the workload up (import, inputs, warm-up), prints ``ready``, then runs
passes over the workload's maps until the time is up and prints one JSON
line with the raw per-pass figures.  With ``--setup-only`` it stops after
``ready``.  With ``--trace 1`` the first half of the time runs untraced
passes and the rest runs traced ones, so both sides of the tracing overhead
come from the same process.

A pass promotes every map of the workload: generation where the workload
has it, then ``build_induced``, ``verify_package`` and ``io.write_package``.
The clock runs only around those calls; the correctness checks between
maps are outside it.  Packages are written under ``--outdir``, which the
caller removes.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from ttforge import induced, randmaps
from ttforge import io as ttio
from ttforge.graphs import edge_of

import workloads

clock = time.perf_counter
# the timed steps of promoting one map, in order
PHASES = ("generate", "build", "verify", "write")


def transition_rows(f):
    """Transition matrix counted straight from the images, as sparse rows."""
    labels = sorted(f.domain.edge_ids)
    index = {e: i for i, e in enumerate(labels)}
    rows = []
    for e in labels:
        row = {}
        for d in f.dart_image(e):
            j = index[edge_of(d)]
            row[j] = row.get(j, 0) + 1
        rows.append(sorted(row.items()))
    return rows


def check(case, pkg, report, symbols):
    """Ways the package disagrees with the known answer (empty when right).

    Growth rates are compared by ``run.py``, from the transition matrices,
    so that the eigenvalue code stays out of this process's memory.
    """
    problems = []
    if not report.ok:
        problems.append("verify failed: %s" % ", ".join(report.failures()))
    got = dict(pkg.constants(), transfer_symbols=symbols)
    for key, want in case.expect.items():
        if got[key] != want:
            problems.append("%s is %r, expected %r" % (key, got[key], want))
    k, n, r = pkg.multiplier, pkg.exponent, pkg.period
    if pkg.constant != 2 * k * n * r:
        problems.append("K=%d is not 2*k*n*r=%d" % (pkg.constant, 2 * k * n * r))
    return problems


def promote(f, outdir):
    pkg = induced.build_induced(f)
    report = induced.verify_package(pkg)
    ttio.write_package(outdir, pkg, report)


def promote_case(case, target, stats, matrices):
    """Promote one case; returns its timings and sizes, and what went wrong.

    The package is dropped on return, so the next case starts without it.
    """
    t0 = clock()
    f = case.make(stats)
    t1 = clock()
    pkg = induced.build_induced(f)
    t2 = clock()
    report = induced.verify_package(pkg)
    t3 = clock()
    ttio.write_package(target, pkg, report)
    t4 = clock()
    symbols = sum(len(pkg.transfer.dart_image(e)) for e in f.domain.edge_ids)
    problems = check(case, pkg, report, symbols)
    pair = [transition_rows(f), transition_rows(pkg.induced)]
    if matrices.setdefault(case.name, pair) != pair:
        problems.append("transition matrices differ between passes")
    figures = {"wall": t4 - t0, "generate": t1 - t0, "build": t2 - t1,
               "verify": t3 - t2, "write": t4 - t3, "symbols": symbols,
               "core_edges": len(pkg.core.graph.edge_ids),
               "bytes": sum(os.path.getsize(os.path.join(target, name))
                            for name in ttio.PACKAGE_FILES)}
    return figures, problems


def run_pass(cases, outdir, matrices, errors, repeat):
    """Promote every case once, or ``case.repeats`` times with ``repeat``.

    Returns the pass's raw figures.  ``per_map`` holds, for each case, one
    row per promotion that passed its checks: generate, build, verify and
    write seconds, then transfer symbols.  The size totals count each case
    once.  ``matrices`` holds each case's pair of transition matrices
    (source, induced map) from its first pass; a later pass must reproduce
    them.
    """
    stats = randmaps.GenerationStats()
    rec = {"wall": 0.0, "maps": 0, "failed": 0, "symbols": 0,
           "core_edges": 0, "bytes": 0, "per_map": {}}
    for case in cases:
        rows = rec["per_map"][case.name] = []
        for i in range(case.repeats if repeat else 1):
            rec["maps"] += 1
            try:
                figures, problems = promote_case(
                    case, os.path.join(outdir, case.name), stats, matrices)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                rec["failed"] += 1
                errors.append("%s: %s" % (case.name, "; ".join(problems)))
                continue
            rec["wall"] += figures["wall"]
            if i == 0:
                for key in ("symbols", "core_edges", "bytes"):
                    rec[key] += figures[key]
            rows.append([figures[key] for key in PHASES]
                        + [figures["symbols"]])
    rec["attempts"] = stats.attempts
    rec["accepted"] = stats.accepted
    rec["not_train_track"] = stats.not_train_track
    return rec


def run_passes(cases, outdir, matrices, errors, until, tracer=None):
    """At least one pass, then more while the next one should end near ``until``."""
    out = []
    while True:
        out.append(run_pass(cases, outdir, matrices, errors, tracer is None))
        if tracer is not None:
            out[-1]["trace"] = tracer.take()
        typical = statistics.median(p["wall"] for p in out)
        if clock() + typical / 2 >= until:
            return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cases = workloads.cases(args.workload, args.seed)
    warm = os.path.join(args.outdir, "warmup")
    os.makedirs(warm, exist_ok=True)
    for f in workloads.warmup_maps(args.workload):
        promote(f, warm)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # every pass, the first included, overwrites existing package files
    for case in cases:
        target = os.path.join(args.outdir, case.name)
        os.makedirs(target, exist_ok=True)
        for name in ttio.PACKAGE_FILES:
            open(os.path.join(target, name), "w").close()

    errors = []
    matrices = {}
    start = clock()
    if args.trace:
        import spans
        untraced = run_passes(cases, args.outdir, matrices, errors,
                              start + args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        traced = run_passes(cases, args.outdir, matrices, errors,
                            start + args.seconds, tracer)
    else:
        untraced = run_passes(cases, args.outdir, matrices, errors,
                              start + args.seconds)
        traced = []
    result = {
        "untraced": untraced,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "matrices": matrices,
        "rungs": {case.name: case.rung for case in cases if case.rung},
        "errors": errors[:20],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
