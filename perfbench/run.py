"""Promotion benchmark: ``build_induced`` then ``verify_package``, timed.

Run from the root of a checkout:

    python3 perfbench/run.py [--workload ring|collapse_ring|corpus]
                             [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  Each workload runs in
fresh single-threaded worker processes (``worker.py``), so its set-up time
and peak memory are its own.  Set-up is timed ``SETUP_SAMPLES`` times, from
process start to the worker's ``ready``; one of those workers then measures
passes for ``--seconds`` seconds.

The output is a readable report followed, on the last line, by one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, built from each map's
median time over the passes;
with ``--trace 1`` they are the per-layer ones from the traced passes.
The exit code is 0 when the workload was measured, whatever its verdicts,
and 1 when it could not be (for instance when ``src/ttforge`` is missing).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUTPUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("ring", "collapse_ring", "corpus")
SETUP_SAMPLES = 9
# a run, set-up samples included, must end within 180 seconds
RUN_LIMIT_S = 170.0
GROWTH_TOLERANCE = 1e-8

# Printed in the report but left out of the JSON metrics: the per-map
# percentiles mean most on corpus, and on the rings they time one short rung
# whose run-to-run spread reached the largest bound BENCHMARK.json allows.
REPORT_ONLY = ("map_p50_ms", "map_p95_ms")

CERTIFY = ("traintrack.is_train_track", "traintrack.transition_matrix",
           "traintrack.is_irreducible", "traintrack.is_expanding")
PHASES = ("generate", "build", "verify", "write")
MODULES = ("graphs", "traintrack", "freegroup", "covers", "induced", "io",
           "randmaps")


class BenchError(Exception):
    """The workload could not be measured."""


def start_worker(workload, seed, seconds, trace, outdir, setup_only, limit):
    """Start a worker and wait for its ``ready`` line.

    Returns the process, the timer that kills it at ``limit`` seconds, and
    the set-up time: process start to ``ready``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # same seed, same hashing: the exact counters then repeat run to run
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--outdir", outdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        timer.cancel()
        raise BenchError("%s worker exited during set-up (code %s)"
                         % (workload, proc.returncode))
    return proc, timer, setup


def finish_worker(proc, timer, workload):
    out, _ = proc.communicate()
    timer.cancel()
    if proc.returncode != 0:
        raise BenchError("%s worker failed (code %s)"
                         % (workload, proc.returncode))
    return out


def measure(workload, seed, seconds, trace):
    """Set-up samples plus one measuring worker; returns its raw result."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    outdir = os.path.join(OUTPUT, "%s-%d" % (workload, os.getpid()))
    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, timer, setup = start_worker(
                workload, seed, seconds, trace, outdir, True,
                deadline - time.perf_counter())
            finish_worker(proc, timer, workload)
            setups.append(setup)
        proc, timer, setup = start_worker(
            workload, seed, seconds, trace, outdir, False,
            deadline - time.perf_counter())
        setups.append(setup)
        lines = finish_worker(proc, timer, workload).splitlines()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        if os.path.isdir(OUTPUT) and not os.listdir(OUTPUT):
            os.rmdir(OUTPUT)
    if not lines:
        raise BenchError("%s worker printed no result" % workload)
    raw = json.loads(lines[-1])
    raw["setup"] = setups
    return raw


def spectral_radius(rows, np):
    a = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        for j, count in row:
            a[i, j] = count
    return float(max(abs(np.linalg.eigvals(a))))


def growth_failures(raw):
    """Cases whose source and induced growth rates disagree, by numpy."""
    import numpy as np

    bad = []
    for name, (down_rows, up_rows) in sorted(raw["matrices"].items()):
        down = spectral_radius(down_rows, np)
        up = spectral_radius(up_rows, np)
        if not (down > 1 and abs(down - up) <= GROWTH_TOLERANCE * down):
            bad.append("%s: growth rates %.12g and %.12g disagree"
                       % (name, down, up))
    return bad


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def typical_maps(passes):
    """Each map's median generate, build, verify and write seconds, and symbols.

    Taking the median per map, over the passes, before summing keeps a
    stall that hits one map in one pass out of the pass totals.
    """
    samples = defaultdict(list)
    for p in passes:
        for name, rows in p["per_map"].items():
            samples[name].extend(rows)
    return {name: [statistics.median(r[i] for r in rows) for i in range(4)]
            + [rows[0][4]] for name, rows in samples.items() if rows}


def pass_wall(maps):
    return sum(sum(row[:4]) for row in maps.values())


def end_to_end(raw):
    maps = typical_maps(raw["untraced"])
    if len(maps) < 2:
        raise BenchError("fewer than two maps passed their checks")
    build = sum(row[1] for row in maps.values())
    verify = sum(row[2] for row in maps.values())
    wall = pass_wall(maps)
    to_verdict = [(row[1] + row[2]) * 1000.0 for row in maps.values()]
    symbols = sum(row[4] for row in maps.values())
    return {
        "setup_s": (statistics.median(raw["setup"]), "s"),
        "wall_s": (wall, "s"),
        "build_s": (build, "s"),
        "verify_s": (verify, "s"),
        "symbols_per_s": (symbols / (build + verify), "1/s"),
        "maps_per_s": (len(maps) / wall, "1/s"),
        "map_p50_ms": (percentile(to_verdict, 50), "ms"),
        "map_p95_ms": (percentile(to_verdict, 95), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw):
    traced = raw["traced"]
    first = traced[0]
    t = first["trace"]

    def self_s(*names):
        return statistics.median(sum(p["trace"]["self_s"].get(n, 0.0)
                                     for n in names) for p in traced)

    def calls(*names):
        return sum(t["calls"].get(n, 0) for n in names)

    def count(name):
        return t["counts"].get(name, 0)

    probe = statistics.median(p["trace"]["total_s"].get(
        "randmaps.probe_build", 0.0) for p in traced)
    overhead = (pass_wall(typical_maps(traced))
                - pass_wall(typical_maps(raw["untraced"])))
    attempts = first["attempts"]
    s, n = "s", "count"
    return {
        "traintrack.certify.s": (self_s(*CERTIFY), s),
        "traintrack.certify.calls": (calls(*CERTIFY), n),
        "traintrack.has_positive_power.s":
            (self_s("traintrack.has_positive_power"), s),
        "traintrack.has_positive_power.steps":
            (count("traintrack.has_positive_power"), n),
        "traintrack.pf_eigenvalue.s": (self_s("traintrack.pf_eigenvalue"), s),
        "traintrack.pf_eigenvalue.iterations":
            (count("traintrack.pf_eigenvalue"), n),
        "freegroup.fold.s": (self_s("freegroup.fold"), s),
        "freegroup.fold.calls": (calls("freegroup.fold"), n),
        "freegroup.fold.input_symbols": (count("freegroup.fold"), n),
        "freegroup.kernel_stabilization.s":
            (self_s("freegroup.kernel_stabilization"), s),
        "freegroup.kernel_stabilization.calls":
            (calls("freegroup.kernel_stabilization"), n),
        "freegroup.image_subgroup.s": (self_s("freegroup.image_subgroup"), s),
        "freegroup.stable_quotient.s":
            (self_s("freegroup.stable_quotient"), s),
        "freegroup.pi1_endomorphism.s":
            (self_s("freegroup.pi1_endomorphism"), s),
        "graphs.compose.s": (self_s("graphs.compose"), s),
        "graphs.compose.calls": (calls("graphs.compose"), n),
        "graphs.compose.output_symbols": (count("graphs.compose"), n),
        "graphs.power.s": (self_s("graphs.power"), s),
        "graphs.power.calls": (calls("graphs.power"), n),
        "covers.lift_graph_map.s": (self_s("covers.lift_graph_map"), s),
        "covers.based_lift_power.s": (self_s("covers.based_lift_power"), s),
        "covers.based_lift_power.symbols":
            (count("covers.based_lift_power"), n),
        "induced.injectivity_exponent.s":
            (self_s("induced.injectivity_exponent"), s),
        "induced.injectivity_exponent.calls":
            (calls("induced.injectivity_exponent"), n),
        "induced.build_induced.self_s": (self_s("induced.build_induced"), s),
        "induced.verify_package.self_s":
            (self_s("induced.verify_package"), s),
        "induced.transfer_symbols": (first["symbols"], n),
        "induced.core_edges": (first["core_edges"], n),
        "io.write_package.s": (self_s("io.write_package"), s),
        "io.write_package.bytes": (first["bytes"], "bytes"),
        "randmaps.random_train_track_map.self_s":
            (self_s("randmaps.random_train_track_map"), s),
        "randmaps.attempts": (attempts, n),
        "randmaps.accept_ratio":
            (first["accepted"] / attempts if attempts else 0.0, "ratio"),
        "randmaps.rejected.not_train_track": (first["not_train_track"], n),
        "randmaps.probe_build.s": (probe, s),
        "trace.overhead_s": (overhead, s),
    }


def counters_repeat(raw):
    """Whether every traced pass did exactly the same counted work."""
    def key(p):
        t = p["trace"]
        return (t["calls"], t["counts"], p["symbols"], p["core_edges"],
                p["bytes"], p["attempts"])
    first = key(raw["traced"][0])
    return all(key(p) == first for p in raw["traced"][1:])


def print_rungs(raw):
    if not raw["rungs"]:
        return
    maps = typical_maps(raw["untraced"])
    print("  per rung (median over the run's promotions of each rung):")
    print("    %-4s %10s %10s %12s" % ("n", "build_s", "verify_s", "symbols"))
    for name, n in sorted(raw["rungs"].items(), key=lambda item: item[1]):
        if name in maps:
            row = maps[name]
            print("    %-4d %10.4f %10.4f %12d" % (n, row[1], row[2], row[4]))


def print_trace_tables(raw):
    traced = raw["traced"]

    def med(fn):
        return statistics.median(fn(p["trace"]) for p in traced)

    print("  self seconds by module and phase (median over %d traced passes):"
          % len(traced))
    print("    %-11s" % "module" + "".join("%10s" % ph for ph in PHASES))
    for module in MODULES:
        cells = [med(lambda t: t["by_phase"].get("%s|%s" % (ph, module), 0.0))
                 for ph in PHASES]
        print("    %-11s" % module + "".join("%10.4f" % x for x in cells))
    for ph in PHASES:
        shares = {m: med(lambda t: t["by_phase"].get("%s|%s" % (ph, m), 0.0))
                  for m in MODULES}
        top = max(shares, key=shares.get)
        total = sum(shares.values())
        if total > 0:
            print("    %s is dominated by %s (%.0f%% of traced self time)"
                  % (ph, top, 100.0 * shares[top] / total))
    checks = sorted({c for p in traced for c in p["trace"]["by_check"]})
    print("  verify self seconds by check (spans called from each check):")
    for check in checks:
        print("    %-32s %10.4f"
              % (check, med(lambda t: t["by_check"].get(check, 0.0))))
    print("    %-32s %10.4f" % (
        "(verify_package itself)",
        med(lambda t: t["self_s"].get("induced.verify_package", 0.0))))


def run_workload(workload, seed, seconds, trace):
    raw = measure(workload, seed, seconds, trace)
    growth = growth_failures(raw)
    passes = raw["untraced"] + raw["traced"]
    attempted = sum(p["maps"] for p in passes)
    failed = min(attempted, sum(p["failed"] for p in passes)
                 + len(growth) * len(passes))
    metrics = per_layer(raw) if trace else end_to_end(raw)

    print("workload %s  seed %d  passes %d untraced + %d traced  "
          "promotions per pass %d" % (workload, seed, len(raw["untraced"]),
                                      len(raw["traced"]),
                                      raw["untraced"][0]["maps"]))
    for problem in raw["errors"] + growth:
        print("  FAILED %s" % problem.rstrip())
    print("  failed_share %.6g share (%d of %d promotions)"
          % (failed / attempted, failed, attempted))
    if trace:
        print_trace_tables(raw)
        if not counters_repeat(raw):
            print("  WARNING: exact counters differ between traced passes")
    else:
        print_rungs(raw)
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()
                        if name not in REPORT_ONLY}}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time build_induced + verify_package on fixed workloads.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measuring time per workload (default: the "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "ttforge")):
        print("perfbench: no src/ttforge under %s" % ROOT, file=sys.stderr)
        return 1
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    if args.workload:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, m): v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
