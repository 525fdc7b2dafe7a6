"""Batch front end.

Subcommands: analyze (certificates and growth data for one map), quotient
(stable image of the fundamental group endomorphism), induce (build, verify
and write a promotion package), suspend (sampled semiflow identities),
proptest (randomized invariant suite), export-dot.

Exit codes: 0 success, 1 invalid input or arguments, 2 a verified property
failed.  Reports embed the input digest and tool version, so rerunning a
command on the same bytes reproduces the same document.
"""

import argparse
import json
import logging
import os
import random
import sys
from fractions import Fraction

from . import io as io_mod
from .freegroup import (
    induces_pi1_isomorphism, stable_quotient, whole_group_graph,
)
from .graphs import GraphMap, rose, validate
from .induced import build_induced, find_periodic_vertex, verify_package
from .randmaps import GenerationStats, check_bounds, random_train_track_map
from .suspension import (
    FlowHomotopyPair, MappingTorus, breakpoint_samples, edge_point, flow,
    h_maps, make_cover_descriptor, project_point, vertex_point, TorusPoint,
)
from .traintrack import (
    certification_failure, find_invariant_subgraph, has_positive_power,
    is_expanding, is_irreducible, is_train_track, legal_loop_through,
    pf_eigenvalue, transition_matrix,
)

log = logging.getLogger("ttforge")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROPERTY = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; our contract reserves 2 for
    property failures, so argument errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _load_self_map(path):
    bundle = io_mod.load_input_file(path)
    f = bundle.graph_map
    problem = validate(f)
    if problem is not None:
        raise ValueError("invalid graph map: %s" % problem)
    if not f.is_self_map:
        raise ValueError("this command needs a self map")
    return bundle, f


def cmd_analyze(args):
    bundle, f = _load_self_map(args.file)
    matrix = transition_matrix(f)
    verdict = is_train_track(f)
    irreducible = is_irreducible(matrix)
    expansion = is_expanding(matrix)
    prim = has_positive_power(matrix)
    results = {
        "train_track": verdict.is_train_track,
        "train_track_reason": verdict.reason,
        "irreducible": irreducible,
        "expanding": expansion.expanding,
        "expansion_witness": expansion.witness_edge,
        "primitive": prim is not None,
        "primitive_power": prim,
        "matrix": {"labels": list(matrix.labels),
                   "rows": [list(r) for r in matrix.rows]},
    }
    if irreducible:
        lam = pf_eigenvalue(matrix)
        results["growth_rate"] = lam.value
        results["growth_error_bound"] = lam.error_bound
    witness = find_invariant_subgraph(matrix)
    results["invariant_subgraph"] = (
        sorted(witness) if witness is not None else None)
    if verdict.is_train_track and irreducible and expansion.expanding:
        results["legal_loops"] = {
            e: " ".join(legal_loop_through(f, e).darts)
            for e in f.domain.edge_ids}
    return EXIT_OK, bundle, results


def cmd_quotient(args):
    bundle, f = _load_self_map(args.file)
    v, period = find_periodic_vertex(f)
    q = stable_quotient(f, v, period)
    graph = f.domain
    results = {
        "basepoint": v,
        "period": period,
        "ambient_rank": len(graph.edge_ids) - len(graph.vertices) + 1,
        "stabilization": q.exponent,
        "rank": q.core.rank(),
        # the chain stops at the first step that keeps the rank, and free
        # groups are Hopfian, so f^period is injective on the stable image
        "injective_on_image": True,
        "image_basis": {name: " ".join(word)
                        for name, _loop, word in q.core.basis()},
        "restriction": dict(q.restriction),
    }
    return EXIT_OK, bundle, results


def cmd_induce(args):
    bundle, f = _load_self_map(args.file)
    pkg = build_induced(f)
    report = verify_package(pkg)
    outdir = args.out
    if outdir is None:
        outdir = os.path.splitext(args.file)[0] + "-package"
    io_mod.write_package(outdir, pkg, report)
    results = {
        "out_dir": outdir,
        "constants": pkg.constants(),
        "verification": io_mod.report_to_obj(report),
    }
    code = EXIT_OK if report.ok else EXIT_PROPERTY
    return code, bundle, results


def _random_torus_points(torus, rng, count):
    out = []
    graph = torus.graph
    for _ in range(count):
        height = Fraction(rng.randrange(0, 60), 60)
        if rng.random() < 0.25:
            pt = vertex_point(rng.choice(graph.vertices))
        else:
            pt = edge_point(graph, rng.choice(graph.edge_ids),
                            Fraction(rng.randrange(1, 24), 24))
        out.append(TorusPoint(pt, height))
    return out


def cmd_suspend(args):
    bundle, f = _load_self_map(args.file)
    torus = MappingTorus(f)
    rng = random.Random(args.seed)
    samples = breakpoint_samples(torus, 1)
    samples += _random_torus_points(torus, rng, args.count)
    times = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 4), Fraction(2)]
    wanted = args.check
    results = {"samples": len(samples)}
    failed = []

    def run(name, ok, detail=""):
        results[name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            failed.append(name)

    if wanted in ("flow", "all"):
        ok = all(
            flow(torus, tp, s + t) == flow(torus, flow(torus, tp, s), t)
            for tp in samples for s in times for t in times)
        run("semigroup_law", ok)
    if wanted in ("hmaps", "all"):
        h0, h1 = h_maps(torus)
        ok = all(h1(h0(tp)) == flow(torus, tp, 1)
                 and h0(h1(tp)) == flow(torus, tp, 1) for tp in samples)
        run("h_maps_compose_to_time_one", ok)
    if wanted in ("pair", "all"):
        pair = FlowHomotopyPair(build_induced(f))
        up_samples = breakpoint_samples(pair.torus_y, 1)
        up_samples += _random_torus_points(pair.torus_y, rng, args.count)
        ok, detail = pair.check_composite(samples, up_samples)
        run("pair_composite_is_flow", ok, detail)
        ok, detail = pair.check_equivariance(samples, times)
        run("pair_equivariance", ok, detail)
    if wanted == "descriptor" or (wanted == "all"
                                  and induces_pi1_isomorphism(f)):
        sub = whole_group_graph(f.domain, f.domain.vertices[0])
        desc = make_cover_descriptor(f, sub)
        ok = True
        detail = ""
        for tp in samples:
            cp = desc.point(tp.point, tp.height)
            for s in times:
                moved = project_point(desc, flow(desc, cp, s))
                direct = flow(torus, project_point(desc, cp), s)
                if moved != direct:
                    ok = False
                    detail = "projection breaks at %r time %s" % (tp, s)
                    break
            if not ok:
                break
        run("descriptor_projection_commutes", ok, detail)
        results["descriptor"] = {"degree": desc.degree,
                                 "exponent": desc.exponent,
                                 "dual_index": desc.exponent}
    code = EXIT_PROPERTY if failed else EXIT_OK
    return code, bundle, results


def _invalid_candidate():
    """A certified-to-fail candidate: one taken turn degenerates in a step."""
    graph = rose(["a", "b", "c"])
    return GraphMap(graph, graph, {"v": "v"},
                    {"a": "c", "b": "c", "c": "a -b"})


def _proptest_case(seed, index, max_edges, max_image_len, budget, inject):
    rng = random.Random("%s:%d" % (seed, index))
    stats = GenerationStats()
    injected_rejected = None
    if inject:
        injected_rejected = certification_failure(
            _invalid_candidate()) is not None
    f = random_train_track_map(rng, max_edges, max_image_len, budget, stats)
    pkg = build_induced(f)
    report = verify_package(pkg)
    return {
        "index": index,
        "edges": len(f.domain.edge_ids),
        "constant": pkg.constant,
        "ok": report.ok,
        "failures": report.failures(),
        "attempts": stats.attempts,
        "injected_rejected": injected_rejected,
    }


def cmd_proptest(args):
    check_bounds(args.max_edges, args.max_image_len, args.budget)
    cases = []
    jobs = max(1, args.jobs)
    argv = [(args.seed, i, args.max_edges, args.max_image_len,
             args.budget, args.inject_invalid and i % args.inject_invalid == 0)
            for i in range(args.count)]
    if jobs == 1:
        for case in argv:
            cases.append(_proptest_case(*case))
    else:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            cases = pool.starmap(_proptest_case, argv)
    bad = [c for c in cases if not c["ok"]
           or c["injected_rejected"] is False]
    results = {
        "count": len(cases),
        "attempts": sum(c["attempts"] for c in cases),
        "all_ok": not bad,
        "failing_cases": [c for c in bad],
        "injected": sum(1 for c in cases
                        if c["injected_rejected"] is not None),
        "cases": cases,
    }
    return (EXIT_PROPERTY if bad else EXIT_OK), None, results


def cmd_export_dot(args):
    if os.path.isdir(args.file):
        core = io_mod.load_core(args.file)[1]
        text = io_mod.export_dot(core.graph, core.edge_label, name="core")
    else:
        bundle = io_mod.load_input_file(args.file)
        text = io_mod.export_dot(bundle.graph_map.domain)
    if args.out:
        io_mod._write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK, None, None


def _text_render(results, indent=0):
    lines = []
    pad = "  " * indent
    for key in results:
        value = results[key]
        if isinstance(value, dict):
            lines.append("%s%s:" % (pad, key))
            lines.extend(_text_render(value, indent + 1))
        else:
            lines.append("%s%s: %s" % (pad, key, value))
    return lines


def build_parser():
    parser = _Parser(prog="ttforge", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {"--out": {"default": None},
             "--seed": {"default": "0"},
             "--count": {"type": int, "default": 25}}

    def command(name, handler, help_text, *read, with_file=True):
        """A subcommand taking only the shared flags its handler reads."""
        p = sub.add_parser(name, help=help_text)
        if with_file:
            p.add_argument("file", help="input JSON document")
        for flag in read:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(handler=handler)
        return p

    command("analyze", cmd_analyze, "certificates and growth data")
    command("quotient", cmd_quotient, "stable image of the endomorphism")
    command("induce", cmd_induce, "build, verify, write a package", "--out")

    p = command("suspend", cmd_suspend, "sampled semiflow identities",
                "--seed", "--count")
    p.add_argument("--check",
                   choices=("flow", "hmaps", "pair", "descriptor", "all"),
                   default="all")

    p = command("proptest", cmd_proptest, "randomized invariant suite",
                "--seed", "--count", with_file=False)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-edges", type=int, default=6)
    p.add_argument("--max-image-len", type=int, default=4)
    p.add_argument("--budget", type=int, default=200000)
    p.add_argument("--inject-invalid", type=int, default=0,
                   help="feed a known-bad candidate every N cases and "
                        "require the generator to reject it")

    command("export-dot", cmd_export_dot, "DOT text of a map or package",
            "--out")
    return parser


def main(argv=None):
    level = os.environ.get("TTFORGE_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, bundle, results = args.handler(args)
    except (ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        log.debug("input failure", exc_info=True)
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    if results is not None:
        digest = bundle.digest if bundle is not None else None
        document = io_mod.make_report(args.command, digest, results)
        if args.format == "json":
            sys.stdout.write(io_mod.canonical_text(document))
        else:
            print("ttforge %s (input %s)" % (
                args.command, (digest or "-")[:12]))
            for line in _text_render(results):
                print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
