"""Canonical JSON forms of graphs, maps, labelings, packages, and reports.

One fixed schema, deterministic serialization (sorted keys, two-space
indent, trailing newline), and a content digest over the canonical bytes.
Paths are space-separated dart tokens with "-" marking the reversed edge,
so documents stay readable and diffable.
"""

import hashlib
import json
import os

from . import __version__
from .freegroup import (
    SubgroupGraph, chain_quotient, endomorphism_on_rose, image_chain,
    pi1_endomorphism,
)
from .graphs import GraphMap, SerreGraph, format_path, token_dart
from .induced import InducedPackage

SCHEMA = 1

PACKAGE_FILES = ("source.json", "core.json", "induced.json",
                 "projection.json", "transfer.json", "constants.json",
                 "report.json")


def canonical_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def content_digest(obj):
    return hashlib.sha256(canonical_text(obj).encode("utf-8")).hexdigest()


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text(obj))


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- graphs and maps ---------------------------------------------------------


def graph_to_obj(graph):
    return {"vertices": list(graph.vertices),
            "edges": [[e, o, t] for e, o, t in graph.edge_data]}


def graph_from_obj(obj):
    return SerreGraph(obj["vertices"],
                      [tuple(row) for row in obj["edges"]])


def map_to_obj(f):
    return {"vertices": {v: f.vertex_map[v] for v in f.domain.vertices},
            "edges": {e: format_path(f.dart_image(e))
                      for e in f.domain.edge_ids}}


def map_from_obj(obj, domain, codomain=None):
    codomain = domain if codomain is None else codomain
    images = {e: tuple(token_dart(t) for t in word.split())
              for e, word in obj["edges"].items()}
    return GraphMap(domain, codomain, dict(obj["vertices"]), images)


def labeled_to_obj(lab):
    obj = {"graph": graph_to_obj(lab.graph),
           "labels": dict(lab.edge_label),
           "vertex_images": dict(lab.vertex_image)}
    base = getattr(lab, "basepoint", None)
    if base is not None:
        obj["basepoint"] = base
    return obj


def labeled_from_obj(obj, ambient):
    graph = graph_from_obj(obj["graph"])
    return SubgroupGraph(graph, ambient, obj["labels"],
                         obj["vertex_images"], obj["basepoint"])


# -- input documents ---------------------------------------------------------


class InputBundle:
    """A parsed input: always a graph map, sometimes also an endomorphism."""

    def __init__(self, kind, graph_map, endomorphism, document):
        self.kind = kind
        self.graph_map = graph_map
        self.endomorphism = endomorphism
        self.document = document
        self.digest = content_digest(document)


def input_to_obj(f):
    return {"schema": SCHEMA,
            "graph": graph_to_obj(f.domain),
            "map": map_to_obj(f)}


def load_input(obj):
    """Parse an input document: a graph with a self-map, or an endomorphism.

    Endomorphism payloads ({"generators": [...], "images": {...}}) are
    realized on a rose, so every command can treat the input as a map.
    """
    if not isinstance(obj, dict):
        raise ValueError("input document must be a JSON object")
    if "endomorphism" in obj:
        payload = obj["endomorphism"]
        generators = payload["generators"]
        phi = endomorphism_on_rose(generators, payload["images"])
        return InputBundle("endomorphism", phi.map, phi, obj)
    if "graph" not in obj or "map" not in obj:
        raise ValueError("input document needs 'graph' and 'map' "
                         "(or an 'endomorphism' payload)")
    graph = graph_from_obj(obj["graph"])
    f = map_from_obj(obj["map"], graph)
    return InputBundle("map", f, None, obj)


def load_input_file(path):
    return load_input(_read(path))


# -- packages ----------------------------------------------------------------


def write_package(outdir, pkg, report):
    """One JSON file per piece of the promotion and its report, in outdir."""
    os.makedirs(outdir, exist_ok=True)
    source_obj = input_to_obj(pkg.source)
    _write(os.path.join(outdir, "source.json"), source_obj)
    _write(os.path.join(outdir, "core.json"), labeled_to_obj(pkg.core))
    _write(os.path.join(outdir, "induced.json"), map_to_obj(pkg.induced))
    _write(os.path.join(outdir, "projection.json"),
           map_to_obj(pkg.projection))
    _write(os.path.join(outdir, "transfer.json"), map_to_obj(pkg.transfer))
    constants = dict(pkg.constants())
    constants.update({
        "schema": SCHEMA,
        "tool_version": __version__,
        "input_digest": content_digest(source_obj),
        "basepoint": pkg.basepoint,
        "transfer_basepoint": pkg.transfer_basepoint,
    })
    _write(os.path.join(outdir, "constants.json"), constants)
    _write(os.path.join(outdir, "report.json"), report_to_obj(report))


def load_package(outdir):
    """Rebuild a package from its directory; derived pieces are recomputed."""
    source = load_input(_read(os.path.join(outdir, "source.json")))
    f = source.graph_map
    core = labeled_from_obj(_read(os.path.join(outdir, "core.json")),
                            f.domain)
    induced = map_from_obj(_read(os.path.join(outdir, "induced.json")),
                           core.graph)
    projection = map_from_obj(_read(os.path.join(outdir, "projection.json")),
                              core.graph, f.domain)
    transfer = map_from_obj(_read(os.path.join(outdir, "transfer.json")),
                            f.domain, core.graph)
    c = _read(os.path.join(outdir, "constants.json"))
    v, r = c["periodic_vertex"], c["period"]
    phi = pi1_endomorphism(f.power(r), v)
    return InducedPackage(
        source=f, core=core, induced=induced, projection=projection,
        transfer=transfer, periodic_vertex=c["periodic_vertex"],
        period=c["period"], exponent=c["exponent"],
        preperiod=c["preperiod"], orbit_period=c["orbit_period"],
        multiplier=c["multiplier"], constant=c["constant"],
        basepoint=c["basepoint"],
        transfer_basepoint=c["transfer_basepoint"],
        endomorphism=phi, quotient=chain_quotient(phi, image_chain(f, v, r)))


def report_to_obj(report):
    return {"schema": SCHEMA,
            "ok": report.ok,
            "checks": {name: {"ok": ok, "detail": detail}
                       for name, (ok, detail) in report.checks.items()}}


def make_report(command, digest, results):
    """Envelope for command output: schema, tool version, input digest."""
    return {"schema": SCHEMA,
            "tool": "ttforge %s" % __version__,
            "command": command,
            "input_digest": digest,
            "results": results}


# -- DOT export ----------------------------------------------------------------


def export_dot(graph, edge_labels=None, name="G"):
    """Deterministic DOT text; labels default to the edge ids."""
    lines = ["digraph %s {" % name]
    for v in graph.vertices:
        lines.append('  "%s";' % v)
    for e, o, t in graph.edge_data:
        label = e if edge_labels is None else edge_labels.get(e, e)
        lines.append('  "%s" -> "%s" [label="%s"];' % (o, t, label))
    lines.append("}")
    return "\n".join(lines) + "\n"
