"""Canonical JSON forms of graphs, maps, labelings, packages, and reports.

One fixed schema, deterministic serialization (sorted keys, two-space
indent, trailing newline), and a content digest over the canonical bytes.
Paths are their darts joined by spaces, a reversed dart being its edge id
with a leading "-", so documents stay readable and diffable.

Every file is written in place by :func:`_write_text`: the UTF-8 bytes go
over the old contents, then the file is cut to their length.  Rewriting a
package directory is the common case (a corpus pass rewrites the same
files), and truncating a file to zero before writing it again frees and
reallocates its blocks: 100–125 µs per file against 13–14 µs in place,
on ext4 mounted with ``discard``.  The digest is the interpreter's built-in
SHA-256, as in the stdlib's ``random``, so no OpenSSL library is loaded.
"""

import json
import os

try:
    from _sha2 import sha256
except ImportError:  # Python 3.11 and older name the module apart
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .freegroup import SubgroupGraph, endomorphism_on_rose, image_chain
from .graphs import GraphMap, SerreGraph
from .induced import INTEGER_CONSTANTS, InducedPackage, is_integer

SCHEMA = 1

PACKAGE_FILES = ("source.json", "core.json", "induced.json",
                 "projection.json", "half_transfer.json", "constants.json",
                 "report.json")


def canonical_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def content_digest(obj):
    return sha256(canonical_text(obj).encode("utf-8")).hexdigest()


def _write_text(path, text):
    """Overwrite ``path`` with ``text``, creating it as ``open(path, "w")``."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write(path, obj):
    _write_text(path, canonical_text(obj))


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
            "edges": {e: " ".join(f.dart_image(e))
                      for e in f.domain.edge_ids}}


def map_from_obj(obj, domain, codomain=None):
    """The graph map of a map object; `GraphMap` parses the path strings."""
    codomain = domain if codomain is None else codomain
    images = obj["edges"]
    if not isinstance(images, dict):
        raise ValueError("map edges must be an object of path strings")
    for e, word in images.items():
        if not isinstance(word, str):
            raise ValueError("image of edge %r is not a path string" % (e,))
    return GraphMap(domain, codomain, dict(obj["vertices"]), images)


def labeled_to_obj(lab):
    return {"graph": graph_to_obj(lab.graph),
            "labels": dict(lab.edge_label),
            "vertex_images": dict(lab.vertex_image),
            "basepoint": lab.basepoint}


def labeled_from_obj(obj, ambient):
    graph = graph_from_obj(obj["graph"])
    return SubgroupGraph(graph, ambient, obj["labels"],
                         obj["vertex_images"], obj["basepoint"])


# -- input documents ---------------------------------------------------------


class InputBundle:
    """A parsed input: its kind ("map" or "endomorphism") and its graph map."""

    def __init__(self, kind, graph_map, document):
        self.kind = kind
        self.graph_map = graph_map
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
        return InputBundle("endomorphism", phi.map, obj)
    if "graph" not in obj or "map" not in obj:
        raise ValueError("input document needs 'graph' and 'map' "
                         "(or an 'endomorphism' payload)")
    graph = graph_from_obj(obj["graph"])
    f = map_from_obj(obj["map"], graph)
    return InputBundle("map", f, obj)


def load_input_file(path):
    return load_input(_read(path))


# -- packages ----------------------------------------------------------------


def write_package(outdir, pkg, report):
    """One JSON file per piece of the promotion and its report, in outdir."""
    os.makedirs(outdir, exist_ok=True)
    source_text = canonical_text(input_to_obj(pkg.source))
    _write_text(os.path.join(outdir, "source.json"), source_text)
    _write(os.path.join(outdir, "core.json"), labeled_to_obj(pkg.core))
    _write(os.path.join(outdir, "induced.json"), map_to_obj(pkg.induced))
    _write(os.path.join(outdir, "projection.json"),
           map_to_obj(pkg.projection))
    _write(os.path.join(outdir, "half_transfer.json"), map_to_obj(pkg.half))
    constants = dict(pkg.constants())
    constants.update({
        "schema": SCHEMA,
        "tool_version": __version__,
        "input_digest": sha256(source_text.encode("utf-8")).hexdigest(),
        "basepoint": pkg.basepoint,
        "transfer_basepoint": pkg.transfer_basepoint,
    })
    _write(os.path.join(outdir, "constants.json"), constants)
    _write(os.path.join(outdir, "report.json"), report_to_obj(report))


def load_core(outdir):
    """The source self-map and the folded core of a package directory."""
    f = load_input(_read(os.path.join(outdir, "source.json"))).graph_map
    return f, labeled_from_obj(_read(os.path.join(outdir, "core.json")),
                               f.domain)


def load_package(outdir):
    """Rebuild a package from its directory; derived pieces are recomputed.

    ValueError names the first of `induced.INTEGER_CONSTANTS` in
    ``constants.json`` that is not an integer, before any is used.
    """
    f, core = load_core(outdir)
    induced = map_from_obj(_read(os.path.join(outdir, "induced.json")),
                           core.graph)
    projection = map_from_obj(_read(os.path.join(outdir, "projection.json")),
                              core.graph, f.domain)
    half = map_from_obj(_read(os.path.join(outdir, "half_transfer.json")),
                        f.domain, core.graph)
    c = _read(os.path.join(outdir, "constants.json"))
    for name in INTEGER_CONSTANTS:
        if not is_integer(c[name]):
            raise ValueError("constants.json: %s %r is not an integer"
                             % (name, c[name]))
    return InducedPackage(
        source=f, core=core, induced=induced, projection=projection,
        half=half, periodic_vertex=c["periodic_vertex"],
        period=c["period"], exponent=c["exponent"],
        preperiod=c["preperiod"], orbit_period=c["orbit_period"],
        multiplier=c["multiplier"], constant=c["constant"],
        basepoint=c["basepoint"],
        transfer_basepoint=c["transfer_basepoint"],
        chain=image_chain(f, c["periodic_vertex"], c["period"]))


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
