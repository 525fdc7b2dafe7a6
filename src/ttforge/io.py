"""Canonical JSON forms of graphs, maps, labelings, packages, and reports.

One fixed schema, deterministic serialization (sorted keys, two-space
indent, trailing newline), and a content digest over the canonical bytes.
Paths are their darts joined by spaces, a reversed dart being its edge id
with a leading "-", so documents stay readable and diffable.  A package
directory holds the `PACKAGE_FILES`, each fact in one of them: the core's
document is the only one that carries its labeling and basepoint.

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
                 "half_transfer.json", "constants.json", "report.json")


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
    """The graph map of a map object; `GraphMap` parses the path strings.

    ValueError names the least vertex key, then the least edge key, that
    is not in the domain, then the least domain edge with no image.
    """
    codomain = domain if codomain is None else codomain
    vertices, images = obj["vertices"], obj["edges"]
    if not isinstance(vertices, dict):
        raise ValueError("map vertices must be an object of vertex ids")
    if not isinstance(images, dict):
        raise ValueError("map edges must be an object of path strings")
    for kind, keys, known in (("vertex", vertices, domain.vertices),
                              ("edge", images, domain.edge_ids)):
        extra = set(keys) - set(known)
        if extra:
            raise ValueError("map %s %r is not in the graph"
                             % (kind, min(extra)))
    missing = set(domain.edge_ids) - set(images)
    if missing:
        raise ValueError("map has no image for edge %r" % (min(missing),))
    for e, word in images.items():
        if not isinstance(word, str):
            raise ValueError("image of edge %r is not a path string" % (e,))
    return GraphMap(domain, codomain, vertices, images)


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
        self.digest = content_digest(document)


def input_to_obj(f):
    return {"schema": SCHEMA,
            "graph": graph_to_obj(f.domain),
            "map": map_to_obj(f)}


def _endomorphism_payload(payload):
    """The generators and images of an endomorphism payload, checked.

    The generators must be a list of names and the image keys exactly
    those names; ValueError names the first extra key, in sorted order,
    else the first generator with no image or one that is no word string.
    """
    if not isinstance(payload, dict):
        raise ValueError("endomorphism payload must be an object")
    generators, images = payload.get("generators"), payload.get("images")
    if not (isinstance(generators, list)
            and all(isinstance(g, str) for g in generators)):
        raise ValueError("endomorphism generators must be a list of names")
    if not isinstance(images, dict):
        raise ValueError("endomorphism images must be an object")
    extra = set(images) - set(generators)
    if extra:
        raise ValueError("endomorphism image for %r, which is not a "
                         "generator" % (min(extra),))
    for g in generators:
        if g not in images:
            raise ValueError("endomorphism has no image for generator %r"
                             % (g,))
        if not isinstance(images[g], str):
            raise ValueError("endomorphism image of generator %r is not a "
                             "word string" % (g,))
    return generators, images


def load_input(obj):
    """Parse an input document: a graph with a self-map, or an endomorphism.

    Endomorphism payloads ({"generators": [...], "images": {...}}) are
    realized on a rose, so every command can treat the input as a map.
    ValueError rejects a graph with no vertices, and map or image keys
    that are not exactly the graph's or the generators (see
    `map_from_obj` and `_endomorphism_payload`).
    """
    if not isinstance(obj, dict):
        raise ValueError("input document must be a JSON object")
    if "endomorphism" in obj:
        generators, images = _endomorphism_payload(obj["endomorphism"])
        f = endomorphism_on_rose(generators, images)
        return InputBundle("endomorphism", f, obj)
    if "graph" not in obj or "map" not in obj:
        raise ValueError("input document needs 'graph' and 'map' "
                         "(or an 'endomorphism' payload)")
    graph = graph_from_obj(obj["graph"])
    if not graph.vertices:
        raise ValueError("graph has no vertices")
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
    _write(os.path.join(outdir, "half_transfer.json"), map_to_obj(pkg.half))
    constants = dict(pkg.constants())
    constants.update({
        "schema": SCHEMA,
        "tool_version": __version__,
        "input_digest": sha256(source_text.encode("utf-8")).hexdigest(),
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

    The core is the one home of its labeling and basepoint, so the
    projection is read off it and no file stores either again.
    ValueError names the first field of ``constants.json`` that is missing,
    the first of `induced.INTEGER_CONSTANTS` that is not an integer, or a
    periodic vertex that is not a vertex of the source graph, before any
    is used; then the first of the package's `constants` whose value in
    the file differs from the rebuilt package's, type included.
    """
    f, core = load_core(outdir)
    induced = map_from_obj(_read(os.path.join(outdir, "induced.json")),
                           core.graph)
    half = map_from_obj(_read(os.path.join(outdir, "half_transfer.json")),
                        f.domain, core.graph)
    c = _read(os.path.join(outdir, "constants.json"))
    for name in INTEGER_CONSTANTS + ("periodic_vertex", "transfer_basepoint"):
        if name not in c:
            raise ValueError("constants.json: %s is missing" % name)
    for name in INTEGER_CONSTANTS:
        if not is_integer(c[name]):
            raise ValueError("constants.json: %s %r is not an integer"
                             % (name, c[name]))
    if c["periodic_vertex"] not in f.domain.vertices:
        raise ValueError("constants.json: periodic_vertex %r is not a vertex"
                         % (c["periodic_vertex"],))
    pkg = InducedPackage(
        source=f, core=core, induced=induced, half=half,
        periodic_vertex=c["periodic_vertex"],
        period=c["period"], exponent=c["exponent"],
        preperiod=c["preperiod"], orbit_period=c["orbit_period"],
        multiplier=c["multiplier"], constant=c["constant"],
        transfer_basepoint=c["transfer_basepoint"],
        chain=image_chain(f, c["periodic_vertex"], c["period"]))
    for name, value in pkg.constants().items():
        if name not in c:
            raise ValueError("constants.json: %s is missing" % name)
        if type(c[name]) is not type(value) or c[name] != value:
            raise ValueError("constants.json: %s %r does not match the "
                             "package (%r)" % (name, c[name], value))
    return pkg


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
