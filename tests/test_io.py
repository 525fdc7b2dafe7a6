"""Canonical serialization: round trips, digests, packages, DOT export."""

import hashlib
import json
import os

import pytest

from ttforge.freegroup import SubgroupGraph, endomorphism_on_rose, fold
from ttforge.graphs import rose
from ttforge.induced import build_induced, verify_package
from ttforge.io import (
    PACKAGE_FILES, canonical_text, content_digest, export_dot, graph_from_obj,
    graph_to_obj, input_to_obj, labeled_from_obj, labeled_to_obj, load_input,
    load_package, make_report, map_from_obj, map_to_obj, report_to_obj,
    write_package,
)

ROSE2 = rose(["a", "b"])


class TestCanonicalForm:
    def test_key_order_is_immaterial(self):
        assert canonical_text({"b": 1, "a": [2, 3]}) \
            == canonical_text({"a": [2, 3], "b": 1})
        assert canonical_text({"x": 0}).endswith("\n")

    def test_digest_tracks_content(self):
        assert content_digest({"a": 1}) == content_digest({"a": 1})
        assert content_digest({"a": 1}) != content_digest({"a": 2})
        assert len(content_digest({})) == 64


class TestGraphAndMapObjects:
    def test_graph_round_trip(self, sigma, cyc2, pre1_r2):
        for g in (sigma.domain, cyc2.domain, pre1_r2.domain):
            assert graph_from_obj(graph_to_obj(g)) == g

    def test_map_round_trip(self, named_fixture_maps, corpus100):
        for f in list(named_fixture_maps.values()) + corpus100[:10]:
            assert map_from_obj(map_to_obj(f), f.domain) == f

    def test_serialized_paths_use_minus_tokens(self, nilp):
        obj = map_to_obj(nilp)
        assert obj["edges"]["c"] == "a -b"
        back = map_from_obj(obj, nilp.domain)
        assert back == nilp

    def test_labeled_round_trip(self, sigma, fib):
        for f in (sigma, fib):
            pkg = build_induced(f)
            obj = labeled_to_obj(pkg.core)
            assert labeled_from_obj(obj, f.domain) == pkg.core

    def test_subgroup_core_round_trip(self):
        core = fold(ROSE2, "v", ["a b", "b a"])
        again = labeled_from_obj(labeled_to_obj(core), ROSE2)
        assert again == core
        assert again.basepoint == core.basepoint


class TestInputDocuments:
    def test_map_document(self, sigma):
        bundle = load_input(input_to_obj(sigma))
        assert bundle.kind == "map"
        assert bundle.graph_map == sigma
        assert bundle.digest == content_digest(input_to_obj(sigma))

    def test_endomorphism_document(self):
        doc = {"endomorphism": {"generators": ["x", "y"],
                                "images": {"x": "x y", "y": "x y"}}}
        bundle = load_input(doc)
        assert bundle.kind == "endomorphism"
        f = bundle.graph_map
        assert f == endomorphism_on_rose(
            ["x", "y"], {"x": "x y", "y": "x y"})
        assert f.is_self_map
        assert sorted(f.domain.edge_ids) == ["x", "y"]
        assert f.dart_image("x") == ("x", "y")

    def test_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="JSON object"):
            load_input([1, 2])
        with pytest.raises(ValueError, match="graph"):
            load_input({"map": {}})

    def test_rejects_a_graph_with_no_vertices(self):
        doc = {"graph": {"vertices": [], "edges": []},
               "map": {"vertices": {}, "edges": {}}}
        with pytest.raises(ValueError, match="^graph has no vertices$"):
            load_input(doc)

    @pytest.mark.parametrize("vertices,edges,message", [
        ({"v": "v", "u": "v", "t": "v"}, {"a": "a b", "b": "a"},
         "map vertex 't' is not in the graph"),
        ({"v": "v"}, {"a": "a b", "b": "a", "z": "a", "c": "b"},
         "map edge 'c' is not in the graph"),
        ({"v": "v", "u": "v"}, {"a": "a b", "z": "a"},
         "map vertex 'u' is not in the graph"),
        ({"v": "v"}, {"z": "a"}, "map edge 'z' is not in the graph"),
        ({"v": "v"}, {}, "map has no image for edge 'a'"),
        ({"v": "v"}, {"b": "a"}, "map has no image for edge 'a'"),
        (["v"], {"a": "a b", "b": "a"}, "map vertices must be an object"),
    ], ids=["vertex-sorted", "edge-sorted", "vertex-first",
            "extra-before-missing", "missing", "missing-one", "vertex-list"])
    def test_map_keys_are_the_domain(self, vertices, edges, message):
        # extra keys in sorted order, vertices first, then a missing edge
        with pytest.raises(ValueError, match="^%s" % message):
            map_from_obj({"vertices": vertices, "edges": edges}, ROSE2)

    @pytest.mark.parametrize("payload,message", [
        ({"generators": ["x", "y"], "images": {"x": "x", "y": "y",
                                               "w": "x", "z": "y"}},
         "endomorphism image for 'w', which is not a generator"),
        ({"generators": ["x", "y", "z"], "images": {"x": "x y"}},
         "endomorphism has no image for generator 'y'"),
        ({"generators": "xy", "images": {"x": "x y", "y": "x"}},
         "endomorphism generators must be a list of names"),
        ({"generators": ["x", 1], "images": {"x": "x"}},
         "endomorphism generators must be a list of names"),
        ({"generators": ["x"], "images": ["x"]},
         "endomorphism images must be an object"),
        ({"images": {"x": "x"}},
         "endomorphism generators must be a list of names"),
        (["x"], "endomorphism payload must be an object"),
        ({"generators": ["x"], "images": {"x": 7}},
         "endomorphism image of generator 'x' is not a word string"),
        ({"generators": ["x", "y"], "images": {"x": ["x", "y"], "y": "x"}},
         "endomorphism image of generator 'x' is not a word string"),
    ], ids=["extra", "missing", "string", "non-string", "image-list",
            "no-generators", "payload-list", "int-word", "list-word"])
    def test_endomorphism_images_are_the_generators(self, payload, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            load_input({"endomorphism": payload})


class TestPackageFiles:
    def test_write_and_load_round_trip(self, tmp_path, sigma, cyc2, stab2,
                                       pre1_r3):
        # period > 1 (cyc2), K >= 2 (stab2), preperiod >= 1 (pre1_r3)
        for name, f in (("sigma", sigma), ("cyc2", cyc2), ("stab2", stab2),
                        ("pre1_r3", pre1_r3)):
            pkg = build_induced(f)
            report = verify_package(pkg)
            outdir = tmp_path / name
            write_package(outdir, pkg, report)
            assert sorted(os.listdir(outdir)) == sorted(PACKAGE_FILES)
            loaded = load_package(outdir)
            assert loaded.source == pkg.source
            assert loaded.core == pkg.core
            assert loaded.induced == pkg.induced
            assert loaded.projection == pkg.projection
            assert loaded.transfer == pkg.transfer
            assert loaded.constants() == pkg.constants()
            assert verify_package(loaded).ok

    def test_rewrite_of_loaded_package_is_byte_identical(
            self, tmp_path, sigma, cyc2, stab2, pre1_r3):
        # a fact dropped between write and load would change a file
        for name, f in (("sigma", sigma), ("cyc2", cyc2), ("stab2", stab2),
                        ("pre1_r3", pre1_r3)):
            pkg = build_induced(f)
            first, again = tmp_path / name, tmp_path / (name + "_again")
            write_package(first, pkg, verify_package(pkg))
            loaded = load_package(first)
            write_package(again, loaded, verify_package(loaded))
            for piece in PACKAGE_FILES:
                assert (first / piece).read_bytes() \
                    == (again / piece).read_bytes(), (name, piece)

    @pytest.mark.parametrize("name", [
        "periodic_vertex", "period", "exponent", "preperiod",
        "orbit_period", "multiplier", "constant", "core_rank", "core_edges",
        "stabilization"])
    def test_edited_constant_is_never_silently_kept(self, tmp_path, cyc2,
                                                    name):
        # a value load rebuilds must match the file; a value it reads
        # into the package makes a package that verify rejects
        pkg = build_induced(cyc2)
        write_package(tmp_path, pkg, verify_package(pkg))
        value = pkg.constants()[name]
        if name == "periodic_vertex":
            edited = next(v for v in cyc2.domain.vertices if v != value)
        elif name == "period":
            # a multiple keeps the vertex periodic, so the chain builds
            edited = 2 * value
        else:
            edited = value + 7
        self._edit_constants(tmp_path, **{name: edited})
        if name in ("core_rank", "core_edges", "stabilization"):
            with pytest.raises(ValueError) as err:
                load_package(tmp_path)
            assert str(err.value) == (
                "constants.json: %s %r does not match the package (%r)"
                % (name, edited, value))
        else:
            loaded = load_package(tmp_path)
            assert loaded.constants()[name] == edited
            assert not verify_package(loaded).ok

    @pytest.mark.parametrize("name", ["core_rank", "stabilization"])
    def test_constant_of_another_type_is_rejected(self, tmp_path, sigma,
                                                  name):
        # 1.0 and true equal 1, so the type tells them apart
        pkg = build_induced(sigma)
        write_package(tmp_path, pkg, verify_package(pkg))
        for edited in (1.0, True):
            self._edit_constants(tmp_path, **{name: edited})
            with pytest.raises(ValueError,
                               match="constants.json: %s .* does not match"
                               % name):
                load_package(tmp_path)

    def test_constant_load_rebuilds_must_be_present(self, tmp_path, sigma):
        pkg = build_induced(sigma)
        write_package(tmp_path, pkg, verify_package(pkg))
        path = tmp_path / "constants.json"
        doc = json.loads(path.read_text())
        del doc["core_edges"]
        path.write_text(canonical_text(doc))
        with pytest.raises(ValueError,
                           match="constants.json: core_edges is missing"):
            load_package(tmp_path)

    @staticmethod
    def _edit_constants(outdir, **changes):
        path = outdir / "constants.json"
        doc = json.loads(path.read_text())
        doc.update(changes)
        path.write_text(canonical_text(doc))

    def test_edited_exponent_fails_its_check(self, tmp_path, stab2):
        pkg = build_induced(stab2)
        write_package(tmp_path, pkg, verify_package(pkg))
        assert pkg.exponent == 2 and pkg.constants()["stabilization"] == 2
        self._edit_constants(tmp_path, exponent=1)
        checks = verify_package(load_package(tmp_path)).checks
        assert checks["exponent_matches_stabilization"] == (
            False, "n=1 stabilization=2")
        assert checks["rank_matches_quotient"][0]

    def test_edited_period_below_one_is_rejected(self, tmp_path, sigma):
        pkg = build_induced(sigma)
        write_package(tmp_path, pkg, verify_package(pkg))
        for period in (0, -1):
            self._edit_constants(tmp_path, period=period)
            with pytest.raises(ValueError, match="not positive"):
                load_package(tmp_path)

    def test_build_and_load_never_rewrite(self, tmp_path, monkeypatch,
                                          named_fixture_maps):
        calls = []
        monkeypatch.setattr(SubgroupGraph, "rewrite",
                            lambda self, darts: calls.append(darts))
        for name, f in named_fixture_maps.items():
            pkg = build_induced(f)
            write_package(tmp_path / name, pkg, verify_package(pkg))
            load_package(tmp_path / name)
        assert calls == []

    def test_package_bytes_are_deterministic(self, tmp_path, fib):
        pkg = build_induced(fib)
        report = verify_package(pkg)
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        write_package(a, pkg, report)
        write_package(b, pkg, report)
        for name in PACKAGE_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @staticmethod
    def _assert_same_files(a, b):
        for name in PACKAGE_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
            assert (a / name).stat().st_mode == (b / name).stat().st_mode

    def test_overwrite_leaves_no_stale_tail(self, tmp_path, sigma, pre1_r3):
        small, large = build_induced(sigma), build_induced(pre1_r3)
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        write_package(fresh, small, verify_package(small))
        write_package(reused, large, verify_package(large))
        assert all((reused / name).stat().st_size
                   > (fresh / name).stat().st_size for name in PACKAGE_FILES)
        write_package(reused, small, verify_package(small))
        self._assert_same_files(fresh, reused)

    def test_overwrite_of_empty_files(self, tmp_path, cyc2):
        pkg = build_induced(cyc2)
        report = verify_package(pkg)
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        reused.mkdir()
        for name in PACKAGE_FILES:
            open(reused / name, "w").close()
        write_package(fresh, pkg, report)
        write_package(reused, pkg, report)
        self._assert_same_files(fresh, reused)

    def test_new_files_get_the_modes_of_open(self, tmp_path, sigma):
        pkg = build_induced(sigma)
        old = os.umask(0o027)
        try:
            write_package(tmp_path / "pkg", pkg, verify_package(pkg))
            for name in PACKAGE_FILES:
                with open(tmp_path / name, "w"):
                    pass
        finally:
            os.umask(old)
        for name in PACKAGE_FILES:
            assert ((tmp_path / "pkg" / name).stat().st_mode
                    == (tmp_path / name).stat().st_mode == 0o100640)

    def test_constants_file_contents(self, tmp_path, sigma):
        pkg = build_induced(sigma)
        write_package(tmp_path, pkg, verify_package(pkg))
        doc = json.loads((tmp_path / "constants.json").read_text())
        assert doc["constant"] == 2 and doc["schema"] == 1
        assert doc["input_digest"] == content_digest(input_to_obj(sigma))
        assert doc["input_digest"] == hashlib.sha256(
            (tmp_path / "source.json").read_bytes()).hexdigest()
        assert "tool_version" in doc

    def test_report_objects(self, sigma):
        pkg = build_induced(sigma)
        obj = report_to_obj(verify_package(pkg))
        assert obj["ok"] is True
        assert all(entry["ok"] for entry in obj["checks"].values())
        envelope = make_report("analyze", "f" * 64, {"expanding": True})
        assert envelope["command"] == "analyze"
        assert envelope["input_digest"] == "f" * 64
        assert envelope["results"] == {"expanding": True}


class TestDotExport:
    def test_rose_layout(self):
        text = export_dot(ROSE2)
        assert text.startswith("digraph G {")
        assert text.count('"v";') == 1
        assert '"v" -> "v" [label="a"];' in text
        assert '"v" -> "v" [label="b"];' in text
        assert text.endswith("}\n")

    def test_deterministic_and_label_override(self, cyc2):
        assert export_dot(cyc2.domain) == export_dot(cyc2.domain)
        text = export_dot(ROSE2, edge_labels={"a": "p"}, name="H")
        assert 'digraph H {' in text
        assert '[label="p"];' in text
        assert '[label="b"];' in text

    def test_projection_labels_on_cover(self, sigma):
        pkg = build_induced(sigma)
        text = export_dot(pkg.core.graph, edge_labels=pkg.core.edge_label)
        assert text.count('[label="a"]') == 1
        assert text.count('[label="b"]') == 1
