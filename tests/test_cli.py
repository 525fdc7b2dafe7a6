"""Command line contract: subcommands, exit codes, report documents.

Everything runs in process through main(argv) against the JSON documents
under fixtures/, so the tests see real argv parsing, stdout bytes, and
exit codes without spawning interpreters.
"""

import json
from pathlib import Path

import pytest

import ttforge.cli as cli
from ttforge.cli import main
from ttforge.io import PACKAGE_FILES, canonical_text, load_input_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


def run_json(capsys, argv):
    code = main(["--format", "json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


class TestAnalyze:
    def test_certified_map(self, capsys):
        code, doc, raw = run_json(capsys, ["analyze", fixture("sigma.json")])
        assert code == 0
        assert doc["command"] == "analyze"
        assert len(doc["input_digest"]) == 64
        r = doc["results"]
        assert r["train_track"] and r["irreducible"] and r["expanding"]
        assert r["primitive_power"] == 1
        assert r["matrix"] == {"labels": ["a", "b"], "rows": [[1, 1], [1, 1]]}
        assert abs(r["growth_rate"] - 2) <= 1e-9
        assert r["invariant_subgraph"] is None
        assert set(r["legal_loops"]) == {"a", "b"}
        assert raw == canonical_text(doc)

    def test_identity_map_flags(self, capsys):
        code, doc, _ = run_json(capsys, ["analyze", fixture("identity.json")])
        assert code == 0
        r = doc["results"]
        assert r["train_track"] is True
        assert r["expanding"] is False
        assert r["expansion_witness"] in ("a", "b")
        assert r["irreducible"] is False
        assert "growth_rate" not in r
        assert "legal_loops" not in r
        assert r["invariant_subgraph"] is not None

    def test_text_format_header(self, capsys):
        assert main(["analyze", fixture("sigma.json")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ttforge analyze (input ")
        assert "train_track: True" in out

    def test_malformed_json_is_input_error(self, capsys):
        assert main(["analyze", fixture("malformed.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        assert main(["analyze", fixture("no_such_file.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_backtracking_image_is_input_error(self, capsys):
        assert main(["analyze", fixture("backtracking.json")]) == 1
        assert "invalid graph map" in capsys.readouterr().err


class TestQuotient:
    def test_collapsing_substitution(self, capsys):
        code, doc, _ = run_json(capsys, ["quotient", fixture("sigma.json")])
        assert code == 0
        r = doc["results"]
        assert r["period"] == 1 and r["ambient_rank"] == 2
        assert r["stabilization"] == 1 and r["rank"] == 1
        assert r["restriction"] == {"g0": "g0 g0"}
        assert r["injective_on_image"] is True

    def test_homotopy_equivalence(self, capsys):
        code, doc, _ = run_json(capsys, ["quotient", fixture("fib.json")])
        assert code == 0
        assert doc["results"]["stabilization"] == 0
        assert doc["results"]["rank"] == 2

    def test_group_killer(self, capsys):
        code, doc, _ = run_json(capsys, ["quotient", fixture("nilp.json")])
        assert code == 0
        r = doc["results"]
        assert r["stabilization"] == 3 and r["rank"] == 0
        assert r["restriction"] == {} and r["image_basis"] == {}

    def test_periodic_vertex_map(self, capsys):
        code, doc, _ = run_json(capsys, ["quotient", fixture("cyc2.json")])
        assert code == 0
        assert doc["results"]["period"] == 2
        assert doc["results"]["rank"] == 1

    def test_endomorphism_payload(self, capsys):
        code, doc, _ = run_json(capsys, ["quotient", fixture("endo.json")])
        assert code == 0
        r = doc["results"]
        assert r["ambient_rank"] == 2 and r["rank"] == 1
        assert r["period"] == 1


class TestInduce:
    def test_writes_verified_package(self, capsys, tmp_path):
        out = str(tmp_path / "pkg")
        code, doc, _ = run_json(
            capsys, ["induce", fixture("sigma.json"), "--out", out])
        assert code == 0
        for name in PACKAGE_FILES:
            assert (tmp_path / "pkg" / name).exists()
        r = doc["results"]
        assert r["constants"]["constant"] == 2
        assert r["verification"]["ok"] is True
        assert r["out_dir"] == out

    def test_reports_are_reproducible(self, capsys, tmp_path):
        out = str(tmp_path / "pkg")
        argv = ["induce", fixture("fib.json"), "--out", out]
        _, _, first = run_json(capsys, argv)
        _, _, second = run_json(capsys, argv)
        assert first == second

    def test_precondition_failures_exit_one(self, capsys):
        for name, reason in (("reducible.json", "irreducible"),
                             ("nonexpanding.json", "expanding"),
                             ("nilp.json", "train track")):
            assert main(["induce", fixture(name)]) == 1
            assert reason in capsys.readouterr().err

    def test_verification_failure_exits_two(self, capsys, tmp_path,
                                            monkeypatch):
        class Failing:
            ok = False
            checks = {"transfer_covers_power": (False, "forced")}

            def failures(self):
                return ["transfer_covers_power"]

        monkeypatch.setattr(cli, "verify_package", lambda pkg: Failing())
        code, doc, _ = run_json(capsys, [
            "induce", fixture("sigma.json"),
            "--out", str(tmp_path / "pkg")])
        assert code == 2
        assert doc["results"]["verification"]["ok"] is False


class TestSuspend:
    def test_flow_and_hmap_checks(self, capsys):
        for check in ("flow", "hmaps"):
            code, doc, _ = run_json(capsys, [
                "suspend", fixture("sigma.json"),
                "--check", check, "--count", "6"])
            assert code == 0
            name = ("semigroup_law" if check == "flow"
                    else "h_maps_compose_to_time_one")
            assert doc["results"][name]["ok"] is True

    def test_pair_check(self, capsys):
        code, doc, _ = run_json(capsys, [
            "suspend", fixture("fib.json"), "--check", "pair",
            "--count", "6"])
        assert code == 0
        assert doc["results"]["pair_composite_is_flow"]["ok"] is True
        assert doc["results"]["pair_equivariance"]["ok"] is True

    def test_descriptor_check(self, capsys):
        code, doc, _ = run_json(capsys, [
            "suspend", fixture("fib.json"), "--check", "descriptor",
            "--count", "6"])
        assert code == 0
        r = doc["results"]
        assert r["descriptor_projection_commutes"]["ok"] is True
        assert r["descriptor"] == {"degree": 1, "exponent": 1,
                                   "dual_index": 1}

    def test_all_skips_descriptor_without_pi1_iso(self, capsys):
        code, doc, _ = run_json(capsys, [
            "suspend", fixture("sigma.json"), "--count", "4"])
        assert code == 0
        assert "descriptor" not in doc["results"]
        assert doc["results"]["semigroup_law"]["ok"] is True

    def test_all_includes_descriptor_for_equivalences(self, capsys):
        code, doc, _ = run_json(capsys, [
            "suspend", fixture("fib.json"), "--count", "4"])
        assert code == 0
        assert doc["results"]["descriptor"]["degree"] == 1

    def test_failed_identity_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "h_maps", lambda torus: (lambda tp: tp, lambda tp: tp))
        code, doc, _ = run_json(capsys, [
            "suspend", fixture("sigma.json"), "--check", "hmaps",
            "--count", "4"])
        assert code == 2
        assert doc["results"]["h_maps_compose_to_time_one"]["ok"] is False


class TestProptest:
    def test_small_run_passes(self, capsys):
        code, doc, _ = run_json(capsys, [
            "proptest", "--count", "2", "--seed", "9"])
        assert code == 0
        r = doc["results"]
        assert r["all_ok"] is True and r["count"] == 2
        assert r["failing_cases"] == []
        assert all(c["ok"] for c in r["cases"])

    def test_reports_reproduce_and_merge_deterministically(self, capsys):
        argv = ["proptest", "--count", "2", "--seed", "9"]
        _, _, first = run_json(capsys, argv)
        _, _, second = run_json(capsys, argv)
        _, _, parallel = run_json(capsys, argv + ["--jobs", "2"])
        assert first == second == parallel

    def test_count_zero_is_empty_pass(self, capsys):
        code, doc, _ = run_json(capsys, ["proptest", "--count", "0"])
        assert code == 0
        assert doc["results"]["count"] == 0
        assert doc["results"]["all_ok"] is True

    def test_injected_invalid_candidates_are_rejected(self, capsys):
        code, doc, _ = run_json(capsys, [
            "proptest", "--count", "2", "--seed", "3",
            "--inject-invalid", "1"])
        assert code == 0
        assert doc["results"]["injected"] == 2

    def test_unrejected_injection_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_invalid_candidate",
                            lambda: cli.GraphMap(
                                cli.rose(["a", "b"]), cli.rose(["a", "b"]),
                                {"v": "v"}, {"a": "a b", "b": "a b"}))
        code, doc, _ = run_json(capsys, [
            "proptest", "--count", "1", "--seed", "3",
            "--inject-invalid", "1"])
        assert code == 2
        assert doc["results"]["all_ok"] is False

    def test_injected_reducible_train_track_map_is_rejected(
            self, capsys, monkeypatch):
        # a train track map the generator drops at its irreducibility step
        reducible = load_input_file(fixture("reducible.json")).graph_map
        monkeypatch.setattr(cli, "_invalid_candidate", lambda: reducible)
        code, doc, _ = run_json(capsys, [
            "proptest", "--count", "1", "--seed", "3",
            "--inject-invalid", "1"])
        assert code == 0
        assert doc["results"]["cases"][0]["injected_rejected"] is True


class TestExportDot:
    def test_map_to_stdout_is_stable(self, capsys):
        assert main(["export-dot", fixture("sigma.json")]) == 0
        first = capsys.readouterr().out
        assert main(["export-dot", fixture("sigma.json")]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("digraph G {")
        assert '"v" -> "v" [label="a"];' in first

    def test_package_directory_renders_cover(self, capsys, tmp_path):
        out = str(tmp_path / "pkg")
        assert main(["induce", fixture("sigma.json"), "--out", out]) == 0
        capsys.readouterr()
        assert main(["export-dot", out]) == 0
        text = capsys.readouterr().out
        assert text.startswith("digraph core {")
        assert text.count('[label="a"]') == 1
        assert text.count('[label="b"]') == 1

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        assert main(["export-dot", fixture("cyc2.json"),
                     "--out", str(target)]) == 0
        capsys.readouterr()
        assert main(["export-dot", fixture("cyc2.json")]) == 0
        assert target.read_text() == capsys.readouterr().out


class TestArgumentHandling:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--bogus"])
        assert err.value.code == 1

    @pytest.mark.parametrize("command, flag", [
        ("analyze", "--out"), ("analyze", "--seed"), ("analyze", "--count"),
        ("quotient", "--out"), ("quotient", "--seed"),
        ("quotient", "--count"), ("induce", "--seed"), ("induce", "--count"),
        ("suspend", "--out"), ("export-dot", "--seed"),
        ("export-dot", "--count")])
    def test_flag_the_command_never_reads_exits_one(self, command, flag):
        with pytest.raises(SystemExit) as err:
            main([command, fixture("sigma.json"), flag, "3"])
        assert err.value.code == 1

    def test_proptest_takes_no_out_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["proptest", "--count", "0", "--out", "x"])
        assert err.value.code == 1

    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_log_env_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("TTFORGE_LOG", "debug")
        assert main(["analyze", fixture("sigma.json")]) == 0
