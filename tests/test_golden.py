"""Golden bytes: every CLI report on fixtures/ is byte-identical to the
recorded one.

For each fixture and each of analyze, quotient, suspend, export-dot and
induce, tests/golden/ holds the ``--format json`` stdout and the exit code,
plus the package files ``induce --out`` writes.  The only normalization is
the package directory path, which ``induce`` echoes as ``out_dir``.

After a change that is meant to alter the output, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("analyze", "quotient", "suspend", "export-dot", "induce")
OUT_DIR = "<out_dir>"
EXIT_CODES = "exit_codes.json"


def fixture_names():
    return sorted(p.stem for p in FIXTURES.glob("*.json"))


def run_cli(command, name, outdir):
    """(exit code, stdout, {package file: bytes}) for one CLI run."""
    from ttforge.cli import main
    from ttforge.io import PACKAGE_FILES

    argv = ["--format", "json", command, str(FIXTURES / (name + ".json"))]
    if command == "induce":
        argv += ["--out", str(outdir)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = buf.getvalue().replace(json.dumps(str(outdir)),
                                  json.dumps(OUT_DIR))
    files = {}
    if command == "induce":
        for fname in PACKAGE_FILES:
            path = Path(outdir) / fname
            if path.exists():
                files[fname] = path.read_text(encoding="utf-8")
    return code, text, files


def stdout_path(name, command):
    return GOLDEN / name / (command + ".out")


def package_dir(name):
    return GOLDEN / name / "package"


def regenerate():
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    codes = {}
    for name in fixture_names():
        (GOLDEN / name).mkdir(parents=True)
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                code, text, files = run_cli(command, name, Path(tmp) / "pkg")
            codes["%s %s" % (name, command)] = code
            stdout_path(name, command).write_text(text, encoding="utf-8")
            if files:
                package_dir(name).mkdir()
                for fname, content in files.items():
                    (package_dir(name) / fname).write_text(
                        content, encoding="utf-8")
    (GOLDEN / EXIT_CODES).write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", fixture_names())
def test_cli_output_matches_golden(name, command, tmp_path):
    codes = json.loads((GOLDEN / EXIT_CODES).read_text(encoding="utf-8"))
    code, text, files = run_cli(command, name, tmp_path / "pkg")
    assert code == codes["%s %s" % (name, command)]
    assert text == stdout_path(name, command).read_text(encoding="utf-8")
    if command == "induce":
        recorded = package_dir(name)
        expected = sorted(p.name for p in recorded.iterdir()) \
            if recorded.exists() else []
        assert sorted(files) == expected
        for fname in expected:
            assert files[fname] == (recorded / fname).read_text(
                encoding="utf-8"), fname


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regenerate()
