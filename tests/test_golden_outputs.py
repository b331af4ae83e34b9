"""Byte-level regression check of `runjob run` on every fixture script.

Each fixture runs under each mode below.  The exit code, stdout, stderr and
every file left in the output directory (text plus executable bit) must
equal the record in ``golden/outputs.json``, after the output directory and
the fixtures directory are replaced by ``<OUT>`` and ``<FIXTURES>``.

Regenerate the record (only for a deliberate output change) with
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from runjob.cli import LENIENT_ENV_VAR, main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "outputs.json"

MODES = {
    "dry-run": ["--run-mode", "dry-run"],
    "dag": ["--target", "dag"],
    "dump": ["--dump", "-"],
    "dump-resolve": ["--dump", "-", "--resolve"],
    "no-framework": ["--no-framework", "--dump", "-"],
    "lenient-deps": ["--lenient-deps"],
    "check": ["--check"],
}

CASES = [f"{script.name} {mode}"
         for script in sorted(FIXTURES.glob("*.mac")) for mode in MODES]


def run_case(case: str, out: Path) -> dict:
    """Run one "<fixture> <mode>" case into ``out``; return its normalised record."""
    name, mode = case.split()
    argv = ["run", str(FIXTURES / name), "--out", str(out), *MODES[mode]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)

    def normalise(text: str) -> str:
        return text.replace(str(out), "<OUT>").replace(str(FIXTURES), "<FIXTURES>")

    files = {}
    if out.exists():
        for path in sorted(out.iterdir()):
            files[path.name] = {"executable": os.access(path, os.X_OK),
                                "text": normalise(path.read_text())}
    return {"exit": code, "stdout": normalise(stdout.getvalue()),
            "stderr": normalise(stderr.getvalue()), "files": files}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case, golden, tmp_path, monkeypatch):
    monkeypatch.delenv(LENIENT_ENV_VAR, raising=False)
    assert run_case(case, tmp_path / "out") == golden[case]


def write_golden() -> None:
    os.environ.pop(LENIENT_ENV_VAR, None)
    record = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            record[case] = run_case(case, Path(tmp) / "out")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
