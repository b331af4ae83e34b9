import os
import subprocess
import sys
from pathlib import Path

import pytest

from runjob import make_linker

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
SCRIPT_VAR = "RUNJOB_INSTALLED_SCRIPT"  # names an installed runjob script to run instead


def _run_runjob(*args, cwd=None, stdin=None):
    """``runjob args`` in a child process, ``stdin`` on its standard input."""
    env = dict(os.environ)
    installed = os.environ.get(SCRIPT_VAR)  # set but empty is an error, not the default
    if installed is not None:
        command = [installed]
    else:
        command = [sys.executable, "-m", "runjob"]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([*command, *map(str, args)], cwd=cwd, env=env, input=stdin,
                          capture_output=True, encoding="utf-8")


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture
def runjob_command():
    """Run the ``runjob`` command as a user runs it: ``python -m runjob`` with
    ``src`` on the path or, when ``RUNJOB_INSTALLED_SCRIPT`` is set, the
    installed script it names (``python -m pip install .``)::

        RUNJOB_INSTALLED_SCRIPT="$(command -v runjob)" python -m pytest tests/test_cli.py
    """
    return _run_runjob


@pytest.fixture
def linker(tmp_path):
    """Strict-mode linker with builtin types, writing into a tmp dir."""
    return make_linker(output_dir=tmp_path / "build")


@pytest.fixture
def lenient_linker(tmp_path):
    return make_linker(strict=False, output_dir=tmp_path / "build")


@pytest.fixture
def helloworld_text() -> str:
    return (FIXTURES / "helloworld.mac").read_text()
