"""The planning benchmark's smoke run: every workload at tiny sizes, traced.

It fails when a name the benchmark traces is no longer defined or called,
and when a traced ``.calls`` count differs from ``golden/smoke_calls.json``.
A change that alters the work counted regenerates that file with::

    python3 tests/test_bench_smoke.py

and names each count it changes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "smoke_calls.json"
CALLS = re.compile(r"^(\w+) (\S+\.calls) = (\d+) count$", re.MULTILINE)


def smoke_run() -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def traced_calls(stdout: str) -> dict[str, dict[str, int]]:
    """Per workload, each ``<layer>.calls`` count the smoke run printed."""
    counts: dict[str, dict[str, int]] = {}
    for workload, name, value in CALLS.findall(stdout):
        counts.setdefault(workload, {})[name] = int(value)
    return counts


def test_bench_smoke_run_passes():
    finished = smoke_run()
    assert finished.returncode == 0, finished.stdout[-2000:] + finished.stderr[-2000:]
    assert traced_calls(finished.stdout) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    finished = smoke_run()
    if finished.returncode != 0:
        sys.exit(finished.stdout[-2000:] + finished.stderr[-2000:])
    GOLDEN.write_text(json.dumps(traced_calls(finished.stdout), indent=2) + "\n")
