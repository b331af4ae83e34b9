"""The planning benchmark's smoke run: every workload at tiny sizes, traced.

It fails when a name the benchmark traces is no longer defined or called.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_run_passes():
    finished = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
    assert finished.returncode == 0, finished.stdout[-2000:] + finished.stderr[-2000:]
