"""runjob planning benchmark: end-to-end plan/check/setup/memory metrics and
a traced per-layer run.

    python3 bench/run.py --workload chain_dag --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, 40 s each
    python3 bench/run.py --smoke         # tiny sizes, all workloads, traced too

Each sample is a fresh single-threaded worker process (worker.py) that
imports runjob from ``src/`` next to this directory and runs one plan
through ``runjob.cli.main``.  Samples run one after another until
``--seconds`` have passed; timings are medians over the samples.  Every
plan's artifacts are checked against the workload's oracle.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("chain_dag", "loop_shell", "deep_refs")
END_TO_END = {"plan_s": "s", "check_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = {**END_TO_END, **{m["name"]: m["unit"] for m in tracing.per_layer_metrics()}}
CHECKS_PER_SAMPLE = 5
MIN_SAMPLES = 3
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not produce a measurement."""


class Oracle:
    """Checks plan artifacts; re-sources each distinct dump once."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self._replays: dict[str, str] = {}

    def fixed_point(self, dump: str) -> str:
        digest = hashlib.sha256(dump.encode()).hexdigest()
        if digest not in self._replays:
            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            from runjob import execute_script, make_linker

            linker = make_linker(output_dir=WORK)
            execute_script(linker, dump)
            self._replays[digest] = linker.dump_state()
        return self._replays[digest]

    def check(self, out: Path) -> list[str]:
        return self.workload.check(out, self.fixed_point)


def spawn(request: dict) -> dict:
    """Run one worker process to completion and return its JSON result."""
    command = [sys.executable, str(BENCH_DIR / "worker.py")]
    spawned_at = time.monotonic()
    completed = subprocess.run(
        [*command, repr(spawned_at), json.dumps(request)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if completed.returncode != 0:
        raise BenchError(f"worker exited with {completed.returncode}:\n"
                         f"{completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.splitlines()[-1])
    if Path(result["module"]).resolve().parent != (SRC / "runjob").resolve():
        raise BenchError(f"worker imported runjob from {result['module']}, not {SRC}")
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload; returns metrics, counts and report lines."""
    workload = workloads.make(name, seed, smoke)
    run_dir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    script = run_dir / "workload.mac"
    script.write_text(workload.script)
    oracle = Oracle(workload)
    plain, traced, problems = [], [], []
    attempted = failed = 0
    min_samples = 1 if smoke else MIN_SAMPLES
    deadline = time.monotonic() + seconds
    try:
        while (time.monotonic() < deadline or len(plain) < min_samples
               or (trace and len(traced) < max(min_samples, 2))):
            is_traced = trace and len(traced) < len(plain)
            out = run_dir / f"out{attempted}"
            result = spawn({
                "trace": is_traced,
                "plan_argv": workload.plan_argv(script, out),
                "check_argv": ["run", str(script), "--check"],
                "checks": 1 if is_traced else CHECKS_PER_SAMPLE,
                "spans_path": str(run_dir / "spans.tsv"),
            })
            attempted += 1 + len(result["check_s"])
            found = ([f"plan: {result['plan_error']}"] if result["plan_error"]
                     else oracle.check(out))
            failed += bool(found) + len(result["check_errors"])
            problems += found + [f"check: {error}" for error in result["check_errors"]]
            (traced if is_traced else plain).append(result)
        spans_file = None
        if trace:
            spans_file = WORK / "traces" / f"{name}-seed{seed}.spans.tsv"
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            os.replace(run_dir / "spans.tsv", spans_file)
    finally:
        # Outputs are deleted only once measuring is over: freeing thousands
        # of files slows the file creation of the plans that follow.
        shutil.rmtree(run_dir, ignore_errors=True)

    samples_file = WORK / "samples" / f"{name}-seed{seed}-trace{int(trace)}.json"
    samples_file.parent.mkdir(parents=True, exist_ok=True)
    samples_file.write_text(json.dumps(
        [{k: v for k, v in r.items() if k != "layers"} for r in plain + traced]))
    ok = [r for r in plain if not r["plan_error"]] or plain
    values = {
        "plan_s": [r["plan_s"] for r in ok],
        "check_s": [s for r in plain for s in r["check_s"]],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    metrics = {metric: statistics.median(samples) for metric, samples in values.items()}
    lines = [f"{name} {metric} = {metrics[metric]:.6g} {END_TO_END[metric]} "
             f"(median of {len(samples)}, range {min(samples):.6g} to {max(samples):.6g})"
             for metric, samples in values.items()]
    lines.append(f"{name} error_rate = {failed / attempted:.6g} "
                 f"({failed} of {attempted} runjob invocations failed)")
    lines += [f"{name} problem: {problem}" for problem in problems[:5]]
    if trace:
        layer_metrics = per_layer(workload, traced, metrics["plan_s"])
        lines += [f"{name} {metric} = {value:.6g} {UNITS[metric]}"
                  for metric, value in layer_metrics.items()]
        lines.append(f"{name} spans of the last traced plan: {spans_file.relative_to(ROOT)}")
        metrics = layer_metrics
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "lines": lines}


def per_layer(workload: workloads.Workload, traced: list[dict], plain_plan_s: float) -> dict:
    """Per-layer medians over the traced samples, plus the tracing overhead.

    Call counts must repeat exactly across samples, and every layer the
    workload is meant to use must record calls: a binding the tracer
    missed would otherwise read as a free layer.
    """
    summaries = [r["layers"] for r in traced]
    metrics = {}
    for name in summaries[0]:
        values = [summary[name] for summary in summaries]
        if name.endswith(".calls") and len(set(values)) != 1:
            raise BenchError(f"{workload.name}: {name} differs between traced plans: {values}")
        metrics[name] = statistics.median(values)
    unused = sorted(layer for layer in workload.used if metrics[f"{layer}.calls"] == 0)
    if unused:
        raise BenchError(f"{workload.name}: no calls recorded for {', '.join(unused)}")
    metrics[tracing.OVERHEAD] = statistics.median(r["plan_s"] for r in traced) - plain_plan_s
    return metrics


def smoke() -> int:
    """Tiny sizes: every workload, plain and traced, must be correct."""
    for name in WORKLOADS:
        scripts = {workloads.make(name, seed, True).script for seed in (1, 1, 2)}
        if len(scripts) != 2:
            raise BenchError(f"{name}: scripts are not a pure function of the seed")
        for trace in (False, True):
            report = run_workload(name, 1, 0, trace, smoke=True)
            print("\n".join(report["lines"]))
            if report["failed"]:
                raise BenchError(f"{name}: {report['failed']} failed runjob invocations")
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes, plain and traced")
    args = parser.parse_args(argv)
    if not (SRC / "runjob" / "__init__.py").is_file():
        print(f"error: runjob sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), False)
            print("\n".join(report["lines"]), flush=True)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({f"{prefix}{metric}": {"value": value, "unit": UNITS[metric]}
                            for metric, value in report["metrics"].items()})
            attempted += report["attempted"]
            failed += report["failed"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
