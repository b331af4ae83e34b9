"""One benchmark sample, run in a fresh interpreter by run.py.

Usage: worker.py SPAWNED_AT REQUEST_JSON

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process, so the set-up time covers interpreter start-up, ``import runjob``
and ``make_linker()``.  The worker then runs one plan through
``runjob.cli.main`` (traced when asked), reads its peak RSS before doing
anything else, times a few ``--check`` runs, and prints one JSON line.
Nothing is imported ahead of runjob, so the set-up time is the program's.
"""

import os
import sys
import time


def main() -> None:
    spawned_at = float(sys.argv[1])
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(bench_dir), "src"))
    import runjob.cli

    runjob.make_linker()
    setup_s = time.monotonic() - spawned_at

    import contextlib
    import io
    import json
    import resource

    request = json.loads(sys.argv[2])
    result = {"setup_s": setup_s, "module": runjob.__file__}
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def invoke(argv):
        """Run the CLI once; returns (seconds, error or None)."""
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                code = runjob.cli.main(argv)
            error = None if code == 0 else f"exit code {code}: {stdout.getvalue()[-400:]}"
        except Exception as exc:  # any escape is a failed plan, RecursionError too
            error = f"{type(exc).__name__}: {str(exc)[:300]}"
        return time.perf_counter() - start, error

    result["plan_s"], result["plan_error"] = invoke(request["plan_argv"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = [invoke(request["check_argv"]) for _ in range(request["checks"])]
    result["check_s"] = [seconds for seconds, _ in checks]
    result["check_errors"] = [error for _, error in checks if error]
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(request["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
