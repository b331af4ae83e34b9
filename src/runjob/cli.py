"""Command line entry point: run macro scripts, dump state, build artifacts.

Exit codes: 0 success, 1 script/runtime error (message carries file:line
when known), 2 usage error.

The parser is built once, by the first :func:`main` call, and ``RUNJOB_LENIENT_DEPS``
is read per call.  ``run`` holds the collector's first threshold at
:data:`RUN_GC_THRESHOLD` until it returns; the REPL and library calls do not.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from pathlib import Path

from .builtins import RUN_MODES, Fork, make_linker
from .errors import IncompleteInput, RunjobError
from .linker import Linker, cannot_write, write_atomically
from .macro_lang import MacroInterpreter, Parser, check_script, execute_file
from .scriptgen import DAG_FILENAME, build_dag

DEFAULT_FRAMEWORK = ("Reset", "MakeJob", "MakeScript", "RunJob")
LENIENT_ENV_VAR = "RUNJOB_LENIENT_DEPS"
# a plan frees few of the objects it builds, so young collections would rescan them
RUN_GC_THRESHOLD = 200_000


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runjob",
        description="Plan workflows from macro scripts and compile them into "
                    "shell composites or DAG files.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a macro script")
    run.add_argument("script", help="macro script file")
    _common_flags(run)
    run.add_argument("--target", choices=("shell", "dag"), default="shell",
                     help="write shell composites, or a DAG plus per-job scripts")
    run.add_argument("--check", action="store_true",
                     help="parse the script (and sourced files) without executing")
    run.add_argument("--dump", metavar="PATH",
                     help="write the declarative state dump ('-' for stdout)")
    run.add_argument("--resolve", action="store_true",
                     help="snapshot lazy definitions to literals in the dump")
    run.add_argument("--framework", metavar="MESSAGES",
                     default=" ".join(DEFAULT_FRAMEWORK),
                     help="framework messages to run after the script "
                          "(default: %(default)s)")
    run.add_argument("--no-framework", dest="framework", action="store_const", const="",
                     help="do not run any framework messages after the script")

    repl_parser = sub.add_parser("repl", help="interactive directive session")
    _common_flags(repl_parser)
    return parser


def _common_flags(parser) -> None:
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory for materialized artifacts")
    parser.add_argument("--lenient-deps", action="store_true",
                        help="disable dependency checking and namespace visibility "
                             f"rules (also via {LENIENT_ENV_VAR}=1)")
    parser.add_argument("--run-mode", choices=RUN_MODES, default="foreground")
    parser.add_argument("--background", dest="run_mode", action="store_const",
                        const="background", help="shorthand for --run-mode background")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "repl":
            sys.stdin.reconfigure(encoding="utf-8", errors="replace")  # whatever the locale
            repl(_new_linker(args))
            return 0
        return run_script(args)
    except (RunjobError, OSError, UnicodeEncodeError) as exc:  # e.g. text stdout cannot encode
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _new_linker(args) -> Linker:
    lenient = args.lenient_deps or os.environ.get(LENIENT_ENV_VAR) == "1"
    return make_linker(strict=not lenient, output_dir=Path(args.out), run_mode=args.run_mode)


def run_script(args) -> int:
    """:func:`_run_or_check` with the collector's first threshold raised until it returns."""
    thresholds = gc.get_threshold()
    if 0 < thresholds[0] < RUN_GC_THRESHOLD:  # a first threshold of 0 turns collection off
        gc.set_threshold(RUN_GC_THRESHOLD, *thresholds[1:])
    try:
        return _run_or_check(args)
    finally:
        gc.set_threshold(*thresholds)


def _run_or_check(args) -> int:
    """Run (or with ``--check`` only check) the script named by parsed ``run`` arguments."""
    if args.check:
        check_script(args.script)
        return 0
    linker = _new_linker(args)
    try:
        execute_file(linker, args.script)
        linker.run_framework(*args.framework.split())
        for path in materialize_outputs(linker, args.target):
            print(f"wrote {path}")
        print_run_reports(linker, sys.stdout)
        if args.dump == "-":
            sys.stdout.write(linker.dump_state(resolve=args.resolve))
        elif args.dump is not None:
            if "\0" in args.dump:  # which no file name holds, and os.path.realpath refuses
                raise cannot_write(Path(args.dump), ValueError("embedded null byte"))
            target = os.path.realpath(args.dump)  # refuse to replace an artifact of this run
            if os.path.relpath(target, os.path.realpath(linker.output_dir)) in linker.written:
                raise RunjobError(f"--dump {args.dump}: this run wrote that file")
            path, text = Path(args.dump), linker.dump_state(resolve=args.resolve)
            if path.is_symlink() or path.exists() and not path.is_file():
                try:  # a link, pipe or device: write through
                    path.write_text(text, encoding="utf-8")
                except OSError as exc:
                    raise cannot_write(path, exc) from None
            else:
                write_atomically(path, text)
            print(f"wrote {args.dump}")
    finally:
        wait_for_jobs(linker)
    return 0


def materialize_outputs(linker: Linker, target: str) -> list[Path]:
    """Write the selected artifacts into the linker's output directory."""
    if target != "dag":
        composites = linker.collect_script_objects(target="shell", kind="composite")
        return [linker.materialize(obj.filename, obj.payload) for obj in composites]
    fragments = linker.collect_script_objects(kind="fragment")
    paths = [linker.materialize(obj.filename, obj.payload) for obj in fragments]
    dags = linker.collect_script_objects(target="dag", kind="composite")
    # with no DagGen attached, wrap every shell fragment
    dag = dags[-1].payload if dags else build_dag(linker, fragments)
    paths.append(linker.materialize(DAG_FILENAME, dag))
    return paths


def print_run_reports(linker: Linker, out, lead: str = "") -> None:
    """Clear, then write after ``lead`` in one write, the results of every
    Fork's last RunJob; a write that fails leaves none to print later."""
    reports = [lead]
    for cfg in linker.configurators:
        if isinstance(cfg, Fork):
            reports += [result.report() for result in cfg.results]
            cfg.results = []
    out.write("".join(reports))


def wait_for_jobs(linker: Linker) -> None:
    """Wait for every background job a Fork has started."""
    for cfg in linker.configurators:
        if isinstance(cfg, Fork):
            for process in cfg.jobs:
                process.wait()


REPL_HELP = """\
directives: attach / cfg / framework run / framework group / source / loop ... endloop
builtins:   dump        print the declarative state dump
            help        print this text
            quit, exit  leave the session
"""


def repl(linker: Linker, input_stream=None, output=None) -> None:
    """Line-oriented interactive session; errors, and output ``output``
    cannot encode, are printed as ``error:`` lines.  Each line read is fed
    to the parser that reads scripts; its entry runs once complete, and an
    entry that input ends inside is reported as that error."""
    stream = input_stream if input_stream is not None else sys.stdin
    out = output if output is not None else sys.stdout
    interactive = input_stream is None and stream.isatty()

    def prompt(text: str) -> None:
        if interactive:
            out.write(text)
            out.flush()

    parser = Parser()  # of the open entry, which has read a line once parser.lineno > 0
    prompt("runjob> ")
    for raw in stream:
        command = None if parser.lineno else raw.strip()
        if command in ("quit", "exit"):
            break
        try:
            if command == "help":
                out.write(REPL_HELP)
            elif command == "dump":
                out.write(linker.dump_state())
            else:
                parser.feed(raw)
                try:
                    directives = parser.finish()
                except IncompleteInput:
                    prompt("... ")
                    continue
                except RunjobError as exc:
                    out.write(f"error: {exc}\n")
                else:
                    _run_entry(linker, directives, out)
        except UnicodeEncodeError as exc:  # output the terminal cannot encode; exc's text is ASCII
            out.write(f"error: {exc}\n")
        parser = Parser()
        prompt("runjob> ")
    try:
        parser.finish()  # raises for an entry that input ended inside
    except RunjobError as exc:
        out.write(f"error: {exc}\n")
    prompt("\n")
    wait_for_jobs(linker)


def _run_entry(linker: Linker, directives, out) -> None:
    """Run one entry's directives, writing what they did or their error to ``out``."""
    interpreter = MacroInterpreter(linker)
    try:
        interpreter.run_directives(directives, None)
        print_run_reports(linker, out, "".join(
            f"{record.message} {record.description.identifier}: {record.outcome}\n"
            for record in interpreter.dispatches))
    except (RunjobError, OSError) as exc:
        out.write(f"error: {exc}\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
