"""Command line entry point: run macro scripts, dump state, build artifacts.

Exit codes: 0 success, 1 script/runtime error (message carries file:line
when known), 2 usage error.

``RUNJOB_LENIENT_DEPS`` is read per call, and ``run`` holds the collector's first
threshold at :data:`RUN_GC_THRESHOLD` until it returns; the REPL and library calls do not.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .builtins import RUN_MODES, Fork, make_linker
from .errors import IncompleteInput, RunjobError
from .linker import Linker, cannot_write, write_atomically
from .macro_lang import MacroInterpreter, Parser, check_script, execute_file
from .scriptgen import DAG_FILENAME, build_dag

DEFAULT_FRAMEWORK = "Reset MakeJob MakeScript RunJob"
LENIENT_ENV_VAR = "RUNJOB_LENIENT_DEPS"
# a plan frees few of the objects it builds, so young collections would rescan them
RUN_GC_THRESHOLD = 200_000
DISCARD = SimpleNamespace(write=len, flush=lambda: None)  # a closed stdout: output is dropped

# flag: (destination, its default, the constant the flag stores, the metavar or choices of
# the value it takes, help); no flag is a prefix of another
_COMMON = {
    "--help": (None, None, None, None, "print this help and exit"),
    "--out": ("out", ".", None, "DIR", "output directory for materialized artifacts"),
    "--lenient-deps": ("lenient_deps", False, True, None, "disable dependency checking and "
                       f"namespace visibility rules (also via {LENIENT_ENV_VAR}=1)"),
    "--run-mode": ("run_mode", "foreground", None, RUN_MODES, "how Fork launches jobs"),
    "--background": ("run_mode", "foreground", "background", None, "as --run-mode background")}
OPTIONS = {"repl": _COMMON, "run": {
    **_COMMON,
    "--target": ("target", "shell", None, ("shell", "dag"),
                 "write shell composites, or a DAG plus per-job scripts"),
    "--check": ("check", False, True, None, "parse the script and what it sources; run nothing"),
    "--dump": ("dump", None, None, "PATH", "write the declarative state dump ('-' for stdout)"),
    "--resolve": ("resolve", False, True, None, "snapshot lazy definitions to literals in it"),
    "--framework": ("framework", DEFAULT_FRAMEWORK, None, "MESSAGES",
                    "framework messages to run after the script"),
    "--no-framework": ("framework", DEFAULT_FRAMEWORK, "", None, "run no framework messages")}}


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` as a command, then its :data:`OPTIONS` and operands in any order up
    to ``--``.  An unknown option or operand is reported last, after any ``-h``."""
    command, values, operands, unknown, options = None, {}, [], None, True
    table, tokens = {"--help": _COMMON["--help"]}, iter(argv)
    for token in tokens:
        if options and token == "--":
            options = False
        elif options and token[:1] == "-" and token != "-":
            name, equals, value = token.partition("=")
            name = "--help" if name == "-h" else name
            flags = [flag for flag in table if name[:2] == "--" and flag.startswith(name)]
            if len(flags) > 1:
                usage_exit(command, f"ambiguous option {name}: could match {', '.join(flags)}")
            if not flags:
                unknown = unknown or token
                continue
            dest, _, const, takes, _ = table[flags[0]]
            if takes is None and equals or dest is None:  # help, or a flag given a value
                usage_exit(command, equals and f"{flags[0]} takes no value: {token}")
            if takes is not None and not equals:
                value = next(tokens, None)
                if value is None or value[:1] == "-" and value != "-":
                    usage_exit(command, f"{token} needs a value")
            if isinstance(takes, tuple) and value not in takes:
                usage_exit(command, f"{flags[0]} {value!r}: choose from {', '.join(takes)}")
            values[dest] = const if takes is None else value
        elif command is not None:
            operands.append(token)
        elif token in OPTIONS:
            command, table, options = token, OPTIONS[token], True
            values = {dest: default for dest, default, *_ in table.values() if dest}
        else:
            usage_exit(None, f"unknown command {token!r}")
    if unknown or command is None:
        usage_exit(command, f"unknown option {unknown}" if unknown else "no command given")
    if len(operands) != (command == "run"):
        usage_exit(command, f"unexpected operand {operands[-1]!r}" if operands else "no SCRIPT")
    return SimpleNamespace(command=command, **values, **dict(zip(["script"], operands)))


def usage_exit(command, error: str = ""):
    """Print ``command``'s help (every command's with None) and exit 0, or with ``error``
    its usage and ``error`` to standard error and exit 2."""
    usage = "\n       ".join(f"runjob {name}{' SCRIPT' * (name == 'run')} [options]"
                               for name in ([command] if command else ("run", "repl")))
    lines = [f"usage: {usage}", f"runjob: error: {error}" if error else "\noptions:"]
    for flag, (dest, default, _, takes, text) in [] if error else OPTIONS[command or "run"].items():
        arg = f" {takes}" if isinstance(takes, str) else " {%s}" % ",".join(takes) if takes else ""
        only = "(run only) " if command is None and flag not in _COMMON else ""
        default = f" (default: {default})" if takes and default else ""
        lines.append(f"  {'-h, ' if dest is None else ''}{flag}{arg}\n      {only}{text}{default}")
    with contextlib.suppress(OSError):  # a standard stream closed at start-up: exit all the same
        print(*lines, sep="\n", file=sys.stderr if error else sys.stdout)
    raise SystemExit(2 if error else 0)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    try:
        if args.command == "repl":
            if sys.stdin is not None:  # None when the descriptor is closed
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
        print_run_reports(linker, sys.stdout or DISCARD)
        if args.dump == "-":
            (sys.stdout or DISCARD).write(linker.dump_state(resolve=args.resolve))
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
    stream = input_stream if input_stream is not None else sys.stdin or ()  # () if closed
    out = output if output is not None else sys.stdout or DISCARD
    interactive = stream is sys.stdin and stream.isatty()

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
