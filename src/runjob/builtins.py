"""Builtin configurator types and the stock type registry.

HelloWorld / HelloWorldScriptGen reproduce the canonical greeting demo,
Step models a generic application stage for chained workflows, FileInput
serves metadata loaded from a key=value file, and Fork is the batch portal
that launches materialized composites as child processes.
"""

from __future__ import annotations

import os
from pathlib import Path

from .configurator import Configurator, ConfiguratorDescription
from .errors import InvalidKey, MalformedLine, RunjobError, SpawnFailure
from .linker import Linker
from .macro_lang import read_utf8, split_lines
from .scriptgen import DagGen, ScriptGen, named_scriptgen, shell_quote
from .trigger_store import check_token

RUN_MODES = ("foreground", "background", "dry-run")


class HelloWorld(Configurator):
    """Greets with its HelloMessage; job generation is delegated."""

    SCHEMA = ("HelloMessage",)

    def fragment_payload(self) -> str:
        message = self.resolve_value("HelloMessage")
        return f"echo {shell_quote(message)}"


class HelloWorldScriptGen(ScriptGen):
    """Scriptgen for HelloWorld steps; doubles as their metadata server
    (greeting texts live in its own store and are read by reference)."""


class Step(Configurator):
    """Generic application step: Executable consuming InputFile, producing
    OutputFile, with extra Args spliced onto the command line."""

    SCHEMA = ("Executable", "InputFile", "OutputFile", "Args")

    def fragment_payload(self) -> str:
        executable = self.resolve_value("Executable")
        if not executable:
            raise RunjobError(f"{self.identifier}: Executable is not set")
        parts = [shell_quote(executable)]
        args = self.resolve_value("Args")
        if args:
            parts.append(args)
        infile = self.resolve_value("InputFile")
        if infile:
            parts.append(f"< {shell_quote(infile)}")
        outfile = self.resolve_value("OutputFile")
        if outfile:
            parts.append(f"> {shell_quote(outfile)}")
        return " ".join(parts)


class FileInput(Configurator):
    """Metadata server backed by a key=value file, reloaded on every Reset."""

    SCHEMA = ("SourceFile",)

    def on_message(self, message: str) -> bool:
        if message == "Reset" and self.resolve_value("SourceFile"):
            self.load()
        return super().on_message(message)

    def load(self) -> int:
        """Read SourceFile into the store (untriggered); returns pair count."""
        pairs = read_key_values(Path(self.resolve_value("SourceFile")))
        for key, value in pairs:
            self.store.untriggered_write(key, value)
        return len(pairs)


def read_key_values(path: Path) -> list[tuple[str, str]]:
    """Parse ``key=value`` lines; '#' comments and blank lines are skipped.
    Whitespace runs in a value collapse, as in ``define``.  A line the dump
    could not re-source (holding '#', or a value starting with '::' or ending
    in a backslash) is a MalformedLine."""
    pairs = []
    for lineno, raw in enumerate(split_lines(read_utf8(path, MalformedLine)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), " ".join(value.split())
        if not sep or not key:
            raise MalformedLine(f"expected key=value, got {raw!r}",
                                filename=str(path), lineno=lineno)
        if "#" in line or value.startswith("::") or value.endswith("\\"):
            raise MalformedLine(f"cannot be re-sourced as a literal define: {raw!r}",
                                filename=str(path), lineno=lineno)
        try:
            pairs.append((check_token(key), value))
        except InvalidKey as exc:
            raise MalformedLine(exc.message, filename=str(path), lineno=lineno) from None
    return pairs


class RunResult:
    def __init__(self, command: str, pid: int | None = None, returncode: int | None = None,
                 stdout: str = "", process: object = None):
        self.command = command
        self.pid = pid
        self.returncode = returncode
        self.stdout = stdout
        self.process = process


class RunReport:
    def __init__(self, mode: str, results: list[RunResult] | None = None):
        self.mode = mode
        self.results = [] if results is None else results

    @property
    def stdout(self) -> str:
        return "".join(result.stdout for result in self.results)


class Fork(Configurator):
    """Batch portal: on RunJob it launches the composites of the scriptgen
    named by ScriptGenName.  ExecutableList is normally defined as
    ::construct, so the list is rebuilt (and the composites rematerialized)
    on every run."""

    SCHEMA = ("ScriptGenName", "ExecutableList")

    def __init__(self, description: ConfiguratorDescription):
        super().__init__(description)
        self.register_construct("ExecutableList", self._collect_composite_paths)
        self.last_run_report: RunReport | None = None
        self.jobs: list = []  # background processes, kept until someone waits on them

    def on_message(self, message: str) -> bool:
        if message == "RunJob":
            self.last_run_report = self.run_jobs(self._linker.run_mode)
            return True
        if message == "Reset":
            self.last_run_report = None
        return super().on_message(message)

    def _collect_composite_paths(self) -> str:
        """Construct for ExecutableList: materialize and list the named
        scriptgen's composites, in emission order."""
        scriptgen = named_scriptgen(self)
        if scriptgen is None:
            return ""
        import shlex  # here, like subprocess in run_jobs, so start-up never loads it
        composites = self._linker.collect_script_objects(
            producer=scriptgen.description, kind="composite")
        return " ".join(shlex.quote(str(self._linker.materialize(obj.filename, obj.payload)))
                        for obj in composites)

    def run_jobs(self, mode: str = "foreground") -> RunReport:
        """Spawn every path in ExecutableList according to ``mode``.  Only a
        dry run accepts a ScriptGenName whose scriptgen writes no shell."""
        if mode not in RUN_MODES:
            raise RunjobError(f"unknown run mode {mode!r}")
        scriptgen = named_scriptgen(self) if mode != "dry-run" else None
        target = "shell" if scriptgen is None else scriptgen.script_target
        if target != "shell":
            raise RunjobError(f"{scriptgen.identifier} writes {target}, not shell")
        import shlex
        try:
            paths = shlex.split(self.resolve_value("ExecutableList"))
        except ValueError as exc:  # e.g. an unclosed quote in a literal list
            raise RunjobError(f"{self.identifier}: ExecutableList: {exc}") from None
        self.jobs = [job for job in self.jobs if job.poll() is None]  # reap finished ones
        report = RunReport(mode)
        failures = []
        for index, path in enumerate(paths):
            result = RunResult(command=path)
            report.results.append(result)
            if mode == "dry-run":
                continue
            import subprocess  # here, so that planning and dry runs never load it
            env = _child_environment(Path(path).stem or str(index))
            executable = os.path.abspath(path)  # entries are paths, never PATH lookups
            try:
                if mode == "background":
                    process = subprocess.Popen([executable], env=env)
                    result.pid = process.pid
                    result.process = process
                    self.jobs.append(process)
                else:
                    completed = subprocess.run([executable], env=env, capture_output=True,
                                               encoding="utf-8", errors="replace")
                    result.returncode = completed.returncode
                    result.stdout = completed.stdout
            except OSError as exc:
                failures.append((path, str(exc)))
        if failures:
            detail = "; ".join(f"{path}: {reason}" for path, reason in failures)
            raise SpawnFailure(f"failed to spawn {len(failures)} job(s): {detail}",
                               failures=failures)
        return report


def _child_environment(job_id: str) -> dict[str, str]:
    """Minimal environment for spawned jobs plus the job id marker."""
    env = {"RUNJOB_JOB_ID": job_id}
    for name in ("PATH", "HOME", "LANG"):
        if name in os.environ:
            env[name] = os.environ[name]
    env.setdefault("PATH", "/usr/bin:/bin")
    return env


BUILTIN_TYPES: dict[str, type] = {
    "HelloWorld": HelloWorld,
    "HelloWorldScriptGen": HelloWorldScriptGen,
    "ScriptGen": ScriptGen,
    "DagGen": DagGen,
    "Step": Step,
    "FileInput": FileInput,
    "Fork": Fork,
}


def make_linker(**kwargs) -> Linker:
    """A linker preloaded with the builtin configurator types."""
    types = dict(BUILTIN_TYPES)
    types.update(kwargs.pop("types", {}))
    return Linker(types=types, **kwargs)
