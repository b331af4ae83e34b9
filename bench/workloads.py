"""Seeded macro-script workloads and the oracles that check their artifacts.

Each workload turns a seed into a specification, renders it as a ``.mac``
script (the only thing runjob receives) and checks a run's output
directory against expectations computed from the specification alone.
The seed changes instance names, literal texts and attach order, never the
sizes, so the work per plan stays the same across seeds.

The one place runjob is used by an oracle is the dump -> source -> dump
fixed point of ``loop_shell``, which by definition needs the program to
re-source its own dump.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

# Sizes are fixed per workload; see README.md for how they were chosen.
SIZES = {
    "chain_dag": {"steps": 400},
    "loop_shell": {"iterations": 1000},
    # depth keeps the traced run, whose wrappers add three frames per
    # reference hop, well under the interpreter's default recursion limit
    "deep_refs": {"chains": 6, "depth": 50},
}
SMOKE_SIZES = {
    "chain_dag": {"steps": 6},
    "loop_shell": {"iterations": 5},
    "deep_refs": {"chains": 2, "depth": 4},
}

EXECUTABLES = ("cat", "sort", "uniq", "tac", "rev", "nl")
WORDS = ("alpha", "bravo", "delta", "echo", "gamma", "kilo", "lima", "oscar",
         "sierra", "tango", "whisky", "zulu")
DUMP_NAME = "state.mac"

_SAFE_TEXT = re.compile(r"[A-Za-z0-9_.\- ]*")


def quote(text: str) -> str:
    """Double-quote a generated text for sh; generated texts never carry a
    character that would need escaping inside double quotes."""
    if not _SAFE_TEXT.fullmatch(text):
        raise ValueError(f"generator produced an unsafe text: {text!r}")
    return f'"{text}"'


def _letters(rng: random.Random, count: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(count))


def _names(rng: random.Random, count: int) -> list[str]:
    """Distinct lowercase instance names of one fixed length."""
    stem = _letters(rng, 4)
    indices = list(range(count))
    rng.shuffle(indices)
    return [f"{stem}{_letters(rng, 1)}{index:05d}" for index in indices]


def _word_pair(rng: random.Random) -> str:
    return f"{rng.choice(WORDS)} {rng.choice(WORDS)}"


@dataclass
class StepSpec:
    name: str
    executable: str
    args: str
    input_file: str  # literal text for a chain root, resolved root otherwise
    output_file: str
    parent: str | None  # instance name of the previous step in its chain

    @property
    def fragment(self) -> str:
        return (f"{quote(self.executable)} {self.args} < {quote(self.input_file)} "
                f"> {quote(self.output_file)}")


def _steps(rng: random.Random, chains: int, depth: int) -> list[list[StepSpec]]:
    names = iter(_names(rng, chains * depth))
    result = []
    for chain in range(chains):
        root = f"{rng.choice(WORDS)}_{chain}.in"
        steps, parent = [], None
        for _ in range(depth):
            name = next(names)
            steps.append(StepSpec(
                name=name, executable=rng.choice(EXECUTABLES),
                args=f"-{rng.choice(string.ascii_lowercase)}",
                input_file=root, output_file=f"{name}.{rng.choice(WORDS)}",
                parent=parent))
            parent = name
        result.append(steps)
    return result


def _step_cfg_lines(step: StepSpec, input_expression: str) -> list[str]:
    prefix = f"cfg Step named {step.name}"
    lines = [f"{prefix} define Executable {step.executable}",
             f"{prefix} define Args {step.args}"]
    if step.parent is not None:
        lines.append(f"{prefix} addreq Step named {step.parent}")
    lines += [f"{prefix} define InputFile {input_expression}",
              f"{prefix} define OutputFile {step.output_file}"]
    return lines


def _fragments(composite: str) -> list[str]:
    """Fragment payloads of a shell composite, in composite order.

    Only the ``(`` ... ``)`` groups are read, so the header and trailer of
    the composite are not pinned.
    """
    fragments, current = [], None
    for line in composite.splitlines():
        if line == "(" and current is None:
            current = []
        elif line == ")" and current is not None:
            fragments.append("\n".join(current))
            current = None
        elif current is not None:
            current.append(line)
    return fragments


def _expect_files(out: Path, expected: set[str], problems: list[str]) -> bool:
    actual = {path.name for path in out.iterdir()} if out.is_dir() else set()
    if actual != expected:
        missing = sorted(expected - actual)[:3]
        extra = sorted(actual - expected)[:3]
        problems.append(f"artifacts differ: missing {missing}, unexpected {extra}")
        return False
    return True


def _expect_sequence(what: str, actual: list[str], expected: list[str],
                     problems: list[str]) -> None:
    if actual == expected:
        return
    if len(actual) != len(expected):
        problems.append(f"{what}: {len(actual)} entries, expected {len(expected)}")
        return
    index = next(i for i, (a, e) in enumerate(zip(actual, expected)) if a != e)
    problems.append(f"{what}[{index}]: {actual[index]!r}, expected {expected[index]!r}")


@dataclass
class Workload:
    """A seeded script plus the oracle for the artifacts of one plan."""

    name: str
    script: str
    flags: list[str]
    used: set[str]  # traced functions, named as in tracing, this workload must call
    spec: dict  # what the oracle compares the artifacts with

    def plan_argv(self, script_path: Path, out: Path) -> list[str]:
        flags = [f.replace("{out}", str(out)) for f in self.flags]
        return ["run", str(script_path), "--out", str(out), *flags]

    def check(self, out: Path, fixed_point) -> list[str]:
        """Problems found in one plan's output directory (empty when correct).

        ``fixed_point(dump_text)`` returns the re-sourced dump of a dump.
        """
        return CHECKS[self.name](self, out, fixed_point)


# chain_dag

def make_chain_dag(seed: int, sizes: dict) -> Workload:
    rng = random.Random(f"chain_dag:{seed}")
    (chain,) = _steps(rng, 1, sizes["steps"])
    for previous, step in zip(chain, chain[1:]):
        step.input_file = previous.output_file
    by_name = {step.name: step for step in chain}
    attach_order = list(by_name) + ["ScriptGen", "DagGen", "Fork"]
    rng.shuffle(attach_order)
    lines = [f"# chain_dag seed {seed}: {len(chain)} chained steps"]
    lines += [f"attach {name}" if name not in by_name else f"attach Step named {name}"
              for name in attach_order]
    lines += ["cfg ScriptGen register Step", "cfg Fork define ScriptGenName DagGen",
              "cfg Fork oncall RunJob do define ExecutableList ::construct"]
    order = [name for name in attach_order if name in by_name]
    for name in order:
        step = by_name[name]
        expression = (step.input_file if step.parent is None
                      else f"::{step.parent}:OutputFile")
        lines += _step_cfg_lines(step, expression)
    return Workload(
        "chain_dag", "\n".join(lines) + "\n", ["--run-mode", "dry-run"],
        used=COMMON_LAYERS | {"scriptgen.build_dag", "scriptgen.requirement_edges",
                              "builtins.Step.fragment_payload", "builtins.Fork.run_jobs"},
        spec={"steps": by_name, "attach_order": order})


def check_chain_dag(workload: Workload, out: Path, fixed_point) -> list[str]:
    steps, order = workload.spec["steps"], workload.spec["attach_order"]
    problems: list[str] = []
    composite = "composite_ScriptGen.sh"
    if not _expect_files(out, {composite, "workflow.dag"}, problems):
        return problems
    _expect_sequence(composite, _fragments((out / composite).read_text()),
                     [steps[name].fragment for name in order], problems)
    jobs = [f"job_Step_{name}" for name in order]
    position = {name: i for i, name in enumerate(order)}
    edges = sorted((position[s.parent], position[s.name]) for s in steps.values() if s.parent)
    expected = [f"JOB {job} {job}.sh" for job in jobs]
    expected += [f"PARENT {jobs[a]} CHILD {jobs[b]}" for a, b in edges]
    _expect_sequence("workflow.dag", (out / "workflow.dag").read_text().split("\n"),
                     expected + [""], problems)
    return problems


# loop_shell

def make_loop_shell(seed: int, sizes: dict) -> Workload:
    rng = random.Random(f"loop_shell:{seed}")
    count = sizes["iterations"]
    stem = _letters(rng, 5)
    keys = [f"{stem}{rng.choice(string.ascii_uppercase)}", f"{stem}{rng.choice('0123456789')}"]
    texts = [_word_pair(rng), _word_pair(rng)]
    used_key = rng.randrange(2)
    greeter = f"{stem}h"
    body = [f"cfg HelloWorldScriptGen define {keys[k]}$(i) {texts[k]} $(i)" for k in (0, 1)]
    body.insert(rng.randrange(3), f"attach HelloWorld named {greeter}$(i)")
    body.append(f"cfg HelloWorld named {greeter}$(i) define HelloMessage "
                f"::HelloWorldScriptGen:{keys[used_key]}$(i)")
    fork = ["attach Fork", "cfg Fork define ScriptGenName HelloWorldScriptGen",
            "cfg Fork oncall RunJob do define ExecutableList ::construct"]
    lines = [f"# loop_shell seed {seed}: {count} iterations",
             "attach HelloWorldScriptGen", "cfg HelloWorldScriptGen register HelloWorld"]
    fork_first = rng.random() < 0.5
    if fork_first:
        lines += fork
    lines += [f"loop i 1 {count}", *body, "endloop"]
    if not fork_first:
        lines += fork
    # every directive of the unrolled script must come back in the dump
    unrolled = lines[1:3] + fork + [line.replace("$(i)", str(i))
                                    for i in range(1, count + 1) for line in body]
    return Workload(
        "loop_shell", "\n".join(lines) + "\n",
        ["--run-mode", "dry-run", "--dump", f"{{out}}/{DUMP_NAME}"],
        used=COMMON_LAYERS | {"macro_lang.substitute_block", "linker.dump_state",
                              "configurator.dump_commands",
                              "builtins.HelloWorld.fragment_payload", "builtins.Fork.run_jobs"},
        spec={"echoes": [f"echo {quote(f'{texts[used_key]} {i}')}"
                         for i in range(1, count + 1)],
              "dump_lines": unrolled})


def check_loop_shell(workload: Workload, out: Path, fixed_point) -> list[str]:
    problems: list[str] = []
    composite = "composite_HelloWorldScriptGen.sh"
    if not _expect_files(out, {composite, DUMP_NAME}, problems):
        return problems
    _expect_sequence(composite, _fragments((out / composite).read_text()),
                     workload.spec["echoes"], problems)
    dump = (out / DUMP_NAME).read_text()
    missing = set(workload.spec["dump_lines"]) - set(dump.splitlines())
    if missing:
        problems.append(f"{DUMP_NAME} lacks {len(missing)} lines, e.g. {min(missing)!r}")
    replayed = fixed_point(dump)
    if replayed != dump:
        _expect_sequence("dump -> source -> dump", replayed.splitlines(),
                         dump.splitlines(), problems)
    return problems


# deep_refs

def make_deep_refs(seed: int, sizes: dict) -> Workload:
    rng = random.Random(f"deep_refs:{seed}")
    chains = _steps(rng, sizes["chains"], sizes["depth"])
    steps = {step.name: step for chain in chains for step in chain}
    attach_order = list(steps) + ["ScriptGen", "Fork"]
    rng.shuffle(attach_order)
    lines = [f"# deep_refs seed {seed}: {len(chains)} chains of {sizes['depth']} references"]
    lines += [f"attach {name}" if name in ("ScriptGen", "Fork") else f"attach Step named {name}"
              for name in attach_order]
    lines += ["cfg ScriptGen register Step",
              "cfg Fork define ScriptGenName ScriptGen",
              "cfg Fork oncall RunJob do define ExecutableList ::construct"]
    order = [name for name in attach_order if name in steps]
    for name in order:
        step = steps[name]
        expression = (step.input_file if step.parent is None
                      else f"::{step.parent}:InputFile")
        lines += _step_cfg_lines(step, expression)
    return Workload(
        "deep_refs", "\n".join(lines) + "\n",
        ["--run-mode", "dry-run", "--dump", f"{{out}}/{DUMP_NAME}", "--resolve"],
        used=COMMON_LAYERS | {"linker.dump_state", "configurator.dump_commands",
                              "builtins.Step.fragment_payload", "builtins.Fork.run_jobs"},
        spec={"fragments": [steps[name].fragment for name in order],
              "inputs": {name: step.input_file for name, step in steps.items()}})


_RESOLVED_INPUT = re.compile(r"cfg Step named (\S+) define InputFile (.*)")


def check_deep_refs(workload: Workload, out: Path, fixed_point) -> list[str]:
    problems: list[str] = []
    composite = "composite_ScriptGen.sh"
    if not _expect_files(out, {composite, DUMP_NAME}, problems):
        return problems
    _expect_sequence(composite, _fragments((out / composite).read_text()),
                     workload.spec["fragments"], problems)
    resolved = {}
    for line in (out / DUMP_NAME).read_text().splitlines():
        match = _RESOLVED_INPUT.fullmatch(line)
        if match:
            resolved[match.group(1)] = match.group(2)
    expected = workload.spec["inputs"]
    if resolved != expected:
        wrong = sorted(name for name in expected if resolved.get(name) != expected[name])
        problems.append(f"{DUMP_NAME}: {len(wrong)} InputFile values not resolved to "
                        f"their chain root, e.g. {wrong[:1]}")
    return problems


# layers every workload uses; workload-specific ones are added above
COMMON_LAYERS = {
    "macro_lang.tokenize", "macro_lang.parse_block", "macro_lang.MacroInterpreter.execute",
    "macro_lang.check_script", "linker.attach", "linker.route", "linker.find",
    "linker.lookup_parameter", "linker.run_framework", "linker.collect_script_objects",
    "linker.materialize", "configurator.apply_macro", "configurator.define",
    "configurator.add_requirement", "configurator.resolve_value",
    "configurator.handle_framework", "configurator.DependencyPattern.matches",
    "trigger_store.TriggerStore.read", "trigger_store.TriggerStore.write",
    "scriptgen.compose_shell", "scriptgen.ScriptGen.fragments", "cli.materialize_outputs",
}

MAKERS = {"chain_dag": make_chain_dag, "loop_shell": make_loop_shell,
          "deep_refs": make_deep_refs}
CHECKS = {"chain_dag": check_chain_dag, "loop_shell": check_loop_shell,
          "deep_refs": check_deep_refs}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    return MAKERS[name](seed, dict(sizes))
