"""Script generation: delegated fragment emission, composites, DAG wrapping.

A ScriptGen is a configurator that other configurators delegate their job
generation (the MakeJob message) to.  Delegators render their own fragment
payload; the scriptgen drives emission into the linker repository it is
bound to and later assembles the fragments into a composite shell script,
or wraps them into a DAG description via DagGen.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .configurator import Configurator, ConfiguratorDescription
from .errors import CyclicWorkflow, MacroParseError, RunjobError

SHELL_HEADER = "#!/bin/sh"
DAG_FILENAME = "workflow.dag"


class ScriptObject(NamedTuple):
    """One generated code artifact held in the linker repository."""

    filename: str  # the file it materializes as, named by the emitting scriptgen
    target: str  # execution environment, e.g. "shell" or "dag"
    payload: str
    producer: ConfiguratorDescription
    kind: str = "fragment"  # or "composite"


_SHELL_ESCAPES = str.maketrans({ch: "\\" + ch for ch in '\\"$`'})


def shell_quote(text: str) -> str:
    """Double-quote ``text`` for POSIX sh, escaping the characters that stay
    special inside double quotes."""
    return f'"{text.translate(_SHELL_ESCAPES)}"'


def fragment_id(producer: ConfiguratorDescription) -> str:
    return f"job_{producer.slug}"


def compose_shell(fragments) -> str:
    """Concatenate fragment payloads into one script; each fragment runs in a
    subshell so its state cannot leak into the next."""
    lines = [SHELL_HEADER]
    for fragment in fragments:
        lines += ["(", fragment.payload.rstrip("\n"), ")"]
    lines.append("exit 0")
    return "\n".join(lines) + "\n"


class ScriptGen(Configurator):
    """Delegation target assembling shell composites.

    Handles MakeScript itself; MakeJob reaches it only through delegation
    from registered delegator types (macro: ``register <Type>``).  A
    subclass overrides :meth:`compose` and :meth:`composite_filename`.
    """

    script_target = "shell"

    def on_message(self, message: str) -> bool:
        if message != "MakeScript":
            return super().on_message(message)
        self.make_composite()
        return True

    def parse_macro(self, tokens: list[str]):
        if tokens[0] != "register":
            return super().parse_macro(tokens)
        if len(tokens) != 2:
            raise MacroParseError("usage: register <configurator-type>")
        return partial(self._linker.register_delegation, self, tokens[1])

    def delegated_make_job(self, delegator: Configurator) -> ScriptObject:
        """Emit one shell fragment for ``delegator`` into the linker repository."""
        return self._linker.add_script_object(ScriptObject(
            f"{fragment_id(delegator.description)}.sh", "shell",
            delegator.fragment_payload(), delegator.description))

    def fragments(self) -> list[ScriptObject]:
        """Repository fragments whose producer currently delegates to us."""
        linker = self._linker
        return [obj for obj in linker.collect_script_objects(kind="fragment")
                if linker.find_by_description(obj.producer).delegate == self.description]

    def compose(self) -> str:
        """Payload of our composite: our fragments, in emission order, as one
        shell script."""
        return compose_shell(self.fragments())

    def make_composite(self) -> ScriptObject:
        """Replace our previous composite, if any, with a newly composed one."""
        return self._linker.add_script_object(ScriptObject(
            self.composite_filename(), self.script_target,
            self.compose(), self.description, kind="composite"))

    def composite_filename(self) -> str:
        return f"composite_{self.description.slug}.sh"


def named_scriptgen(cfg: Configurator) -> ScriptGen | None:
    """The scriptgen ``cfg``'s ScriptGenName names, or None when that is empty."""
    name = cfg.resolve_value("ScriptGenName")
    scriptgen = cfg._linker.find(name) if name else None
    if scriptgen is not None and not isinstance(scriptgen, ScriptGen):
        raise RunjobError(f"{cfg.identifier}: {scriptgen.identifier} is not a scriptgen")
    return scriptgen


def requirement_edges(linker, producers) -> list[tuple[ConfiguratorDescription,
                                                       ConfiguratorDescription]]:
    """Derive parent->child edges among ``producers`` from declared
    requirements: B requiring A yields the edge A -> B.

    Each requirement visits only the producers its pattern can name: every
    producer of the type for "addreq Type", at most one for a named pattern.
    """
    by_type: dict[str, list[ConfiguratorDescription]] = {}
    for producer in producers:
        by_type.setdefault(producer.type_name, []).append(producer)
    by_key = {(p.type_name, p.instance_name): p for p in producers}
    edges: dict[tuple[ConfiguratorDescription, ConfiguratorDescription], None] = {}
    for child in producers:
        for requirement in linker.find_by_description(child).requirements:
            pattern = requirement.pattern
            if pattern.instance_name is None:
                candidates = by_type.get(pattern.type_name, ())
            else:
                named = by_key.get((pattern.type_name, pattern.instance_name))
                candidates = () if named is None else (named,)
            for parent in candidates:
                if parent != child and pattern.matches(parent):
                    edges[(parent, child)] = None
    return list(edges)


def _assert_acyclic(nodes, edges) -> None:
    """Kahn's topological sort over the edges, O(V+E)."""
    children: dict[ConfiguratorDescription, list[ConfiguratorDescription]] = {
        node: [] for node in nodes}
    indegree = dict.fromkeys(children, 0)
    for parent, child in edges:
        children[parent].append(child)
        indegree[child] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for child in children[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    if seen != len(indegree):
        raise CyclicWorkflow("requirement graph among job producers has a cycle")


def build_dag(linker, fragments=None) -> str:
    """Render fragments plus their producers' requirement graph as DAG text:
    one JOB line per producer, naming its first fragment's file, and one
    PARENT/CHILD line per edge."""
    if fragments is None:
        fragments = linker.collect_script_objects(kind="fragment")
    producers: dict[ConfiguratorDescription, str] = {}  # to its first fragment's file
    for fragment in fragments:
        producers.setdefault(fragment.producer, fragment.filename)
    edges = requirement_edges(linker, producers)
    _assert_acyclic(producers, edges)
    order = {producer: i for i, producer in enumerate(producers)}
    edges.sort(key=lambda e: (order[e[0]], order[e[1]]))
    lines = [f"JOB {fragment_id(p)} {name}" for p, name in producers.items()]
    lines += [f"PARENT {fragment_id(a)} CHILD {fragment_id(b)}" for a, b in edges]
    return "\n".join(lines) + "\n"


class DagGen(ScriptGen):
    """Wraps shell fragments into a DAG composite instead of a shell script.

    The optional ScriptGenName key narrows wrapping to fragments belonging
    to that scriptgen; unset, every shell fragment in the repository is
    wrapped.
    """

    SCHEMA = ("ScriptGenName",)
    script_target = "dag"

    def compose(self) -> str:
        scriptgen = named_scriptgen(self)
        return build_dag(self._linker, None if scriptgen is None else scriptgen.fragments())

    def composite_filename(self) -> str:
        return DAG_FILENAME
