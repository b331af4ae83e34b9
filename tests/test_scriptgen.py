"""Script generation: delegation, composites, DAG wrapping, shell quoting."""

import random
import subprocess

import pytest

from runjob import execute_script, make_linker
from runjob.builtins import Step
from runjob.configurator import ConfiguratorDescription, DependencyPattern
from runjob.errors import CyclicWorkflow, DuplicateIdentifier, UnknownType, VisibilityViolation
from runjob.scriptgen import ScriptObject, build_dag, compose_shell, fragment_id, shell_quote


def hello_setup(linker, names=("English", "French", "German")):
    linker.attach("HelloWorldScriptGen")
    linker.route("HelloWorldScriptGen", "define English Hello World")
    linker.route("HelloWorldScriptGen", "define French Salut le Monde")
    linker.route("HelloWorldScriptGen", "define German Hallo Welt")
    for name in names:
        linker.attach("HelloWorld", name)
    linker.route("HelloWorldScriptGen", "register HelloWorld")
    for name in names:
        linker.route(f"HelloWorld named {name}",
                     f"define HelloMessage ::HelloWorldScriptGen:{name}")
    return linker.find("HelloWorldScriptGen")


class TestRegisterDelegator:
    def test_register_wires_all_instances(self, linker):
        hello_setup(linker)
        for name in ("English", "French", "German"):
            cfg = linker.find(f"HelloWorld named {name}")
            assert cfg.delegate.type_name == "HelloWorldScriptGen"

    def test_registration_applies_to_later_attaches(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "register HelloWorld")
        identifier = linker.attach("HelloWorld", "Late")
        cfg = linker.find(identifier)
        assert cfg.delegate.type_name == "HelloWorldScriptGen"
        assert any(r.auto for r in cfg.requirements)

    def test_register_is_idempotent(self, linker):
        sg = hello_setup(linker)
        linker.route("HelloWorldScriptGen", "register HelloWorld")
        registers = [line for line in linker.dump_state().splitlines() if " register " in line]
        assert registers == ["cfg HelloWorldScriptGen register HelloWorld"]
        cfg = linker.find("HelloWorld named English")
        assert len(cfg.requirements) == 1

    def test_register_unknown_type(self, linker):
        linker.attach("HelloWorldScriptGen")
        with pytest.raises(UnknownType):
            linker.route("HelloWorldScriptGen", "register Nonesuch")


class TestTwoScriptGensForOneType:
    SCRIPT = """
attach ScriptGen named One
attach ScriptGen named Two
attach Step named A
cfg ScriptGen named One register Step
cfg ScriptGen named Two register Step
{repeat}
attach Step named B
cfg Step named A define Executable true
cfg Step named B define Executable false
"""
    # (line after the two registrations, scriptgen that registered last)
    SCRIPTS = [("", "Two"), ("cfg ScriptGen named One register Step", "One")]

    def cases(self):
        """Per script: a linker that ran it, the winning and the losing scriptgen."""
        for repeat, winner in self.SCRIPTS:
            linker = make_linker()
            execute_script(linker, self.SCRIPT.format(repeat=repeat))
            loser = "One" if winner == "Two" else "Two"
            yield linker, linker.find(winner), linker.find(loser)

    def test_last_registration_wins_the_delegate(self):
        for linker, winner, _ in self.cases():
            for name in ("A", "B"):  # attached before and after the registrations
                assert linker.find(name).delegate == winner.description

    def test_each_delegator_requires_both_scriptgens(self):
        for linker, _, _ in self.cases():
            for name in ("A", "B"):
                auto = [r.pattern for r in linker.find(name).requirements if r.auto]
                assert sorted(auto, key=DependencyPattern.render) == [
                    DependencyPattern("ScriptGen", "One"),
                    DependencyPattern("ScriptGen", "Two")]

    def test_each_fragment_belongs_to_exactly_one_scriptgen(self):
        for linker, winner, loser in self.cases():
            linker.run_framework("Reset", "MakeJob")
            fragments = linker.collect_script_objects(kind="fragment")
            assert len(fragments) == 2
            for fragment in fragments:
                owners = [sg for sg in (winner, loser) if fragment in sg.fragments()]
                assert owners == [winner]

    def test_dump_source_dump_is_a_fixed_point(self):
        for linker, winner, _ in self.cases():
            dump = linker.dump_state()
            assert dump.count(" register Step") == 2
            replay = make_linker()
            execute_script(replay, dump)
            assert replay.dump_state() == dump
            for name in ("A", "B"):
                assert replay.find(name).delegate == winner.description


class TestDelegatedMakeJob:
    def test_fragment_payloads(self, linker):
        sg = hello_setup(linker)
        english = sg.delegated_make_job(linker.find("HelloWorld named English"))
        german = sg.delegated_make_job(linker.find("HelloWorld named German"))
        assert english.payload == 'echo "Hello World"'
        assert german.payload == 'echo "Hallo Welt"'
        assert english.producer.instance_name == "English"
        assert list(linker.repository) == [english.filename, german.filename]

    def test_unresolvable_message_adds_nothing(self, linker):
        sg = hello_setup(linker)
        lonely = linker.find(linker.attach("HelloWorld", "Lonely"))
        lonely.apply_macro("define HelloMessage ::HelloWorldScriptGen:Swahili")
        # registration happened before Lonely attached, so delegation exists
        before = len(linker.repository)
        with pytest.raises(Exception):
            sg.delegated_make_job(lonely)
        assert len(linker.repository) == before

    def test_visibility_error_propagates(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "define English hi")
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("define HelloMessage ::HelloWorldScriptGen:English")
        sg = linker.find("HelloWorldScriptGen")
        with pytest.raises(VisibilityViolation):
            sg.delegated_make_job(cfg)


class TestMakeComposite:
    def test_three_fragments_in_attach_order(self, linker):
        sg = hello_setup(linker)
        linker.run_framework("MakeJob")
        composite = sg.make_composite()
        expected = ('#!/bin/sh\n'
                    '(\necho "Hello World"\n)\n'
                    '(\necho "Salut le Monde"\n)\n'
                    '(\necho "Hallo Welt"\n)\n'
                    'exit 0\n')
        assert composite.payload == expected
        assert composite.kind == "composite"

    def test_zero_fragments_yield_runnable_empty_script(self, linker, tmp_path):
        linker.attach("HelloWorldScriptGen")
        sg = linker.find("HelloWorldScriptGen")
        composite = sg.make_composite()
        path = linker.materialize(composite.filename, composite.payload)
        finished = subprocess.run([str(path)], capture_output=True, text=True)
        assert finished.returncode == 0
        assert finished.stdout == ""

    def test_fragment_order_follows_sequence_not_name(self, linker):
        sg = hello_setup(linker)
        # emit out of attach order through direct framework calls
        for name in ("German", "English", "French"):
            linker.find(f"HelloWorld named {name}").handle_framework("MakeJob")
        composite = sg.make_composite()
        first = composite.payload.find("Hallo Welt")
        second = composite.payload.find("Hello World")
        third = composite.payload.find("Salut le Monde")
        assert 0 < first < second < third

    def test_composite_payload_equals_fragment_concatenation(self, linker):
        sg = hello_setup(linker)
        linker.run_framework("MakeJob")
        fragments = sg.fragments()
        assert sg.make_composite().payload == compose_shell(fragments)

    def test_remake_replaces_previous_composite(self, linker):
        sg = hello_setup(linker)
        linker.run_framework("MakeJob")
        sg.make_composite()
        sg.make_composite()
        composites = linker.collect_script_objects(kind="composite")
        assert len(composites) == 1

    def test_remake_never_removes_another_producers_object(self, linker):
        sg = hello_setup(linker)
        other = ConfiguratorDescription("HelloWorld", "English")
        foreign = ScriptObject("composite_HelloWorldScriptGen.sh", "shell", "x", other,
                               kind="composite")
        linker.add_script_object(foreign)
        with pytest.raises(DuplicateIdentifier):
            sg.make_composite()
        assert linker.collect_script_objects(kind="composite") == [foreign]


def chain_setup(linker):
    execute_script(linker, """
attach ScriptGen
attach Step named StepA
attach Step named StepB
attach Step named StepC
cfg ScriptGen register Step
cfg Step named StepA define Executable cat
cfg Step named StepA define OutputFile a.txt
cfg Step named StepB define Executable cat
cfg Step named StepB addreq Step named StepA
cfg Step named StepB define InputFile ::StepA:OutputFile
cfg Step named StepB define OutputFile b.txt
cfg Step named StepC define Executable cat
cfg Step named StepC addreq Step named StepB
cfg Step named StepC define InputFile ::StepB:OutputFile
cfg Step named StepC define OutputFile c.txt
""")


class TestMakeDag:
    def test_chain_produces_two_edges(self, linker):
        chain_setup(linker)
        linker.run_framework("MakeJob")
        text = build_dag(linker)
        assert "PARENT job_Step_StepA CHILD job_Step_StepB" in text
        assert "PARENT job_Step_StepB CHILD job_Step_StepC" in text
        assert text.count("PARENT") == 2
        assert text.count("JOB ") == 3

    def test_independent_fragments_have_no_edges(self, linker):
        hello_setup(linker)
        linker.run_framework("MakeJob")
        text = build_dag(linker)
        assert text.count("JOB ") == 3
        assert "PARENT" not in text

    def test_diamond_has_four_edges(self, linker):
        execute_script(linker, """
attach ScriptGen
attach Step named A
attach Step named B
attach Step named C
attach Step named D
cfg ScriptGen register Step
cfg Step named A define Executable true
cfg Step named B define Executable true
cfg Step named C define Executable true
cfg Step named D define Executable true
cfg Step named B addreq Step named A
cfg Step named C addreq Step named A
cfg Step named D addreq Step named B
cfg Step named D addreq Step named C
""")
        linker.run_framework("MakeJob")
        text = build_dag(linker)
        assert text.count("JOB ") == 4
        # hand-enumerated edges of the diamond
        for parent, child in (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")):
            assert f"PARENT job_Step_{parent} CHILD job_Step_{child}" in text
        assert text.count("PARENT") == 4

    def test_cycle_detected(self, lenient_linker):
        linker = lenient_linker
        execute_script(linker, """
attach ScriptGen
attach Step named A
attach Step named B
cfg ScriptGen register Step
cfg Step named A define Executable true
cfg Step named B define Executable true
cfg Step named A addreq Step named B
cfg Step named B addreq Step named A
""")
        linker.run_framework("MakeJob")
        with pytest.raises(CyclicWorkflow):
            build_dag(linker)

    def test_dag_parses_back_to_requirement_graph(self, linker):
        chain_setup(linker)
        linker.run_framework("MakeJob")
        jobs, edges = parse_dag(build_dag(linker))
        assert jobs == {"job_Step_StepA", "job_Step_StepB", "job_Step_StepC"}
        assert edges == {("job_Step_StepA", "job_Step_StepB"),
                         ("job_Step_StepB", "job_Step_StepC")}

    def test_daggen_configurator_emits_dag_object(self, linker):
        chain_setup(linker)
        linker.attach("DagGen")
        linker.run_framework("MakeJob", "MakeScript")
        dags = linker.collect_script_objects(target="dag", kind="composite")
        assert len(dags) == 1
        assert dags[0].payload.count("JOB ") == 3

    def test_daggen_script_gen_name_by_reference_is_resolved(self, linker):
        chain_setup(linker)
        hello_setup(linker, names=("English",))
        execute_script(linker, """
attach DagGen
cfg HelloWorldScriptGen define Gen HelloWorldScriptGen
cfg DagGen addreq HelloWorldScriptGen
cfg DagGen define ScriptGenName ::HelloWorldScriptGen:Gen
""")
        linker.run_framework("MakeJob", "MakeScript")
        [dag] = linker.collect_script_objects(target="dag", kind="composite")
        assert dag.payload == "JOB job_HelloWorld_English job_HelloWorld_English.sh\n"


class TestSlugCollision:
    """"Step named A_B" and "Step_A named B" both have the slug Step_A_B."""

    SCRIPT = """
attach ScriptGen
cfg ScriptGen register Step
cfg ScriptGen register Step_A
attach Step named A_B
attach Step_A named B
cfg Step named A_B define Executable true
cfg Step_A named B define Executable false
"""

    def test_second_producer_of_one_job_file_is_an_error(self, tmp_path):
        linker = make_linker(types={"Step_A": Step}, output_dir=tmp_path)
        execute_script(linker, self.SCRIPT)
        with pytest.raises(DuplicateIdentifier, match="'job_Step_A_B.sh'") as err:
            linker.run_framework("Reset", "MakeJob", "MakeScript")
        assert err.value.dispatch_context == ("MakeJob", "Step_A named B")
        [fragment] = linker.collect_script_objects(kind="fragment")
        assert fragment.producer == ConfiguratorDescription("Step", "A_B")


def parse_dag(text):
    jobs = set()
    edges = set()
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "JOB":
            jobs.add(parts[1])
        elif parts[0] == "PARENT":
            child_at = parts.index("CHILD")
            for parent in parts[1:child_at]:
                for child in parts[child_at + 1:]:
                    edges.add((parent, child))
    return jobs, edges


# The quadratic graph code build_dag used before it indexed the producers,
# kept as the reference the indexed version must agree with.
def reference_requirement_edges(linker, producers):
    edges = []
    for child in producers:
        child_cfg = linker.find_by_description(child)
        for requirement in child_cfg.requirements:
            for parent in producers:
                if parent == child:
                    continue
                if requirement.pattern.matches(parent):
                    edge = (parent, child)
                    if edge not in edges:
                        edges.append(edge)
    return edges


def reference_assert_acyclic(nodes, edges):
    indegree = {node: 0 for node in nodes}
    for _, child in edges:
        indegree[child] += 1
    ready = [node for node in nodes if indegree[node] == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for parent, child in edges:
            if parent == node:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
    if seen != len(nodes):
        raise CyclicWorkflow("requirement graph among job producers has a cycle")


def reference_build_dag(linker, fragments):
    producers = []
    for fragment in fragments:
        if fragment.producer not in producers:
            producers.append(fragment.producer)
    edges = reference_requirement_edges(linker, producers)
    reference_assert_acyclic(producers, edges)
    order = {producer: i for i, producer in enumerate(producers)}
    edges.sort(key=lambda e: (order[e[0]], order[e[1]]))
    lines = [f"JOB {fragment_id(p)} {fragment_id(p)}.sh" for p in producers]
    lines += [f"PARENT {fragment_id(a)} CHILD {fragment_id(b)}" for a, b in edges]
    return "\n".join(lines) + "\n"


def random_requirement_graph(rng, linker):
    """Attach Steps and HelloWorlds with random requirements on a lenient
    linker; return shell fragments, some repeated, for a random subset.

    Half the graphs only point requirements at lower-ranked configurators
    (plus type-wide ones on the last), so they are acyclic; the rest are
    unconstrained and mostly cyclic.  Every graph may carry self and
    overlapping requirements and patterns that match no producer.
    """
    linker.attach("ScriptGen")
    linker.route("ScriptGen", "register Step")  # auto requirement on a non-producer
    cfgs = [linker.find(linker.attach(rng.choice(("Step", "Step", "HelloWorld")), f"n{i}"))
            for i in range(rng.randint(1, 12))]
    acyclic = rng.random() < 0.5
    for rank, cfg in enumerate(cfgs):
        own = cfg.description
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.15:
                pattern = DependencyPattern(own.type_name, own.instance_name)  # self
            elif roll < 0.3:
                pattern = rng.choice((DependencyPattern("ScriptGen"),
                                      DependencyPattern("FileInput"),
                                      DependencyPattern("Step", "ghost")))
            elif roll < 0.45 and (not acyclic or rank == len(cfgs) - 1):
                pattern = DependencyPattern(rng.choice(("Step", "HelloWorld")))
            elif not acyclic or rank:
                target = rng.choice(cfgs if not acyclic else cfgs[:rank]).description
                pattern = DependencyPattern(target.type_name, target.instance_name)
            else:
                continue
            cfg.add_requirement(pattern)
    producers = [cfg.description for cfg in cfgs if rng.random() < 0.8]
    fragments = [ScriptObject(f"{fragment_id(p)}.sh", "shell", "true", p)
                 for p in producers for _ in range(rng.randint(1, 2))]
    rng.shuffle(fragments)
    return fragments


def test_build_dag_matches_quadratic_reference(tmp_path):
    outcomes = {"acyclic": 0, "cyclic": 0, "edges": 0}
    for seed in range(200):
        rng = random.Random(seed)
        linker = make_linker(strict=False, output_dir=tmp_path)
        fragments = random_requirement_graph(rng, linker)
        try:
            expected = reference_build_dag(linker, fragments)
        except CyclicWorkflow:
            with pytest.raises(CyclicWorkflow):
                build_dag(linker, fragments)
            outcomes["cyclic"] += 1
        else:
            assert build_dag(linker, fragments) == expected, f"seed {seed}"
            outcomes["acyclic"] += 1
            outcomes["edges"] += expected.count("PARENT")
    assert outcomes["acyclic"] >= 40 and outcomes["cyclic"] >= 40
    assert outcomes["edges"] >= 200


class TestLinearCounts:
    """Counts of DependencyPattern.matches calls, not timings, so a quadratic
    scan that comes back fails on any machine."""

    @staticmethod
    def count_matches(monkeypatch):
        calls = [0]
        original = DependencyPattern.matches

        def counted(self, description):
            calls[0] += 1
            return original(self, description)

        monkeypatch.setattr(DependencyPattern, "matches", counted)
        return calls

    @staticmethod
    def strict_chain(tmp_path, steps):
        linker = make_linker(output_dir=tmp_path)
        linker.attach("ScriptGen")
        linker.route("ScriptGen", "register Step")
        for i in range(steps):
            linker.attach("Step", f"s{i}")
            if i:
                linker.route(f"Step named s{i}", f"addreq Step named s{i - 1}")
        return linker

    def test_build_dag_calls_grow_linearly(self, tmp_path, monkeypatch):
        calls = self.count_matches(monkeypatch)
        per_size = {}
        for steps in (100, 1000):
            linker = self.strict_chain(tmp_path, steps)
            fragments = [ScriptObject(f"{fragment_id(cfg.description)}.sh", "shell", "true",
                                      cfg.description)
                         for cfg in linker.configurators[1:]]
            calls[0] = 0
            text = build_dag(linker, fragments)
            assert text.count("PARENT") == steps - 1
            per_size[steps] = calls[0]
        assert 0 < per_size[1000] <= 11 * per_size[100]

    @staticmethod
    def fan_in_plan(tmp_path, monkeypatch, steps):
        """A merge step that requires and references ``steps`` steps: the
        script runs ``Reset MakeJob`` twice, then the state is dumped
        resolved.  Returns the matches calls and the repository entries that
        Reset visited."""
        lines = ["attach ScriptGen", "cfg ScriptGen register Step", "attach Step named M",
                 "cfg Step named M define Executable merge"]
        for i in range(steps):
            lines += [f"attach Step named s{i}", f"cfg Step named s{i} define Executable cat",
                      f"cfg Step named s{i} define OutputFile s{i}.out",
                      f"cfg Step named M addreq Step named s{i}",
                      f"cfg Step named M define In{i} ::s{i}:OutputFile"]
        lines += ["framework run Reset MakeJob"] * 2
        linker = make_linker(output_dir=tmp_path)
        linker.repository = repository = VisitCountingDict()
        original = type(linker).remove_script_objects

        def counted_reset(self, producer):
            repository.counting = True
            try:
                return original(self, producer)
            finally:
                repository.counting = False

        monkeypatch.setattr(type(linker), "remove_script_objects", counted_reset)
        calls = TestLinearCounts.count_matches(monkeypatch)
        execute_script(linker, "\n".join(lines) + "\n")
        dump = linker.dump_state(resolve=True)
        assert dump.count(".out\n") == 2 * steps  # each OutputFile, and each In resolved
        assert len(linker.repository) == steps + 1
        return calls[0], repository.visits

    @pytest.mark.parametrize("count", [0, 1], ids=["matches calls", "entries Reset visited"])
    def test_fan_in_plan_grows_linearly(self, tmp_path, monkeypatch, count):
        at_n = self.fan_in_plan(tmp_path / "n", monkeypatch, 200)[count]
        at_2n = self.fan_in_plan(tmp_path / "2n", monkeypatch, 400)[count]
        assert 0 < at_2n <= 2.2 * at_n, (at_n, at_2n)

    def test_strict_attach_and_addreq_scan_no_configurators(self, tmp_path, monkeypatch):
        calls = self.count_matches(monkeypatch)
        linker = self.strict_chain(tmp_path, 1000)
        requirements = sum(len(cfg.requirements) for cfg in linker.configurators)
        assert requirements == 1999
        assert calls[0] <= requirements


class VisitCountingDict(dict):
    """A dict that, while ``counting``, counts the entries each access visits."""

    counting = False
    visits = 0

    def _visit(self, entries=1):
        if self.counting:
            self.visits += entries

    def __getitem__(self, key):
        self._visit()
        return super().__getitem__(key)

    def __delitem__(self, key):
        self._visit()
        super().__delitem__(key)

    def __contains__(self, key):
        self._visit()
        return super().__contains__(key)

    def get(self, key, default=None):
        self._visit()
        return super().get(key, default)

    def pop(self, key, *default):
        self._visit()
        return super().pop(key, *default)

    def __iter__(self):
        self._visit(len(self))
        return super().__iter__()

    def keys(self):
        self._visit(len(self))
        return super().keys()

    def values(self):
        self._visit(len(self))
        return super().values()

    def items(self):
        self._visit(len(self))
        return super().items()


class TestShellQuote:
    @pytest.mark.parametrize("message", [
        "Hello World",
        'say "hi" twice',
        "dollar $HOME stays literal",
        "back\\slash",
        "`backticks`",
        "",
    ])
    def test_echo_round_trips_through_sh(self, message):
        script = f"echo {shell_quote(message)}"
        finished = subprocess.run(["/bin/sh", "-c", script],
                                  capture_output=True, text=True)
        assert finished.returncode == 0
        assert finished.stdout == message + "\n"
