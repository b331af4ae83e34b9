"""Script generation: delegation, composites, DAG wrapping, shell quoting."""

import subprocess

import pytest

from runjob import execute_script
from runjob.errors import CyclicWorkflow, UnknownType, VisibilityViolation
from runjob.scriptgen import build_dag, compose_shell, shell_quote


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
            assert cfg.delegations["MakeJob"].type_name == "HelloWorldScriptGen"

    def test_registration_applies_to_later_attaches(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "register HelloWorld")
        identifier = linker.attach("HelloWorld", "Late")
        cfg = linker.find(identifier)
        assert cfg.delegations["MakeJob"].type_name == "HelloWorldScriptGen"
        assert any(r.auto for r in cfg.requirements)

    def test_register_is_idempotent(self, linker):
        sg = hello_setup(linker)
        linker.route("HelloWorldScriptGen", "register HelloWorld")
        assert len(linker.registrations) == 1
        cfg = linker.find("HelloWorld named English")
        assert len(cfg.requirements) == 1

    def test_register_unknown_type(self, linker):
        linker.attach("HelloWorldScriptGen")
        with pytest.raises(UnknownType):
            linker.route("HelloWorldScriptGen", "register Nonesuch")


class TestDelegatedMakeJob:
    def test_fragment_payloads(self, linker):
        sg = hello_setup(linker)
        english = sg.delegated_make_job(linker.find("HelloWorld named English"))
        german = sg.delegated_make_job(linker.find("HelloWorld named German"))
        assert english.payload == 'echo "Hello World"'
        assert german.payload == 'echo "Hallo Welt"'
        assert english.producer.instance_name == "English"
        assert german.sequence > english.sequence

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
        path = linker.materialize(composite)
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
