"""Builtin configurator types: HelloWorld, Fork, FileInput, Step."""

import subprocess
from collections import Counter
from pathlib import Path

import pytest

from runjob import execute_script, make_linker
from runjob.builtins import Fork, read_key_values
from runjob.errors import MalformedLine, RunjobError, SpawnFailure
from runjob.scriptgen import ScriptGen


def run_sh(payload):
    return subprocess.run(["/bin/sh", "-c", payload], capture_output=True, text=True)


class TestHelloWorldFragment:
    def make_hello(self, linker, message):
        linker.attach("HelloWorldScriptGen")
        cfg = linker.find(linker.attach("HelloWorld", "X"))
        cfg.apply_macro(["define", "HelloMessage"] + message.split())
        return cfg

    def test_english_payload(self, linker):
        cfg = self.make_hello(linker, "Hello World")
        assert cfg.fragment_payload() == 'echo "Hello World"'

    def test_embedded_quote_is_escaped(self, linker):
        cfg = self.make_hello(linker, 'she said "hi"')
        payload = cfg.fragment_payload()
        finished = run_sh(payload)
        assert finished.stdout == 'she said "hi"\n'

    def test_empty_message_prints_blank_line(self, linker):
        linker.attach("HelloWorldScriptGen")
        cfg = linker.find(linker.attach("HelloWorld", "X"))
        payload = cfg.fragment_payload()
        assert payload == 'echo ""'
        assert run_sh(payload).stdout == "\n"


class TestStep:
    def test_payload_invokes_executable_with_redirections(self, linker):
        cfg = linker.find(linker.attach("Step", "A"))
        cfg.apply_macro("define Executable sort")
        cfg.apply_macro("define Args -r")
        cfg.apply_macro("define InputFile in.txt")
        cfg.apply_macro("define OutputFile out.txt")
        assert cfg.fragment_payload() == '"sort" -r < "in.txt" > "out.txt"'

    def test_unset_pieces_are_omitted(self, linker):
        cfg = linker.find(linker.attach("Step", "A"))
        cfg.apply_macro("define Executable true")
        assert cfg.fragment_payload() == '"true"'

    def test_missing_executable_is_an_error(self, linker):
        cfg = linker.find(linker.attach("Step", "A"))
        with pytest.raises(RunjobError):
            cfg.fragment_payload()

    def test_adjacent_steps_agree_on_filename(self, linker):
        execute_script(linker, """
attach Step named StepA
attach Step named StepB
cfg Step named StepA define OutputFile handoff.txt
cfg Step named StepB addreq Step named StepA
cfg Step named StepB define InputFile ::StepA:OutputFile
""")
        a = linker.find("StepA").resolve_value("OutputFile")
        b = linker.find("StepB").resolve_value("InputFile")
        assert a == b == "handoff.txt"


class TestFileInput:
    def write_values(self, tmp_path, text):
        path = tmp_path / "values.txt"
        path.write_text(text)
        return path

    def test_load_counts_pairs(self, linker, tmp_path):
        path = self.write_values(tmp_path, "English=Hello World\n# note\n\nGerman=Hallo Welt\n")
        cfg = linker.find(linker.attach("FileInput"))
        cfg.apply_macro(f"define SourceFile {path}")
        assert cfg.load() == 2
        assert cfg.store.untriggered_read("English") == "Hello World"

    def test_empty_file_loads_nothing(self, linker, tmp_path):
        path = self.write_values(tmp_path, "")
        cfg = linker.find(linker.attach("FileInput"))
        cfg.apply_macro(f"define SourceFile {path}")
        assert cfg.load() == 0

    def test_malformed_line_reports_lineno(self, linker, tmp_path):
        cfg = linker.find(linker.attach("FileInput"))
        # the fourth to sixth are values a re-sourced dump would read differently
        for text in (b"ok=1\nno-equals-sign\n", b"ok=1\nbad key=1\n", b"ok=1\n\xff=1\n",
                     b"ok=1\nb=hello # not a comment\n", b"ok=1\na=::Step:x\n",
                     b"ok=1\na=C:\\dir\\\nb=2\n",
                     b"ok=1\x0cz=1\nno-equals-sign\n"):  # \x0c does not end a line
            path = tmp_path / "values.txt"
            path.write_bytes(text)
            cfg.apply_macro(f"define SourceFile {path}")
            with pytest.raises(MalformedLine) as err:
                cfg.load()
            assert (err.value.filename, err.value.lineno) == (str(path), 2)

    def test_missing_file(self, linker, tmp_path):
        cfg = linker.find(linker.attach("FileInput"))
        cfg.apply_macro(f"define SourceFile {tmp_path / 'absent.txt'}")
        with pytest.raises(RunjobError, match="cannot read .*absent.txt: No such file"):
            cfg.load()

    def test_reset_reloads_and_serves_values(self, linker, tmp_path):
        path = self.write_values(tmp_path, "English=Hello World\n")
        execute_script(linker, f"""
attach FileInput
cfg FileInput define SourceFile {path}
attach HelloWorld named X
cfg HelloWorld named X addreq FileInput
cfg HelloWorld named X define HelloMessage ::FileInput:English
""")
        linker.run_framework("Reset")
        assert linker.find("HelloWorld named X").resolve_value("HelloMessage") == "Hello World"

    def test_source_file_by_reference_is_loaded_on_reset(self, linker, tmp_path):
        path = self.write_values(tmp_path, "English=Hello World\n")
        execute_script(linker, f"""
attach HelloWorldScriptGen
cfg HelloWorldScriptGen define Values {path}
attach FileInput
cfg FileInput addreq HelloWorldScriptGen
cfg FileInput define SourceFile ::HelloWorldScriptGen:Values
""")
        linker.run_framework("Reset")
        assert linker.find("FileInput").resolve_value("English") == "Hello World"

    def test_value_keeps_everything_after_first_equals(self, tmp_path):
        path = self.write_values(tmp_path, "Args=a=b=c\n")
        assert read_key_values(path) == [("Args", "a=b=c")]

    def test_dump_of_loaded_values_is_a_fixed_point(self, linker, tmp_path):
        path = self.write_values(tmp_path, "Greeting = Hello   big\tWorld \nEmpty=\nArgs=-n  2\n")
        execute_script(linker, f"attach FileInput\ncfg FileInput define SourceFile {path}\n")
        linker.run_framework("Reset")
        dump = linker.dump_state()
        assert "cfg FileInput define Greeting Hello big World\n" in dump
        replay = make_linker(output_dir=tmp_path / "replay")
        execute_script(replay, dump)
        assert replay.dump_state() == dump


def hello_world_linker(linker):
    execute_script(linker, """
attach HelloWorldScriptGen
cfg HelloWorldScriptGen define English Hello World
attach HelloWorld named English
cfg HelloWorldScriptGen register HelloWorld
cfg HelloWorld named English define HelloMessage ::HelloWorldScriptGen:English
attach Fork
cfg Fork define ScriptGenName HelloWorldScriptGen
cfg Fork oncall RunJob do define ExecutableList ::construct
""")
    return linker


class TestFork:
    def test_foreground_runs_composites_and_captures_output(self, linker):
        hello_world_linker(linker)
        linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
        results = linker.find("Fork").results
        assert [r.returncode for r in results] == [0]
        assert "".join(r.report() for r in results) == "Hello World\n"

    def test_script_gen_name_by_reference_is_resolved(self, linker):
        linker.run_mode = "dry-run"
        execute_script(linker, """
attach HelloWorldScriptGen
cfg HelloWorldScriptGen define Gen HelloWorldScriptGen
attach HelloWorld named English
cfg HelloWorldScriptGen register HelloWorld
attach Fork
cfg Fork addreq HelloWorldScriptGen
cfg Fork define ScriptGenName ::HelloWorldScriptGen:Gen
cfg Fork oncall RunJob do define ExecutableList ::construct
""")
        linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
        results = linker.find("Fork").results
        assert [Path(r.command).name for r in results] == ["composite_HelloWorldScriptGen.sh"]

    def test_dry_run_spawns_nothing(self, linker):
        linker.run_mode = "dry-run"
        hello_world_linker(linker)
        linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
        results = linker.find("Fork").results
        assert len(results) == 1
        assert all(r.process is None and r.returncode is None for r in results)
        assert [r.report() for r in results] == [f"dry-run: {results[0].command}\n"]

    def test_background_reports_pids(self, linker):
        linker.run_mode = "background"
        hello_world_linker(linker)
        linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
        results = linker.find("Fork").results
        assert len(results) == 1
        assert results[0].process.pid is not None
        assert results[0].report() == (
            f"started {results[0].command} (pid {results[0].process.pid})\n")
        results[0].process.wait(timeout=10)

    def test_background_jobs_are_kept_until_finished(self, linker):
        linker.run_mode = "background"
        hello_world_linker(linker)
        fork = linker.find("Fork")
        linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
        first = fork.results[0].process
        assert fork.jobs == [first]
        first.wait(timeout=10)
        linker.run_framework("RunJob")  # the next run drops the finished job
        second = fork.results[0].process
        assert fork.jobs == [second]
        second.wait(timeout=10)

    def test_background_jobs_started_before_a_spawn_failure_are_kept(self, linker, tmp_path):
        linker.run_mode = "background"
        job = tmp_path / "ok.sh"
        job.write_text("#!/bin/sh\nexit 0\n")
        job.chmod(0o755)
        fork = linker.find(linker.attach("Fork"))
        fork.apply_macro(f"define ExecutableList {job} {tmp_path / 'missing.sh'}")
        with pytest.raises(SpawnFailure, match="missing.sh"):
            fork.run_jobs("background")
        assert len(fork.jobs) == 1
        fork.jobs[0].wait(timeout=10)

    def test_scriptgen_subclass_names_its_own_composite(self, linker):
        class SubmitGen(ScriptGen):
            script_target = "submit"

            def compose(self):
                return "".join(f"queue {obj.filename}\n" for obj in self.fragments())

            def composite_filename(self):
                return f"{self.description.slug}.sub"

        linker.register_type("SubmitGen", SubmitGen)
        linker.run_mode = "dry-run"
        execute_script(linker, """
attach SubmitGen
attach Step named A
cfg SubmitGen register Step
cfg Step named A define Executable true
attach Fork
cfg Fork define ScriptGenName SubmitGen
cfg Fork oncall RunJob do define ExecutableList ::construct
""")
        linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
        results = linker.find("Fork").results
        assert [Path(r.command).name for r in results] == ["SubmitGen.sub"]
        assert Path(results[0].command).read_text() == "queue job_Step_A.sh\n"

    def test_unclosed_quote_in_executable_list_is_a_runjob_error(self, linker):
        fork = linker.find(linker.attach("Fork"))
        fork.apply_macro("define ExecutableList it's.sh")
        with pytest.raises(RunjobError, match="ExecutableList"):
            fork.run_jobs("dry-run")

    def test_empty_executable_list_is_success(self, linker):
        fork = linker.find(linker.attach("Fork"))
        assert fork.run_jobs("foreground") == []

    def test_spawn_failures_aggregate(self, linker, tmp_path):
        fork = linker.find(linker.attach("Fork"))
        missing = tmp_path / "not-a-script"
        fork.apply_macro(f"define ExecutableList {missing} {missing}2")
        with pytest.raises(SpawnFailure) as err:
            fork.run_jobs("foreground")
        assert len(err.value.failures) == 2

    def test_children_get_job_id_environment(self, linker, tmp_path):
        script = tmp_path / "probe.sh"
        out = tmp_path / "probe.out"
        script.write_text(f'#!/bin/sh\necho "$RUNJOB_JOB_ID" > {out}\n')
        script.chmod(0o755)
        fork = linker.find(linker.attach("Fork"))
        fork.apply_macro(f"define ExecutableList {script}")
        fork.run_jobs("foreground")
        assert out.read_text().strip() == "probe"

    def test_unknown_mode_rejected(self, linker):
        fork = linker.find(linker.attach("Fork"))
        with pytest.raises(RunjobError):
            fork.run_jobs("teleport")

    def test_construct_rebuilds_list_each_run(self, linker):
        hello_world_linker(linker)
        linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
        first = linker.find("Fork").store.untriggered_read("ExecutableList")
        linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
        second = linker.find("Fork").store.untriggered_read("ExecutableList")
        assert first == second != ""

    def test_resolving_the_dump_leaves_the_written_composite_alone(self, linker,
                                                                   helloworld_text):
        linker.run_mode = "dry-run"
        execute_script(linker, helloworld_text)
        linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
        composite = linker.output_dir / "composite_HelloWorldScriptGen.sh"
        before = composite.stat()
        assert str(composite) in linker.dump_state(resolve=True)
        after = composite.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_executable_list_names_the_composites_and_writes_none(self, linker,
                                                                 helloworld_text):
        execute_script(linker, helloworld_text + "cfg Fork define ExecutableList ::construct\n")
        linker.run_framework("Reset", "MakeJob", "MakeScript")
        composite = linker.output_dir / "composite_HelloWorldScriptGen.sh"
        assert linker.find("Fork").resolve_value("ExecutableList") == str(composite)
        assert not composite.exists()


class TestTableOneMultisets:
    """Outcome counts per framework message for the five-configurator setup."""

    def test_outcome_multisets(self, linker, helloworld_text):
        execute_script(linker, helloworld_text)
        expected = {
            "Reset": {"Handled": 5},
            "MakeJob": {"Delegated to HelloWorldScriptGen": 3, "Skipped": 2},
            "MakeScript": {"Handled": 1, "Skipped": 4},
            "RunJob": {"Handled": 1, "Skipped": 4},
        }
        for message, counts in expected.items():
            records = linker.run_framework(message)
            assert Counter(str(r.outcome) for r in records) == counts
