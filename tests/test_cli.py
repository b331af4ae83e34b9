"""CLI behavior: batch runs, check mode, targets, dumps, REPL, exit codes."""

import contextlib
import gc
import io
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from runjob import cli, make_linker
from runjob.cli import LENIENT_ENV_VAR, main, repl


def run_cli(*args):
    return main(list(args))


def run_under_ascii_locale(script, out, *flags, **env):
    """``python -m runjob run`` in a child interpreter whose locale encoding
    is ASCII (the C locale, not coerced, UTF-8 mode off)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               **env)
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "runjob", "run", str(script),
         "--out", str(out), *flags],
        capture_output=True, env=env, cwd=script.parent)


class TestRunCommand:
    def test_hello_world_produces_runnable_composite(self, fixtures, tmp_path, capsys):
        out = tmp_path / "build"
        assert run_cli("run", str(fixtures / "helloworld.mac"), "--out", str(out)) == 0
        composite = out / "composite_HelloWorldScriptGen.sh"
        assert composite.exists()
        assert os.access(composite, os.X_OK)
        finished = subprocess.run([str(composite)], capture_output=True, text=True)
        assert finished.stdout == "Hello World\nSalut le Monde\nHallo Welt\n"
        assert finished.returncode == 0
        # Fork ran the composite in the foreground; its output is echoed
        assert "Hello World" in capsys.readouterr().out

    def test_check_mode_creates_nothing_and_exits_zero(self, fixtures, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", str(fixtures / "helloworld.mac"), "--check") == 0
        assert list(tmp_path.iterdir()) == []

    def test_default_output_dir_is_cwd(self, fixtures, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", str(fixtures / "helloworld.mac")) == 0
        assert (tmp_path / "composite_HelloWorldScriptGen.sh").exists()
        assert "Hallo Welt" in capsys.readouterr().out  # Fork still ran the jobs

    def test_dag_target_writes_workflow_and_job_files(self, fixtures, tmp_path):
        out = tmp_path / "build"
        code = run_cli("run", str(fixtures / "chain.mac"), "--target", "dag",
                       "--out", str(out))
        assert code == 0
        dag = (out / "workflow.dag").read_text()
        assert dag.count("PARENT") == 2
        assert dag.count("JOB ") == 3
        for stem in ("job_Step_StepA", "job_Step_StepB", "job_Step_StepC"):
            assert (out / f"{stem}.sh").exists()

    def test_dag_fallback_matches_daggen_output(self, fixtures, tmp_path):
        with_daggen = tmp_path / "with_daggen.mac"
        with_daggen.write_text((fixtures / "chain.mac").read_text() + "attach DagGen\n")
        dags = []
        for name, script in (("plain", fixtures / "chain.mac"), ("daggen", with_daggen)):
            out = tmp_path / name
            assert run_cli("run", str(script), "--target", "dag", "--out", str(out)) == 0
            dags.append((out / "workflow.dag").read_bytes())
        assert dags[0] == dags[1]

    def test_daggen_registered_for_steps_gets_one_fragment_per_step(self, tmp_path):
        script = tmp_path / "dag_register.mac"
        script.write_text("attach DagGen\n"
                          "attach Step named A\n"
                          "attach Step named B\n"
                          "cfg DagGen register Step\n"
                          "cfg Step named A define Executable true\n"
                          "cfg Step named B define Executable true\n")
        out = tmp_path / "out"
        assert run_cli("run", str(script), "--target", "dag", "--out", str(out)) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "job_Step_A.sh", "job_Step_B.sh", "workflow.dag"]
        assert (out / "workflow.dag").read_text() == (
            "JOB job_Step_A job_Step_A.sh\nJOB job_Step_B job_Step_B.sh\n")

    def test_out_dir_with_a_space_runs_the_composite(self, fixtures, tmp_path, capsys):
        out = tmp_path / "o 5"
        script = str(fixtures / "helloworld.mac")
        assert run_cli("run", script, "--out", str(out)) == 0
        assert capsys.readouterr().out.endswith("Hello World\nSalut le Monde\nHallo Welt\n")
        assert run_cli("run", script, "--out", str(out), "--run-mode", "dry-run") == 0
        listed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("dry-run: ")]
        assert listed == [f"dry-run: {out / 'composite_HelloWorldScriptGen.sh'}"]

    def test_rerun_job_generation_emits_each_job_once(self, fixtures, tmp_path, capsys):
        script = str(fixtures / "rerun.mac")
        out = tmp_path / "shell"
        assert run_cli("run", script, "--no-framework", "--out", str(out)) == 0
        composite = (out / "composite_ScriptGen.sh").read_text()
        assert (composite.count('"echo" A'), composite.count('"echo" B')) == (1, 1)
        capsys.readouterr()
        out = tmp_path / "dag"
        assert run_cli("run", script, "--no-framework", "--target", "dag",
                       "--out", str(out)) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in ("job_Step_A.sh", "job_Step_B.sh", "workflow.dag")]

    def test_non_utf8_script_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mac"
        main_script = tmp_path / "main.mac"
        main_script.write_text("attach ScriptGen\nsource bad.mac\n")
        for line_break in (b"\n", b"\r\n", b"\r"):
            bad.write_bytes(b"attach Step" + line_break + b"\xff\xfe\n")
            for script in (bad, main_script):
                for flags in ((), ("--check",)):
                    assert run_cli("run", str(script), "--out", str(tmp_path / "out"), *flags) == 1
                    assert capsys.readouterr().err == f"error: {bad}:2: invalid UTF-8 byte 0xff\n"

    def test_two_daggens_cannot_share_the_dag_file(self, tmp_path, capsys):
        script = tmp_path / "two_dags.mac"
        script.write_text("attach ScriptGen\n"
                          "attach Step named A\n"
                          "cfg ScriptGen register Step\n"
                          "cfg Step named A define Executable true\n"
                          "attach DagGen named D1\n"
                          "attach DagGen named D2\n"
                          "attach Fork\n"
                          "cfg Fork define ScriptGenName D1\n"
                          "cfg Fork oncall RunJob do define ExecutableList ::construct\n")
        assert run_cli("run", str(script), "--out", str(tmp_path / "out"),
                       "--run-mode", "dry-run") == 1
        err = capsys.readouterr().err
        assert "both produce 'workflow.dag'" in err
        assert err.endswith("(dispatching MakeScript to DagGen named D2)\n")

    def test_fork_runs_only_shell_composites(self, tmp_path, capsys):
        script = tmp_path / "dag_fork.mac"
        script.write_text("attach DagGen named D\n"
                          "attach Step named A\n"
                          "cfg D register Step\n"
                          "cfg A define Executable true\n"
                          "attach Fork\n"
                          "cfg Fork define ScriptGenName D\n"
                          "cfg Fork oncall RunJob do define ExecutableList ::construct\n")
        for mode in ("foreground", "background"):  # checked before anything is written
            assert run_cli("run", str(script), "--out", str(tmp_path / mode),
                           "--run-mode", mode) == 1
            assert capsys.readouterr().err == ("error: DagGen named D writes dag, not shell "
                                               "(dispatching RunJob to Fork)\n")
            assert not (tmp_path / mode).exists()
        # a dry run still lists and writes the DAG
        assert run_cli("run", str(script), "--out", str(tmp_path / "dry"),
                       "--run-mode", "dry-run") == 0
        assert "workflow.dag" in capsys.readouterr().out
        assert (tmp_path / "dry" / "workflow.dag").exists()

    @pytest.mark.parametrize("text, error", [
        ("attach Fork\ncfg Fork oncall RunJob do frobnicate\n",
         "Fork: unknown macro 'frobnicate'"),
        ("attach ScriptGen\ncfg ScriptGen oncall MakeScript do register\n",
         "usage: register <configurator-type>"),
    ], ids=["unknown verb", "subclass verb"])
    def test_stored_oncall_is_checked_at_its_line(self, tmp_path, capsys, text, error):
        script = tmp_path / "oncall.mac"
        script.write_text(text + "attach Step\n")
        assert run_cli("run", str(script), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {script}:2: {error}\n"

    def test_artifacts_are_utf8_under_an_ascii_locale(self, tmp_path):
        script = tmp_path / "e.mac"
        script.write_text("attach HelloWorldScriptGen\n"
                          "cfg HelloWorldScriptGen define English café\n"
                          "attach HelloWorld named E\n"
                          "cfg HelloWorldScriptGen register HelloWorld\n"
                          "cfg HelloWorld named E define HelloMessage "
                          "::HelloWorldScriptGen:English\n", encoding="utf-8")

        def run(*flags):
            return run_under_ascii_locale(script, tmp_path / "out", *flags)

        finished = run()
        assert finished.returncode == 0, finished.stderr
        composite = tmp_path / "out" / "composite_HelloWorldScriptGen.sh"
        assert 'echo "café"'.encode() in composite.read_bytes()
        finished = run("--dump", str(tmp_path / "state.mac"))
        assert finished.returncode == 0, finished.stderr
        assert "define English café".encode() in (tmp_path / "state.mac").read_bytes()
        finished = run("--dump", "-")  # stdout cannot encode the dump
        assert finished.returncode == 1
        assert finished.stderr.startswith(b"error: ")
        assert b"Traceback" not in finished.stderr

    def test_foreground_job_output_is_decoded_as_utf8_under_an_ascii_locale(self, tmp_path):
        # the job prints UTF-8 text and a byte that is not UTF-8; the locale's
        # ASCII encoding must not be used to read either back
        script = tmp_path / "f.mac"
        script.write_text("attach HelloWorldScriptGen\n"
                          "attach HelloWorld named E\n"
                          "attach Step named Raw\n"
                          "cfg HelloWorldScriptGen register HelloWorld\n"
                          "cfg HelloWorldScriptGen register Step\n"
                          "cfg HelloWorld named E define HelloMessage café\n"
                          "cfg Step named Raw define Executable printf\n"
                          "cfg Step named Raw define Args '\\377'\n"
                          "attach Fork\n"
                          "cfg Fork define ScriptGenName HelloWorldScriptGen\n"
                          "cfg Fork define ExecutableList ::construct\n", encoding="utf-8")
        # stdout itself is UTF-8, so the run can print what the job printed
        finished = run_under_ascii_locale(script, tmp_path / "out", "--run-mode", "foreground",
                                          PYTHONIOENCODING="utf-8")
        assert b"Traceback" not in finished.stderr
        assert finished.returncode == 0, finished.stderr
        assert finished.stdout.endswith("café\n\ufffd".encode())

    def test_parse_error_exits_one_with_location(self, fixtures, tmp_path, capsys):
        assert run_cli("run", str(fixtures / "dangling.mac"), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "dangling.mac:2" in err

    @pytest.mark.parametrize("space", ["\f", "\u2028"])
    def test_error_line_counts_only_line_breaks(self, tmp_path, capsys, space):
        script = tmp_path / "ff.mac"
        script.write_text(f"attach Fork{space}\nattach Fork\nbogus here\n", encoding="utf-8")
        assert run_cli("run", str(script), "--check") == 1
        assert capsys.readouterr().err == f"error: {script}:3: unknown directive 'bogus'\n"

    @pytest.mark.parametrize("flags", [("--check",), ("--run-mode", "dry-run")])
    def test_nul_byte_in_a_source_path_is_a_clean_error(self, tmp_path, capsys, flags):
        script = tmp_path / "s.mac"
        script.write_bytes(b"source a\x00b.mac\n")
        assert run_cli("run", str(script), "--out", str(tmp_path / "out"), *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {script}:1: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [("--check",), ("--run-mode", "dry-run")])
    def test_missing_sourced_file_is_an_error_at_its_line(self, tmp_path, capsys, flags):
        script = tmp_path / "m.mac"
        script.write_text("attach Step\nsource missing.mac\n")
        assert run_cli("run", str(script), "--out", str(tmp_path / "out"), *flags) == 1
        missing = tmp_path / "missing.mac"
        assert capsys.readouterr().err == (f"error: {script}:2: cannot read {missing}: "
                                           "No such file or directory\n")

    @pytest.mark.parametrize("flags", [("--check",), ("--run-mode", "dry-run")])
    def test_symlink_loop_as_the_script_is_a_clean_error(self, tmp_path, capsys, flags):
        script = tmp_path / "loop.mac"
        script.symlink_to(script.name)
        assert run_cli("run", str(script), "--out", str(tmp_path / "out"), *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {script}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [("--check",), ("--run-mode", "dry-run")])
    def test_sourced_symlink_loop_is_an_error_at_its_line(self, tmp_path, capsys, flags):
        script, loop = tmp_path / "s.mac", tmp_path / "loop.mac"
        script.write_text("attach Step\nsource loop.mac\n")
        loop.symlink_to(loop.name)
        assert run_cli("run", str(script), "--out", str(tmp_path / "out"), *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {script}:2: cannot read {loop}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, code", [(("--check",), 0), (("--run-mode", "dry-run"), 1)],
                             ids=["--check", "dry-run"])
    def test_missing_metadata_file_is_an_error_at_its_dispatch(self, tmp_path, capsys, flags,
                                                               code):
        # checking executes no define, so only the run reads SourceFile
        script = tmp_path / "f.mac"
        script.write_text("attach FileInput\ncfg FileInput define SourceFile nothere.txt\n"
                          "framework run Reset\n")
        assert run_cli("run", str(script), "--out", str(tmp_path / "out"), *flags) == code
        assert capsys.readouterr().err == ("" if code == 0 else
                                           f"error: {script}:3: cannot read nothere.txt: No such "
                                           "file or directory (dispatching Reset to FileInput)\n")

    @pytest.mark.parametrize("name", [b"a/b", b"a\x00b", b"/"], ids=["slash", "NUL", "root"])
    @pytest.mark.parametrize("target", ["shell", "dag"])
    def test_names_that_would_become_paths_are_rejected(self, tmp_path, capsys, name, target):
        script = tmp_path / "n.mac"
        script.write_bytes(b"attach ScriptGen\ncfg ScriptGen register Step\nattach Step named "
                           + name + b"\n")
        out = tmp_path / "out"
        assert run_cli("run", str(script), "--target", target, "--run-mode", "dry-run",
                       "--out", str(out)) == 1
        shown = repr(name.decode())
        assert capsys.readouterr().err == (f"error: {script}:3: invalid instance name: {shown} "
                                           "(a name may not hold '/' or NUL)\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["dump into a missing directory",
                                      "composite over a directory",
                                      "out is a regular file",
                                      "dump through a dangling link"])
    def test_failed_write_names_the_requested_file(self, fixtures, tmp_path, monkeypatch,
                                                   capsys, case):
        monkeypatch.chdir(tmp_path)
        script = str(fixtures / "helloworld.mac")
        if case == "dump into a missing directory":
            code = run_cli("run", script, "--no-framework", "--dump", "nodir/x.mac")
            error = "error: cannot write nodir/x.mac: No such file or directory\n"
            assert not (tmp_path / "nodir").exists()
        elif case == "composite over a directory":
            (tmp_path / "o" / "composite_HelloWorldScriptGen.sh").mkdir(parents=True)
            code = run_cli("run", script, "--out", "o", "--run-mode", "dry-run")
            error = ("error: cannot write o/composite_HelloWorldScriptGen.sh: Is a directory "
                     "(dispatching RunJob to Fork)\n")
        elif case == "out is a regular file":
            (tmp_path / "ofile").write_text("")
            code = run_cli("run", script, "--out", "ofile", "--run-mode", "dry-run")
            error = ("error: cannot write ofile/composite_HelloWorldScriptGen.sh: "
                     "Not a directory (dispatching RunJob to Fork)\n")
        else:
            (tmp_path / "link.mac").symlink_to("nodir/target")
            code = run_cli("run", script, "--no-framework", "--dump", "link.mac")
            error = "error: cannot write link.mac: No such file or directory\n"
            assert not (tmp_path / "nodir").exists()
        assert (code, capsys.readouterr().err) == (1, error)
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("text, flags, error", [
        ("attach ScriptGen\nattach Fork\ncfg ScriptGen register Fork\n", (),
         "Fork does not generate script fragments (dispatching MakeJob to Fork)"),
        ("attach Fork\nattach DagGen\ncfg DagGen define ScriptGenName Fork\n", (),
         "DagGen: Fork is not a scriptgen (dispatching MakeScript to DagGen)"),
        ("attach Step named S\nattach Fork\ncfg Fork define ScriptGenName S\n",
         ("--run-mode", "foreground"),
         "Fork: Step named S is not a scriptgen (dispatching RunJob to Fork)"),
        ("attach Step named S\nattach Fork\ncfg Fork define ScriptGenName S\n"
         "cfg Fork oncall RunJob do define ExecutableList ::construct\n",
         ("--run-mode", "dry-run"),
         "Fork: Step named S is not a scriptgen (dispatching RunJob to Fork)"),
    ], ids=["register a Fork", "DagGen names a Fork", "Fork runs a Step",
            "Fork lists a Step"])
    def test_miswired_roles_are_clean_errors(self, tmp_path, capsys, text, flags, error):
        script = tmp_path / "roles.mac"
        script.write_text(text)
        assert run_cli("run", str(script), "--out", str(tmp_path / "out"), *flags) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_usage_error_exits_two(self, capsys):
        assert run_cli("run") == 2
        assert run_cli("frobnicate") == 2

    def test_missing_script_exits_one(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path / "nope.mac")) == 1

    def test_dump_flag_writes_resourceable_state(self, fixtures, tmp_path):
        dump_path = tmp_path / "state.mac"
        code = run_cli("run", str(fixtures / "helloworld.mac"), "--out",
                       str(tmp_path / "build"), "--dump", str(dump_path),
                       "--run-mode", "dry-run")
        assert code == 0
        text = dump_path.read_text()
        assert "attach HelloWorld named English" in text
        assert "::HelloWorldScriptGen:English" in text

    def test_dump_replaces_the_old_file_instead_of_rewriting_it(self, fixtures, tmp_path):
        dump_path = tmp_path / "dump.mac"
        dump_path.write_text("# old dump\n")
        os.link(dump_path, tmp_path / "old.mac")
        assert run_cli("run", str(fixtures / "helloworld.mac"), "--out", str(tmp_path / "build"),
                       "--dump", str(dump_path), "--run-mode", "dry-run") == 0
        assert (tmp_path / "old.mac").read_text() == "# old dump\n"
        assert dump_path.read_text().startswith("# runjob state dump\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["build", "dump.mac", "old.mac"]

    def test_dump_through_a_symlink_writes_its_target(self, fixtures, tmp_path):
        target = tmp_path / "target.mac"
        target.write_text("# old dump\n")
        link = tmp_path / "dump.mac"
        link.symlink_to(target)
        assert run_cli("run", str(fixtures / "helloworld.mac"), "--out", str(tmp_path / "build"),
                       "--dump", str(link), "--run-mode", "dry-run") == 0
        assert link.is_symlink()
        assert target.read_text().startswith("# runjob state dump\n")

    def test_dump_into_a_fifo_writes_through_it(self, fixtures, tmp_path):
        fifo = tmp_path / "dump.fifo"
        os.mkfifo(fifo)
        # a reader must be open before the dump opens the FIFO for writing
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run_cli("run", str(fixtures / "helloworld.mac"), "--out", str(tmp_path / "b"),
                           "--dump", str(fifo), "--run-mode", "dry-run") == 0
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert text.startswith("# runjob state dump\n")

    def test_resolve_dump_snapshots_literals(self, fixtures, tmp_path):
        dump_path = tmp_path / "state.mac"
        run_cli("run", str(fixtures / "helloworld.mac"), "--out", str(tmp_path / "build"),
                "--dump", str(dump_path), "--resolve", "--run-mode", "dry-run")
        assert "define HelloMessage Salut le Monde" in dump_path.read_text()

    def test_no_framework_skips_generation(self, fixtures, tmp_path):
        out = tmp_path / "build"
        code = run_cli("run", str(fixtures / "helloworld.mac"), "--out", str(out),
                       "--no-framework")
        assert code == 0
        assert not (out / "composite_HelloWorldScriptGen.sh").exists()

    def test_dry_run_mode_lists_commands(self, fixtures, tmp_path, capsys):
        run_cli("run", str(fixtures / "helloworld.mac"), "--out", str(tmp_path / "build"),
                "--run-mode", "dry-run")
        out = capsys.readouterr().out
        assert "dry-run: " in out
        assert "composite_HelloWorldScriptGen.sh" in out


# StepB reads StepA's namespace but never declares the dependency, so the
# resolution that MakeJob forces is illegal in strict mode.
VISIBILITY_SCRIPT = """
attach ScriptGen
attach Step named StepA
attach Step named StepB
cfg ScriptGen register Step
cfg Step named StepA define Executable cat
cfg Step named StepA define OutputFile a.txt
cfg Step named StepB define Executable cat
cfg Step named StepB define InputFile ::StepA:OutputFile
cfg Step named StepB define OutputFile b.txt
"""


class TestVisibilityFlags:
    def write_script(self, tmp_path):
        path = tmp_path / "vis.mac"
        path.write_text(VISIBILITY_SCRIPT)
        return path

    def test_strict_mode_fails(self, tmp_path, capsys):
        path = self.write_script(tmp_path)
        assert run_cli("run", str(path), "--out", str(tmp_path / "b")) == 1
        assert "without a declared dependency" in capsys.readouterr().err

    def test_lenient_flag_succeeds(self, tmp_path):
        path = self.write_script(tmp_path)
        assert run_cli("run", str(path), "--out", str(tmp_path / "b"),
                       "--lenient-deps") == 0

    def test_lenient_env_var(self, tmp_path, monkeypatch):
        path = self.write_script(tmp_path)
        monkeypatch.setenv("RUNJOB_LENIENT_DEPS", "1")
        assert run_cli("run", str(path), "--out", str(tmp_path / "b")) == 0

    def test_lenient_env_var_is_read_on_every_call(self, tmp_path, monkeypatch, capsys):
        # the parser outlives a call, so it must not keep the variable's value
        argv = ("run", str(self.write_script(tmp_path)), "--out", str(tmp_path / "b"))
        monkeypatch.delenv(LENIENT_ENV_VAR, raising=False)
        assert run_cli(*argv) == 1
        monkeypatch.setenv(LENIENT_ENV_VAR, "1")
        assert run_cli(*argv) == 0
        monkeypatch.delenv(LENIENT_ENV_VAR)
        assert run_cli(*argv) == 1


class TestRepl:
    def drive(self, linker, text):
        output = io.StringIO()
        repl(linker, input_stream=io.StringIO(text), output=output)
        return output.getvalue()

    def test_repl_matches_batch_dump(self, fixtures, tmp_path, helloworld_text):
        batch = make_linker(output_dir=tmp_path / "a")
        from runjob import execute_script

        execute_script(batch, helloworld_text)
        interactive = make_linker(output_dir=tmp_path / "b")
        self.drive(interactive, helloworld_text + "\nquit\n")
        assert interactive.dump_state() == batch.dump_state()

    def test_error_is_printed_and_session_continues(self, tmp_path):
        linker = make_linker(output_dir=tmp_path)
        out = self.drive(linker, "cfg Nobody additem x\nattach Fork\ndump\nquit\n")
        assert "error:" in out
        assert "attach Fork" in out  # dump still ran after the error

    def test_dump_builtin_prints_state(self, tmp_path):
        linker = make_linker(output_dir=tmp_path)
        out = self.drive(linker, "attach HelloWorld named English\ndump\n")
        assert "attach HelloWorld named English" in out

    def test_framework_run_prints_dispatch(self, tmp_path):
        linker = make_linker(output_dir=tmp_path)
        out = self.drive(linker, "attach Fork\nframework run Reset\nquit\n")
        assert "Reset Fork: Handled" in out

    def test_dry_run_report_matches_batch_run(self, fixtures, tmp_path, helloworld_text,
                                              capsys):
        run_cli("run", str(fixtures / "helloworld.mac"), "--out", str(tmp_path),
                "--run-mode", "dry-run", "--framework", "Reset MakeJob MakeScript RunJob")
        batch = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("dry-run: ")]
        linker = make_linker(output_dir=tmp_path, run_mode="dry-run")
        out = self.drive(linker, helloworld_text
                         + "\nframework run Reset MakeJob MakeScript RunJob\nquit\n")
        assert batch
        assert [line for line in out.splitlines() if line.startswith("dry-run: ")] == batch

    def test_multiline_loop_collected_before_execution(self, tmp_path):
        linker = make_linker(output_dir=tmp_path)
        self.drive(linker, "loop i 1 2\nattach Step named s$(i)\nendloop\nquit\n")
        assert [c.identifier for c in linker.configurators] == [
            "Step named s1", "Step named s2"]

    def test_stray_endloop_does_not_derail_later_loops(self, tmp_path):
        linker = make_linker(output_dir=tmp_path)
        out = self.drive(linker, "endloop\n"
                                 "loop i 1 1\nattach Step named ok$(i)\nendloop\nquit\n")
        assert "error:" in out
        assert [c.identifier for c in linker.configurators] == ["Step named ok1"]

    def test_comment_ending_in_backslash_does_not_continue(self, tmp_path):
        # as in a script, a backslash inside a comment joins no lines
        linker = make_linker(output_dir=tmp_path)
        out = self.drive(linker, "attach Fork # note \\\ndump\nquit\n")
        assert "error:" not in out
        assert "attach Fork" in out

    def test_sourced_unclosed_loop_is_an_error_not_a_prompt(self, tmp_path):
        (tmp_path / "open.mac").write_text("loop i 1 2\nattach Step named s$(i)\n")
        linker = make_linker(output_dir=tmp_path)
        out = self.drive(linker, f"source {tmp_path / 'open.mac'}\nattach Fork\nquit\n")
        assert f"error: {tmp_path / 'open.mac'}:1: loop without a matching endloop" in out
        assert [c.identifier for c in linker.configurators] == ["Fork"]

    def test_bad_loop_bound_is_reported_once_after_endloop(self, tmp_path):
        linker = make_linker(output_dir=tmp_path)
        out = self.drive(linker, "loop i one 2\nattach Step named s$(i)\nendloop\nquit\n")
        assert out == "error: <input>:1: loop bound 'one' is not an integer\n"
        assert linker.configurators == []

    @pytest.mark.parametrize("text, error", [
        ("loop i 1 2\nattach Step named s$(i)\n", "loop without a matching endloop"),
        ("attach Fork \\\n", "line continuation at end of input"),
    ])
    def test_entry_open_at_end_of_input_is_reported(self, tmp_path, text, error):
        linker = make_linker(output_dir=tmp_path)
        out = self.drive(linker, "attach HelloWorld\n" + text)
        assert out == f"error: <input>:1: {error}\n"
        assert [c.identifier for c in linker.configurators] == ["HelloWorld"]

    def test_dispatch_error_names_its_dispatch(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        linker = make_linker(output_dir=tmp_path)
        out = self.drive(linker, "attach FileInput\ncfg FileInput define SourceFile nothere.txt\n"
                                 "framework run Reset\nquit\n")
        assert out == ("error: <input>:1: cannot read nothere.txt: No such file or directory "
                       "(dispatching Reset to FileInput)\n")

    def test_source_of_missing_file_is_printed_not_fatal(self, tmp_path):
        linker = make_linker(output_dir=tmp_path)
        out = self.drive(linker, "source nope.mac\nattach Fork\ndump\nquit\n")
        assert "error:" in out
        assert "attach Fork" in out


def test_module_entry_point(fixtures, tmp_path):
    out = tmp_path / "build"
    finished = subprocess.run(
        [sys.executable, "-m", "runjob", "run", str(fixtures / "helloworld.mac"),
         "--out", str(out), "--run-mode", "dry-run"],
        capture_output=True, text=True)
    assert finished.returncode == 0
    assert (out / "composite_HelloWorldScriptGen.sh").exists()


def test_planning_loads_no_dataclasses_inspect_or_subprocess(fixtures, tmp_path):
    # pytest and Hypothesis have loaded all three here, so ask a fresh
    # interpreter; -S keeps site hooks from loading them on its behalf
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = ["run", str(fixtures / "helloworld.mac"), "--run-mode", "dry-run",
            "--out", str(tmp_path)]
    code = ("import sys\n"
            "import runjob.cli\n"
            "runjob.make_linker()\n"
            f"code = runjob.cli.main({argv!r})\n"
            "print(code, sorted({'dataclasses', 'inspect', 'subprocess'} & set(sys.modules)))\n")
    finished = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
    assert finished.returncode == 0, finished.stderr
    assert finished.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "composite_HelloWorldScriptGen.sh").exists()


def write_reference_chain(tmp_path, depth, attach_order) -> Path:
    """Write a chain S0 <- S1 <- ... in which each Step's InputFile references
    its predecessor's, attached (and so asked for its job) in ``attach_order``."""
    lines = ["attach ScriptGen", "cfg ScriptGen register Step"]
    lines += [f"attach Step named S{i}" for i in attach_order]
    lines += ["cfg Step named S0 define Executable cat",
              "cfg Step named S0 define InputFile root.in"]
    for i in range(1, depth):
        lines += [f"cfg Step named S{i} define Executable cat",
                  f"cfg Step named S{i} addreq Step named S{i - 1}",
                  f"cfg Step named S{i} define InputFile ::S{i - 1}:InputFile"]
    script = tmp_path / "deep.mac"
    script.write_text("\n".join(lines) + "\n")
    return script


def run_reference_chain(tmp_path, depth, attach_order):
    """Run :func:`write_reference_chain`'s script in a child interpreter."""
    script = write_reference_chain(tmp_path, depth, attach_order)
    return subprocess.run(
        [sys.executable, "-m", "runjob", "run", str(script), "--out", str(tmp_path / "build"),
         "--run-mode", "dry-run"],
        capture_output=True, text=True)


def test_too_deep_reference_chain_is_a_clean_error(tmp_path):
    # attached last step first, the first read walks all 10,000 hops; each hop
    # nests several interpreter frames, which exceeds the default recursion
    # limit many times over
    depth = 10_000
    finished = run_reference_chain(tmp_path, depth, reversed(range(depth)))
    assert finished.returncode == 1
    assert finished.stderr.startswith("error: reference chain from Step named S")
    assert ":InputFile is too deep to resolve" in finished.stderr
    assert "Traceback" not in finished.stderr


def test_in_order_deep_reference_chain_resolves(tmp_path):
    # attached first step first, each read is one hop onto a predecessor
    # that was resolved just before
    depth = 10_000
    finished = run_reference_chain(tmp_path, depth, range(depth))
    assert finished.returncode == 0, finished.stderr
    composite = (tmp_path / "build" / "composite_ScriptGen.sh").read_text()
    fragments = [line for line in composite.splitlines() if line.startswith('"cat"')]
    assert fragments == ['"cat" < "root.in"'] * depth


def test_a_run_starts_no_collection_over_its_objects(tmp_path, capsys):
    script = str(write_reference_chain(tmp_path, 1500, range(1500)))
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        assert run_cli("run", script, "--check") == 0
        assert run_cli("run", script, "--no-framework", "--out", str(tmp_path / "o")) == 0
    finally:
        gc.callbacks.remove(count)
    # at most the one that restoring the threshold sets off, per call
    assert len(started) <= 2, started


# the last two cases guard thresholds that a run must leave as they are
@pytest.mark.parametrize("first, during", [(700, 200_000), (0, 0), (10**6, 10**6)],
                         ids=["raised", "collection off stays off", "higher stays"])
def test_a_run_only_raises_the_first_threshold(fixtures, monkeypatch, first, during):
    seen = []
    monkeypatch.setattr(cli, "check_script", lambda path: seen.append(gc.get_threshold()))
    before = gc.get_threshold()
    gc.set_threshold(first, 9, 8)
    try:
        assert run_cli("run", str(fixtures / "helloworld.mac"), "--check") == 0
        assert gc.get_threshold() == (first, 9, 8)
    finally:
        gc.set_threshold(*before)
    assert seen == [(during, 9, 8)]


@pytest.mark.parametrize("argv, code", [
    (("run", "helloworld.mac", "--run-mode", "dry-run"), 0),
    (("run", "dangling.mac"), 1),
    (("run", "helloworld.mac", "--target", "nope"), 2),
], ids=["success", "script error", "usage error"])
def test_collector_thresholds_are_restored(fixtures, tmp_path, monkeypatch, capsys, argv, code):
    # a guard: the thresholds a call leaves are the ones it found
    monkeypatch.chdir(tmp_path)
    before = gc.get_threshold()
    assert run_cli(argv[0], str(fixtures / argv[1]), *argv[2:]) == code
    assert gc.get_threshold() == before


def test_the_parser_serves_every_call(fixtures, capsys):
    # a guard: one call's usage error or help leaves the next call unchanged
    assert run_cli("run", "--target", "nope") == 2
    assert run_cli("run", str(fixtures / "helloworld.mac"), "--check") == 0
    helps = []
    for _ in range(2):
        capsys.readouterr()
        assert run_cli("run", "-h") == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert "--lenient-deps" in helps[0]


def test_repl_has_no_target_option(capsys):
    assert run_cli("repl", "--target", "dag") == 2
    assert "--target" in capsys.readouterr().err


def test_repl_subcommand_reads_stdin(tmp_path):
    finished = subprocess.run(
        [sys.executable, "-m", "runjob", "repl", "--out", str(tmp_path)],
        input="attach Fork\ndump\nquit\n", capture_output=True, text=True)
    assert finished.returncode == 0
    assert "attach Fork" in finished.stdout


@pytest.mark.parametrize("flags, written", [(("--check",), False),
                                            (("--run-mode", "dry-run"), True)])
def test_script_can_be_piped_in(fixtures, tmp_path, flags, written):
    finished = subprocess.run(
        [sys.executable, "-m", "runjob", "run", "/dev/stdin", "--out", str(tmp_path), *flags],
        input=(fixtures / "helloworld.mac").read_text(), capture_output=True, text=True)
    assert finished.returncode == 0, finished.stderr
    assert (tmp_path / "composite_HelloWorldScriptGen.sh").exists() == written


@pytest.mark.parametrize("text, flags, error", [
    ("source inc.mac\n", ("--check",), ""),
    ("source inc.mac\n", ("--run-mode", "dry-run"), ""),
    ("attach Nope\n", ("--run-mode", "dry-run"),
     "error: <stdin>:1: unknown configurator type 'Nope'\n"),
    ("source /dev/stdin\n", ("--check",), "error: <stdin>:1: <stdin> is already being sourced\n"),
], ids=["source --check", "source dry-run", "error", "cycle"])
def test_piped_script_is_stdin_and_sources_from_the_working_directory(tmp_path, text, flags,
                                                                      error):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    (tmp_path / "inc.mac").write_text("attach Fork\n")
    finished = subprocess.run(
        [sys.executable, "-m", "runjob", "run", "/dev/stdin", "--out", "out", *flags],
        input=text, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert (finished.returncode, finished.stderr) == ((1 if error else 0), error)


def test_background_alias_reports_pids(fixtures, tmp_path, capsys):
    out = tmp_path / "build"
    code = run_cli("run", str(fixtures / "helloworld.mac"), "--out", str(out),
                   "--background")
    assert code == 0
    assert "(pid " in capsys.readouterr().out


@pytest.mark.parametrize("case", ["run", "repl", "error after RunJob", "spawn failure"])
def test_background_jobs_are_waited_for(fixtures, tmp_path, case):
    # an unwaited child makes Popen.__del__ warn "subprocess N is still running"
    script, stdin = fixtures / "helloworld.mac", None
    if case == "error after RunJob":
        script = tmp_path / "fails.mac"
        script.write_text(f"source {fixtures / 'helloworld.mac'}\n"
                          "framework run Reset MakeJob MakeScript RunJob\n"
                          "cfg Missing define X 1\n")
    elif case == "spawn failure":
        job = tmp_path / "ok.sh"
        job.write_text("#!/bin/sh\necho Hallo Welt\n")
        job.chmod(0o755)
        script = tmp_path / "spawn.mac"
        script.write_text(f"attach Fork\ncfg Fork define ExecutableList {job} {tmp_path}/no.sh\n")
    args = ["repl"] if case == "repl" else ["run", str(script)]
    if case == "repl":
        stdin = f"source {script}\nframework run Reset MakeJob MakeScript RunJob\n"
    finished = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "runjob", *args, "--out", str(tmp_path / "out"),
         "--background"],
        input=stdin, capture_output=True, text=True)
    assert finished.returncode == (0 if case in ("run", "repl") else 1)
    assert "ResourceWarning" not in finished.stderr
    assert finished.stdout.count("(pid ") == (1 if case in ("run", "repl") else 0)
    assert "Hallo Welt\n" in finished.stdout


def test_framework_rerun_is_idempotent(fixtures, tmp_path, capsys):
    # the script drives the framework itself; the CLI default run resets and
    # rebuilds, so exactly one composite remains and it still prints correctly
    script = tmp_path / "twice.mac"
    script.write_text((fixtures / "helloworld.mac").read_text()
                      + "framework run Reset MakeJob MakeScript\n")
    out = tmp_path / "build"
    assert run_cli("run", str(script), "--out", str(out), "--run-mode", "dry-run") == 0
    composites = [p for p in out.iterdir() if p.name.startswith("composite")]
    assert len(composites) == 1
    finished = subprocess.run([str(composites[0])], capture_output=True, text=True)
    assert finished.stdout == "Hello World\nSalut le Monde\nHallo Welt\n"


FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURE_SCRIPTS = sorted(path.name for path in FIXTURE_DIR.glob("*.mac"))
MUTATION_BYTES = [b"\x00", b"\n", b"\r", b"\\", b"#", b" ", b"\x0c", b"\xff", b"\xe2\x80\xa8",
                  b"$", b"(", b")", b":", b"/", b"a", b"1"]
NUL_SOURCE = b"\nsource a\x00b.mac\n"
MUTATION_TOKENS = [b"attach", b"cfg", b"named", b"source", b"loop", b"endloop", b"framework",
                   b"run", b"group", b"define", b"addreq", b"register", b"oncall", b"do",
                   b"::construct", b"::Step:OutputFile", b"$(i)", b"i", b"2", NUL_SOURCE]

mutation = st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                     st.floats(0, 1, exclude_max=True),
                     st.sampled_from(MUTATION_BYTES + MUTATION_TOKENS))


def mutate(data: bytes, mutations) -> bytes:
    for kind, where, piece in mutations:
        at = int(where * (len(data) + 1))
        if kind == "insert":
            data = data[:at] + piece + data[at:]
        elif kind == "replace":
            data = data[:at] + piece + data[at + len(piece):]
        else:
            data = data[:at] + data[at + len(piece):]
    return data


@settings(max_examples=150, deadline=None, database=None)
@given(name=st.sampled_from(FIXTURE_SCRIPTS), mutations=st.lists(mutation, min_size=1, max_size=4))
@example(name="cycle_b.mac", mutations=[("insert", 0.0, NUL_SOURCE)])
def test_mutated_fixtures_never_escape_main(name, mutations):
    """A mutated fixture, sourced siblings and all, is checked and planned
    dry, once with the DAG target, where fragments become files: ``main``
    returns 0, 1 or 2 and prints no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(FIXTURE_DIR, tmp, dirs_exist_ok=True)
        script = Path(tmp) / name
        script.write_bytes(mutate(script.read_bytes(), mutations))
        dry_run = ["--run-mode", "dry-run", "--out", str(Path(tmp) / "out")]
        for flags in (["--check"], dry_run, ["--target", "dag", *dry_run]):
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(["run", str(script), *flags])
            assert code in (0, 1, 2)
            assert "Traceback" not in stderr.getvalue()
