"""Command-line checks that run only through the ``runjob`` command, in a
child process as a user runs it (see the ``runjob_command`` fixture).  With
``RUNJOB_INSTALLED_SCRIPT`` set they, and the child-process tests of
``tests/test_cli.py``, run an installed script::

    RUNJOB_INSTALLED_SCRIPT="$(command -v runjob)" \\
        python -m pytest tests/test_installed_script.py tests/test_cli.py
"""

import re
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


def assert_error_line(finished, pattern):
    """The run exited 1 with a line of its stderr matching ``pattern``, and no traceback."""
    assert finished.returncode == 1, finished.stderr
    assert re.search(pattern, finished.stderr, re.MULTILINE), finished.stderr
    assert "Traceback" not in finished.stderr


def test_writes_a_dag(tmp_path, runjob_command):
    finished = runjob_command("run", FIXTURES / "chain.mac", "--target", "dag", "--out", "build",
                              cwd=tmp_path)
    assert finished.returncode == 0, finished.stderr
    assert (tmp_path / "build" / "workflow.dag").is_file()


@pytest.mark.parametrize("name", ["helloworld", "chain", "rerun"])
def test_checks_a_fixture(tmp_path, name, runjob_command):
    finished = runjob_command("run", FIXTURES / f"{name}.mac", "--check", cwd=tmp_path)
    assert finished.returncode == 0, finished.stderr


def test_an_unreadable_script_is_an_error_line(tmp_path, runjob_command):
    (tmp_path / "build").mkdir()
    (tmp_path / "build" / "loop.mac").symlink_to("loop.mac")  # a link to itself
    assert_error_line(runjob_command("run", "build/loop.mac", cwd=tmp_path),
                      r"^error: .*cannot read")


def test_a_write_failure_is_a_cannot_write_error_line(tmp_path, runjob_command):
    (tmp_path / "build").mkdir()
    (tmp_path / "build" / "ofile").touch()
    finished = runjob_command("run", FIXTURES / "helloworld.mac", "--out", "build/ofile",
                              "--run-mode", "dry-run", cwd=tmp_path)
    assert_error_line(finished, r"^error: cannot write")


@pytest.mark.parametrize("text, flags", [
    ("attach ScriptGen\nattach Fork\ncfg ScriptGen register Fork\n", ()),
    ("attach Step named S\nattach Fork\ncfg Fork define ScriptGenName S\n",
     ("--run-mode", "dry-run")),
], ids=["register a Fork", "Fork names a Step in a dry run"])
def test_a_miswired_role_is_an_error_line(tmp_path, text, flags, runjob_command):
    finished = runjob_command("run", "/dev/stdin", "--out", "build/roles", *flags,
                              cwd=tmp_path, stdin=text)
    assert_error_line(finished, r"^error: ")


def test_a_loop_bound_no_enclosing_loop_binds_fails_the_check(tmp_path, runjob_command):
    (tmp_path / "build").mkdir()
    (tmp_path / "build" / "bound.mac").write_text(
        "loop i 1 2\nloop j 1 $(k)\nattach Step named s$(i)x$(j)\nendloop\nendloop\n")
    assert_error_line(runjob_command("run", "build/bound.mac", "--check", cwd=tmp_path),
                      r"^error: .*bound\.mac:2: ")


def test_the_check_walks_a_loop_body_and_follows_a_source_in_it(tmp_path, runjob_command):
    directory = tmp_path / "build" / "loopsrc"  # a source is found beside its script
    directory.mkdir(parents=True)
    (directory / "main.mac").write_text("attach ScriptGen\nloop i 1 2\nsource part.mac\nendloop\n")
    (directory / "part.mac").write_text("attach Step\nbogus directive here\n")
    assert_error_line(runjob_command("run", "build/loopsrc/main.mac", "--check", cwd=tmp_path),
                      r"^error: .*part\.mac:2: ")


def test_a_resolved_value_that_would_not_source_back_fails_the_dump(tmp_path, runjob_command):
    finished = runjob_command("run", FIXTURES / "helloworld.mac", "--out", "build/o#1",
                              "--run-mode", "dry-run", "--dump", "-", "--resolve", cwd=tmp_path)
    assert_error_line(finished, r"^error: ")


def test_a_dump_onto_a_file_the_same_run_wrote_is_refused(tmp_path, runjob_command):
    finished = runjob_command("run", FIXTURES / "chain.mac", "--out", "build/o",
                              "--run-mode", "dry-run", "--dump", "build/o/composite_ScriptGen.sh",
                              cwd=tmp_path)
    assert_error_line(finished, r"^error: ")
    composite = tmp_path / "build" / "o" / "composite_ScriptGen.sh"
    assert composite.read_text().splitlines()[0] == "#!/bin/sh"


def test_a_word_after_endloop_fails_the_check(tmp_path, runjob_command):
    (tmp_path / "endloop.mac").write_text("loop i 1 2\nattach Step named s$(i)\nendloop extra\n")
    assert_error_line(runjob_command("run", "endloop.mac", "--check", cwd=tmp_path),
                      r"^error: .*:3: usage: endloop")


def test_a_2000_iteration_dump_sources_back_to_itself(tmp_path, runjob_command):
    (tmp_path / "big.mac").write_text("\n".join([
        "attach HelloWorldScriptGen", "cfg HelloWorldScriptGen register HelloWorld",
        "attach Fork", "cfg Fork define ScriptGenName HelloWorldScriptGen",
        "cfg Fork oncall RunJob do define ExecutableList ::construct", "loop i 1 2000",
        "cfg HelloWorldScriptGen define text$(i) gamma lima $(i)",
        "attach HelloWorld named greeter$(i)",
        "cfg HelloWorld named greeter$(i) define HelloMessage ::HelloWorldScriptGen:text$(i)",
        "endloop", ""]))
    for script, dump in [("big.mac", "big1.mac"), ("big1.mac", "big2.mac")]:
        finished = runjob_command("run", script, "--out", "big", "--run-mode", "dry-run",
                                  "--dump", dump, cwd=tmp_path)
        assert finished.returncode == 0, finished.stderr
    first = (tmp_path / "big1.mac").read_bytes()
    assert first == (tmp_path / "big2.mac").read_bytes()
    assert len(re.findall(rb"^attach HelloWorld named", first, re.MULTILINE)) == 2000
    finished = runjob_command("run", "big1.mac", "--check", cwd=tmp_path)
    assert finished.returncode == 0, finished.stderr


def readme_flags() -> set[str]:
    """The flags the first column of README's CLI table names."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.partition("## CLI reference")[2].partition("\n\n|")[2].partition("\n\n")[0]
    return {flag for row in table.splitlines()[2:]
            for flag in re.findall(r"--[a-z-]+", row.split(" | ")[0])}


@pytest.mark.parametrize("args", [("-h",), ("run", "-h")], ids=["runjob", "run"])
def test_help_names_every_flag_in_the_readme(args, runjob_command):
    finished = runjob_command(*args)
    assert finished.returncode == 0, finished.stderr
    flags = readme_flags()
    assert "--no-framework" in flags  # the table's last row
    assert flags <= set(re.findall(r"--[a-z-]+", finished.stdout))


@pytest.mark.parametrize("args", [(), ("run",)], ids=["no command", "no script"])
def test_a_usage_error_exits_two_with_its_usage(args, runjob_command):
    finished = runjob_command(*args)
    assert finished.returncode == 2
    assert finished.stderr.startswith("usage: ") and "Traceback" not in finished.stderr


def test_flags_take_equals_values_and_abbreviations(tmp_path, runjob_command):
    finished = runjob_command("run", FIXTURES / "helloworld.mac", "--run-mode=dry-run", "--res",
                              "--dump=-", cwd=tmp_path)
    assert finished.returncode == 0, finished.stderr
    assert "\nattach HelloWorldScriptGen\n" in finished.stdout
    assert (tmp_path / "composite_HelloWorldScriptGen.sh").is_file()
