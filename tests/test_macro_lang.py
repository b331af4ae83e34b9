"""Macro language: tokenizer, directive parsing, loops, sourcing, fail-fast."""

import pytest

from runjob import execute_script, parse_script, tokenize
from runjob.errors import (
    DanglingContinuation,
    ParseError,
    SourceCycle,
    UnknownConfigurator,
)
from runjob.macro_lang import (
    Attach,
    Cfg,
    FrameworkRun,
    check_script,
    execute_file,
    parse_directive,
)


class TestTokenize:
    def test_continuation_joins_with_single_space(self):
        lines = tokenize("cfg HelloWorldScriptGen define English \\\n Hello World")
        assert len(lines) == 1
        assert lines[0].tokens == ["cfg", "HelloWorldScriptGen", "define",
                                   "English", "Hello", "World"]

    def test_comment_line_has_no_tokens(self):
        lines = tokenize("# Attach the ScriptGen")
        assert lines[0].tokens == []
        assert lines[0].comment

    def test_inline_comment_stripped(self):
        lines = tokenize("attach Fork # the batch portal")
        assert lines[0].tokens == ["attach", "Fork"]

    def test_dangling_continuation(self):
        with pytest.raises(DanglingContinuation) as err:
            tokenize("attach Fork\na \\", filename="bad.mac")
        assert err.value.lineno == 2
        assert "bad.mac:2" in str(err.value)

    def test_crlf_input_accepted(self):
        lines = tokenize("attach Fork\r\nattach HelloWorld named X\r\n")
        assert [l.tokens[0] for l in lines] == ["attach", "attach"]

    def test_logical_line_records_first_physical_line(self):
        lines = tokenize("attach Fork\ncfg Fork define A \\\n b \\\n c\nattach Fork")
        assert [l.lineno for l in lines] == [1, 2, 5]


class TestParseDirective:
    def parse_one(self, text):
        return parse_directive(tokenize(text)[0])

    def test_attach_named(self):
        directive = self.parse_one("attach HelloWorld named English")
        assert isinstance(directive, Attach)
        assert (directive.type_name, directive.instance_name) == ("HelloWorld", "English")

    def test_framework_run(self):
        directive = self.parse_one("framework run Reset")
        assert isinstance(directive, FrameworkRun)
        assert directive.messages == ["Reset"]

    def test_cfg_with_oncall_macro(self):
        directive = self.parse_one("cfg Fork oncall RunJob do define ExecutableList ::construct")
        assert isinstance(directive, Cfg)
        assert directive.identifier == "Fork"
        assert directive.macro == ["oncall", "RunJob", "do", "define",
                                   "ExecutableList", "::construct"]

    def test_cfg_named_identifier_consumes_three_tokens(self):
        directive = self.parse_one("cfg HelloWorld named English define HelloMessage hi")
        assert directive.identifier == "HelloWorld named English"
        assert directive.macro[0] == "define"

    @pytest.mark.parametrize("text", [
        "attach",
        "attach A named",
        "cfg OnlyIdentifier",
        "cfg Step named",
        "cfg A named B",
        "framework",
        "framework run",
        "source a b",
        "endloop",
        "mystery token",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_script(text, "bad.mac")

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_script("attach Fork\nmystery\n", "bad.mac")
        assert err.value.lineno == 2
        assert err.value.filename == "bad.mac"


class TestLoops:
    def test_loop_expands_per_iteration(self, linker):
        execute_script(linker, "loop i 1 3\nattach Step named run$(i)\nendloop\n")
        names = [cfg.description.instance_name for cfg in linker.configurators]
        assert names == ["run1", "run2", "run3"]

    def test_empty_range_runs_zero_times(self, linker):
        execute_script(linker, "loop i 5 4\nattach Step named run$(i)\nendloop\n")
        assert linker.configurators == []

    def test_iteration_count_property(self, linker):
        for start, stop in ((1, 1), (0, 4), (3, 2)):
            count_before = len(linker.configurators)
            execute_script(linker,
                           f"loop j {start} {stop}\nattach Step named s{start}x{stop}x$(j)\nendloop\n")
            expected = max(0, stop - start + 1)
            assert len(linker.configurators) - count_before == expected

    def test_nested_loops(self, linker):
        execute_script(linker, "loop i 1 2\nloop j 1 2\n"
                               "attach Step named n$(i)x$(j)\nendloop\nendloop\n")
        names = [cfg.description.instance_name for cfg in linker.configurators]
        assert names == ["n1x1", "n1x2", "n2x1", "n2x2"]

    def test_inner_loop_shadows_outer_variable(self, linker):
        execute_script(linker, "loop i 1 1\n"
                               "attach Step named outer$(i)\n"
                               "loop i 7 8\n"
                               "attach Step named inner$(i)\n"
                               "endloop\n"
                               "endloop\n")
        names = [cfg.description.instance_name for cfg in linker.configurators]
        assert names == ["outer1", "inner7", "inner8"]

    def test_unterminated_loop(self):
        with pytest.raises(ParseError):
            parse_script("loop i 1 2\nattach Fork\n")

    def test_non_integer_bound(self):
        with pytest.raises(ParseError):
            parse_script("loop i one 2\nendloop\n")


class TestSource:
    def test_source_executes_relative_file(self, linker, tmp_path):
        (tmp_path / "env.mac").write_text("attach HelloWorldScriptGen\n")
        main = tmp_path / "main.mac"
        main.write_text("source env.mac\nattach HelloWorld named X\n")
        execute_file(linker, main)
        assert [c.identifier for c in linker.configurators] == [
            "HelloWorldScriptGen", "HelloWorld named X"]

    def test_self_source_cycle(self, linker, fixtures):
        with pytest.raises(SourceCycle) as err:
            execute_file(linker, fixtures / "self_cycle.mac")
        assert err.value.lineno == 2

    def test_mutual_source_cycle(self, linker, fixtures):
        with pytest.raises(SourceCycle):
            execute_file(linker, fixtures / "cycle_a.mac")

    def test_check_script_covers_sourced_files(self, fixtures, tmp_path):
        good = tmp_path / "main.mac"
        (tmp_path / "env.mac").write_text("attach Fork\n")
        good.write_text("source env.mac\n")
        check_script(good)
        with pytest.raises(SourceCycle):
            check_script(fixtures / "self_cycle.mac")

    def test_last_sourced_synonym_environment_wins(self, linker, tmp_path):
        (tmp_path / "env_en.mac").write_text(
            "cfg Probe synonym Greeting ::HelloWorldScriptGen:English\n")
        (tmp_path / "env_de.mac").write_text(
            "cfg Probe synonym Greeting ::HelloWorldScriptGen:German\n")
        main = tmp_path / "main.mac"
        main.write_text("""
attach HelloWorldScriptGen
cfg HelloWorldScriptGen define English Hello World
cfg HelloWorldScriptGen define German Hallo Welt
attach HelloWorld named Probe
cfg Probe addreq HelloWorldScriptGen
cfg Probe define Message ::synonym:Greeting
source env_en.mac
source env_de.mac
""")
        execute_file(linker, main)
        assert linker.find("Probe").resolve_value("Message") == "Hallo Welt"


class TestExecution:
    def test_fail_fast_keeps_earlier_directives(self, linker):
        with pytest.raises(UnknownConfigurator) as err:
            execute_script(linker, "attach Fork\ncfg Nobody additem x\n", "job.mac")
        assert [c.identifier for c in linker.configurators] == ["Fork"]
        assert err.value.lineno == 2
        assert err.value.filename == "job.mac"

    def test_framework_run_directive(self, linker):
        execute_script(linker, "attach Fork\nframework run Reset\n")
        assert [r.message for r in linker.dispatch_log] == ["Reset"]

    def test_framework_group_directive(self, linker):
        execute_script(linker, "attach Fork\n"
                               "framework group build Reset MakeScript\n"
                               "framework run build\n")
        assert [r.message for r in linker.dispatch_log] == ["Reset", "MakeScript"]

    def test_dump_retokenizes_to_identical_directives(self, linker, lenient_linker,
                                                      helloworld_text):
        execute_script(linker, helloworld_text)
        dump = linker.dump_state()
        first = [d.describe() for d in parse_script(dump)]
        execute_script(lenient_linker, dump)
        second = [d.describe() for d in parse_script(lenient_linker.dump_state())]
        assert first == second

    def test_check_does_not_execute(self, linker, fixtures):
        check_script(fixtures / "helloworld.mac")
        assert linker.configurators == []
