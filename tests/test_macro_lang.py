"""Macro language: tokenizer, directive parsing, loops, sourcing, fail-fast."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runjob import execute_script, make_linker, macro_lang, parse_script, tokenize
from runjob.errors import (
    DanglingContinuation,
    IncompleteInput,
    ParseError,
    SourceCycle,
    UnknownConfigurator,
)
from runjob.macro_lang import (
    Attach,
    Cfg,
    FrameworkRun,
    LogicalLine,
    Loop,
    MacroInterpreter,
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

    @pytest.mark.parametrize("space", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
    def test_only_lf_crlf_and_cr_end_a_line(self, space):
        # str.splitlines() would also break here; an editor does not
        lines = tokenize(f"attach Fork{space}named X\nbogus here\n")
        assert [(l.lineno, l.tokens) for l in lines] == [
            (1, ["attach", "Fork", "named", "X"]), (2, ["bogus", "here"])]


def reference_tokenize(text):
    """``tokenize`` without its plain-line fast path: every physical line is
    comment-stripped, and every logical line is joined and split again.
    Returns ``(lineno, tokens, comment)`` per logical line, or
    ``("dangling", lineno)`` for a continuation on the last line."""
    physical = re.split(r"\r\n|\r|\n", text)
    if physical[-1] == "":
        physical.pop()
    lines, pending, start, comment = [], [], 0, False
    for index, raw in enumerate(physical, start=1):
        code, hash_sign, _ = raw.partition("#")
        code = code.rstrip()
        if not pending:
            start, comment = index, False
        comment = comment or bool(hash_sign)
        if code.endswith("\\"):
            pending.append(code[:-1].rstrip())
            continue
        pending.append(code)
        lines.append((start, " ".join(part for part in pending if part).split(), comment))
        pending = []
    if pending:
        return ("dangling", len(physical))
    return lines


def tokenize_outcome(text):
    try:
        return [(line.lineno, line.tokens, line.comment) for line in tokenize(text)]
    except DanglingContinuation as exc:
        return ("dangling", exc.lineno)


TOKENIZER_PIECES = ["#", "\\", "\n", "\r\n", "\r", "\t", "\x0c", "\x85", "\u2028", "\u00a0",
                    " ", "  ", "attach", "named", "loop", "endloop"]


@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(st.sampled_from(TOKENIZER_PIECES), max_size=40).map("".join))
def test_tokenize_matches_reference(text):
    assert tokenize_outcome(text) == reference_tokenize(text)


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

    def test_inner_loop_shadows_outer_variable(self, tmp_path):
        # the inner header sees the outer value; the inner body sees its own
        for inner_bounds, expected in (("7 8", ["outer2", "inner7", "inner8"]),
                                       ("$(i) 3", ["outer2", "inner2", "inner3"])):
            linker = make_linker(output_dir=tmp_path)
            execute_script(linker, "loop i 2 2\n"
                                   "attach Step named outer$(i)\n"
                                   f"loop i {inner_bounds}\n"
                                   "attach Step named inner$(i)\n"
                                   "endloop\n"
                                   "endloop\n")
            names = [cfg.description.instance_name for cfg in linker.configurators]
            assert names == expected, inner_bounds

    def test_unterminated_loop(self):
        with pytest.raises(ParseError):
            parse_script("loop i 1 2\nattach Fork\n")

    def test_unclosed_loop_is_incomplete_input_at_outermost_loop(self):
        # the outermost open loop is reported, whatever its header and body hold
        for text in ("attach Fork\nloop i 1 2\nloop j 1 2\nendloop\n",
                     "attach Fork\nloop i one 2\nmystery\n"):
            with pytest.raises(IncompleteInput) as err:
                parse_script(text, "open.mac")
            assert str(err.value) == "open.mac:2: loop without a matching endloop"
        assert issubclass(DanglingContinuation, IncompleteInput)

    def test_loop_holds_its_parsed_body(self):
        [loop] = parse_script("loop i 1 2\n"
                              "attach Step named s$(i)\n"
                              "loop j 1 2\n"
                              "# comment\n"
                              "endloop\n"
                              "endloop\n")
        assert isinstance(loop.body[0], Attach)
        assert isinstance(loop.body[1], Loop)
        assert loop.body[1].body[0].describe() == "comment"
        assert loop.describe() == "loop i 1 2 body=2"  # the nested loop counts once

    def test_non_integer_bound(self):
        with pytest.raises(ParseError):
            parse_script("loop i one 2\nendloop\n")


class RecordingLinker:
    """Records the linker calls the interpreter makes."""

    def __init__(self):
        self.calls = []

    def attach(self, type_name, instance_name=None):
        self.calls.append(("attach", type_name, instance_name))

    def route(self, identifier, macro):
        self.calls.append(("route", identifier, list(macro)))

    def run_framework(self, *messages):
        self.calls.append(("run_framework", *messages))
        return []

    def define_group(self, name, messages):
        self.calls.append(("define_group", name, list(messages)))


def reference_substitute(lines, var, value):
    """Line-level substitution: a nested loop re-binding ``var`` keeps its
    body lines untouched, while its header bounds see the outer value."""
    marker = f"$({var})"
    result = []
    shadow_depth = 0
    for line in lines:
        head = line.tokens[0] if line.tokens else None
        if shadow_depth > 0:
            result.append(line)
            shadow_depth += (head == "loop") - (head == "endloop")
            continue
        result.append(LogicalLine(line.lineno, [t.replace(marker, value) for t in line.tokens],
                                  line.comment))
        if head == "loop" and line.tokens[1] == var:
            shadow_depth = 1
    return result


def reference_run(linker, lines):
    """Runs logical lines the way the interpreter did before loop bodies were
    parsed once: each iteration substitutes the body's lines and parses them
    again."""
    interpreter = MacroInterpreter(linker)
    index = 0
    while index < len(lines):
        line = lines[index]
        if line.tokens[:1] != ["loop"]:
            interpreter.execute(parse_directive(line))
            index += 1
            continue
        end, depth = index, 0
        while True:
            head = lines[end].tokens[:1]
            depth += (head == ["loop"]) - (head == ["endloop"])
            if depth == 0:
                break
            end += 1
        _, var, start, stop = line.tokens
        for value in range(int(start), int(stop) + 1):
            reference_run(linker, reference_substitute(lines[index + 1:end], var, str(value)))
        index = end + 1


def random_loop_script(rng, depth=0, bound=()):
    """A balanced script mixing nested and shadowing loops, ``$(var)`` in
    bounds, identifiers and macros, blank and comment lines."""
    def ref():
        return f"$({rng.choice([*bound, 'zz'])})" if bound and rng.random() < 0.8 else "x"

    lines = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(9)
        if kind < 2 and depth < 3:
            var = rng.choice(["i", "j", *bound])  # may shadow an enclosing variable
            start = rng.choice(["0", "1", *(f"$({v})" for v in bound)])
            lines.append(f"loop {var} {start} {rng.randint(0, 2)}")
            lines += random_loop_script(rng, depth + 1, (*bound, var))
            lines.append("endloop")
        elif kind == 2:
            lines.append(rng.choice(["", "# note $(i)", "   "]))
        elif kind == 3:
            lines.append(f"attach Step{ref()} named s{ref()}x{ref()}")
        elif kind == 4:
            lines.append(f"attach T{ref()}  # trailing comment")
        elif kind == 5:
            lines.append(f"cfg Step named s{ref()} define Key{ref()} \\\n  v{ref()} w")
        elif kind == 6:
            lines.append(f"cfg T{ref()} oncall M{ref()} do define K ::construct")
        elif kind == 7:
            lines.append(f"framework run Reset M{ref()}")
        else:
            lines.append(f"framework group g{ref()} A{ref()} B")
    return lines


class TestParseOnce:
    def test_matches_reparsing_every_iteration(self):
        for seed in range(300):
            text = "\n".join(random_loop_script(random.Random(seed))) + "\n"
            expected, actual = RecordingLinker(), RecordingLinker()
            reference_run(expected, tokenize(text))
            execute_script(actual, text)
            assert actual.calls == expected.calls, f"seed {seed}:\n{text}"

    def test_loop_body_is_parsed_once(self, monkeypatch):
        calls = []
        parse = macro_lang.parse_directive
        monkeypatch.setattr(macro_lang, "parse_directive",
                            lambda *args: calls.append(args) or parse(*args))
        linker = RecordingLinker()
        execute_script(linker, "loop i 1 1000\n"
                               "attach Step named s$(i)\n"
                               "cfg Step named s$(i) define Executable e$(i)\n"
                               "endloop\n")
        assert len(calls) == 2
        assert len(linker.calls) == 2000


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
        interpreter = MacroInterpreter(linker)
        interpreter.run_directives(parse_script("attach Fork\nframework run Reset\n"), None)
        assert [r.message for r in interpreter.dispatches] == ["Reset"]

    def test_framework_group_directive(self, linker):
        interpreter = MacroInterpreter(linker)
        interpreter.run_directives(parse_script("attach Fork\n"
                                                "framework group build Reset MakeScript\n"
                                                "framework run build\n"
                                                "framework run Reset\n"), None)
        assert [r.message for r in interpreter.dispatches] == ["Reset", "MakeScript", "Reset"]

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
