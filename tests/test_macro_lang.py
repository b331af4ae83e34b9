"""Macro language: tokenizer, directive parsing, loops, sourcing, fail-fast."""

import gc
import itertools
import random
import re
import tracemalloc
import weakref
from sys import intern

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from runjob import Configurator, execute_script, make_linker, macro_lang, parse_script, tokenize
from runjob.configurator import parse_identifier, split_identifier
from runjob.errors import (
    DanglingContinuation,
    IncompleteInput,
    MacroParseError,
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
        lines = list(tokenize("cfg HelloWorldScriptGen define English \\\n Hello World"))
        assert len(lines) == 1
        assert lines[0].tokens == ["cfg", "HelloWorldScriptGen", "define",
                                   "English", "Hello", "World"]

    def test_comment_line_has_no_tokens(self):
        lines = list(tokenize("# Attach the ScriptGen"))
        assert lines[0].tokens == []
        assert lines[0].comment

    def test_inline_comment_stripped(self):
        lines = list(tokenize("attach Fork # the batch portal"))
        assert lines[0].tokens == ["attach", "Fork"]

    def test_dangling_continuation(self):
        with pytest.raises(DanglingContinuation) as err:
            list(tokenize("attach Fork\na \\", filename="bad.mac"))
        assert err.value.lineno == 2
        assert "bad.mac:2" in str(err.value)

    def test_crlf_input_accepted(self):
        lines = list(tokenize("attach Fork\r\nattach HelloWorld named X\r\n"))
        assert [l.tokens[0] for l in lines] == ["attach", "attach"]

    def test_logical_line_records_first_physical_line(self):
        lines = list(tokenize("attach Fork\ncfg Fork define A \\\n b \\\n c\nattach Fork"))
        assert [l.lineno for l in lines] == [1, 2, 5]

    @pytest.mark.parametrize("space", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
    def test_only_lf_crlf_and_cr_end_a_line(self, space):
        # str.splitlines() would also break here; an editor does not
        lines = list(tokenize(f"attach Fork{space}named X\nbogus here\n"))
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


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from(TOKENIZER_PIECES), max_size=40).map("".join), st.integers(1, 6))
def test_tokenize_matches_reference_when_lines_are_split_a_few_characters_at_a_time(text, block):
    with pytest.MonkeyPatch.context() as patch:  # the real block is larger than any example
        patch.setattr(macro_lang, "_BLOCK", block)
        assert tokenize_outcome(text) == reference_tokenize(text)


class TestParseDirective:
    def parse_one(self, text):
        return parse_directive(next(tokenize(text)))

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
        assert directive.text == "oncall RunJob do define ExecutableList ::construct"

    def test_cfg_named_identifier_consumes_three_tokens(self):
        directive = self.parse_one("cfg HelloWorld named English define HelloMessage hi")
        assert directive.identifier == "HelloWorld named English"
        assert directive.text == "define HelloMessage hi"

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
        "loop i 1\nendloop",
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


def reference_parse_directive(line, filename=None):
    """``parse_directive`` as it was before ``attach`` and ``cfg`` lines were
    built straight from their tokens: each went through ``split_identifier``."""
    tokens = line.tokens
    if not tokens or tokens[0] not in ("attach", "cfg"):
        return parse_directive(line, filename)
    try:
        if tokens[0] == "attach":
            type_name, instance = parse_identifier(tokens[1:])
            return Attach(line.lineno, type_name, instance)
        type_name, instance, macro = split_identifier(tokens[1:])
    except MacroParseError as exc:
        raise ParseError(exc.message, filename=filename, lineno=line.lineno) from None
    if not macro:
        raise ParseError("cfg requires an identifier and a macro",
                         filename=filename, lineno=line.lineno)
    return Cfg(line.lineno, type_name, instance, " ".join(macro))


def directive_outcome(parse, tokens):
    try:
        directive = parse(LogicalLine(3, list(tokens)), "d.mac")
    except ParseError as exc:
        return type(exc).__name__, exc.message, exc.filename, exc.lineno
    return type(directive).__name__, vars(directive)


DIRECTIVE_WORDS = ["cfg", "attach", "named", "Step", "HelloWorld", "define", "$(i)", "::X:y"]


@settings(max_examples=1000, deadline=None, database=None)
@given(st.lists(st.sampled_from(DIRECTIVE_WORDS), min_size=1, max_size=7))
@example(["cfg", "Step", "named"])
@example(["cfg", "Step", "named", "A"])
@example(["cfg", "named", "named", "X", "y"])
@example(["attach", "Step", "named", "A", "define"])
def test_parse_directive_matches_a_parse_through_split_identifier(tokens):
    outcome = directive_outcome(parse_directive, tokens)
    assert outcome == directive_outcome(reference_parse_directive, tokens)
    if outcome[0] in ("Attach", "Cfg"):  # one string per type name
        assert intern(outcome[1]["type_name"]) is outcome[1]["type_name"]


def test_plain_attach_and_cfg_lines_skip_the_identifier_parser(monkeypatch):
    # counted, not timed: the four shapes that split_identifier cannot reject
    def refuse(tokens):
        raise AssertionError(f"identifier parser called on {tokens}")

    monkeypatch.setattr("runjob.configurator.split_identifier", refuse)
    monkeypatch.setattr("runjob.configurator.parse_identifier", refuse)
    shapes = ["attach Step", "attach Step named s{0}", "cfg Step define Args a{0}",
              "cfg Step named s{0} define Args a{0}"]
    text = "".join(shapes[n % 4].format(n) + "\n" for n in range(1000))
    directives = parse_script(text)
    assert [type(d) for d in directives] == [Attach, Attach, Cfg, Cfg] * 250
    assert directives[-1].describe() == "cfg Step named s999 :: define Args a999"


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

    @pytest.mark.parametrize("outer, bounds, bad", [
        ("1 2", "1 $(k)", "$(k)"),
        ("1 0", "1 $(k)", "$(k)"),  # checked though the loop never runs
        ("1 2", "$(j) 2", "$(j)"),  # a loop's own variable is not bound in its header
        ("1 2", "$(i)x 2", "$(i)x"),
        ("1 2", "1 $(", "$("),
    ])
    def test_bound_must_be_an_integer_given_the_enclosing_variables(self, outer, bounds, bad):
        text = (f"loop i {outer}\nloop j {bounds}\nattach Step named s$(i)x$(j)\n"
                "endloop\nendloop\n")
        with pytest.raises(ParseError) as err:
            parse_script(text, "a.mac")
        assert str(err.value) == f"a.mac:2: loop bound {bad!r} is not an integer"

    def test_bound_may_use_any_enclosing_variable(self, linker):
        execute_script(linker, "loop i 1 2\nloop j -$(i) 0$(i)\nloop k $(i) $(i)\n"
                               "attach Step named s$(i)x$(j)x$(k)\nendloop\nendloop\nendloop\n")
        names = [cfg.description.instance_name for cfg in linker.configurators]
        assert names == ["s1x-1x1", "s1x0x1", "s1x1x1",
                         "s2x-2x2", "s2x-1x2", "s2x0x2", "s2x1x2", "s2x2x2"]

    def test_outer_value_completes_an_inner_marker(self, linker):
        # a copied loop plans the body it was given, not the one it was parsed with
        execute_script(linker, "loop i 1 2\nloop 1 7 7\nattach Step named s$($(i))x$(i)\n"
                               "endloop\nendloop\n")
        names = [cfg.description.instance_name for cfg in linker.configurators]
        assert names == ["s7x1", "s$(2)x2"]


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
            reference_run(expected, list(tokenize(text)))
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

    def test_a_run_leaves_the_parsed_directives_as_parsed(self, linker):
        def fields(directives):  # vars() of each directive, loop bodies in turn
            return [{name: fields(value) if name == "body" else
                     list(value) if isinstance(value, list) else value
                     for name, value in vars(directive).items()}
                    for directive in directives]

        directives = parse_script("attach HelloWorldScriptGen\n"
                                  "loop i 1 2\n"
                                  "attach HelloWorld named h$(i)\n"
                                  "cfg HelloWorld named h$(i) define English Hi $(i)\n"
                                  "loop j 1 $(i)\n"
                                  "framework group g$(i)x$(j) Reset\n"
                                  "endloop\n"
                                  "endloop\n"
                                  "framework run Reset MakeJob\n", "n.mac")
        before = fields(directives)
        MacroInterpreter(linker).run_directives(directives, "n.mac")
        assert len(linker.configurators) == 3
        assert fields(directives) == before


def reference_head(line):
    return line.tokens[0] if line.tokens else None


def reference_matching_endloop(lines, start, filename):
    """Index of the endloop closing the loop at ``lines[start]``."""
    depth = 0
    for index in range(start, len(lines)):
        head = reference_head(lines[index])
        if head == "loop":
            depth += 1
        elif head == "endloop":
            depth -= 1
            if depth == 0:
                return index
    raise IncompleteInput("loop without a matching endloop",
                          filename=filename, lineno=lines[start].lineno)


def reference_parse_loop_header(line, filename, loop_vars):
    tokens = line.tokens
    if len(tokens) != 4:
        raise ParseError("usage: loop <var> <from> <to>",
                         filename=filename, lineno=line.lineno)
    for bound in tokens[2:]:
        macro_lang._loop_bound(bound, line.lineno, filename, loop_vars)
    return Loop(line.lineno, tokens[1], tokens[2], tokens[3])


def reference_parse_block(lines, filename=None, loop_vars=()):
    """The recursive parser that ``parse_block`` replaced: a loop's endloop
    is found before its header and body are checked, and its body is parsed
    from a slice of ``lines``."""
    directives = []
    index = 0
    while index < len(lines):
        line = lines[index]
        if reference_head(line) == "loop":
            end = reference_matching_endloop(lines, index, filename)
            loop = reference_parse_loop_header(line, filename, loop_vars)
            loop.body = reference_parse_block(lines[index + 1:end], filename,
                                              (*loop_vars, loop.var))
            if len(lines[end].tokens) > 1:
                raise ParseError("usage: endloop", filename=filename, lineno=lines[end].lineno)
            directives.append(loop)
            index = end
        else:
            directives.append(parse_directive(line, filename))
        index += 1
    return directives


def directive_tree(directives):
    """Each directive's type and fields, loop bodies in turn."""
    return [(type(directive).__name__,
             {name: directive_tree(value) if name == "body" else value
              for name, value in vars(directive).items()})
            for directive in directives]


def parse_outcome(parse):
    try:
        return directive_tree(parse())
    except ParseError as exc:
        return type(exc).__name__, exc.filename, exc.lineno, exc.message


# lines mixed into generated scripts: bad bounds, endloops with extra tokens,
# stray endloops, unknown directives and malformed headers; None deletes a line
PARSER_MUTATIONS = ["loop j 1 $(k)", "loop j $(i) 2", "loop k 1 $(i)\nattach T\nendloop",
                    "endloop extra", "endloop", "bogus line", "loop", "loop i one 2", None]


@settings(max_examples=500, deadline=None, database=None)
@given(st.integers(0, 10**6),
       st.lists(st.tuples(st.integers(0, 100), st.sampled_from(PARSER_MUTATIONS)), max_size=4),
       st.sampled_from([False, False, False, True]))
def test_one_pass_parser_matches_the_recursive_parser(seed, mutations, dangling):
    lines = "\n".join(random_loop_script(random.Random(seed))).split("\n")
    for position, mutation in mutations:
        index = position % (len(lines) + 1)
        if mutation is not None:
            lines.insert(index, mutation)
        elif index < len(lines):
            del lines[index]
    text = "\n".join(lines) + (" \\\n" if dangling else "\n")
    assert parse_outcome(lambda: parse_script(text, "m.mac")) == parse_outcome(
        lambda: reference_parse_block(list(tokenize(text, "m.mac")), "m.mac")), text


def mutated_loop_script(seed, mutations, dangling):
    """A ``random_loop_script`` with ``PARSER_MUTATIONS`` applied, ending
    in a dangling continuation if ``dangling``."""
    lines = "\n".join(random_loop_script(random.Random(seed))).split("\n")
    for position, mutation in mutations:
        index = position % (len(lines) + 1)
        if mutation is not None:
            lines.insert(index, mutation)
        elif index < len(lines):
            del lines[index]
    return "\n".join(lines) + (" \\\n" if dangling else "\n")


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(0, 10**6),
       st.lists(st.tuples(st.integers(0, 100), st.sampled_from(PARSER_MUTATIONS)), max_size=4),
       st.sampled_from([False, False, False, True]),
       st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_push_parser_matches_a_parse_of_the_text_fed_so_far(seed, mutations, dangling, runs):
    physical = mutated_loop_script(seed, mutations, dangling).splitlines(keepends=True)
    for sizes in ([1], runs):  # one physical line per feed, then runs of whole lines
        parser, fed = macro_lang.Parser("m.mac"), 0
        for size in itertools.cycle(sizes):
            if fed == len(physical):
                break
            parser.feed("".join(physical[fed:fed + size]))
            fed = min(fed + size, len(physical))
            expected = parse_outcome(lambda: parse_script("".join(physical[:fed]), "m.mac"))
            assert parse_outcome(parser.finish) == expected, (sizes, physical[:fed])
            assert parse_outcome(parser.finish) == expected  # finishing changes nothing


def test_a_deep_nest_parses_in_one_pass():
    depth = 5000
    directives = parse_script("loop i 1 1\n" * depth + "attach Step\n" + "endloop\n" * depth)
    for lineno in range(1, depth + 1):
        [loop] = directives
        assert (type(loop), loop.lineno) == (Loop, lineno)
        directives = loop.body
    assert [directive.describe() for directive in directives] == ["attach Step"]


def parse_overhead(groups):
    """What ``parse_script`` holds at its peak beyond what it returns, for
    ``groups`` copies of one five-line group of lines of fixed lengths."""
    text = "".join(f"loop i 1 2\ncfg Step named s{g:06d}x$(i) define K \\\n  v{g:06d}\nendloop\n"
                   f"attach Step named t{g:06d}  # note\n" for g in range(groups))
    gc.collect()
    tracemalloc.start()
    try:
        directives = parse_script(text)
        current, peak = tracemalloc.get_traced_memory()
        assert len(directives) == 2 * groups
        return peak - current
    finally:
        tracemalloc.stop()


def test_parsing_holds_no_more_at_its_peak_for_more_lines():
    few, many = parse_overhead(500), parse_overhead(2000)
    assert many <= few + 4096, (few, many)


class TestParsedRepresentation:
    def test_lines_that_name_one_type_share_one_type_name(self):
        directives = parse_script("attach Stepper named a\n"
                                  "cfg Stepper define Key one\n"
                                  "cfg Stepper named a define Key two\n"
                                  "attach Stepper\n")
        first = directives[0].type_name
        assert first == "Stepper"
        assert all(directive.type_name is first for directive in directives)

    def test_a_cfg_holds_its_macro_as_one_string(self):
        [cfg] = parse_script("cfg Step named a define  Key two \\\n  words $(i)\n")
        assert not any(isinstance(value, list) for value in vars(cfg).values())
        assert cfg.text == "define Key two words $(i)"
        assert cfg.describe() == "cfg Step named a :: define Key two words $(i)"


LOOP_SHELL = ("attach HelloWorldScriptGen\n"
              "cfg HelloWorldScriptGen register HelloWorld\n"
              "attach Fork\n"
              "cfg Fork define ScriptGenName HelloWorldScriptGen\n"
              "cfg Fork oncall RunJob do define ExecutableList ::construct\n"
              "loop i 1 {n}\n"
              "cfg HelloWorldScriptGen define textA$(i) gamma sierra $(i)\n"
              "attach HelloWorld named greeter$(i)\n"
              "cfg HelloWorldScriptGen define text1$(i) gamma lima $(i)\n"
              "cfg HelloWorld named greeter$(i) define HelloMessage "
              "::HelloWorldScriptGen:text1$(i)\n"
              "endloop\n")


def test_sourcing_a_dump_peaks_near_the_state_it_leaves(tmp_path):
    # The whole script is parsed before its first directive runs, so the
    # peak is the larger of the parsed script and the state it builds.  On
    # CPython 3.11 this 8,007-line dump peaks 0.03% above what it leaves; a
    # list of token strings per cfg line put the peak 51% above.
    planned = make_linker(output_dir=tmp_path)
    execute_script(planned, LOOP_SHELL.format(n=2000))
    dump = planned.dump_state()
    del planned
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        linker = make_linker(output_dir=tmp_path)
        execute_script(linker, dump)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert linker.dump_state() == dump
    assert peak - before <= 1.1 * (current - before), (current - before, peak - before)


@pytest.mark.parametrize("run", ["execute_script", "execute_file"])
def test_a_top_level_directive_is_released_once_it_has_run(monkeypatch, tmp_path, run):
    parsed = {}  # lineno -> a weak reference to the directive parsed there
    parse = macro_lang.parse_directive

    def parse_and_watch(line, filename=None):
        directive = parse(line, filename)
        parsed[directive.lineno] = weakref.ref(directive)
        return directive

    seen = []

    class Probe(Configurator):
        def __init__(self, description):
            super().__init__(description)
            seen.append(parsed[1]() is None)  # attached at line 2

    monkeypatch.setattr(macro_lang, "parse_directive", parse_and_watch)
    linker = make_linker(output_dir=tmp_path, types={"Probe": Probe})
    text = "attach Step\nattach Probe\n"
    if run == "execute_script":
        execute_script(linker, text, "t.mac")
    else:
        (tmp_path / "t.mac").write_text(text)
        execute_file(linker, tmp_path / "t.mac")
    assert seen == [True]


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

    def test_check_visits_only_sources_and_loops(self, fixtures, monkeypatch):
        # counted, not timed: helloworld.mac holds neither
        calls = []
        execute = MacroInterpreter.execute
        monkeypatch.setattr(MacroInterpreter, "execute",
                            lambda *args: calls.append(args) or execute(*args))
        check_script(fixtures / "helloworld.mac")
        assert calls == []
