"""Configurator behavior: schema, macros, expressions, dependencies, dispatch."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from runjob import make_linker
from runjob.configurator import (
    Configurator,
    ConfiguratorDescription,
    DependencyPattern,
    ValueExpression,
    parse_expression,
)
from runjob.errors import (
    AmbiguousIdentifier,
    CircularReference,
    InvalidKey,
    KeyNotFound,
    MacroParseError,
    NoConstructRegistered,
    UnknownMacro,
    UnsatisfiedDependency,
    VisibilityViolation,
)
from runjob.scriptgen import ScriptObject
from runjob.trigger_store import GLOBAL_READ, current_epoch, indexed_read


def bare(type_name="Box", instance=None):
    return Configurator(ConfiguratorDescription(type_name, instance))


class TestDescription:
    def test_instance_defaults_to_type(self):
        desc = ConfiguratorDescription("HelloWorldScriptGen")
        assert desc.instance_name == "HelloWorldScriptGen"
        assert desc.identifier == "HelloWorldScriptGen"
        assert desc.slug == "HelloWorldScriptGen"

    def test_named_instance_rendering(self):
        desc = ConfiguratorDescription("HelloWorld", "English")
        assert desc.identifier == "HelloWorld named English"
        assert desc.slug == "HelloWorld_English"


class TestDependencyPattern:
    def test_type_only_matches_any_instance(self):
        pattern = DependencyPattern("Step")
        assert pattern.matches(ConfiguratorDescription("Step", "A"))
        assert pattern.matches(ConfiguratorDescription("Step"))
        assert not pattern.matches(ConfiguratorDescription("Fork"))

    def test_instance_constrained(self):
        pattern = DependencyPattern("Step", "A")
        assert pattern.matches(ConfiguratorDescription("Step", "A"))
        assert not pattern.matches(ConfiguratorDescription("Step", "B"))

    def test_render_round_trips_through_tokens(self):
        for pattern in (DependencyPattern("Step"), DependencyPattern("Step", "A")):
            assert DependencyPattern.from_tokens(pattern.render().split()) == pattern


class TestParseExpression:
    def test_literal_joins_tokens_with_single_spaces(self):
        expr = parse_expression(["Hello", "World"])
        assert expr.kind == "literal"
        assert expr.text == "Hello World"

    def test_reference(self):
        expr = parse_expression(["::HelloWorldScriptGen:English"])
        assert expr.kind == "reference"
        assert expr.ref == ("HelloWorldScriptGen", "English")

    def test_construct_and_synonym_forms(self):
        assert parse_expression(["::construct"]).kind == "construct"
        assert parse_expression(["::synonym"]).synonym_key is None
        assert parse_expression(["::synonym:InFile"]).synonym_key == "InFile"

    @pytest.mark.parametrize("tokens", [[], ["::"], ["::x"], ["::x:"], ["::construct", "x"]])
    def test_malformed_expressions(self, tokens):
        with pytest.raises(MacroParseError):
            parse_expression(tokens)


class TestAddItem:
    def test_added_key_is_empty(self):
        cfg = bare()
        cfg.add_item("French")
        assert cfg.store.untriggered_read("French") == ""

    def test_re_add_preserves_value(self):
        cfg = bare()
        cfg.add_item("k")
        cfg.add_item("k")
        cfg.define("k", ValueExpression.literal("v"))
        assert cfg.store.untriggered_read("k") == "v"
        cfg.add_item("k")  # re-add after define keeps the value
        assert cfg.store.untriggered_read("k") == "v"

    def test_empty_key_rejected(self):
        with pytest.raises(InvalidKey):
            bare().add_item("")


class TestDefine:
    def test_literal_then_read(self):
        cfg = bare()
        cfg.define("English", ValueExpression.literal("Hello World"))
        assert cfg.store.read("English") == "Hello World"

    def test_define_autocreates_key(self):
        cfg = bare()
        cfg.define("ScriptGenName", ValueExpression.literal("X"))
        assert "ScriptGenName" in cfg.store

    def test_construct_requires_registered_function(self):
        cfg = bare()
        with pytest.raises(NoConstructRegistered):
            cfg.define("k", ValueExpression.construct())

    def test_construct_reruns_on_every_read(self):
        cfg = bare()
        counter = [0]

        def build():
            counter[0] += 1
            return f"result-{counter[0]}"

        cfg.register_construct("k", build)
        cfg.define("k", ValueExpression.construct())
        assert cfg.resolve_value("k") == "result-1"
        assert cfg.resolve_value("k") == "result-2"

    def test_redefinition_replaces_old_trigger(self):
        cfg = bare()
        cfg.register_construct("k", lambda: "constructed")
        cfg.define("k", ValueExpression.construct())
        assert cfg.resolve_value("k") == "constructed"
        cfg.define("k", ValueExpression.literal("plain"))
        assert cfg.resolve_value("k") == "plain"

    def test_rejected_definition_keeps_the_previous_one(self):
        cfg = bare()
        cfg.define("InputFile", ValueExpression.reference("B", "InputFile"))
        with pytest.raises(NoConstructRegistered):
            cfg.define("InputFile", ValueExpression.construct())
        assert cfg.dump_commands() == ["define InputFile ::B:InputFile"]


class Custom(Configurator):
    def __init__(self, description):
        super().__init__(description)
        self.handled = []

    def parse_macro(self, tokens):
        if tokens[0] != "frobnicate":
            return super().parse_macro(tokens)
        return lambda: self.handled.append(tokens)


class Announcer(Configurator):
    SCHEMA = ("Text", "Extra")

    def __init__(self, description):
        super().__init__(description)
        self.heard = []

    def on_message(self, message):
        if message != "Announce":
            return super().on_message(message)
        self.heard.append(self.resolve_value("Text"))
        return True


class TestApplyMacro:
    def test_additem_via_macro(self):
        cfg = bare()
        cfg.apply_macro("additem English")
        assert cfg.store.untriggered_read("English") == ""

    def test_unknown_macro(self):
        with pytest.raises(UnknownMacro):
            bare().apply_macro("frobnicate")

    def test_subclass_handler_takes_priority_over_base(self):
        cfg = Custom(ConfiguratorDescription("Custom"))
        cfg.apply_macro("frobnicate hard")
        assert cfg.handled == [["frobnicate", "hard"]]

    def test_base_parser_not_invoked_for_macros_a_handler_accepts(self, monkeypatch):
        cfg = Custom(ConfiguratorDescription("Custom"))
        calls = []
        original = Configurator.parse_macro
        monkeypatch.setattr(Configurator, "parse_macro",
                            lambda self, tokens: calls.append(tokens) or original(self, tokens))
        cfg.apply_macro("frobnicate")
        assert calls == []
        cfg.apply_macro("additem x")
        assert calls == [["additem", "x"]]

    def test_macro_arity_errors(self):
        cfg = bare()
        for macro in ("additem", "define k", "synonym a b c", "oncall X cmd"):
            with pytest.raises(MacroParseError):
                cfg.apply_macro(macro)


class TestRequirements:
    def test_satisfied_requirement_recorded(self, linker):
        linker.attach("HelloWorldScriptGen")
        identifier = linker.attach("HelloWorld", "English")
        cfg = linker.find(identifier)
        cfg.apply_macro("addreq HelloWorldScriptGen")
        assert any(r.pattern.type_name == "HelloWorldScriptGen" for r in cfg.requirements)

    def test_strict_mode_rejects_unattached_target(self, linker):
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        with pytest.raises(UnsatisfiedDependency):
            cfg.apply_macro("addreq Ghost")

    def test_lenient_mode_records_anything(self, lenient_linker):
        cfg = lenient_linker.find(lenient_linker.attach("HelloWorld", "English"))
        cfg.apply_macro("addreq Ghost")
        assert any(r.pattern.type_name == "Ghost" for r in cfg.requirements)

    def test_requirements_deduplicate(self, linker):
        linker.attach("HelloWorldScriptGen")
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("addreq HelloWorldScriptGen")
        cfg.apply_macro("addreq HelloWorldScriptGen")
        patterns = [r.pattern for r in cfg.requirements]
        assert len(patterns) == len(set(patterns))

    def test_explicit_addreq_outranks_an_implied_one_in_place(self):
        cfg = bare()
        cfg.add_requirement(DependencyPattern("A"), auto=True)
        cfg.add_requirement(DependencyPattern("B"))
        cfg.add_requirement(DependencyPattern("A"))
        assert cfg.requirements == ((DependencyPattern("A"), False),
                                    (DependencyPattern("B"), False))
        assert cfg.dump_commands() == ["addreq A", "addreq B"]

    def test_attaching_more_never_invalidates(self, linker):
        linker.attach("HelloWorldScriptGen")
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("addreq HelloWorldScriptGen")
        for name in ("French", "German"):
            linker.attach("HelloWorld", name)
        for requirement in cfg.requirements:
            linker.require_attached(cfg, requirement.pattern)  # must not raise


REQUIRE_TYPES = ("A", "B")
REQUIRE_NAMES = ("A", "B", "x", "y")


@settings(max_examples=300, deadline=None, database=None)
@given(patterns=st.lists(st.tuples(st.sampled_from(REQUIRE_TYPES),
                                   st.one_of(st.none(), st.sampled_from(REQUIRE_NAMES)),
                                   st.booleans()), max_size=6),
       target=st.tuples(st.sampled_from(REQUIRE_TYPES), st.sampled_from(REQUIRE_NAMES)))
@example(patterns=[("A", None, True), ("A", "x", False)], target=("A", "x"))
@example(patterns=[("A", "A", False)], target=("A", "A"))
def test_strict_visibility_agrees_with_a_scan_of_the_requirements(patterns, target):
    """``requires``, and so a strict cross-namespace read, allows exactly
    what a scan of every requirement with ``matches`` allows."""
    linker = make_linker(types={"A": Configurator, "B": Configurator, "Holder": Configurator})
    for type_name in REQUIRE_TYPES:
        for name in REQUIRE_NAMES:
            linker.find(linker.attach(type_name, name)).define("k", ValueExpression.literal(name))
    holder = linker.find(linker.attach("Holder"))
    for type_name, name, auto in patterns:
        holder.add_requirement(DependencyPattern(type_name, name), auto=auto)
    description = ConfiguratorDescription(*target)
    expected = any(r.pattern.matches(description) for r in holder.requirements)
    assert holder.requires(description) == expected

    def read():
        return linker.lookup_parameter(holder.description, description.identifier, "k")

    if expected:
        assert read() == target[1]
    else:
        with pytest.raises(VisibilityViolation):
            read()


class TestSynonyms:
    def test_synonym_lookup_routes_to_target(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "define English Hello World")
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("addreq HelloWorldScriptGen")
        cfg.apply_macro("synonym InFile ::HelloWorldScriptGen:English")
        cfg.apply_macro("define InFile ::synonym")
        assert cfg.resolve_value("InFile") == "Hello World"

    def test_explicit_synonym_key_form(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "define English Hello World")
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("addreq HelloWorldScriptGen")
        cfg.apply_macro("synonym Greeting ::HelloWorldScriptGen:English")
        cfg.apply_macro("define Msg ::synonym:Greeting")
        assert cfg.resolve_value("Msg") == "Hello World"

    def test_redefining_synonym_wins(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "define English Hello World")
        linker.route("HelloWorldScriptGen", "define German Hallo Welt")
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("addreq HelloWorldScriptGen")
        cfg.apply_macro("synonym InFile ::HelloWorldScriptGen:English")
        cfg.apply_macro("synonym InFile ::HelloWorldScriptGen:German")
        cfg.apply_macro("define InFile ::synonym")
        assert cfg.resolve_value("InFile") == "Hallo Welt"

    def test_missing_synonym_reports_key(self, linker):
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("define InFile ::synonym")
        with pytest.raises(KeyNotFound):
            cfg.resolve_value("InFile")


class TestOncall:
    def test_stored_commands_run_in_order(self, linker):
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("oncall Tick do define HelloMessage first")
        cfg.apply_macro("oncall Tick do define HelloMessage second")
        cfg.handle_framework("Tick")
        assert cfg.store.untriggered_read("HelloMessage") == "second"

    def test_invalid_stored_command_rejected(self, linker):
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        with pytest.raises(MacroParseError):
            cfg.apply_macro("oncall Tick do define onlykey")

    def test_stored_synonym_must_target_a_reference(self, linker):
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        with pytest.raises(MacroParseError):
            cfg.apply_macro("oncall Tick do synonym InFile literal")
        assert cfg.dump_commands() == ["additem HelloMessage"]  # nothing was stored

    def test_stored_command_is_checked_with_the_subclass_verbs(self):
        with pytest.raises(UnknownMacro, match="Box: unknown macro 'frobnicate'"):
            bare().apply_macro("oncall Tick do frobnicate")
        cfg = Custom(ConfiguratorDescription("Custom"))
        cfg.apply_macro("oncall Tick do frobnicate hard")
        with pytest.raises(UnknownMacro):
            cfg.store_oncall("Tick", "unfrobnicate")
        cfg.handle_framework("Tick")
        assert cfg.handled == [["frobnicate", "hard"]]

    def test_stored_command_is_parsed_once(self, linker, monkeypatch):
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        parsed = []
        original = Configurator.parse_macro
        monkeypatch.setattr(Configurator, "parse_macro",
                            lambda self, tokens: parsed.append(tokens) or original(self, tokens))
        cfg.apply_macro("oncall Tick do define HelloMessage hi")
        assert parsed == [["oncall", "Tick", "do", "define", "HelloMessage", "hi"],
                          ["define", "HelloMessage", "hi"]]
        parsed.clear()
        for _ in range(3):
            cfg.handle_framework("Tick")
        assert parsed == []
        assert cfg.store.untriggered_read("HelloMessage") == "hi"
        assert cfg.dump_commands()[-1] == "oncall Tick do define HelloMessage hi"

    def test_never_dispatched_never_runs(self, linker):
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("oncall Tick do define HelloMessage boom")
        linker.run_framework("Reset")
        assert cfg.store.untriggered_read("HelloMessage") == ""


class TestHandleFramework:
    def test_delegation_outcome(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.attach("HelloWorld", "English")
        linker.route("HelloWorldScriptGen", "define English hi")
        linker.route("HelloWorldScriptGen", "register HelloWorld")
        linker.route("HelloWorld named English",
                     "define HelloMessage ::HelloWorldScriptGen:English")
        outcome = linker.find("HelloWorld named English").handle_framework("MakeJob")
        assert str(outcome) == "Delegated to HelloWorldScriptGen"

    def test_unhandled_message_is_skipped_with_no_side_effects(self, linker):
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        before = dict(cfg.store.items())
        outcome = cfg.handle_framework("MakeScript")
        assert str(outcome) == "Skipped"
        assert dict(cfg.store.items()) == before

    def test_reset_is_handled_by_every_configurator(self, linker):
        for type_name in ("HelloWorldScriptGen", "Fork", "Step", "FileInput"):
            cfg = linker.find(linker.attach(type_name))
            assert str(cfg.handle_framework("Reset")) == "Handled"

    def test_stored_commands_alone_count_as_handled(self, linker):
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("oncall Tick do additem Extra")
        assert str(cfg.handle_framework("Tick")) == "Handled"

    def test_on_message_override_answers_its_own_message(self, tmp_path):
        linker = make_linker(types={"Announcer": Announcer}, output_dir=tmp_path)
        cfg = linker.find(linker.attach("Announcer"))
        assert list(cfg.store) == ["Text", "Extra"]  # declared from SCHEMA, in order
        cfg.apply_macro("define Text hi")
        linker.add_script_object(ScriptObject("job_Announcer.sh", "shell", "true",
                                              cfg.description))
        records = linker.run_framework("Announce", "MakeScript", "Reset")
        assert [(r.message, str(r.outcome)) for r in records] == [
            ("Announce", "Handled"), ("MakeScript", "Skipped"), ("Reset", "Handled")]
        assert cfg.heard == ["hi"]
        # the base class still answers Reset, through super()
        assert linker.collect_script_objects(producer=cfg.description) == []

    def test_builtin_keys_come_from_their_schema(self, linker):
        for type_name in ("HelloWorld", "Step", "FileInput", "DagGen", "Fork"):
            cfg = linker.find(linker.attach(type_name))
            assert tuple(cfg.store) == type(cfg).SCHEMA


class TestResolveValue:
    def test_reference_chain_ends_in_literal(self, linker):
        for name in ("StepA", "StepB", "StepC"):
            linker.attach("Step", name)
        linker.route("Step named StepC", "define OutputFile final.txt")
        linker.route("Step named StepB", "addreq Step named StepC")
        linker.route("Step named StepB", "define OutputFile ::StepC:OutputFile")
        linker.route("Step named StepA", "addreq Step named StepB")
        linker.route("Step named StepA", "define OutputFile ::StepB:OutputFile")
        assert linker.find("StepA").resolve_value("OutputFile") == "final.txt"

    def test_two_cycle_detected(self, lenient_linker):
        linker = lenient_linker
        linker.attach("Step", "A")
        linker.attach("Step", "B")
        linker.route("Step named A", "define x ::B:y")
        linker.route("Step named B", "define y ::A:x")
        with pytest.raises(CircularReference):
            linker.find("A").resolve_value("x")

    @pytest.mark.parametrize("bound", [False, True], ids=["unbound", "bound"])
    def test_construct_reading_its_own_key_is_a_cycle(self, linker, bound):
        if bound:
            linker.register_type("Box", Configurator)
            cfg = linker.find(linker.attach("Box"))
        else:
            cfg = bare()
        cfg.register_construct("k", lambda: cfg.resolve_value("k"))
        cfg.define("k", ValueExpression.construct())
        with pytest.raises(CircularReference, match="^reference cycle: Box:k -> Box:k$"):
            cfg.resolve_value("k")

    def test_chain_inside_one_configurator_is_not_capped(self, linker):
        # longer than the store's nesting cap for handler rewrite loops
        cfg = linker.find(linker.attach("Step", "A"))
        cfg.apply_macro("define k0 root")
        for i in range(1, 20):
            cfg.apply_macro(f"define k{i} ::A:k{i - 1}")
        assert cfg.store.read_handler_ids("k19") == []
        assert cfg.resolve_value("k19") == "root"

    def test_resolution_is_repeatable(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "define English Hello World")
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("addreq HelloWorldScriptGen")
        cfg.apply_macro("define HelloMessage ::HelloWorldScriptGen:English")
        assert cfg.resolve_value("HelloMessage") == cfg.resolve_value("HelloMessage")

    def test_each_read_performs_fresh_lookup(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "define English one")
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        cfg.apply_macro("addreq HelloWorldScriptGen")
        cfg.apply_macro("define HelloMessage ::HelloWorldScriptGen:English")
        assert cfg.resolve_value("HelloMessage") == "one"
        linker.route("HelloWorldScriptGen", "define English two")
        assert cfg.resolve_value("HelloMessage") == "two"

    def test_missing_key(self, linker):
        cfg = linker.find(linker.attach("HelloWorld", "English"))
        with pytest.raises(KeyNotFound):
            cfg.resolve_value("Nope")

    @pytest.mark.parametrize("change, expected", [
        (lambda linker, source: linker.route("FileInput named D", "define v other"), "other"),
        (lambda linker, source: linker.route("Step named C", "synonym v ::D:w"), "other"),
        # a bare Configurator writes nothing when built: only attach itself
        # tells the memo that "D" now names two configurators
        (lambda linker, source: (linker.register_type("Box", Configurator),
                                 linker.attach("Box", "D")), AmbiguousIdentifier),
        (lambda linker, source: (source.write_text("v=reloaded\n"),
                                 linker.run_framework("Reset")), "reloaded"),
    ], ids=["define", "synonym", "ambiguous-attach", "reload"])
    def test_chain_of_length_three_rewalks_only_after_a_change(self, linker, tmp_path,
                                                                change, expected):
        # A:v -> B:v -> C:v (through C's synonym table) -> D:v, read from a file
        source = tmp_path / "d.txt"
        source.write_text("v=end\nw=other\n")
        for name in ("A", "B", "C"):
            linker.attach("Step", name)
        linker.attach("FileInput", "D")
        linker.route("FileInput named D", f"define SourceFile {source}")
        linker.run_framework("Reset")
        for child, parent in (("B", "Step named C"), ("A", "Step named B")):
            linker.route(f"Step named {child}", f"addreq {parent}")
            linker.route(f"Step named {child}", f"define v ::{parent.split()[-1]}:v")
        linker.route("Step named C", "addreq FileInput named D")
        linker.route("Step named C", "synonym v ::D:v")
        linker.route("Step named C", "define v ::synonym")
        calls = []
        original = linker.lookup_parameter

        def counting(requester, target, key):
            calls.append((target, key))
            return original(requester, target, key)

        linker.lookup_parameter = counting
        head = linker.find("A")
        assert head.resolve_value("v") == "end"
        assert len(calls) == 3  # one per reference hop
        head.resolve_value("v")
        assert len(calls) == 3  # nothing changed, nothing re-walked
        change(linker, source)
        if isinstance(expected, str):
            calls.clear()
            assert head.resolve_value("v") == expected
            assert len(calls) == 3
            calls.clear()
            assert head.resolve_value("v") == expected
            assert calls == []
        else:
            for _ in range(2):  # an error is never kept: each read walks again
                calls.clear()
                with pytest.raises(expected):
                    head.resolve_value("v")
                assert len(calls) == 3

    # only a mutation that can change a memoized value advances the epoch: a
    # requirement only widens visibility and a construct read is never memoized
    @pytest.mark.parametrize("mutate, advances", [
        (lambda cfg: cfg.set_synonym("k", ("X", "k")), True),
        (lambda cfg: cfg.add_requirement(DependencyPattern("Step")), False),
        (lambda cfg: cfg.register_construct("k", lambda: ""), False),
    ], ids=["set_synonym", "add_requirement", "register_construct"])
    def test_mutations_advance_the_epoch(self, mutate, advances):
        cfg = bare()
        before = current_epoch()
        mutate(cfg)
        assert (current_epoch() > before) is advances

    def test_requirements_change_only_through_add_requirement(self):
        cfg = bare()
        cfg.add_requirement(DependencyPattern("Step"))
        with pytest.raises(AttributeError):
            cfg.requirements.append(cfg.requirements[0])
        with pytest.raises(AttributeError):
            cfg.requirements = ()
        assert [r.pattern for r in cfg.requirements] == [DependencyPattern("Step")]


read_ops = st.lists(st.one_of(
    st.tuples(st.just("define"), st.sampled_from(["one", "two"])),
    st.tuples(st.just("resolve"), st.sampled_from(["k", "absent"])),
    st.tuples(st.just("register"), st.sampled_from(["global", "indexed"])),
    st.tuples(st.just("deregister"), st.just(None)),
), max_size=12)


@settings(max_examples=300, deadline=None, database=None)
@given(ops=read_ops)
@example(ops=[("define", "one"), ("resolve", "k"), ("register", "indexed"),
              ("resolve", "k"), ("resolve", "k"), ("resolve", "absent")])
def test_read_handlers_fire_on_every_resolve(ops):
    """A plain value resolves with one dict read only while its store has
    no handler: a read handler registered after the value was resolved
    fires on every later read, and a missing key raises KeyNotFound."""
    cfg = bare()
    value = None
    fired, expected, active = [], [], []  # active: (handler id, watched key or None)
    for op, arg in ops:
        if op == "define":
            cfg.define("k", ValueExpression.literal(arg))
            value = arg
        elif op == "register":
            kind = GLOBAL_READ if arg == "global" else indexed_read("k")
            handler_id = cfg.store.register_trigger(kind, lambda args: fired.append(args[1]))
            active.append((handler_id, None if arg == "global" else "k"))
        elif op == "deregister" and active:
            cfg.store.deregister_trigger(active.pop(0)[0])
        elif op == "resolve":
            expected += [arg for _, key in active if key in (None, arg)]
            if arg == "k" and value is not None:
                assert cfg.resolve_value(arg) == value
            else:
                with pytest.raises(KeyNotFound):
                    cfg.resolve_value(arg)
        assert fired == expected
