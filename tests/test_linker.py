"""Linker behavior: attach/route, dispatch, visibility, repository, dumps."""

import gc
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from runjob import execute_script, make_linker
from runjob.configurator import Configurator, ConfiguratorDescription
from runjob.errors import (
    AmbiguousIdentifier,
    DuplicateIdentifier,
    KeyNotFound,
    MacroParseError,
    RunjobError,
    UnknownConfigurator,
    UnknownType,
    UnsatisfiedDependency,
    VisibilityViolation,
)
from runjob.scriptgen import ScriptObject
from runjob.trigger_store import current_epoch


class FailsToBuild(Configurator):
    """Raises once its base class is built, so every attach of it fails."""

    def __init__(self, description):
        super().__init__(description)
        raise RunjobError(f"{self.identifier} cannot be built")


class TestAttach:
    def test_attach_returns_identifier(self, linker):
        assert linker.attach("HelloWorld", "English") == "HelloWorld named English"
        assert linker.attach("Fork") == "Fork"

    def test_duplicate_identifier(self, linker):
        linker.attach("HelloWorld", "English")
        with pytest.raises(DuplicateIdentifier):
            linker.attach("HelloWorld", "English")

    def test_unknown_type(self, linker):
        with pytest.raises(UnknownType):
            linker.attach("Nonesuch")

    def test_rolled_back_attach_leaves_no_index_entry(self, linker):
        linker.register_type("FailsToBuild", FailsToBuild)
        with pytest.raises(RunjobError, match="cannot be built"):
            linker.attach("FailsToBuild", "web")
        with pytest.raises(UnknownConfigurator):
            linker.find("web")
        linker.attach("Step", "probe")
        with pytest.raises(UnsatisfiedDependency):
            linker.route("Step named probe", "addreq FailsToBuild")
        linker.register_type("FailsToBuild", Configurator)
        assert linker.attach("FailsToBuild", "web") == "FailsToBuild named web"
        assert linker.find("web").identifier == "FailsToBuild named web"

    def test_failed_strict_attach_changes_nothing(self, linker):
        linker.register_type("FailsToBuild", FailsToBuild)
        probe = linker.find(linker.attach("Step", "probe"))
        epoch, attached = current_epoch(), linker.configurators
        with pytest.raises(RunjobError, match="cannot be built"):
            linker.attach("FailsToBuild")
        assert (current_epoch(), linker.configurators) == (epoch, attached)
        with pytest.raises(UnknownConfigurator):
            linker.find("FailsToBuild")
        with pytest.raises(UnsatisfiedDependency):
            probe.apply_macro("addreq FailsToBuild")

    def test_failed_strict_attach_of_a_schema_type_leaves_the_epoch(self, linker):
        class Keyed(FailsToBuild):
            SCHEMA = ("A", "B")

        linker.register_type("Keyed", Keyed)  # a class: attach builds it
        epoch = current_epoch()
        with pytest.raises(RunjobError, match="cannot be built"):
            linker.attach("Keyed")
        assert current_epoch() == epoch

    def test_failed_strict_attach_leaves_the_epoch(self, linker):
        linker.register_type("FailsToBuild", FailsToBuild)
        linker.attach("ScriptGen")
        linker.route("ScriptGen", "register FailsToBuild")
        epoch = current_epoch()  # read before the configurator is built
        with pytest.raises(RunjobError, match="cannot be built"):
            linker.attach("FailsToBuild")
        assert current_epoch() == epoch

    def test_each_strict_requirement_is_checked_once(self, linker, monkeypatch):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "register HelloWorld")
        checked = []
        original = type(linker).require_attached
        monkeypatch.setattr(type(linker), "require_attached",
                            lambda self, cfg, pattern: checked.append(pattern)
                            or original(self, cfg, pattern))
        attached = [linker.find(linker.attach("HelloWorld", f"H{i}")) for i in range(200)]
        assert len(checked) == sum(len(cfg.requirements) for cfg in attached) == 200

    def test_strict_is_read_only(self, linker, lenient_linker):
        with pytest.raises(AttributeError):
            linker.strict = False
        assert linker.strict is True
        assert lenient_linker.strict is False


class TestFind:
    def test_single_token_prefers_type_named_configurator(self, linker):
        linker.attach("HelloWorldScriptGen")
        assert linker.find("HelloWorldScriptGen").identifier == "HelloWorldScriptGen"

    def test_single_token_falls_back_to_unique_instance(self, linker):
        linker.attach("Step", "StepA")
        assert linker.find("StepA").identifier == "Step named StepA"

    def test_instance_name_shared_across_types_is_ambiguous(self, linker):
        linker.attach("Step", "main")
        linker.attach("HelloWorld", "main")
        with pytest.raises(AmbiguousIdentifier):
            linker.find("main")
        assert linker.find("Step named main").description.type_name == "Step"

    def test_unknown_identifier(self, linker):
        with pytest.raises(UnknownConfigurator):
            linker.find("Nobody")

    def test_route_to_unknown_configurator(self, linker):
        with pytest.raises(UnknownConfigurator):
            linker.route("Nobody", "additem x")

    def test_multi_token_identifier_consumed_before_macro(self, linker):
        execute_script(linker, "attach HelloWorld named English\n"
                               "cfg HelloWorld named English additem Probe\n")
        assert "Probe" in linker.find("HelloWorld named English").store


FIND_TYPES = ("A", "B", "named", "RollsBack")
FIND_WORDS = FIND_TYPES + ("x", "y", "Z")


def reference_find(attached, identifier):
    """Parse ``identifier``, then look it up among the attached (type, name)
    pairs: the lookup ``Linker.find`` made before identifiers were keys."""
    tokens = identifier.split()
    if len(tokens) == 3 and tokens[1] == "named":
        type_name, instance = tokens[0], tokens[2]
    elif len(tokens) == 1:
        type_name, instance = tokens[0], None
    else:
        raise MacroParseError("malformed configurator identifier: "
                              + (" ".join(tokens) or "<empty>"))
    if instance is not None:
        if (type_name, instance) not in attached:
            raise UnknownConfigurator(f"no configurator {type_name} named {instance}")
        return type_name, instance
    if (type_name, type_name) in attached:
        return type_name, type_name
    by_instance = [pair for pair in attached if pair[1] == type_name]
    if len(by_instance) == 1:
        return by_instance[0]
    if by_instance:
        raise AmbiguousIdentifier(f"{type_name!r} names {len(by_instance)} attached configurators")
    raise UnknownConfigurator(f"no configurator matches {type_name!r}")


def outcome(call):
    try:
        return call()
    except RunjobError as exc:
        return type(exc), exc.message


spellings = st.one_of(
    st.sampled_from(FIND_WORDS),  # a type or a bare instance name
    st.builds("{} named {}".format, st.sampled_from(FIND_WORDS), st.sampled_from(FIND_WORDS)),
    st.builds(lambda pad, t, n: f"{pad}{t}{pad}named{pad}{n}{pad}",
              st.sampled_from([" ", "  ", "\t"]),
              st.sampled_from(FIND_WORDS), st.sampled_from(FIND_WORDS)),
    st.lists(st.sampled_from(FIND_WORDS), max_size=4).map(" ".join),  # malformed, too
)
attaches = st.lists(st.tuples(st.sampled_from(FIND_TYPES),
                              st.one_of(st.none(), st.sampled_from(FIND_WORDS))), max_size=10)


@settings(max_examples=300, deadline=None, database=None)
@given(attaches=attaches, identifiers=st.lists(spellings, min_size=1, max_size=6))
@example(attaches=[("A", "x"), ("B", "x"), ("A", "A"), ("RollsBack", "y")],
         identifiers=["x", "A named A", "A", " A  named  x ", "RollsBack named y", "y", "Z"])
def test_find_agrees_with_parse_then_lookup(attaches, identifiers):
    """After each attach, or rolled-back attach, ``find`` returns what the
    reference does for every spelling, or raises the same error."""
    linker = make_linker(types={"A": Configurator, "B": Configurator, "named": Configurator,
                                "RollsBack": FailsToBuild})
    attached = []
    for type_name, instance in attaches:
        try:
            linker.attach(type_name, instance)
        except DuplicateIdentifier:
            pass
        except RunjobError:
            assert type_name == "RollsBack"  # the one type whose build fails
        else:
            attached.append((type_name, instance or type_name))
        for identifier in identifiers:
            expected = outcome(lambda: reference_find(attached, identifier))
            found = outcome(lambda: tuple(linker.find(identifier).description))
            assert found == expected, (attached, identifier)


class TestRunFramework:
    def test_empty_linker_empty_summary(self, linker):
        assert linker.run_framework("Reset") == []

    def test_dispatch_visits_attach_order_every_run(self, linker):
        for name in ("b", "a", "c"):
            linker.attach("HelloWorld", name)
        for _ in range(2):
            records = linker.run_framework("Reset")
            assert [r.description.instance_name for r in records] == ["b", "a", "c"]

    def test_group_run_equals_individual_runs(self, linker):
        linker.attach("HelloWorld", "English")
        linker.attach("Fork")
        linker.define_group("build", ["Reset", "MakeJob", "MakeScript"])
        grouped = linker.run_framework("build")
        individual = linker.run_framework("Reset", "MakeJob", "MakeScript")
        assert grouped == individual

    def test_each_run_returns_only_its_own_records(self, linker):
        linker.attach("HelloWorld", "English")
        first = linker.run_framework("Reset")
        second = linker.run_framework("Reset", "MakeScript")
        assert [(r.message, r.description.identifier) for r in first] == [
            ("Reset", "HelloWorld named English")]
        assert [r.message for r in second] == ["Reset", "MakeScript"]
        assert not hasattr(linker, "dispatch_log")  # the linker keeps no history

    def test_repeated_runs_retain_no_memory(self, linker, helloworld_text):
        execute_script(linker, helloworld_text)
        linker.run_framework("Reset")  # first-use allocations happen here

        def retained(runs):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(runs):
                    linker.run_framework("Reset")
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        few, many = retained(10), retained(1000)
        assert many <= few + 4096, (few, many)

    def test_loop_plan_retains_flat_memory_per_iteration(self, tmp_path):
        # the bench's loop_shell shape: per iteration one attach, three defines
        text = ("attach HelloWorldScriptGen\n"
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

        def per_iteration(n):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                linker = make_linker(output_dir=tmp_path, run_mode="dry-run")
                execute_script(linker, text.format(n=n))
                linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
                gc.collect()
                return (tracemalloc.get_traced_memory()[0] - before) / n
            finally:
                tracemalloc.stop()

        small, large = per_iteration(500), per_iteration(2000)
        assert large <= 1.1 * small, (small, large)

    def test_handler_error_aborts_with_context(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "register HelloWorld")
        linker.attach("HelloWorld", "English")
        linker.route("HelloWorld named English", "define HelloMessage ::Ghost:x")
        with pytest.raises(UnknownConfigurator) as err:
            linker.run_framework("MakeJob")
        assert err.value.dispatch_context == ("MakeJob", "HelloWorld named English")


class TestLookupParameter:
    def setup_pair(self, linker):
        linker.attach("HelloWorldScriptGen")
        linker.route("HelloWorldScriptGen", "define English Hello World")
        linker.attach("HelloWorld", "English")
        return linker.find("HelloWorld named English")

    def test_dependent_read_succeeds(self, linker):
        cfg = self.setup_pair(linker)
        linker.route("HelloWorldScriptGen", "register HelloWorld")  # adds the dependency
        value = linker.lookup_parameter(cfg.description, "HelloWorldScriptGen", "English")
        assert value == "Hello World"

    def test_undeclared_read_fails_in_strict_mode(self, linker):
        cfg = self.setup_pair(linker)
        with pytest.raises(VisibilityViolation):
            linker.lookup_parameter(cfg.description, "HelloWorldScriptGen", "English")

    def test_same_script_succeeds_in_lenient_mode(self, lenient_linker):
        cfg = self.setup_pair(lenient_linker)
        value = lenient_linker.lookup_parameter(
            cfg.description, "HelloWorldScriptGen", "English")
        assert value == "Hello World"

    def test_own_namespace_always_visible(self, linker):
        cfg = self.setup_pair(linker)
        cfg.apply_macro("define Mine hello")
        assert linker.lookup_parameter(cfg.description, cfg.identifier, "Mine") == "hello"

    def test_redefined_reference_no_longer_resolves(self, linker):
        cfg = self.setup_pair(linker)
        cfg.apply_macro("define HelloMessage ::Ghost:x")
        cfg.apply_macro("define HelloMessage hi")  # replaces the reference definition
        assert linker.lookup_parameter(None, cfg.identifier, "HelloMessage") == "hi"

    def test_missing_key_propagates(self, linker):
        cfg = self.setup_pair(linker)
        linker.route("HelloWorldScriptGen", "register HelloWorld")
        with pytest.raises(KeyNotFound):
            linker.lookup_parameter(cfg.description, "HelloWorldScriptGen", "Swedish")


class TestRepository:
    def make_object(self, seq, target="shell", kind="fragment"):
        return ScriptObject(f"job_{seq}.sh", target, f"payload {seq}",
                            ConfiguratorDescription("Step", f"s{seq}"), kind)

    def test_collect_in_sequence_order(self, linker):
        for seq in (2, 0, 1, 2):  # the re-added job_2 moves to the end
            linker.add_script_object(self.make_object(seq))
        collected = linker.collect_script_objects(target="shell")
        assert [obj.filename for obj in collected] == ["job_0.sh", "job_1.sh", "job_2.sh"]

    def test_collect_on_empty_repository(self, linker):
        assert linker.collect_script_objects(target="shell") == []

    def test_target_mismatch_collects_nothing(self, linker):
        linker.add_script_object(self.make_object(0, target="shell"))
        assert linker.collect_script_objects(target="dag") == []

    def test_remove_by_producer(self, linker):
        keep = self.make_object(0)
        drop = self.make_object(1)
        linker.add_script_object(keep)
        linker.add_script_object(drop)
        assert linker.remove_script_objects(producer=drop.producer) == 1
        assert list(linker.repository.values()) == [keep]

    def test_object_id_is_held_for_one_producer_at_a_time(self, linker):
        first = ConfiguratorDescription("Step", "x")
        second = ConfiguratorDescription("Step", "y")
        linker.add_script_object(ScriptObject("job_x.sh", "shell", "p", first))
        linker.add_script_object(ScriptObject("job_x.sh", "shell", "p", first))  # replaces
        with pytest.raises(DuplicateIdentifier, match="'job_x.sh'"):
            linker.add_script_object(ScriptObject("job_x.sh", "shell", "q", second))
        assert [obj.producer for obj in linker.repository.values()] == [first]
        linker.remove_script_objects(producer=first)
        second_obj = linker.add_script_object(ScriptObject("job_x.sh", "shell", "q", second))
        assert second_obj.producer == second

    def test_rejected_object_leaves_the_held_one_in_place(self, linker):
        held, other = self.make_object(0), self.make_object(1)
        linker.add_script_object(held)
        linker.add_script_object(other)
        clash = ScriptObject("job_0.sh", "shell", "q", other.producer)
        with pytest.raises(DuplicateIdentifier):
            linker.add_script_object(clash)
        assert list(linker.repository.values()) == [held, other]


class TestMaterialize:
    def test_writes_executable_script_and_leaves_no_temp_file(self, linker):
        path = linker.materialize("job_x.sh", "true\n")
        assert path.read_text() == "true\n"
        assert path.stat().st_mode & 0o777 == 0o755
        assert [p.name for p in linker.output_dir.iterdir()] == ["job_x.sh"]

    def test_failed_write_keeps_previous_artifact(self, linker):
        path = linker.materialize("job_x.sh", "old\n")
        with pytest.raises(UnicodeEncodeError):
            linker.materialize("job_x.sh", "\ud800")
        assert path.read_text() == "old\n"
        assert [p.name for p in linker.output_dir.iterdir()] == ["job_x.sh"]


class TestDumpState:
    def test_empty_dump_is_comments_only(self, linker):
        lines = [line for line in linker.dump_state().splitlines() if line]
        assert lines
        assert all(line.startswith("#") for line in lines)

    def test_round_trip_is_byte_identical(self, linker, lenient_linker, helloworld_text):
        execute_script(linker, helloworld_text)
        first = linker.dump_state()
        execute_script(lenient_linker, first)
        assert lenient_linker.dump_state() == first

    def test_round_trip_after_framework_run(self, linker, tmp_path, helloworld_text):
        from runjob import make_linker

        linker.run_mode = "dry-run"
        execute_script(linker, helloworld_text)
        linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
        first = linker.dump_state()
        replay = make_linker(output_dir=tmp_path / "replay")
        execute_script(replay, first)
        assert replay.dump_state() == first

    def test_resolve_dump_snapshots_references(self, linker, helloworld_text):
        execute_script(linker, helloworld_text)
        resolved = linker.dump_state(resolve=True)
        assert "define HelloMessage Hello World" in resolved
        assert "::HelloWorldScriptGen:English" not in resolved

    def test_default_dump_preserves_reference_syntax(self, linker, helloworld_text):
        execute_script(linker, helloworld_text)
        dump = linker.dump_state()
        assert "define HelloMessage ::HelloWorldScriptGen:English" in dump


DUMP_TYPES = ("HelloWorldScriptGen", "ScriptGen", "HelloWorld", "Step", "Fork")
DUMP_MESSAGES = ("Reset", "MakeJob", "MakeScript", "g0")


@st.composite
def dump_scripts(draw):
    """A script that attaches configurators, then mixes literal, reference
    and synonym defines, addreq, repeated ``register``, ``oncall``,
    framework groups and runs, and loops whose bodies use ``$(i)``."""
    types = draw(st.lists(st.sampled_from(DUMP_TYPES), min_size=1, max_size=5))
    names = [f"c{index}" for index in range(len(types))]
    scriptgens = [name for type_name, name in zip(types, names) if type_name.endswith("ScriptGen")]

    def pick(options):
        return draw(st.sampled_from(options))

    def cfg(keys):
        key, index = pick(keys), pick(range(len(names)))
        target = f"::{pick(names)}:{pick(('k0', 'k1'))}"
        return f"cfg {pick(names)} " + pick((
            f"define {key} {pick(('alpha', 'beta gamma', 'data-1'))}", f"define {key} {target}",
            f"synonym {key} {target}", f"define {key} ::synonym", f"define {key} ::synonym:k1",
            f"additem {key}", f"addreq {types[index]} named {names[index]}",
            f"addreq {types[index]}", f"oncall {pick(DUMP_MESSAGES)} do define k1 late"))

    lines = [f"attach {type_name} named {name}" for type_name, name in zip(types, names)]
    for _ in range(draw(st.integers(0, 12))):
        kind = pick(("cfg", "cfg", "cfg", "register", "group", "run", "loop"))
        if kind == "cfg":
            lines.append(cfg(("k0", "k1")))
        elif kind == "register" and scriptgens:
            lines.append(f"cfg {pick(scriptgens)} register {pick(types)}")
        elif kind == "group":
            lines.append("framework group g0 " + " ".join(draw(st.lists(
                st.sampled_from(DUMP_MESSAGES[:3]), min_size=1, max_size=3))))
        elif kind == "run":
            lines.append("framework run " + " ".join(draw(st.lists(
                st.sampled_from(DUMP_MESSAGES), min_size=1, max_size=3))))
        elif kind == "loop":
            body = [cfg(("k0", "k$(i)")) for _ in range(pick((1, 2)))]
            lines += ["loop i 1 2", *body, "endloop"]
    return "\n".join(lines) + "\n"


def sourced_state(cfg):
    """What a dump must carry over for ``cfg``: its delegate and, per key,
    its resolved value or the error resolving it raises."""
    return cfg.identifier, cfg.delegate, {key: outcome(lambda: cfg.resolve_value(key))
                                          for key in list(cfg.store)}


@settings(max_examples=300, deadline=None, database=None)
@given(dump_scripts())
# the later of two registrations of one type wins, so they are dumped in registration order
@example("attach ScriptGen named c0\nattach ScriptGen named c1\nattach Step named c2\n"
         "cfg c1 register Step\ncfg c0 register Step\n")
# an addreq of a scriptgen that a later registration implies keeps its place after the dump
@example("attach HelloWorldScriptGen named G\nattach Fork\nattach Step named S\n"
         "cfg S addreq Fork\ncfg S addreq HelloWorldScriptGen named G\ncfg G register Step\n")
def test_a_dump_sources_back_to_the_state_it_records(script):
    original = make_linker()
    try:
        execute_script(original, script)
    except RunjobError:
        pass  # the state the script reached before its error is dumped
    dump = original.dump_state()
    replay = make_linker()
    execute_script(replay, dump)
    assert replay.dump_state() == dump, script
    assert ([sourced_state(cfg) for cfg in replay.configurators]
            == [sourced_state(cfg) for cfg in original.configurators]), script
