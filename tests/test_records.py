"""Value semantics of runjob's record types.

The immutable records compare and hash by value and refuse assignment; the
parsed directives are mutable, and ``substitute_block`` copies them.
"""

import pytest

from runjob import (
    ConfiguratorDescription,
    DependencyPattern,
    DispatchRecord,
    ScriptObject,
    TriggerKind,
    ValueExpression,
    execute_script,
    make_linker,
)
from runjob.configurator import Requirement
from runjob.errors import InvalidKey
from runjob.macro_lang import Loop, parse_script, substitute_block, substitution_plan
from runjob.trigger_store import TriggerHandler


def _callback(args):
    return None


# record type -> (a factory building one from fresh values, a field name)
RECORDS = {
    "ConfiguratorDescription": (lambda: ConfiguratorDescription("Step", "s1"), "type_name"),
    "DependencyPattern": (lambda: DependencyPattern("Step"), "type_name"),
    "Requirement": (lambda: Requirement(DependencyPattern("Step", "s1"), auto=True), "pattern"),
    "ValueExpression": (lambda: ValueExpression.reference("S0", "InputFile"), "ref"),
    "ScriptObject": (lambda: ScriptObject("job_Step_s1", "shell", "echo hi",
                                          ConfiguratorDescription("Step", "s1")), "payload"),
    "TriggerKind": (lambda: TriggerKind("read", "k"), "mode"),
    "TriggerHandler": (lambda: TriggerHandler(0, _callback, ("x",)), "extras"),
    "DispatchRecord": (lambda: DispatchRecord("MakeJob", ConfiguratorDescription("Step", "s1"),
                                              "Handled"), "outcome"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_compare_and_hash_equal(name):
    make, _ = RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    make, field = RECORDS[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.undeclared = 1


def test_different_fields_compare_unequal():
    assert ConfiguratorDescription("Step", "s1") != ConfiguratorDescription("Step", "s2")
    assert DependencyPattern("Step") != DependencyPattern("Step", "Step")
    assert Requirement(DependencyPattern("A")) != Requirement(DependencyPattern("A"), auto=True)


def test_dispatch_outcomes_are_text(tmp_path, helloworld_text):
    linker = make_linker(output_dir=tmp_path, run_mode="dry-run")
    execute_script(linker, helloworld_text)
    records = linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
    assert {type(record.outcome) for record in records} == {str}
    assert "Delegated to HelloWorldScriptGen" in [record.outcome for record in records]


def test_trigger_handler_keeps_no_copy_of_its_kind():
    assert TriggerHandler._fields == ("handler_id", "callback", "extras")


def test_instance_name_defaults_to_type_name():
    described = ConfiguratorDescription("A")
    assert described.instance_name == "A"
    assert described == ConfiguratorDescription("A", "A")
    assert hash(described) == hash(ConfiguratorDescription("A", "A"))
    assert described.identifier == "A"
    assert ConfiguratorDescription("A", "B").identifier == "A named B"


@pytest.mark.parametrize("args", [("two words",), ("",), ("A", ""), ("A", "b c"), (None,)])
def test_bad_description_token_raises_invalid_key(args):
    with pytest.raises(InvalidKey):
        ConfiguratorDescription(*args)


def test_trigger_kind_validates_mode_and_key():
    with pytest.raises(ValueError, match="trigger mode must be 'read' or 'write'"):
        TriggerKind("delete")
    with pytest.raises(InvalidKey):
        TriggerKind("read", "bad key")
    assert TriggerKind("write").key is None


def _describe(directives, depth=0):
    lines = []
    for directive in directives:
        lines.append("  " * depth + directive.describe())
        if isinstance(directive, Loop):
            lines += _describe(directive.body, depth + 1)
    return lines


def test_substitute_block_copies_nested_loops():
    [loop] = parse_script("loop i 1 2\n"
                          "attach Step named s$(i)\n"
                          "cfg Step named s$(i) define Args -n $(i) # note\n"
                          "# only a comment $(i)\n"
                          "loop j $(i) 3\n"
                          "framework group g$(i)x$(j) Reset M$(i)\n"
                          "endloop\n"
                          "loop i 5 $(i)\n"  # re-binds i: only its header sees 7
                          "source f$(i).mac\n"
                          "framework run R$(i)\n"
                          "endloop\n"
                          "\n"
                          "endloop\n")
    before = _describe([loop])
    copies = substitute_block(loop.body, loop.var, "7", substitution_plan(loop.body, loop.var))
    assert _describe(copies) == [
        "attach Step named s7",
        "cfg Step named s7 :: define Args -n 7",
        "comment",
        "loop j 7 3 body=1",
        "  framework group g7x$(j) Reset M7",
        "loop i 5 7 body=2",
        "  source f$(i).mac",
        "  framework run R$(i)",
        "blank",
    ]
    assert [d.lineno for d in copies] == [d.lineno for d in loop.body] == [2, 3, 4, 5, 8, 12]
    assert _describe([loop]) == before  # the parsed tree is left as it was
    assert all(copy is not original for copy, original in zip(copies, loop.body))
