"""Acceptance suite: one test per release criterion, run at fixed tolerances.

Each test prints a `criterion N: PASS` line on success so the suite doubles
as a checklist (`pytest tests/test_acceptance.py -v -s`).
"""

import random
import subprocess
import time

import pytest

from runjob import execute_script, make_linker, parse_script
from runjob.cli import main
from runjob.errors import DanglingContinuation, SourceCycle, VisibilityViolation
from runjob.macro_lang import check_script, tokenize
from runjob.trigger_store import (
    GLOBAL_READ,
    GLOBAL_WRITE,
    TriggerStore,
    indexed_read,
    indexed_write,
)

pytestmark = pytest.mark.acceptance


def report(number, text):
    print(f"criterion {number}: PASS ({text})")


# 1. Hello World end to end ---------------------------------------------------

def test_criterion_1_hello_world_end_to_end(fixtures, tmp_path):
    out = tmp_path / "build"
    started = time.monotonic()
    code = main(["run", str(fixtures / "helloworld.mac"), "--out", str(out)])
    composite = out / "composite_HelloWorldScriptGen.sh"
    finished = subprocess.run([str(composite)], capture_output=True, text=True)
    elapsed = time.monotonic() - started
    assert code == 0
    assert finished.stdout == "Hello World\nSalut le Monde\nHallo Welt\n"
    assert finished.returncode == 0
    assert elapsed < 1.0
    report(1, f"three greetings, exit 0, {elapsed:.3f}s")


# 2. Dispatch matrix ----------------------------------------------------------

SG = "HelloWorldScriptGen"
DELEGATED = f"Delegated to {SG}"
EXPECTED_MATRIX = {}
for _hw in ("English", "French", "German"):
    _id = f"HelloWorld named {_hw}"
    EXPECTED_MATRIX[("Reset", _id)] = "Handled"
    EXPECTED_MATRIX[("MakeJob", _id)] = DELEGATED
    EXPECTED_MATRIX[("MakeScript", _id)] = "Skipped"
    EXPECTED_MATRIX[("RunJob", _id)] = "Skipped"
EXPECTED_MATRIX.update({
    ("Reset", SG): "Handled",
    ("MakeJob", SG): "Skipped",
    ("MakeScript", SG): "Handled",
    ("RunJob", SG): "Skipped",
    ("Reset", "Fork"): "Handled",
    ("MakeJob", "Fork"): "Skipped",
    ("MakeScript", "Fork"): "Skipped",
    ("RunJob", "Fork"): "Handled",
})


def test_criterion_2_dispatch_matrix(tmp_path, helloworld_text):
    linker = make_linker(output_dir=tmp_path / "build", run_mode="dry-run")
    execute_script(linker, helloworld_text)
    records = linker.run_framework("Reset", "MakeJob", "MakeScript", "RunJob")
    assert len(records) == 20
    observed = {(r.message, r.description.identifier): str(r.outcome) for r in records}
    assert observed == EXPECTED_MATRIX
    report(2, "20/20 dispatch cells match")


# 3. Three-step chain ---------------------------------------------------------

def test_criterion_3_step_chain(fixtures, tmp_path):
    # (a) composite runs the steps in attach order
    linker = make_linker(output_dir=tmp_path / "build")
    execute_script(linker, (fixtures / "chain.mac").read_text())
    linker.run_framework("Reset", "MakeJob", "MakeScript")
    composite = linker.collect_script_objects(target="shell", kind="composite")[0]
    positions = [composite.payload.find(f"stage_{s}.txt") for s in ("a", "b", "c")]
    assert all(p >= 0 for p in positions)
    assert positions == sorted(positions)

    # adjacent steps agree on the handoff filename, by string equality
    assert (linker.find("StepB").resolve_value("InputFile")
            == linker.find("StepA").resolve_value("OutputFile") == "stage_a.txt")

    # (b) the DAG target yields exactly the two chain edges
    dag_out = tmp_path / "dag"
    code = main(["run", str(fixtures / "chain.mac"), "--target", "dag",
                 "--out", str(dag_out)])
    assert code == 0
    dag = (dag_out / "workflow.dag").read_text()
    parents = [line for line in dag.splitlines() if line.startswith("PARENT")]
    assert parents == [
        "PARENT job_Step_StepA CHILD job_Step_StepB",
        "PARENT job_Step_StepB CHILD job_Step_StepC",
    ]
    report(3, "ordered composite, 2-edge chain DAG, filenames agree")


# 4. Visibility modes ---------------------------------------------------------

UNDECLARED_READ = """
attach ScriptGen
attach Step named StepA
attach Step named StepB
cfg ScriptGen register Step
cfg Step named StepA define Executable cat
cfg Step named StepA define OutputFile a.txt
cfg Step named StepB define Executable cat
cfg Step named StepB define InputFile ::StepA:OutputFile
"""


def test_criterion_4_visibility_modes(tmp_path):
    strict = make_linker(output_dir=tmp_path / "strict")
    execute_script(strict, UNDECLARED_READ)
    with pytest.raises(VisibilityViolation):
        strict.run_framework("MakeJob")

    lenient = make_linker(strict=False, output_dir=tmp_path / "lenient")
    execute_script(lenient, UNDECLARED_READ)
    records = lenient.run_framework("MakeJob")
    assert any(str(r.outcome).startswith("Delegated") for r in records)
    assert (lenient.find("StepB").resolve_value("InputFile") == "a.txt")
    report(4, "strict raises VisibilityViolation, lenient succeeds")


# 5. Trigger property suite ---------------------------------------------------

KEYS = ("a", "b", "c")


def _random_store(rng):
    """A store with 0..5 counting handlers that log (access_id, tag) events
    and only touch the store through untriggered operations."""
    store = TriggerStore()
    events = []
    max_depth_seen = [0]
    handler_specs = []  # (mode, key-or-None, tag)
    for index in range(rng.randint(0, 5)):
        mode = rng.choice(("read", "write"))
        key = rng.choice((None,) + KEYS)
        tag = f"h{index}"
        handler_specs.append((mode, key, tag))

    def make_handler(tag):
        def handler(args):
            store_, key = args[0], args[1]
            max_depth_seen[0] = max(max_depth_seen[0], store_.activation_depth)
            events.append((args[2], tag))  # args[2] carries the access id cell
            store_.untriggered_write("mirror", key)
        return handler

    access_id = {"current": 0}
    for mode, key, tag in handler_specs:
        kind = (GLOBAL_READ if key is None else indexed_read(key)) if mode == "read" \
            else (GLOBAL_WRITE if key is None else indexed_write(key))
        store.register_trigger(kind, make_handler(tag), access_id)
    return store, events, handler_specs, access_id, max_depth_seen


def _expected_tags(handler_specs, mode, key):
    global_tags = [tag for m, k, tag in handler_specs if m == mode and k is None]
    indexed_tags = [tag for m, k, tag in handler_specs if m == mode and k == key]
    return global_tags + indexed_tags


def test_criterion_5_trigger_properties():
    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        store, events, specs, access_id, max_depth = _random_store(rng)
        expected_total = 0
        for _ in range(rng.randint(5, 30)):
            key = rng.choice(KEYS)
            op = rng.randrange(4)
            access_id["current"] += 1
            marker = access_id["current"]
            before = len(events)
            if op == 0:
                store.write(key, str(marker))
                expected = _expected_tags(specs, "write", key)
            elif op == 1:
                store.untriggered_write(key, str(marker))
                expected = []
            elif op == 2:
                try:
                    store.read(key)
                except Exception:
                    pass  # key may not exist yet; read triggers fired anyway
                expected = _expected_tags(specs, "read", key)
            else:
                try:
                    store.untriggered_read(key)
                except Exception:
                    pass
                expected = []
            fired = [tag for cell, tag in events[before:] if cell["current"] == marker]
            assert fired == expected  # ordering + zero-fire per access
            expected_total += len(expected)
        assert len(events) == expected_total  # untriggered ops added nothing
        assert max_depth[0] <= 1  # untriggered-only handlers never nest

    # a handler rewriting its own key terminates at activation depth 1
    store = TriggerStore()
    depths = []

    def rewrite(args):
        depths.append(args[0].activation_depth)
        args[0].untriggered_write("k", "v2")

    store.register_trigger(indexed_write("k"), rewrite)
    store.write("k", "v1")
    assert store.untriggered_read("k") == "v2"
    assert depths == [1]
    report(5, "200 interleavings satisfy count/order/zero-fire invariants")


# 6. Provenance round trip ----------------------------------------------------

TYPES_POOL = ("HelloWorldScriptGen", "ScriptGen", "HelloWorld", "Step", "FileInput", "Fork")
WORDS = ("alpha", "beta", "gamma", "delta", "run7", "data-1", "out.txt")
KEY_POOL = tuple(f"k{n}" for n in range(6))


def random_script(rng):
    lines = []
    attached = []
    for index in range(rng.randint(2, 6)):
        type_name = rng.choice(TYPES_POOL)
        instance = f"c{index}"
        lines.append(f"attach {type_name} named {instance}")
        attached.append((type_name, instance))
    for type_name, instance in attached:
        if type_name in ("HelloWorldScriptGen", "ScriptGen") and rng.random() < 0.5:
            lines.append(f"cfg {type_name} named {instance} register "
                         f"{rng.choice(('HelloWorld', 'Step'))}")
    for _ in range(rng.randint(3, 15)):
        type_name, instance = rng.choice(attached)
        identifier = f"{type_name} named {instance}"
        target_type, target_instance = rng.choice(attached)
        key = rng.choice(KEY_POOL)
        roll = rng.random()
        if roll < 0.25:
            lines.append(f"cfg {identifier} additem {key}")
        elif roll < 0.50:
            value = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 3)))
            lines.append(f"cfg {identifier} define {key} {value}")
        elif roll < 0.65:
            lines.append(f"cfg {identifier} define {key} "
                         f"::{target_instance}:{rng.choice(KEY_POOL)}")
        elif roll < 0.75:
            lines.append(f"cfg {identifier} synonym {key} "
                         f"::{target_instance}:{rng.choice(KEY_POOL)}")
        elif roll < 0.85:
            pattern = (f"{target_type} named {target_instance}"
                       if rng.random() < 0.5 else target_type)
            lines.append(f"cfg {identifier} addreq {pattern}")
        else:
            lines.append(f"cfg {identifier} oncall RunJob do additem {key}")
    if rng.random() < 0.4:
        lines.append("framework group g0 Reset MakeJob MakeScript")
    return "\n".join(lines) + "\n"


def test_criterion_6_provenance_round_trip(tmp_path):
    rng = random.Random(1903)
    for round_number in range(50):
        script = random_script(rng)
        original = make_linker(output_dir=tmp_path / f"a{round_number}")
        execute_script(original, script)
        dump = original.dump_state()
        replay = make_linker(output_dir=tmp_path / f"b{round_number}")
        execute_script(replay, dump)
        assert replay.dump_state() == dump, f"round {round_number}:\n{script}"
    report(6, "50 random scripts dump -> source -> dump byte-identically")


# 7. Parser conformance -------------------------------------------------------

def test_criterion_7_parser_conformance(fixtures):
    directives = parse_script((fixtures / "helloworld.mac").read_text())
    golden = (fixtures / "helloworld_directives.golden").read_text().splitlines()
    assert [d.describe() for d in directives] == golden

    with pytest.raises(DanglingContinuation) as dangling:
        list(tokenize((fixtures / "dangling.mac").read_text(), "dangling.mac"))
    assert dangling.value.lineno == 2

    with pytest.raises(SourceCycle) as cycle:
        check_script(fixtures / "self_cycle.mac")
    assert cycle.value.lineno == 2  # the source directive closing the cycle
    assert str(fixtures / "self_cycle.mac") in str(cycle.value)
    report(7, "golden directives match; named errors carry locations")
