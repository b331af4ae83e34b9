"""Memoized reference resolution: a read re-walks a chain only after a change.

The differential test runs random scripts against a reference resolver kept
here, which walks every chain on every read, and demands the same value or
the same exception type from each read.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runjob import make_linker
from runjob.configurator import (
    Configurator,
    ConfiguratorDescription,
    DependencyPattern,
    ValueExpression,
)
from runjob.errors import (
    AmbiguousIdentifier,
    CircularReference,
    KeyNotFound,
    UnknownConfigurator,
    UnsatisfiedDependency,
    VisibilityViolation,
)
from runjob.linker import Linker
from runjob.trigger_store import GLOBAL_READ, indexed_read

# Box writes nothing when built, so only the linker's own epoch step covers
# an attach of one
TYPES = ("Box", "Probe")
NAMES = ("n0", "n1", "n2", "n3")
KEYS = ("k0", "k1", "c")
TEXTS = ("t0", "t1", "t2")


class Probe(Configurator):
    """Its key ``c`` is a construct that reads the test's outside world."""

    def __init__(self, description: ConfiguratorDescription, world: dict):
        super().__init__(description)
        self.register_construct("c", lambda: world["c"])
        self.define("c", ValueExpression.construct())


class Model:
    """What the test did, and a resolver over it that never caches."""

    def __init__(self, world, strict):
        self.world = world
        self.strict = strict
        self.attached = []  # (type, name) in attach order
        self.literals = {}  # (type, name) -> {key: text}
        self.lazy = {}  # (type, name) -> {key: ("ref", name, key) | ("syn", key) | ("construct",)}
        self.synonyms = {}  # (type, name) -> {key: (name, key)}
        self.requirements = {}  # (type, name) -> [(type, name or None)]
        self.handlers = {}  # (type, name) -> reads that fired its global handler

    def attach(self, cfg):
        self.attached.append(cfg)
        self.literals[cfg], self.synonyms[cfg], self.requirements[cfg] = {}, {}, []
        self.lazy[cfg] = {"c": ("construct",)} if cfg[0] == "Probe" else {}

    def matches(self, pattern, cfg):
        return pattern[0] == cfg[0] and pattern[1] in (None, cfg[1])

    def resolve(self, cfg, key, stack=()):
        frame = (*cfg, key)
        if frame in stack:
            raise CircularReference(frame)
        if cfg in self.handlers:
            self.handlers[cfg] += 1
        stack = (*stack, frame)
        expression = self.lazy[cfg].get(key)
        if expression is None:
            if key not in self.literals[cfg]:
                raise KeyNotFound(key)
            return self.literals[cfg][key]
        if expression[0] == "construct":
            return self.world["c"]
        if expression[0] == "syn":
            target = self.synonyms[cfg].get(expression[1] or key)
            if target is None:
                raise KeyNotFound(key)
        else:
            target = expression[1:]
        return self.lookup(cfg, *target, stack)

    def lookup(self, requester, name, key, stack):
        named = [cfg for cfg in self.attached if cfg[1] == name]
        if not named:
            raise UnknownConfigurator(name)
        if len(named) > 1:
            raise AmbiguousIdentifier(name)
        target = named[0]
        if self.strict and target != requester and not any(
                self.matches(pattern, target) for pattern in self.requirements[requester]):
            raise VisibilityViolation(target)
        return self.resolve(target, key, stack)


configurators = st.tuples(st.sampled_from(TYPES), st.sampled_from(NAMES))
# every configurator starts with a literal k0, so most references resolve
remote_keys = st.sampled_from(("k0", "k0", *KEYS))
expressions = st.one_of(
    st.tuples(st.just("lit"), st.sampled_from(TEXTS)),
    st.tuples(st.just("ref"), st.sampled_from(NAMES), remote_keys),
    st.tuples(st.just("ref"), st.sampled_from(NAMES), remote_keys),
    st.tuples(st.just("syn"), st.sampled_from((None, *KEYS))),
    st.tuples(st.just("construct")),
)
picks = st.integers(0, 7)  # taken modulo the number attached
reads = st.tuples(st.just("read"), picks, st.sampled_from(KEYS))
operations = st.one_of(
    st.tuples(st.just("define"), picks, st.sampled_from(KEYS), expressions),
    st.tuples(st.just("write"), picks, st.sampled_from(KEYS), st.sampled_from(TEXTS),
              st.booleans()),
    st.tuples(st.just("synonym"), picks, st.sampled_from(KEYS), st.sampled_from(NAMES),
              remote_keys),
    st.tuples(st.just("attach"), configurators),
    st.tuples(st.just("addreq"), picks, st.sampled_from(TYPES),
              st.sampled_from((None, *NAMES))),
    st.tuples(st.just("world"), st.sampled_from(TEXTS)),
    st.tuples(st.just("handler"), picks),
    reads, reads,
)


def outcome(read):
    try:
        return read()
    except (AmbiguousIdentifier, CircularReference, KeyNotFound, UnknownConfigurator,
            VisibilityViolation) as exc:
        return type(exc)


def expression_text(expression) -> str:
    kind, *rest = expression
    if kind == "lit":
        return rest[0]
    if kind == "ref":
        return f"::{rest[0]}:{rest[1]}"
    if kind == "syn":
        return "::synonym" if rest[0] is None else f"::synonym:{rest[0]}"
    return "::construct"


class Harness:
    """Applies one script to a real linker and to the model side by side."""

    def __init__(self, strict):
        self.world = {"c": "w"}
        self.linker = make_linker(strict=strict, types={
            "Box": Configurator, "Probe": lambda description: Probe(description, self.world)})
        self.model = Model(self.world, strict)
        self.fired = {}  # (type, name) -> reads that fired its global handler

    def real(self, cfg) -> Configurator:
        return self.linker.find_by_description(ConfiguratorDescription(*cfg))

    def pick(self, index):
        return self.model.attached[index % len(self.model.attached)]

    def attach(self, cfg):
        self.linker.attach(*cfg)
        self.model.attach(cfg)

    def define(self, cfg, key, expression):
        self.real(cfg).apply_macro(f"define {key} {expression_text(expression)}")
        if expression[0] == "lit":
            self.model.lazy[cfg].pop(key, None)
            self.model.literals[cfg][key] = expression[1]
        else:
            self.model.lazy[cfg][key] = expression

    def check_read(self, cfg, key):
        expected = outcome(lambda: self.model.resolve(cfg, key))
        assert outcome(lambda: self.real(cfg).resolve_value(key)) == expected
        assert self.fired == self.model.handlers  # every handler on the walk fired

    def apply(self, op, *args):
        model = self.model
        if op == "attach":
            if args[0] not in model.attached:
                self.attach(args[0])
            return
        if op == "world":
            self.world["c"] = args[0]
            return
        cfg = self.pick(args[0])
        real = self.real(cfg)
        if op == "define":
            key, expression = args[1:]
            if expression[0] != "construct" or (cfg[0], key) == ("Probe", "c"):
                self.define(cfg, key, expression)
        elif op == "write":
            key, text, triggered = args[1:]
            (real.store.write if triggered else real.store.untriggered_write)(key, text)
            model.literals[cfg][key] = text  # a lazy definition still wins on read
        elif op == "synonym":
            key, name, remote = args[1:]
            real.apply_macro(f"synonym {key} ::{name}:{remote}")
            model.synonyms[cfg][key] = (name, remote)
        elif op == "addreq":
            pattern = tuple(args[1:])
            if model.strict and not any(model.matches(pattern, other)
                                        for other in model.attached):
                with pytest.raises(UnsatisfiedDependency):
                    real.add_requirement(DependencyPattern(*pattern))
            else:
                real.add_requirement(DependencyPattern(*pattern))
                if pattern not in model.requirements[cfg]:
                    model.requirements[cfg].append(pattern)
        elif op == "handler" and cfg not in self.fired:
            def count(args):
                self.fired[cfg] += 1
            real.store.register_trigger(GLOBAL_READ, count)
            self.fired[cfg] = model.handlers[cfg] = 0


@settings(max_examples=200, deadline=None, database=None)
@given(strict=st.booleans(),
       initial=st.lists(configurators, min_size=2, max_size=len(NAMES),
                        unique_by=lambda cfg: cfg[1]),
       script=st.lists(operations, min_size=5, max_size=40))
def test_memoized_reads_match_a_resolver_that_never_caches(strict, initial, script):
    run = Harness(strict)
    for cfg in initial:
        run.attach(cfg)
    for index, cfg in enumerate(initial):
        for other in initial:  # strict runs start with every read visible
            run.apply("addreq", index, *other)
        # k0 is a literal and k1 reads the next configurator's k0 by synonym
        run.define(cfg, "k0", ("lit", f"{cfg[0]}.{cfg[1]}"))
        run.apply("synonym", index, "k1", initial[(index + 1) % len(initial)][1], "k0")
        run.define(cfg, "k1", ("syn", None))
    for op, *args in script:
        if op == "read":
            run.check_read(run.pick(args[0]), args[1])
            continue
        run.apply(op, *args)
        # read everything, so a change the memo missed shows before the next
        # change moves the epoch past it
        for cfg in run.model.attached:
            for key in KEYS:
                run.check_read(cfg, key)


class TestVolatileReads:
    """Reads the memo must not absorb: handlers beside the resolver, walks
    that change state, constructs."""

    @staticmethod
    def chain(linker, names):
        for name in names:
            linker.attach("Step", name)
        for child, parent in zip(names, names[1:]):
            linker.route(f"Step named {child}", f"addreq Step named {parent}")
            linker.route(f"Step named {child}", f"define InputFile ::{parent}:InputFile")
        return linker.find(names[0])

    def test_global_read_handler_on_mid_chain_store_fires_on_every_read(self, linker):
        head = self.chain(linker, ["A", "B", "C"])
        linker.route("Step named C", "define InputFile root.in")
        store = linker.find("B").store
        for kind in (GLOBAL_READ, indexed_read("InputFile")):
            fired = []
            handler_id = store.register_trigger(kind, lambda args: fired.append(args[1]))
            for _ in range(3):
                assert head.resolve_value("InputFile") == "root.in"
            assert fired == ["InputFile"] * 3
            store.deregister_trigger(handler_id)

    def test_walk_that_changes_state_is_not_kept(self, linker):
        class Counted(Configurator):
            def resolve_value(self, key):
                reads = self.store.untriggered_read("reads") if "reads" in self.store else "0"
                self.store.untriggered_write("reads", str(int(reads) + 1))
                return super().resolve_value(key)

        linker.register_type("Counted", Counted)
        linker.attach("Counted", "tail")
        linker.route("Counted named tail", "define InputFile root.in")
        head = linker.find(linker.attach("Step", "A"))
        head.apply_macro("addreq Counted named tail")
        head.apply_macro("define InputFile ::tail:InputFile")
        for _ in range(3):
            assert head.resolve_value("InputFile") == "root.in"
        assert linker.find("tail").store.untriggered_read("reads") == "3"

    def test_construct_on_chain_runs_on_every_read(self, linker):
        head = self.chain(linker, ["A", "B", "C"])
        world = {"value": "one"}
        tail = linker.find("C")
        tail.register_construct("InputFile", lambda: world["value"])
        tail.apply_macro("define InputFile ::construct")
        assert head.resolve_value("InputFile") == "one"
        world["value"] = "two"  # changes no runjob state
        assert head.resolve_value("InputFile") == "two"


class TestLinearResolution:
    """Counts of Linker.lookup_parameter calls, not timings, so a re-walk of
    every chain on every read fails on any machine."""

    @staticmethod
    def count_lookups(monkeypatch):
        calls = [0]
        original = Linker.lookup_parameter

        def counted(self, requester, target, key):
            calls[0] += 1
            return original(self, requester, target, key)

        monkeypatch.setattr(Linker, "lookup_parameter", counted)
        return calls

    @staticmethod
    def plan(tmp_path, chains, depth, shuffle):
        """Attach ``chains`` chains of ``depth`` Steps whose InputFile
        references the previous step's, make every job and dump resolved."""
        names = [f"s{chain}x{step}" for chain in range(chains) for step in range(depth)]
        order = list(names)
        if shuffle:
            random.Random(7).shuffle(order)
        linker = make_linker(output_dir=tmp_path)
        linker.attach("ScriptGen")
        linker.route("ScriptGen", "register Step")
        for name in order:
            linker.attach("Step", name)
        for chain in range(chains):
            linker.route(f"Step named s{chain}x0", "define Executable cat")
            linker.route(f"Step named s{chain}x0", f"define InputFile root{chain}.in")
            for step in range(1, depth):
                child, parent = f"Step named s{chain}x{step}", f"s{chain}x{step - 1}"
                linker.route(child, "define Executable cat")
                linker.route(child, f"addreq Step named {parent}")
                linker.route(child, f"define InputFile ::{parent}:InputFile")
        linker.run_framework("Reset", "MakeJob", "MakeScript")
        dump = linker.dump_state(resolve=True)
        for chain in range(chains):
            assert dump.count(f"define InputFile root{chain}.in") == depth

    def test_reference_plan_makes_at_most_two_lookups_per_referencing_step(
            self, tmp_path, monkeypatch):
        calls = self.count_lookups(monkeypatch)
        chains, depth = 6, 50
        self.plan(tmp_path, chains, depth, shuffle=True)
        assert 0 < calls[0] <= 2 * chains * (depth - 1)

    def test_in_order_chain_lookups_grow_linearly(self, tmp_path, monkeypatch):
        calls = self.count_lookups(monkeypatch)
        per_depth = {}
        for depth in (100, 1000):
            calls[0] = 0
            self.plan(tmp_path, 1, depth, shuffle=False)
            per_depth[depth] = calls[0]
        assert 0 < per_depth[1000] <= 11 * per_depth[100]
