"""Trigger store behavior: firing rules, bypass, recursion guard, backends."""

import pytest

from runjob.errors import (
    BackendContractViolation,
    InvalidKey,
    KeyNotFound,
    RecursionLimitExceeded,
)
from runjob.trigger_store import (
    GLOBAL_READ,
    GLOBAL_WRITE,
    MAX_DEPTH,
    TriggerStore,
    current_epoch,
    indexed_read,
    indexed_write,
)


def recorder(log, tag):
    def handler(args):
        log.append((tag, args[1]))
    return handler


class TestWrite:
    def test_write_without_handlers_stores_value(self):
        store = TriggerStore()
        store.write("English", "Hello World")
        assert store.untriggered_read("English") == "Hello World"

    def test_write_fires_global_then_indexed(self):
        store = TriggerStore()
        log = []
        store.register_trigger(indexed_write("k"), recorder(log, "indexed"))
        store.register_trigger(GLOBAL_WRITE, recorder(log, "global"))
        store.write("k", "v")
        assert log == [("global", "k"), ("indexed", "k")]

    def test_index_mismatch_fires_nothing(self):
        store = TriggerStore()
        log = []
        store.register_trigger(indexed_write("other"), recorder(log, "x"))
        store.write("k", "v")
        assert log == []

    def test_write_updates_preserve_key_order(self):
        store = TriggerStore()
        for key in ("a", "b", "c"):
            store.write(key, "1")
        store.write("a", "2")
        assert list(store) == ["a", "b", "c"]

    def test_invalid_key_rejected(self):
        store = TriggerStore()
        with pytest.raises(InvalidKey):
            store.write("", "v")
        with pytest.raises(InvalidKey):
            store.write("two words", "v")


class TestRead:
    def test_read_returns_written_value(self):
        store = TriggerStore()
        store.write("English", "Hello World")
        assert store.read("English") == "Hello World"

    def test_read_missing_raises(self):
        store = TriggerStore()
        with pytest.raises(KeyNotFound):
            store.read("missing")

    def test_read_trigger_can_lazily_construct(self):
        store = TriggerStore()
        calls = []

        def construct(args):
            calls.append(args[1])
            args[0].untriggered_write("lazy", "42")

        store.register_trigger(indexed_read("lazy"), construct)
        assert store.read("lazy") == "42"
        assert store.read("lazy") == "42"
        assert calls == ["lazy", "lazy"]  # fires on every read

    def test_read_triggers_fire_before_missing_key_error(self):
        store = TriggerStore()
        log = []
        store.register_trigger(GLOBAL_READ, recorder(log, "read"))
        with pytest.raises(KeyNotFound):
            store.read("absent")
        assert log == [("read", "absent")]

    @pytest.mark.parametrize("key", ["", "two words", 7, ["k"]])
    def test_invalid_or_unhashable_key_rejected(self, key):
        store = TriggerStore()
        store.write("k", "v")
        log = []
        store.register_trigger(GLOBAL_READ, recorder(log, "g"))
        with pytest.raises(InvalidKey):
            store.read(key)
        with pytest.raises(InvalidKey):
            store.untriggered_read(key)
        assert log == []


class TestUntriggered:
    def test_untriggered_write_bypasses_handlers(self):
        store = TriggerStore()
        log = []
        store.register_trigger(GLOBAL_WRITE, recorder(log, "w"))
        store.untriggered_write("k", "v")
        assert log == []
        assert store.untriggered_read("k") == "v"

    def test_handler_rewriting_own_key_terminates(self):
        store = TriggerStore()
        fired = []

        def rewrite(args):
            fired.append(args[0].activation_depth)
            args[0].untriggered_write("k", "v2")

        store.register_trigger(indexed_write("k"), rewrite)
        store.write("k", "v")
        assert store.untriggered_read("k") == "v2"
        assert fired == [1]

    def test_empty_value_is_legal(self):
        store = TriggerStore()
        store.untriggered_write("k", "")
        assert store.untriggered_read("k") == ""

    def test_untriggered_read_bypasses_handlers(self):
        store = TriggerStore()
        log = []
        store.register_trigger(GLOBAL_READ, recorder(log, "r"))
        store.write("English", "Hello World")
        assert store.untriggered_read("English") == "Hello World"
        assert log == []

    def test_untriggered_read_missing_raises(self):
        store = TriggerStore()
        with pytest.raises(KeyNotFound):
            store.untriggered_read("absent")

    def test_untriggered_read_inside_handler_does_not_reenter(self):
        store = TriggerStore()
        store.untriggered_write("other", "x")
        activations = []

        def peek(args):
            activations.append(args[1])
            args[0].untriggered_read("other")

        store.register_trigger(GLOBAL_READ, peek)
        store.write("k", "v")
        store.read("k")
        assert activations == ["k"]


class TestRegistration:
    def test_handler_receives_backref_key_and_extras(self):
        store = TriggerStore()
        seen = []
        store.register_trigger(GLOBAL_READ, seen.append, "extra1", 2)
        store.write("k", "v")
        store.read("k")
        assert len(seen) == 1
        assert seen[0][0] is store
        assert seen[0][1] == "k"
        assert seen[0][2:] == ["extra1", 2]

    def test_two_indexed_handlers_fire_in_registration_order(self):
        store = TriggerStore()
        log = []
        store.register_trigger(indexed_write("k"), recorder(log, "first"))
        store.register_trigger(indexed_write("k"), recorder(log, "second"))
        store.write("k", "v")
        assert log == [("first", "k"), ("second", "k")]

    def test_unread_key_never_fires(self):
        store = TriggerStore()
        log = []
        store.register_trigger(indexed_read("k"), recorder(log, "r"))
        store.write("k", "v")
        assert log == []

    def test_deregistration(self):
        store = TriggerStore()
        log = []
        handler_id = store.register_trigger(GLOBAL_WRITE, recorder(log, "w"))
        store.write("a", "1")
        store.deregister_trigger(handler_id)
        store.write("b", "2")
        assert log == [("w", "a")]
        with pytest.raises(ValueError):
            store.deregister_trigger(handler_id)

    def test_full_firing_order_global_then_indexed_by_registration(self):
        store = TriggerStore()
        log = []
        store.register_trigger(indexed_write("k"), recorder(log, "i1"))
        store.register_trigger(GLOBAL_WRITE, recorder(log, "g1"))
        store.register_trigger(indexed_write("k"), recorder(log, "i2"))
        store.register_trigger(GLOBAL_WRITE, recorder(log, "g2"))
        store.write("k", "v")
        assert [tag for tag, _ in log] == ["g1", "g2", "i1", "i2"]


class LoggingBackend(dict):
    def __init__(self):
        super().__init__()
        self.sets = []

    def __setitem__(self, key, value):
        self.sets.append((key, value))
        super().__setitem__(key, value)


class TestSwapBackend:
    def test_swap_to_logging_backend_keeps_triggers(self):
        store = TriggerStore()
        log = []
        store.register_trigger(GLOBAL_WRITE, recorder(log, "w"))
        backend = LoggingBackend()
        store.swap_backend(backend)
        backend.sets.clear()  # probe writes
        store.write("k", "v")
        assert ("k", "v") in backend.sets
        assert log == [("w", "k")]

    def test_swap_on_empty_store(self):
        store = TriggerStore()
        backend = {}
        store.swap_backend(backend)
        assert len(store) == 0
        assert store.backend is backend

    def test_swap_preserves_entries_and_order(self):
        store = TriggerStore()
        store.write("one", "1")
        store.write("two", "2")
        snapshot = dict(store.items())
        store.swap_backend({})
        assert store.untriggered_read("one") == snapshot["one"]
        assert list(store) == ["one", "two"]

    def test_nonconforming_backend_rejected(self):
        class Broken:
            def __setitem__(self, key, value):
                raise RuntimeError("nope")

        store = TriggerStore()
        with pytest.raises(BackendContractViolation):
            store.swap_backend(Broken())

    def test_unordered_backend_rejected(self):
        class Reversed(dict):
            def __iter__(self):
                return reversed(list(super().keys()))

        store = TriggerStore()
        with pytest.raises(BackendContractViolation):
            store.swap_backend(Reversed())


class TestRecursionGuard:
    def test_triggered_rewrite_loop_is_cut_off(self):
        store = TriggerStore()

        def rewrite(args):
            args[0].write("k", "again")

        store.register_trigger(indexed_write("k"), rewrite)
        with pytest.raises(RecursionLimitExceeded):
            store.write("k", "v")
        assert store.activation_depth == 0

    def test_nesting_up_to_the_cap_is_allowed(self):
        store = TriggerStore()
        depths = []

        def chain(args):
            depths.append(args[0].activation_depth)
            if args[0].activation_depth < MAX_DEPTH:
                args[0].write("k", "deeper")

        store.register_trigger(indexed_write("k"), chain)
        store.write("k", "v")
        assert depths == list(range(1, 17))

    def test_untriggered_only_handlers_stay_at_depth_one(self):
        store = TriggerStore()
        depths = []

        def untriggered_mutator(args):
            depths.append(args[0].activation_depth)
            args[0].untriggered_write("mirror", args[0].untriggered_read(args[1]))

        store.register_trigger(GLOBAL_WRITE, untriggered_mutator)
        for i in range(5):
            store.write(f"key{i}", str(i))
        assert depths == [1] * 5
        assert store.activation_depth == 0


class TestAccounting:
    def test_only_triggered_writes_cause_activations(self):
        store = TriggerStore()
        count = [0]

        def bump(args):
            count[0] += 1

        store.register_trigger(GLOBAL_WRITE, bump)
        store.write("a", "1")
        store.untriggered_write("b", "2")
        store.write("c", "3")
        store.untriggered_write("a", "4")
        assert count[0] == 2


class TestEpoch:
    @pytest.mark.parametrize("mutate", [
        lambda store: store.write("k", "v2"),
        lambda store: store.untriggered_write("k", "v2"),
        lambda store: store.delete("k"),
        lambda store: store.swap_backend({}),
        lambda store: store.register_trigger(GLOBAL_READ, lambda args: None),
        lambda store: store.deregister_trigger(0),
    ], ids=["write", "untriggered_write", "delete", "swap_backend", "register",
            "deregister"])
    def test_every_mutation_advances_the_epoch(self, mutate):
        store = TriggerStore()
        store.write("k", "v")
        store.register_trigger(indexed_write("k"), lambda args: None)
        before = current_epoch()
        mutate(store)
        assert current_epoch() > before

    def test_reads_and_resolved_writes_leave_the_epoch(self):
        store = TriggerStore()
        store.write("k", "v")
        before = current_epoch()
        store.read("k")
        store.untriggered_read("k")
        store.backend["k"] = "resolved"
        assert store.untriggered_read("k") == "resolved"
        assert current_epoch() == before

    def test_fires_on_read_only_for_read_handlers(self):
        store = TriggerStore()
        store.register_trigger(indexed_read("k"), lambda args: None)
        store.register_trigger(indexed_write("w"), lambda args: None)
        assert store.fires_on_read("k")
        assert not store.fires_on_read("w")
        assert not store.fires_on_read("none")
        store.register_trigger(GLOBAL_READ, lambda args: None)
        assert all(store.fires_on_read(key) for key in ("k", "w", "none"))
