"""Key/value store instrumented with read/write trigger handlers.

Every configurator keeps its metadata in a TriggerStore.  Handlers can be
registered for four kinds of access (global read, global write, indexed
read, indexed write) and fire on the matching triggered operation, which is
the untriggered one plus its handlers.  A handler that mutates the store
must use the untriggered operations, otherwise it would retrigger itself.

Read triggers fire before the value is fetched, so an indexed read handler
may lazily construct or refresh the value it guards.

The storage backend is a plain dict by default and can be hot-swapped for
any object honouring the mutable mapping contract (get/set/delete/contains
and iteration in insertion order).

Every mutation through the store API advances one process-wide epoch, which
configurators compare against to tell whether a value they resolved is stale.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterator, MutableMapping, NamedTuple

from .errors import (
    BackendContractViolation,
    InvalidKey,
    KeyNotFound,
    RecursionLimitExceeded,
)

MAX_DEPTH = 16  # nested handler activations allowed per store
NO_ENTRIES = MappingProxyType({})  # the one empty mapping of every container not yet written

_READ = "read"
_WRITE = "write"

# Counts mutations that can change a resolved value.  It is process-wide, not
# per store, because one reference chain crosses the stores of many
# configurators and the linker that connects them.
_epoch = 0


def current_epoch() -> int:
    return _epoch


def advance_epoch() -> None:
    global _epoch
    _epoch += 1


class TriggerKind(NamedTuple("TriggerKind", [("mode", str), ("key", str | None)])):
    """One of the four trigger kinds: mode is "read" or "write", key is None
    for the global kinds and the guarded key for the indexed kinds."""

    __slots__ = ()

    def __new__(cls, mode: str, key: str | None = None):
        if mode not in (_READ, _WRITE):
            raise ValueError(f"trigger mode must be 'read' or 'write', got {mode!r}")
        if key is not None:
            check_token(key)
        return super().__new__(cls, mode, key)


GLOBAL_READ = TriggerKind(_READ)
GLOBAL_WRITE = TriggerKind(_WRITE)


def indexed_read(key: str) -> TriggerKind:
    return TriggerKind(_READ, key)


def indexed_write(key: str) -> TriggerKind:
    return TriggerKind(_WRITE, key)


class TriggerHandler(NamedTuple):
    """A registered callback plus the extra values fixed at registration time,
    filed in its store under the kind it was registered for.

    The callback receives a single list argument: element 0 is the store,
    element 1 is the key that was accessed, the rest are the extras.
    """

    handler_id: int
    callback: Callable[[list], object]
    extras: tuple = ()


def check_token(token, what: str = "key") -> str:
    """Return ``token`` if it is one non-empty whitespace-free word, else
    raise InvalidKey naming ``what`` it was meant to be."""
    if not isinstance(token, str) or not token or token.split() != [token]:
        raise InvalidKey(f"invalid {what}: {token!r}")
    return token


class TriggerStore:
    """Ordered string-to-string mapping that fires handlers on triggered access.

    Handler firing order is fixed: all global handlers, then all handlers
    indexed on the accessed key, each group in registration order.  Nested
    triggered accesses performed by handlers are allowed up to ``MAX_DEPTH``
    activations; beyond that RecursionLimitExceeded is raised.

    The mapping dunders are sugar: ``store[k]`` / ``store[k] = v`` are the
    triggered read/write, while iteration, ``in`` and ``len`` never trigger.
    """

    __slots__ = ("_backend", "_handlers", "_next_id", "_depth")  # one store per configurator

    def __init__(self, backend: dict[str, str] | None = None):
        self._backend: MutableMapping[str, str] = {} if backend is None else backend  # not copied
        # (mode, key) -> handlers in registration order; key None is global
        self._handlers: dict[tuple[str, str | None], list[TriggerHandler]] = NO_ENTRIES
        self._next_id = 0
        self._depth = 0

    # triggered access

    def write(self, key: str, value: str) -> None:
        self.untriggered_write(key, value)
        self._fire(_WRITE, key)

    def read(self, key: str) -> str:
        # stored keys were checked when written, so only a miss needs the check
        if not (isinstance(key, str) and key in self._backend):
            check_token(key)
        self._fire(_READ, key)
        return self.untriggered_read(key)

    def quiet_read(self, key: str) -> str | None:
        """``key``'s value in one dict read; None if it is missing or a handler could fire."""
        if not self._handlers:
            try:
                return self._backend[key]
            except KeyError:
                pass
        return None

    # untriggered access

    def untriggered_write(self, key: str, value: str) -> None:
        check_token(key)
        if not isinstance(value, str):
            raise TypeError(f"store values are strings, got {type(value).__name__}")
        self._backend[key] = value
        advance_epoch()

    def untriggered_read(self, key: str) -> str:
        if not (isinstance(key, str) and key in self._backend):
            check_token(key)
            raise KeyNotFound(f"key not found: {key!r}")
        return self._backend[key]

    def delete(self, key: str) -> None:
        if key not in self._backend:
            raise KeyNotFound(f"key not found: {key!r}")
        del self._backend[key]
        advance_epoch()

    # handler registry

    def register_trigger(self, kind: TriggerKind, callback: Callable[[list], object],
                         *extras) -> int:
        """Register ``callback`` for ``kind`` and return a handler id.

        The callback must accept one list argument: [store, key, *extras].
        """
        handler = TriggerHandler(self._next_id, callback, tuple(extras))
        self._next_id += 1
        if self._handlers is NO_ENTRIES:
            self._handlers = {}
        self._handlers.setdefault((kind.mode, kind.key), []).append(handler)
        advance_epoch()
        return handler.handler_id

    def deregister_trigger(self, handler_id: int) -> None:
        for slot, handlers in self._handlers.items():
            for i, handler in enumerate(handlers):
                if handler.handler_id == handler_id:
                    del handlers[i]
                    if not handlers:
                        del self._handlers[slot]
                    advance_epoch()
                    return
        raise ValueError(f"no trigger registered with id {handler_id}")

    def fires_on_read(self, key: str) -> bool:
        """Whether a triggered read of ``key`` fires a handler (no slot is kept empty)."""
        handlers = self._handlers
        return bool(handlers) and ((_READ, None) in handlers or (_READ, key) in handlers)

    def _fire(self, mode: str, key: str) -> None:
        handlers = self._handlers
        if not handlers:
            return
        pending = [*handlers.get((mode, None), ()), *handlers.get((mode, key), ())]
        if not pending:
            return
        if self._depth >= MAX_DEPTH:
            raise RecursionLimitExceeded(
                f"trigger nesting exceeded {MAX_DEPTH} activations at key {key!r}")
        self._depth += 1
        try:
            for handler in pending:
                handler.callback([self, key, *handler.extras])
        finally:
            self._depth -= 1

    @property
    def activation_depth(self) -> int:
        """Number of handler activations currently on the stack (0 outside triggers)."""
        return self._depth

    # backend management

    def swap_backend(self, new_backend: MutableMapping[str, str]) -> None:
        """Move all entries into ``new_backend`` and use it from now on.

        Trigger registrations survive the swap.  The candidate is probed for
        mapping conformance first and rejected with BackendContractViolation.
        """
        _validate_backend(new_backend)
        for key, value in self._backend.items():
            new_backend[key] = value
        self._backend = new_backend
        advance_epoch()

    @property
    def backend(self) -> MutableMapping[str, str]:
        """The raw mapping.  Mutating it directly bypasses handlers and the
        epoch, so values already resolved from it may stay stale."""
        return self._backend

    # mapping sugar (iteration and membership never trigger)

    def __getitem__(self, key: str) -> str:
        return self.read(key)

    def __setitem__(self, key: str, value: str) -> None:
        self.write(key, value)

    def __contains__(self, key) -> bool:
        return key in self._backend

    def __iter__(self) -> Iterator[str]:
        return iter(self._backend)

    def __len__(self) -> int:
        return len(self._backend)

    def keys(self):
        return self._backend.keys()

    def items(self):
        return self._backend.items()


_PROBE_A = "__runjob_backend_probe_a__"
_PROBE_B = "__runjob_backend_probe_b__"


def _validate_backend(backend) -> None:
    """Probe set/get/contains/iterate/delete and insertion-order iteration."""
    try:
        backend[_PROBE_A] = "a"
        backend[_PROBE_B] = "b"
        if backend[_PROBE_A] != "a" or backend[_PROBE_B] != "b":
            raise BackendContractViolation("backend does not return stored values")
        if _PROBE_A not in backend:
            raise BackendContractViolation("backend does not support membership tests")
        probes = [k for k in backend if k in (_PROBE_A, _PROBE_B)]
        if probes != [_PROBE_A, _PROBE_B]:
            raise BackendContractViolation("backend does not iterate in insertion order")
        del backend[_PROBE_A]
        del backend[_PROBE_B]
        if _PROBE_A in backend:
            raise BackendContractViolation("backend does not delete keys")
    except BackendContractViolation:
        raise
    except Exception as exc:
        raise BackendContractViolation(f"backend failed the mapping probe: {exc}") from exc
