"""Configurators: named metadata packages that describe one workflow step.

A configurator owns a TriggerStore of key/value metadata, a synonym table,
declared dependencies, stored ``oncall`` commands and a macro parser.  A
type lists its keys in ``SCHEMA`` and overrides ``parse_macro`` to add
verbs and ``on_message`` to answer framework messages, passing the rest to
``super()``.  Attached to a linker it becomes a namespace and is bound to
that linker; values defined as references resolve lazily through it.
``resolve_value`` re-walks a reference chain only after something that can
change its value has changed; constructs run on every read.

This module also owns the configurator identifier grammar, "Type" or
"Type named Name" with ``named`` reserved in identifier position.
"""

from __future__ import annotations

import sys
from functools import partial
from types import MappingProxyType
from typing import Callable, NamedTuple, Sequence

from .errors import (
    CircularReference,
    InvalidKey,
    KeyNotFound,
    MacroParseError,
    NoConstructRegistered,
    RecursionLimitExceeded,
    RunjobError,
    UnknownMacro,
)
from .trigger_store import NO_ENTRIES, TriggerStore, advance_epoch, check_token, current_epoch

# Counts reads whose value can change with no mutation: a construct run, or a
# store read that fires user read handlers.  A definition keeps its value
# only from a walk that left this count where it found it.
_volatile_reads = 0

# (configurator, key) pairs being resolved, outermost first; values unused
_resolving: dict = {}


def _volatile_read() -> None:
    global _volatile_reads
    _volatile_reads += 1


def split_identifier(tokens: Sequence[str]) -> tuple[str, str | None, Sequence[str]]:
    """Parse the "Type" or "Type named Name" identifier that leads ``tokens``;
    also return the tokens after it."""
    if len(tokens) > 1 and tokens[1] == "named":
        if len(tokens) < 3:
            raise _malformed_identifier(tokens)
        return tokens[0], tokens[2], tokens[3:]
    if not tokens:
        raise _malformed_identifier(tokens)
    return tokens[0], None, tokens[1:]


def parse_identifier(tokens: Sequence[str]) -> tuple[str, str | None]:
    """Parse "Type" or "Type named Name" token forms."""
    type_name, instance, rest = split_identifier(tokens)
    if rest:
        raise _malformed_identifier(tokens)
    return type_name, instance


def _malformed_identifier(tokens: Sequence[str]) -> MacroParseError:
    return MacroParseError(
        "malformed configurator identifier: " + (" ".join(tokens) or "<empty>"))


def format_identifier(type_name: str, instance_name: str | None) -> str:
    """Render the "Type" or "Type named Name" form."""
    return type_name if instance_name is None else f"{type_name} named {instance_name}"


class ConfiguratorDescription(NamedTuple("ConfiguratorDescription",
                                         [("type_name", str), ("instance_name", str)])):
    """Identity of a configurator: type and instance name.

    The instance name defaults to the type name; the rendered identifier is
    then just the type ("HelloWorldScriptGen") instead of the full
    "HelloWorld named English" form.
    """

    __slots__ = ()

    def __new__(cls, type_name: str, instance_name: str | None = None):
        instance_name = type_name if instance_name is None else instance_name
        for name in (type_name, instance_name):  # a token that can be part of a file name
            if not isinstance(name, str) or name.split() != [name] or "/" in name or "\0" in name:
                what = "type name" if name is type_name else "instance name"
                check_token(name, what)
                raise InvalidKey(f"invalid {what}: {name!r} (a name may not hold '/' or NUL)")
        return tuple.__new__(cls, (type_name, instance_name))

    @property
    def identifier(self) -> str:
        type_name, instance_name = self
        return format_identifier(type_name, None if instance_name == type_name else instance_name)

    @property
    def slug(self) -> str:
        """Filesystem/DAG-safe form of the identifier."""
        type_name, instance_name = self
        return type_name if instance_name == type_name else f"{type_name}_{instance_name}"


class DependencyPattern(NamedTuple):
    """Requirement pattern matched against attached configurator descriptions.

    An ``instance_name`` of None matches any instance, so "addreq Step" is
    satisfied by every attached Step instance.
    """

    type_name: str
    instance_name: str | None = None

    def matches(self, description: ConfiguratorDescription) -> bool:
        if self.type_name != description.type_name:
            return False
        if self.instance_name is not None and self.instance_name != description.instance_name:
            return False
        return True

    def render(self) -> str:
        return format_identifier(self.type_name, self.instance_name)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "DependencyPattern":
        type_name, instance = parse_identifier(tokens)
        return cls(type_name, instance)


class Requirement(NamedTuple):
    pattern: DependencyPattern
    auto: bool = False  # implied by a scriptgen registration; not dumped


def registration_requirements(pattern: DependencyPattern) -> MappingProxyType:
    """A registration's implied requirement as the read-only {pattern: requirement}
    that the configurators it delegates share, each until it writes its own."""
    return MappingProxyType({pattern: Requirement(pattern, auto=True)})


class ValueExpression(NamedTuple):
    """Right-hand side of a define: literal text, a cross-namespace reference,
    a synonym-table lookup, or a registered construct function."""

    kind: str  # "literal" | "reference" | "synonym" | "construct"
    token: str | None  # literal value, or the ::-token of a synonym or construct
    ref: tuple[str, str] | None = None  # (identifier token, remote key)
    synonym_key: str | None = None  # explicit ::synonym:key form

    @property
    def text(self) -> str:  # the original ::-token of a reference is rendered when read
        return self.token if self.ref is None else "::{}:{}".format(*self.ref)

    @classmethod
    def literal(cls, value: str) -> "ValueExpression":
        return tuple.__new__(cls, ("literal", value, None, None))

    @classmethod
    def reference(cls, identifier: str, key: str) -> "ValueExpression":
        return tuple.__new__(cls, ("reference", None, (identifier, key), None))

    @classmethod
    def synonym(cls, key: str | None = None) -> "ValueExpression":
        text = "::synonym" if key is None else f"::synonym:{key}"
        return cls("synonym", text, synonym_key=key)

    @classmethod
    def construct(cls) -> "ValueExpression":
        return cls("construct", "::construct")


def parse_expression(tokens: Sequence[str]) -> ValueExpression:
    """Parse define expression tokens.

    A leading ``::`` token selects the non-literal forms (::construct,
    ::synonym, ::synonym:key, ::Identifier:key); anything else is the
    literal rest-of-line joined with single spaces.
    """
    if not tokens:
        raise MacroParseError("define requires an expression")
    head = tokens[0]
    if head.startswith("::"):
        if len(tokens) != 1:
            raise MacroParseError(f"unexpected tokens after expression {head!r}")
        body = head[2:]
        if body == "construct":
            return ValueExpression.construct()
        if body == "synonym":
            return ValueExpression.synonym()
        if body.startswith("synonym:"):
            key = body[len("synonym:"):]
            if not key:
                raise MacroParseError(f"malformed synonym expression {head!r}")
            return ValueExpression.synonym(key)
        identifier, sep, key = body.partition(":")
        if not sep or not identifier or not key:
            raise MacroParseError(f"malformed reference {head!r}")
        return ValueExpression.reference(sys.intern(identifier), key)  # one name, many references
    return ValueExpression.literal(" ".join(tokens))


def reads_back(value: str) -> bool:
    """Whether ``define <key> <value>`` reads back as exactly ``value``."""
    return ("#" not in value and not value.startswith("::") and not value.endswith("\\")
            and " ".join(value.split()) == value)


class _Definition:
    __slots__ = ("expression", "resolved_at")

    def __init__(self, expression: ValueExpression):
        self.expression = expression  # a reference, synonym or construct
        self.resolved_at: int | None = None  # epoch at which the stored value was resolved


class Configurator:
    """Base configurator: metadata store plus macro and framework plumbing.

    A subclass lists its keys in ``SCHEMA``, in store order, adds a macro
    verb by overriding :meth:`parse_macro` and answers a framework message
    by overriding :meth:`on_message`; both pass what they do not own to
    ``super()``.
    """

    SCHEMA: tuple[str, ...] = ()  # keys declared, in this order, on every instance

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for key in cls.SCHEMA:  # checked once per class, not per configurator
            check_token(key)

    def __init__(self, description: ConfiguratorDescription):
        self.description = description
        self.store = TriggerStore(dict.fromkeys(self.SCHEMA, ""))  # a new store: no epoch step
        # each container is shared and empty until its first write makes one of our own
        self._synonyms: dict[str, tuple[str, str]] = NO_ENTRIES
        # by pattern, in declaration order; a pattern is a (type, name or None) key
        self._requirements: dict[tuple[str, str | None], Requirement] = NO_ENTRIES
        self.delegate: ConfiguratorDescription | None = None  # scriptgen that makes our job
        # per message: (command text, the call that applies it), in storing order
        self._stored_commands: dict[str, list[tuple[str, Callable[[], object]]]] = NO_ENTRIES
        self._constructors: dict[str, Callable[[], object]] = NO_ENTRIES
        self._definitions: dict[str, _Definition] = NO_ENTRIES  # lazy definitions only
        self._linker = None

    def _writable(self, name: str) -> dict:
        if type(getattr(self, name)) is MappingProxyType:  # NO_ENTRIES, or a registration's
            setattr(self, name, dict(getattr(self, name)))
        return getattr(self, name)

    @property
    def identifier(self) -> str:
        return self.description.identifier

    @property
    def requirements(self) -> tuple[Requirement, ...]:
        """Declared dependencies, in declaration order; only add_requirement
        changes them, and only by adding, so no resolved value goes stale."""
        return tuple(self._requirements.values())

    def requires(self, description: ConfiguratorDescription) -> bool:
        """Whether a requirement matches ``description``; looks up only the two
        patterns that can, "Type named Name" and "Type"."""
        requirement = (self._requirements.get(description)
                       or self._requirements.get((description.type_name, None)))
        return requirement is not None and requirement.pattern.matches(description)

    def bind(self, linker) -> None:
        """Called by the linker on attach."""
        self._linker = linker

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.identifier!r}>"

    # macro handling

    def apply_macro(self, macro) -> None:
        """Check one macro command, then apply it."""
        self.parse_macro(_macro_tokens(macro))()

    def parse_macro(self, tokens: list[str]) -> Callable[[], object]:
        """Shape-check a macro command and return the call that applies it.

        A verb this class does not own raises UnknownMacro; a subclass adds
        a verb by overriding this and passing the others to ``super()``.
        """
        verb = tokens[0]
        if verb == "additem":
            if len(tokens) != 2:
                raise MacroParseError("usage: additem <key>")
            return partial(self.add_item, tokens[1])
        if verb == "define":
            if len(tokens) < 3:
                raise MacroParseError("usage: define <key> <expression>")
            return partial(self.define, tokens[1], parse_expression(tokens[2:]))
        if verb == "addreq":
            if len(tokens) < 2:
                raise MacroParseError("usage: addreq <cfg-identifier>")
            return partial(self.add_requirement, DependencyPattern.from_tokens(tokens[1:]))
        if verb == "synonym":
            if len(tokens) != 3:
                raise MacroParseError("usage: synonym <key> ::<cfg-identifier>:<key>")
            target = parse_expression(tokens[2:])
            if target.kind != "reference":
                raise MacroParseError(f"synonym target must be a reference, got {tokens[2]!r}")
            return partial(self.set_synonym, tokens[1], target.ref)
        if verb == "oncall":
            if len(tokens) < 4 or tokens[2] != "do":
                raise MacroParseError("usage: oncall <message> do <macro>")
            call = self.parse_macro(tokens[3:])  # a stored oncall is checked in full
            return partial(self._store_call, tokens[1], " ".join(tokens[3:]), call)
        raise UnknownMacro(f"{self.identifier}: unknown macro {verb!r}")

    # base metadata operations

    def add_item(self, key: str) -> None:
        """Declare a metadata key; existing values survive re-declaration."""
        check_token(key)
        if key not in self.store:
            self.store.untriggered_write(key, "")

    def define(self, key: str, expression: ValueExpression) -> None:
        """Write a literal to ``key``, or record a lazy definition for it.

        A reference, synonym lookup or construct is evaluated by
        :meth:`resolve_value`, not by the store: a plain store read returns
        the value last resolved.  A rejected definition leaves the key's
        previous one in place.
        """
        check_token(key)  # before _definitions, which a list key cannot index
        if expression.kind == "literal":
            if key in self._definitions:
                del self._definitions[key]
            return self.store.write(key, expression.token)
        if expression.kind == "construct" and key not in self._constructors:
            raise NoConstructRegistered(
                f"{self.identifier}: no construct function registered for {key!r}")
        self._writable("_definitions").pop(key, None)
        self.add_item(key)
        # a declared key is filed under the class's string, which every instance shares
        self._definitions[sys.intern(key) if key in self.SCHEMA else key] = _Definition(expression)
        advance_epoch()

    def _evaluate_expression(self, key: str, expression: ValueExpression) -> str:
        if expression.kind == "construct":
            _volatile_read()
            return str(self._constructors[key]())
        if expression.kind == "synonym":
            lookup = expression.synonym_key or key
            target = self._synonyms.get(lookup)
            if target is None:
                raise KeyNotFound(f"{self.identifier}: no synonym defined for {lookup!r}")
            identifier, remote_key = target
        else:  # reference
            identifier, remote_key = expression.ref
        if self._linker is None:
            raise RunjobError(
                f"{self.identifier}: cannot resolve {expression.text!r} without a linker")
        return self._linker.lookup_parameter(self.description, identifier, remote_key)

    def add_requirement(self, pattern: DependencyPattern | MappingProxyType,
                        auto=False) -> Requirement:
        """Record a dependency, or share what ``registration_requirements`` made
        while this configurator has none of its own; strict linkers check it."""
        shared = pattern if type(pattern) is MappingProxyType else None
        requirement = next(iter(shared.values())) if shared else Requirement(pattern, auto)
        pattern = requirement.pattern
        existing = self._requirements.get(pattern)
        if existing is not None and (requirement.auto or not existing.auto):
            return existing  # only an explicit addreq outranks a registration-implied edge
        if self._linker is not None and self._linker.strict:
            self._linker.require_attached(self, pattern)
        if shared is not None and self._requirements is NO_ENTRIES:
            self._requirements = shared
            return requirement
        # no epoch step: a requirement only widens visibility, and no failure is memoized;
        # an outranking one goes last, where a dump, registering before any addreq, puts it
        self._writable("_requirements").pop(pattern, None)
        self._requirements[pattern] = requirement
        return requirement

    def set_synonym(self, key: str, target: tuple[str, str]) -> None:
        check_token(key)
        identifier, remote_key = target
        self._writable("_synonyms")[key] = (check_token(identifier, "identifier"),
                                            check_token(remote_key))
        advance_epoch()

    def _store_call(self, message: str, text: str, call: Callable[[], object]) -> None:
        check_token(message, "message")
        self._writable("_stored_commands").setdefault(message, []).append((text, call))

    def register_construct(self, key: str, fn: Callable[[], object]) -> None:
        """Attach a zero-argument construct function for ``key`` (developer
        API, not reachable from macros)."""
        self._writable("_constructors")[check_token(key)] = fn

    # framework dispatch

    def handle_framework(self, message: str) -> str:
        """Dispatch one framework message: stored commands first, then MakeJob
        to the delegate or :meth:`on_message`.  Answers "Handled", "Skipped"
        (no side effects) or "Delegated to <scriptgen identifier>"."""
        stored = self._stored_commands.get(message)
        if stored:
            for _, call in list(stored):  # a command may store another oncall
                call()
        if message == "MakeJob" and self.delegate is not None:
            self._linker.find_by_description(self.delegate).delegated_make_job(self)
            return "Delegated to " + self.delegate.identifier
        return "Handled" if self.on_message(message) or stored else "Skipped"

    def on_message(self, message: str) -> bool:
        """Answer ``message`` and return True, or return False to skip it.
        Reset drops our script objects; an override passes the rest to super()."""
        if message == "Reset" and self._linker is not None:
            self._linker.remove_script_objects(producer=self.description)
        return message == "Reset"

    # resolution

    def resolve_value(self, key: str) -> str:
        """Triggered read of ``key``, then evaluation of its lazy definition
        if the epoch moved since it was resolved; a construct runs on every
        read.  A revisited (configurator, key) pair raises CircularReference,
        a chain too deep for the interpreter stack RecursionLimitExceeded.
        A current value in a store without handlers costs one dict read.
        """
        definition = self._definitions.get(key)
        if definition is None or definition.resolved_at == current_epoch():
            value = self.store.quiet_read(key)
            if value is not None:
                return value
        frame = (self, key)
        if frame in _resolving:
            chain = " -> ".join(f"{cfg.identifier}:{k}" for cfg, k in [*_resolving, frame])
            raise CircularReference(f"reference cycle: {chain}")
        _resolving[frame] = None
        try:
            value = self.store.read(key)
            if self.store.fires_on_read(key):
                _volatile_read()  # user handlers must fire on every read through here
            definition = self._definitions.get(key)
            epoch = current_epoch()
            if definition is None or definition.resolved_at == epoch:
                return value
            volatile = _volatile_reads
            value = self._evaluate_expression(key, definition.expression)
            self.store.backend[key] = value  # raw write: it adds no state, so no epoch
            if _volatile_reads == volatile:
                # the epoch from before the walk: a change during it leaves
                # this stamp stale at once
                definition.resolved_at = epoch
            return value
        except RecursionError:
            if len(_resolving) > 1:  # convert it once, at the outermost frame
                raise
            raise RecursionLimitExceeded(
                f"reference chain from {self.identifier}:{key} is too deep to resolve") from None
        finally:
            del _resolving[frame]

    def fragment_payload(self) -> str:
        raise RunjobError(f"{self.identifier} does not generate script fragments")

    # state dump support

    def dump_commands(self, resolve: bool = False) -> list[str]:
        """Own state as base-parser macros, in a re-sourceable order."""
        lines = []
        for key, value in self.store.items():
            definition = self._definitions.get(key)
            if definition is not None:
                if not resolve:
                    lines.append(f"define {key} {definition.expression.text}")
                    continue
                value = self.resolve_value(key)
                if not reads_back(value):
                    raise RunjobError(f"{self.identifier}:{key}: {value!r} would not source back")
            lines.append(f"define {key} {value}" if value else f"additem {key}")
        for requirement in self._requirements.values():
            if not requirement.auto:
                lines.append(f"addreq {requirement.pattern.render()}")
        for key, (identifier, remote_key) in self._synonyms.items():
            lines.append(f"synonym {key} ::{identifier}:{remote_key}")
        for message, commands in self._stored_commands.items():
            for text, _ in commands:
                lines.append(f"oncall {message} do {text}")
        return lines


def _macro_tokens(macro) -> list[str]:
    tokens = macro.split() if isinstance(macro, str) else macro
    if not tokens:
        raise MacroParseError("empty macro")
    return tokens
