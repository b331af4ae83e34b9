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

from functools import partial
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
from .trigger_store import TriggerStore, advance_epoch, check_token, current_epoch

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
    if instance_name is None:
        return type_name
    return f"{type_name} named {instance_name}"


def canonical_identifier(type_name: str, instance_name: str) -> str:
    """The identifier of a configurator: just the type when the instance is
    named after it."""
    return format_identifier(type_name, None if instance_name == type_name else instance_name)


class ConfiguratorDescription(NamedTuple("ConfiguratorDescription",
                                         [("type_name", str), ("instance_name", str)])):
    """Identity of a configurator: type and instance name.

    The instance name defaults to the type name; the rendered identifier is
    then just the type ("HelloWorldScriptGen") instead of the full
    "HelloWorld named English" form.
    """

    __slots__ = ()

    def __new__(cls, type_name: str, instance_name: str | None = None):
        if instance_name is None:
            instance_name = type_name
        for name, what in ((type_name, "type name"), (instance_name, "instance name")):
            check_token(name, what)
            if "/" in name or "\0" in name:  # a name becomes part of a file name
                raise InvalidKey(f"invalid {what}: {name!r} (a name may not hold '/' or NUL)")
        return super().__new__(cls, type_name, instance_name)

    @property
    def identifier(self) -> str:
        return canonical_identifier(self.type_name, self.instance_name)

    @property
    def slug(self) -> str:
        """Filesystem/DAG-safe form of the identifier."""
        if self.instance_name == self.type_name:
            return self.type_name
        return f"{self.type_name}_{self.instance_name}"


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


class Outcome(NamedTuple):
    """Result of dispatching one framework message to one configurator."""

    kind: str  # "Handled" | "Delegated" | "Skipped"
    target: ConfiguratorDescription | None = None

    def __str__(self) -> str:
        if self.kind == "Delegated":
            return f"Delegated to {self.target.identifier}"
        return self.kind


HANDLED = Outcome("Handled")
SKIPPED = Outcome("Skipped")


class ValueExpression(NamedTuple):
    """Right-hand side of a define: literal text, a cross-namespace reference,
    a synonym-table lookup, or a registered construct function."""

    kind: str  # "literal" | "reference" | "synonym" | "construct"
    text: str  # literal value, or the original ::-token for the other kinds
    ref: tuple[str, str] | None = None  # (identifier token, remote key)
    synonym_key: str | None = None  # explicit ::synonym:key form

    @classmethod
    def literal(cls, value: str) -> "ValueExpression":
        return cls("literal", value)

    @classmethod
    def reference(cls, identifier: str, key: str) -> "ValueExpression":
        return cls("reference", f"::{identifier}:{key}", ref=(identifier, key))

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
        return ValueExpression.reference(identifier, key)
    return ValueExpression.literal(" ".join(tokens))


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
    STATIC_REQUIREMENTS: tuple[DependencyPattern, ...] = ()

    def __init__(self, description: ConfiguratorDescription):
        self.description = description
        self.store = TriggerStore()
        self._synonyms: dict[str, tuple[str, str]] = {}
        # by pattern, in declaration order; a pattern is a (type, name or None) key
        self._requirements: dict[tuple[str, str | None], Requirement] = {}
        self.delegate: ConfiguratorDescription | None = None  # scriptgen that makes our job
        # per message: (command text, the call that applies it), in storing order
        self._stored_commands: dict[str, list[tuple[str, Callable[[], object]]]] = {}
        self._constructors: dict[str, Callable[[], object]] = {}
        self._definitions: dict[str, _Definition] = {}  # lazy definitions only
        self._linker = None
        for key in self.SCHEMA:
            self.add_item(key)
        for pattern in self.STATIC_REQUIREMENTS:
            self.add_requirement(pattern)

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
        check_token(key)
        if expression.kind == "construct" and key not in self._constructors:
            raise NoConstructRegistered(
                f"{self.identifier}: no construct function registered for {key!r}")
        self._definitions.pop(key, None)
        if expression.kind == "literal":
            self.store.write(key, expression.text)
            return
        if key not in self.store:
            self.store.untriggered_write(key, "")
        self._definitions[key] = _Definition(expression)
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

    def add_requirement(self, pattern: DependencyPattern, auto: bool = False) -> Requirement:
        """Record a dependency; strict linkers validate it immediately."""
        existing = self._requirements.get(pattern)
        if existing is not None:
            if existing.auto and not auto:
                # an explicit addreq outranks the registration-implied edge
                existing = self._requirements[pattern] = Requirement(pattern, auto=False)
            return existing
        if self._linker is not None and self._linker.strict:
            self._linker.require_attached(self, pattern)
        # no epoch step: a requirement only widens visibility, and no failure is memoized
        self._requirements[pattern] = requirement = Requirement(pattern, auto)
        return requirement

    def set_synonym(self, key: str, target: tuple[str, str]) -> None:
        check_token(key)
        identifier, remote_key = target
        self._synonyms[key] = (check_token(identifier, "identifier"),
                              check_token(remote_key))
        advance_epoch()

    def store_oncall(self, message: str, command) -> None:
        """Store a macro to run whenever ``message`` is dispatched to us."""
        tokens = _macro_tokens(command)
        self._store_call(message, " ".join(tokens), self.parse_macro(tokens))

    def _store_call(self, message: str, text: str, call: Callable[[], object]) -> None:
        check_token(message, "message")
        self._stored_commands.setdefault(message, []).append((text, call))

    def register_construct(self, key: str, fn: Callable[[], object]) -> None:
        """Attach a zero-argument construct function for ``key`` (developer
        API, not reachable from macros)."""
        self._constructors[check_token(key)] = fn

    # framework dispatch

    def handle_framework(self, message: str) -> Outcome:
        """Dispatch one framework message: stored commands first, then MakeJob
        to the delegate or :meth:`on_message`.  Skipped means no side effects."""
        stored = self._stored_commands.get(message)
        if stored:
            for _, call in list(stored):  # a command may store another oncall
                call()
        if message == "MakeJob" and self.delegate is not None:
            self._linker.find_by_description(self.delegate).delegated_make_job(self)
            return Outcome("Delegated", self.delegate)
        return HANDLED if self.on_message(message) or stored else SKIPPED

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
            if self.store.read_handler_ids(key):
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
        for key in self.store:
            definition = self._definitions.get(key)
            if definition is not None:
                if not resolve:
                    lines.append(f"define {key} {definition.expression.text}")
                    continue
                value = self.resolve_value(key)
            else:
                value = self.store.untriggered_read(key)
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
    tokens = macro.split() if isinstance(macro, str) else list(macro)
    if not tokens:
        raise MacroParseError("empty macro")
    return tokens
