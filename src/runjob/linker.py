"""The Linker: configurator container, communication bus, and framework driver.

It owns the attach-ordered configurator list, the script-object repository
(one object per file name, in emission order), framework message groups,
the strict/lenient dependency mode, and the declarative state dump.  All
cross-namespace parameter lookup funnels through
:meth:`Linker.lookup_parameter`, which is where visibility rules live;
the configurator's ``resolve_value`` evaluates definitions and detects
reference cycles.
"""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path
from typing import Mapping, NamedTuple

from .configurator import (
    Configurator,
    ConfiguratorDescription,
    DependencyPattern,
    format_identifier,
    parse_identifier,
    registration_requirements,
)
from .errors import (
    AmbiguousIdentifier,
    DuplicateIdentifier,
    RunjobError,
    UnknownConfigurator,
    UnknownType,
    UnsatisfiedDependency,
    VisibilityViolation,
)
from .scriptgen import ScriptObject
from .trigger_store import advance_epoch

DEFAULT_RUN_MODE = "foreground"


class DispatchRecord(NamedTuple):
    message: str
    description: ConfiguratorDescription
    outcome: str  # what handle_framework answered


class Linker:
    def __init__(self, *, strict: bool = True, output_dir="." , run_mode: str = DEFAULT_RUN_MODE,
                 types: dict | None = None):
        self._types: dict[str, type] = dict(types or {})
        self._configurators: dict[str, Configurator] = {}  # by canonical identifier
        self._by_description: dict[ConfiguratorDescription, Configurator] = {}
        # configurators by instance name, and attached count per type
        self._by_instance: dict[str, tuple[Configurator, ...]] = {}
        self._type_counts: Counter[str] = Counter()
        self.repository: dict[str, ScriptObject] = {}  # by file name, in emission order
        self._files: dict[ConfiguratorDescription, tuple[str, ...]] = {}  # by producer
        self.framework_groups: dict[str, list[str]] = {}
        self._strict = bool(strict)
        self.output_dir = Path(output_dir)
        self.written: set[str] = set()  # the names materialize wrote under output_dir
        self.run_mode = run_mode
        # (scriptgen, delegator type) to the requirements its delegators share, latest last
        self._registrations: dict[tuple[Configurator, str], Mapping] = {}

    @property
    def strict(self) -> bool:
        """Strict dependency mode; fixed at construction, since resolved
        values depend on it."""
        return self._strict

    # type registry

    def register_type(self, type_name: str, factory) -> None:
        self._types[type_name] = factory

    # container

    @property
    def configurators(self) -> list[Configurator]:
        return list(self._configurators.values())

    def attach(self, type_name: str, instance_name: str | None = None) -> str:
        """Instantiate and append a configurator; returns its identifier.

        The configurator is built, then delegated, before the linker records
        it, so a failed attach leaves the linker as it was; in strict mode
        ``add_requirement`` checks each delegation's requirement.
        """
        factory = self._types.get(type_name)
        if factory is None:
            raise UnknownType(f"unknown configurator type {type_name!r}")
        description = ConfiguratorDescription(type_name, instance_name)
        key = description.identifier
        if key in self._configurators:
            raise DuplicateIdentifier(f"{key!r} is already attached")
        cfg = factory(description)
        cfg.bind(self)
        for (scriptgen, delegator_type), requirements in self._registrations.items():
            if delegator_type == type_name:
                self._delegate(cfg, scriptgen, requirements)
        self._configurators[key] = cfg
        self._by_description[description] = cfg
        name = description.instance_name
        self._by_instance[name] = (*self._by_instance.get(name, ()), cfg)
        self._type_counts[type_name] += 1
        advance_epoch()
        return key

    def require_attached(self, cfg: Configurator, pattern: DependencyPattern) -> None:
        """Strict-mode check that ``cfg``'s requirement ``pattern`` matches an
        attached configurator."""
        attached = (self._type_counts[pattern.type_name] > 0 if pattern.instance_name is None
                    else pattern in self._by_description)  # equal to the description it names
        if not attached:
            raise UnsatisfiedDependency(
                f"{cfg.identifier}: requirement {pattern.render()!r} "
                "matches no attached configurator")

    def find(self, identifier: str) -> Configurator:
        """Resolve "Type", "Type named Name", or a unique instance name.

        A canonical identifier is one lookup; other spellings are parsed.
        Single tokens match a type-named configurator first; failing that,
        exactly one attached instance with that instance name.
        """
        cfg = self._configurators.get(identifier)
        if cfg is not None:
            return cfg
        type_name, instance = parse_identifier(identifier.split())
        cfg = self._by_description.get((type_name, instance or type_name))
        if cfg is not None:
            return cfg
        if instance is not None:
            raise UnknownConfigurator(f"no configurator {format_identifier(type_name, instance)}")
        by_instance = self._by_instance.get(type_name, ())
        if len(by_instance) == 1:
            return by_instance[0]
        if len(by_instance) > 1:
            raise AmbiguousIdentifier(
                f"{type_name!r} names {len(by_instance)} attached configurators")
        raise UnknownConfigurator(f"no configurator matches {type_name!r}")

    def find_by_description(self, description: ConfiguratorDescription) -> Configurator:
        cfg = self._by_description.get(description)
        if cfg is None:
            raise UnknownConfigurator(f"no configurator {description.identifier!r}")
        return cfg

    def route(self, identifier, macro) -> None:
        """Issue one macro command to the identified configurator."""
        self.find(identifier).apply_macro(macro)

    # scriptgen registrations

    def register_delegation(self, scriptgen: Configurator, delegator_type: str) -> None:
        """Make every configurator of ``delegator_type``, present and future,
        delegate MakeJob to ``scriptgen``.  A repeated registration moves to
        the end, so it wins for later attaches as it does for present ones."""
        if delegator_type not in self._types:
            raise UnknownType(f"unknown configurator type {delegator_type!r}")
        self._registrations.pop((scriptgen, delegator_type), None)
        requirements = registration_requirements(DependencyPattern(*scriptgen.description))
        self._registrations[(scriptgen, delegator_type)] = requirements
        for cfg in self._configurators.values():
            if cfg.description.type_name == delegator_type:
                self._delegate(cfg, scriptgen, requirements)

    @staticmethod
    def _delegate(cfg: Configurator, scriptgen: Configurator, requirements: Mapping) -> None:
        """Route ``cfg``'s MakeJob to ``scriptgen``, which ``cfg`` needs by ``requirements``."""
        cfg.delegate = scriptgen.description
        cfg.add_requirement(requirements)

    # framework

    def run_framework(self, *messages: str) -> list[DispatchRecord]:
        """Dispatch each message to every configurator in attach order.

        Tokens naming a framework group expand to the group's messages.  The
        first handler error aborts the run, annotated with the failing
        configurator's description.  The records go to the caller only.
        """
        expanded = [expansion for message in messages
                    for expansion in self.framework_groups.get(message, [message])]
        records = []
        for message in expanded:
            for cfg in list(self._configurators.values()):
                try:
                    outcome = cfg.handle_framework(message)
                except RunjobError as exc:
                    exc.dispatch_context = (message, cfg.identifier)
                    raise
                records.append(tuple.__new__(DispatchRecord, (message, cfg.description, outcome)))
        return records

    def define_group(self, name: str, messages) -> None:
        self.framework_groups[name] = list(messages)

    # parameter lookup

    def lookup_parameter(self, requester: ConfiguratorDescription | None,
                         target_identifier, key: str) -> str:
        """Resolve ``key`` in the target namespace on behalf of ``requester``.

        Strict mode demands a declared requirement of the requester matching
        the target; lookups inside one's own namespace are always allowed.
        A requester of None (direct API use) bypasses the visibility check.
        """
        target = self.find(target_identifier)
        if self.strict and requester is not None and target.description != requester:
            if not self.find_by_description(requester).requires(target.description):
                raise VisibilityViolation(
                    f"{requester.identifier} reads {target.identifier}:{key} "
                    "without a declared dependency")
        return target.resolve_value(key)

    # script object repository

    def add_script_object(self, obj: ScriptObject) -> ScriptObject:
        """Hold ``obj`` in the repository and return it.  The repository is
        keyed by the file an object materializes as: re-adding a file for the
        same producer replaces the old object and moves it to the end;
        another producer's is an error."""
        holder = self.repository.get(obj.filename)
        if holder is not None and holder.producer != obj.producer:
            raise DuplicateIdentifier(
                f"{obj.producer.identifier} and {holder.producer.identifier} "
                f"both produce {obj.filename!r}")
        if holder is None:
            self._files[obj.producer] = (*self._files.get(obj.producer, ()), obj.filename)
        self.repository.pop(obj.filename, None)
        self.repository[obj.filename] = obj
        return obj

    def collect_script_objects(self, target: str | None = None,
                               producer: ConfiguratorDescription | None = None,
                               kind: str | None = None) -> list[ScriptObject]:
        """Matching repository objects, in emission order."""
        return [obj for obj in self.repository.values()
                if (target is None or obj.target == target)
                and (producer is None or obj.producer == producer)
                and (kind is None or obj.kind == kind)]

    def remove_script_objects(self, producer: ConfiguratorDescription) -> int:
        """Drop ``producer``'s objects, visiting only those."""
        stale = self._files.pop(producer, ())
        for filename in stale:
            self.repository.pop(filename, None)
        return len(stale)

    def materialize(self, name: str, text: str) -> Path:
        """Write ``text`` atomically as file ``name`` under the output directory,
        made if missing, add ``name`` to ``written`` and return its path."""
        self.written.add(name)
        return write_atomically(self.output_dir / name, text, make_parent=True)

    # declarative dump

    def dump_state(self, resolve: bool = False) -> str:
        """Serialize attach/configure state as a re-sourceable macro script.

        With ``resolve`` the lazy definitions are snapshotted to their
        current literals, turning the dump into a provenance record instead
        of a live description.
        """
        configurators = list(self._configurators.values())
        lines = ["# runjob state dump", *(f"attach {cfg.identifier}" for cfg in configurators)]
        # registration order matters when two scriptgens claim one type
        lines += [f"cfg {scriptgen.identifier} register {delegator_type}"
                  for scriptgen, delegator_type in self._registrations]
        for cfg in configurators:
            if commands := cfg.dump_commands(resolve):
                prefix = f"cfg {cfg.identifier} "
                lines.append(prefix + ("\n" + prefix).join(commands))
        lines += [f"framework group {name} {' '.join(messages)}"
                  for name, messages in self.framework_groups.items()]
        return "\n".join([*lines, ""])  # not text + "\n", which copies the text


def write_atomically(path: Path, text: str, make_parent: bool = False) -> Path:
    """Write ``text`` as UTF-8 to a temporary file beside ``path`` and rename
    it over ``path``, so a reader never sees a partial file and a hard link
    to the old file keeps the old text.  A ``.sh`` file gets the executable
    bit; ``make_parent`` makes the missing directories above ``path`` first."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if make_parent and not path.parent.exists():  # a file there fails the open
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        if path.suffix == ".sh":
            temp.chmod(0o755)
        os.replace(temp, path)
    except UnicodeEncodeError:  # in the text, not the path
        raise
    except (OSError, ValueError) as exc:  # a ValueError: a NUL byte in the path
        raise cannot_write(path, exc) from None
    finally:
        if temp.exists():  # false after the rename, and where no directory holds it
            temp.unlink()
    return path


def cannot_write(path: Path, exc: OSError | ValueError) -> RunjobError:
    """The error for a failed write, naming the file asked for; a ValueError
    is a NUL byte in that name, so the name is quoted."""
    if isinstance(exc, ValueError):
        return RunjobError(f"cannot write {str(path)!r}: {exc}")
    return RunjobError(f"cannot write {path}: {exc.strerror or exc}")
