"""Exception hierarchy shared by every runjob module.

All errors raised on purpose derive from RunjobError.  The macro executor
fills in ``filename``/``lineno`` when an error surfaces while running a
script, and the linker sets ``dispatch_context`` when a framework dispatch
fails, so the message carries where the failure happened.
"""

from __future__ import annotations


class RunjobError(Exception):
    dispatch_context: tuple[str, str] | None = None  # (message, configurator identifier)

    def __init__(self, message: str, *, filename: str | None = None, lineno: int | None = None):
        super().__init__(message)
        self.message = message
        self.filename = filename
        self.lineno = lineno

    def __str__(self) -> str:
        text = self.message
        if self.lineno is not None:
            text = f"{self.filename or '<input>'}:{self.lineno}: {text}"
        if self.dispatch_context is not None:
            text += " (dispatching {} to {})".format(*self.dispatch_context)
        return text


# trigger store
class KeyNotFound(RunjobError):
    """A key was read that is absent even after read triggers ran."""


class InvalidKey(RunjobError):
    """Key is not a usable token (empty, non-string, or contains whitespace)."""


class RecursionLimitExceeded(RunjobError):
    """Trigger handlers nested store accesses past its cap, or a reference chain,
    loops, sources or oncall commands nested deeper than the interpreter stack."""


class BackendContractViolation(RunjobError):
    """A swapped-in storage backend failed the mapping conformance probe."""


# configurators
class UnknownMacro(RunjobError):
    """The command's verb is not one the configurator's ``parse_macro`` knows."""


class MacroParseError(RunjobError):
    """A configurator macro is syntactically malformed."""


class NoConstructRegistered(RunjobError):
    """A key was defined as constructed but no construct function exists for it."""


class UnsatisfiedDependency(RunjobError):
    """A declared requirement matches no attached configurator (strict mode)."""


class VisibilityViolation(RunjobError):
    """Cross-namespace lookup without a declared dependency (strict mode)."""


class CircularReference(RunjobError):
    """A reference chain revisited a (configurator, key) pair."""


# linker
class UnknownType(RunjobError):
    """Configurator type is not present in the type registry."""


class DuplicateIdentifier(RunjobError):
    """A configurator with the same rendered identifier is already attached."""


class UnknownConfigurator(RunjobError):
    """Identifier does not resolve to any attached configurator."""


class AmbiguousIdentifier(RunjobError):
    """A single-token identifier matches more than one attached configurator."""


# script generation
class CyclicWorkflow(RunjobError):
    """The requirement graph among fragment producers contains a cycle."""


class SpawnFailure(RunjobError):
    """One or more job processes could not be spawned."""

    def __init__(self, message: str, failures: list[tuple[str, str]] | None = None, **kw):
        super().__init__(message, **kw)
        self.failures = failures or []


# macro language
class ParseError(RunjobError):
    """A directive line could not be parsed."""


class IncompleteInput(ParseError):
    """The text ends inside a construct: a loop without its endloop, or a
    continuation backslash on the last line.  More input may complete it."""


class DanglingContinuation(IncompleteInput):
    """The final physical line of a script ends with a continuation backslash."""


class SourceCycle(RunjobError):
    """A macro file sourced itself, directly or through other files."""


class MalformedLine(RunjobError):
    """A key=value input file contains a line that is neither a pair nor a comment."""
