"""Tokenizer, parser, and interpreter for the workflow macro language.

Grammar (line oriented, UTF-8, lines end at LF, CRLF or CR):

    # comment to end of line
    attach <Type> [named <Name>]
    cfg <Type> [named <Name>] <configurator macro...>
    framework run <message-or-group>...
    framework group <name> <message>...
    source <path>
    loop <var> <from> <to>
        ... body, with $(var) substituted per iteration ...
    endloop

A trailing backslash joins the next physical line with a single space.
Tokens are whitespace separated; identifiers follow the configurator
module's grammar, where ``named`` is reserved in identifier position, and
an ``attach`` or ``cfg`` line is built straight from its tokens, in one step.
One push ``Parser`` reads scripts, checks and REPL lines alike, folding each
``loop ... endloop`` into a ``Loop`` holding its body's directives; each
iteration substitutes its integer value into copies of them.  A ``Cfg``
keeps its macro as one string, split when it runs, and type names are
interned, so the lines and configurators naming one type share one string.
Text that ends inside a loop or a continuation is ``IncompleteInput``: the
REPL then reads another line.  A file is parsed whole, then run fail-fast,
dropping each directive once run: the first error aborts with file:line
context, leaving earlier directives applied.  A check runs it without a
linker, visiting only its sources and loops.
"""

from __future__ import annotations

from pathlib import Path
from sys import intern
from typing import Iterable, Iterator

from .configurator import format_identifier
from .errors import (
    DanglingContinuation,
    IncompleteInput,
    ParseError,
    RecursionLimitExceeded,
    RunjobError,
    SourceCycle,
)

_BLOCK = 1024  # characters split_lines splits at once, so that it never holds every line


class LogicalLine:
    """One comment-stripped, continuation-joined line of macro text."""

    __slots__ = ("lineno", "tokens", "comment")

    def __init__(self, lineno: int, tokens: list[str], comment: bool = False):
        self.lineno = lineno  # physical line the logical line starts on
        self.tokens = tokens
        self.comment = comment  # True when the raw text carried a '#' comment


def _unify_line_breaks(text: str) -> str:
    """``text`` with every line break (LF, CRLF or CR) written as LF; no
    other character ends a line."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def split_lines(text: str) -> Iterator[str]:
    """Yield the physical lines of ``text``, without their line breaks, split
    ``_BLOCK`` characters at a time; a break at the very end adds no empty line."""
    text = _unify_line_breaks(text)
    start = 0
    while (end := text.find("\n", start + _BLOCK)) >= 0:
        yield from text[start:end].split("\n")
        start = end + 1
    lines = text[start:].split("\n")
    yield from lines if lines[-1] else lines[:-1]


def tokenize(text: str, filename: str | None = None) -> Iterator[LogicalLine]:
    """Yield the logical lines of ``text``, each a list of whitespace-separated tokens."""
    parser = Parser(filename)
    yield from parser.lines(text)
    parser.finish()  # raises DanglingContinuation if the last line continues


# directives

class Directive:
    """One parsed directive."""

    def __init__(self, lineno: int = 0):
        self.lineno = lineno

    def describe(self) -> str:
        raise NotImplementedError


class Blank(Directive):
    def describe(self) -> str:
        return "blank"


class Comment(Directive):
    def describe(self) -> str:
        return "comment"


class _Identified(Directive):
    def __init__(self, lineno: int = 0, type_name: str = "", instance_name: str | None = None):
        self.lineno = lineno
        self.type_name = type_name
        self.instance_name = instance_name

    @property
    def identifier(self) -> str:
        return format_identifier(self.type_name, self.instance_name)


class Attach(_Identified):
    def describe(self) -> str:
        return f"attach {self.identifier}"


class Cfg(_Identified):
    def __init__(self, lineno: int, type_name: str, instance_name: str | None, text: str):
        self.lineno = lineno
        self.type_name = type_name
        self.instance_name = instance_name
        self.text = text  # the macro's tokens joined by single spaces

    def describe(self) -> str:
        return f"cfg {self.identifier} :: {self.text}"


class FrameworkRun(Directive):
    def __init__(self, lineno: int = 0, messages: list[str] | None = None):
        self.lineno = lineno
        self.messages = [] if messages is None else messages

    def describe(self) -> str:
        return "framework run " + " ".join(self.messages)


class FrameworkGroup(Directive):
    def __init__(self, lineno: int = 0, name: str = "", messages: list[str] | None = None):
        self.lineno = lineno
        self.name = name
        self.messages = [] if messages is None else messages

    def describe(self) -> str:
        return f"framework group {self.name} " + " ".join(self.messages)


class Source(Directive):
    def __init__(self, lineno: int = 0, path: str = ""):
        self.lineno = lineno
        self.path = path

    def describe(self) -> str:
        return f"source {self.path}"


class Loop(Directive):
    def __init__(self, lineno: int, var: str, start: str, stop: str):
        self.lineno = lineno
        self.var = var
        self.start = start
        self.stop = stop
        self.body: list[Directive] = []

    def describe(self) -> str:
        return f"loop {self.var} {self.start} {self.stop} body={len(self.body)}"


def parse_directive(line: LogicalLine, filename: str | None = None) -> Directive:
    """Parse one non-loop logical line into a directive."""
    tokens = line.tokens
    if not tokens:
        cls = Comment if line.comment else Blank
        return cls(line.lineno)
    head = tokens[0]
    if head in ("attach", "cfg"):
        named = len(tokens) > 2 and tokens[2] == "named"
        start = 4 if named else 2  # where a cfg's macro starts
        if len(tokens) > start if head == "cfg" else len(tokens) == start:
            instance = tokens[3] if named else None
            if head == "cfg":
                return Cfg(line.lineno, intern(tokens[1]), instance, " ".join(tokens[start:]))
            return Attach(line.lineno, intern(tokens[1]), instance)
        if head == "cfg" and len(tokens) == start:
            message = "cfg requires an identifier and a macro"
        else:
            message = "malformed configurator identifier: " + (" ".join(tokens[1:]) or "<empty>")
        raise ParseError(message, filename=filename, lineno=line.lineno)
    if head == "framework":
        if len(tokens) >= 3 and tokens[1] == "run":
            return FrameworkRun(line.lineno, tokens[2:])
        if len(tokens) >= 4 and tokens[1] == "group":
            return FrameworkGroup(line.lineno, tokens[2], tokens[3:])
        raise ParseError("usage: framework run <messages> | framework group <name> <messages>",
                         filename=filename, lineno=line.lineno)
    if head == "source":
        if len(tokens) != 2:
            raise ParseError("usage: source <path>", filename=filename, lineno=line.lineno)
        return Source(line.lineno, tokens[1])
    if head == "endloop":
        raise ParseError("endloop without a matching loop",
                         filename=filename, lineno=line.lineno)
    raise ParseError(f"unknown directive {head!r}", filename=filename, lineno=line.lineno)


def _parse_loop_header(line: LogicalLine, filename, open_loops: list) -> Loop:
    tokens = line.tokens
    if len(tokens) != 4:
        raise ParseError("usage: loop <var> <from> <to>",
                         filename=filename, lineno=line.lineno)
    # the variables of the loops around ``line`` (the last open one); bounds without "$(" use none
    loop_vars = [h.tokens[1] for h, _ in open_loops[:-1]] if "$(" in tokens[2] + tokens[3] else ()
    for bound in tokens[2:]:
        _loop_bound(bound, line.lineno, filename, loop_vars)
    return Loop(line.lineno, tokens[1], tokens[2], tokens[3])


def _loop_bound(bound: str, lineno: int, filename, loop_vars: Iterable[str] = ()) -> int:
    """``bound`` as an integer, reading each ``$(var)`` of ``loop_vars`` as 1."""
    text = bound
    for var in loop_vars:
        text = text.replace(f"$({var})", "1")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"loop bound {bound!r} is not an integer",
                         filename=filename, lineno=lineno) from None


class Parser:
    """A push parser: ``feed`` it whole lines of text, and ``finish`` gives
    what one parse of all of it would.  Between feeds it keeps the open
    continued line, the open loops and the first ParseError."""

    def __init__(self, filename: str | None = None):
        self.filename = filename
        self.lineno = 0  # physical lines read
        self._continued: LogicalLine | None = None  # the logical line a backslash keeps open
        self._into = self.directives = []  # the list the next directive joins; the top level
        self._open: list[tuple[LogicalLine, list[Directive]]] = []  # header, the list holding it
        self._error: ParseError | None = None
        self._closed = False  # whether no loop was open at or after the error

    def feed(self, text: str) -> None:
        self.fold(self.lines(text))

    def lines(self, text: str) -> Iterator[LogicalLine]:
        """Yield the logical lines that the physical lines of ``text`` end."""
        continued, lineno = self._continued, self.lineno
        for lineno, raw in enumerate(split_lines(text), start=lineno + 1):
            if continued is None and "#" not in raw and "\\" not in raw:
                yield LogicalLine(lineno, raw.split())  # the common, plain line
                continue
            line = continued or LogicalLine(lineno, [])
            code = raw.partition("#")[0].rstrip()
            line.comment |= "#" in raw
            line.tokens += code.removesuffix("\\").split()
            continued = line if code.endswith("\\") else None
            if continued is None:
                yield line
        self._continued, self.lineno = continued, lineno  # once every line is read

    def fold(self, lines: Iterable[LogicalLine]) -> None:
        """Fold logical lines into directives, each loop...endloop into a ``Loop``
        holding its body's; after the first error only count the loops."""
        into, open_loops, filename, error = self._into, self._open, self.filename, self._error
        for line in lines:
            head = line.tokens[0] if line.tokens else None
            try:
                if head == "endloop" and open_loops:
                    into = open_loops.pop()[1]
                    if len(line.tokens) > 1 and error is None:
                        raise ParseError("usage: endloop", filename=filename, lineno=line.lineno)
                elif head == "loop":
                    open_loops.append((line, into))  # before its check, which may fail
                    if error is None:
                        into.append(_parse_loop_header(line, filename, open_loops))
                        into = into[-1].body
                elif error is None:
                    into.append(parse_directive(line, filename))
            except ParseError as exc:
                error = self._error = exc
            if error is not None and not open_loops:
                self._closed = True
        self._into = into

    def finish(self) -> list[Directive]:
        """The directives of all the text fed, or the error parsing it raises:
        a dangling continuation; else the first ParseError, once no loop was
        open at or after it; else ``IncompleteInput`` at the outermost open loop."""
        if self._continued is not None:
            raise DanglingContinuation("line continuation at end of input",
                                       filename=self.filename, lineno=self.lineno)
        if self._closed:
            raise self._error
        if self._open:
            raise IncompleteInput("loop without a matching endloop",
                                  filename=self.filename, lineno=self._open[0][0].lineno)
        return self.directives


def parse_block(lines: Iterable[LogicalLine], filename: str | None = None) -> list[Directive]:
    """Parse logical lines, in one pass, into directives (see :meth:`Parser.finish`)."""
    parser = Parser(filename)
    parser.fold(lines)
    return parser.finish()


def parse_script(text: str, filename: str | None = None) -> list[Directive]:
    return parse_block(tokenize(text, filename), filename)


def substitution_plan(directives: list[Directive], var: str) -> list[list[tuple]]:
    """Per directive, ``(field, where)`` for each field holding ``$(var)``:
    ``where`` is None for a string, the token positions for a token list, and
    the plan of a nested loop's body, which a loop re-binding ``var`` shadows."""
    marker = f"$({var})"
    plan = []
    for directive in directives:
        fields = []
        for name, current in vars(directive).items():
            if isinstance(current, str) and marker in current:
                fields.append((name, None))
            elif name == "body":
                inner = [] if directive.var == var else substitution_plan(current, var)
                if any(inner):
                    fields.append((name, inner))
            elif isinstance(current, list):
                positions = [index for index, token in enumerate(current) if marker in token]
                if positions:
                    fields.append((name, positions))
        plan.append(fields)
    return plan


def substitute_block(directives: list[Directive], var: str, value: str,
                     plan: list[list[tuple]]) -> list[Directive]:
    """Copies of ``directives`` with ``$(var)`` replaced by ``value`` in every
    string field.  A nested loop that re-binds ``var`` substitutes only its
    own header: its bounds see the outer value, its body is shadowed.  Only
    the fields that ``plan`` (their ``substitution_plan``) names are rebuilt.

    Substituting into parsed directives gives what re-parsing the
    substituted text would: loop values are integers, so a substituted token
    never holds whitespace and never becomes ``named``, ``run``, ``group``,
    ``loop`` or ``endloop``, the only tokens that steer the parser.
    """
    marker = f"$({var})"
    result = []
    for directive, fields in zip(directives, plan):
        state = directive.__dict__.copy()
        for name, where in fields:
            if where is None:
                state[name] = state[name].replace(marker, value)
            elif name == "body":
                state[name] = substitute_block(state[name], var, value, where)
            else:
                tokens = state[name] = state[name].copy()
                for index in where:
                    tokens[index] = tokens[index].replace(marker, value)
        copy = object.__new__(type(directive))
        copy.__dict__ = state
        result.append(copy)
    return result


class MacroInterpreter:
    """Executes directives against a linker, tracking source-file nesting.

    Without a linker it only checks: sourced files are parsed in turn and
    source cycles detected, but nothing executes and a loop body is walked once.
    """

    def __init__(self, linker=None):
        self.linker = linker
        self._source_stack: list[Path] = []
        self.dispatches: list = []  # the records of the framework runs executed here

    def run_file(self, path) -> None:
        text = read_utf8(Path(path).absolute(), ParseError)
        path = Path(path).resolve()  # after the read, which reports an unreadable path
        name = str(path) if path.is_file() else "<stdin>"  # a pipe sources from the cwd
        if path in self._source_stack:
            raise SourceCycle(f"{name} is already being sourced", filename=name)
        directives = parse_script(text, name)
        if self.linker is None:  # a check acts on sources and loops alone
            directives = [d for d in directives if isinstance(d, (Source, Loop))]
        self._source_stack.append(path)
        try:
            self.run_directives(_consumed(directives), name)
        finally:
            self._source_stack.pop()

    def run_directives(self, directives: Iterable[Directive], filename: str | None) -> None:
        for directive in directives:
            try:
                self.execute(directive, filename)
            except RecursionError:  # loops, sources or oncall commands nested too deeply
                raise RecursionLimitExceeded("nested too deeply", filename=filename,
                                             lineno=directive.lineno) from None
            except RunjobError as exc:
                if exc.lineno is None:
                    exc.lineno, exc.filename = directive.lineno, filename
                raise

    def execute(self, directive: Directive, filename: str | None = None) -> None:
        if isinstance(directive, Source):  # relative to the sourcing file
            self.run_file(Path(filename or "").parent / directive.path)
        elif self.linker is None:  # a loop body is checked once; a per-iteration source is not
            if isinstance(directive, Loop):
                self.run_directives([d for d in directive.body if isinstance(d, Loop)
                                     or isinstance(d, Source) and "$(" not in d.path], filename)
        elif isinstance(directive, Attach):
            self.linker.attach(directive.type_name, directive.instance_name)
        elif isinstance(directive, Cfg):
            self.linker.route(directive.identifier, directive.text)
        elif isinstance(directive, FrameworkRun):
            self.dispatches += self.linker.run_framework(*directive.messages)
        elif isinstance(directive, FrameworkGroup):
            self.linker.define_group(directive.name, directive.messages)
        elif isinstance(directive, Loop):
            self._execute_loop(directive, filename)

    def _execute_loop(self, loop: Loop, filename: str | None) -> None:
        start, stop = (_loop_bound(bound, loop.lineno, filename)
                       for bound in (loop.start, loop.stop))
        plan = substitution_plan(loop.body, loop.var)
        for value in range(start, stop + 1):
            self.run_directives(substitute_block(loop.body, loop.var, str(value), plan), filename)


def _consumed(directives: list[Directive]) -> Iterator[Directive]:
    """Yield and remove ``directives`` in order, so each is freed once it has run."""
    directives.reverse()
    while directives:
        yield directives.pop()


def read_utf8(path: Path, error: type[RunjobError]) -> str:
    """Read ``path`` as UTF-8; a byte that does not decode raises ``error``
    at its file:line, a path that cannot be read (missing, a directory, a
    NUL in the name, a symlink loop) a RunjobError."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise RunjobError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # a NUL byte, which no file name holds
        raise RunjobError(f"cannot read {str(path)!r}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _unify_line_breaks(data[:exc.start].decode("utf-8"))
        raise error(f"invalid UTF-8 byte {data[exc.start]:#04x}", filename=str(path),
                    lineno=before.count("\n") + 1) from None


def execute_script(linker, text: str, filename: str | None = None) -> None:
    """Run macro text against ``linker``."""
    MacroInterpreter(linker).run_directives(_consumed(parse_script(text, filename)), filename)


def execute_file(linker, path) -> None:
    MacroInterpreter(linker).run_file(path)


def check_script(path) -> None:
    """Parse a script and, recursively, everything it sources; execute nothing."""
    MacroInterpreter().run_file(path)
