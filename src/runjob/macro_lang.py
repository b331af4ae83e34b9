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
module's grammar, where ``named`` is reserved in identifier position.
A ``loop ... endloop`` block is parsed once into a ``Loop`` holding its
body's directives; each iteration substitutes its integer value into
copies of them.  Text that ends inside a loop or a continuation is
``IncompleteInput``: the REPL then reads another line.  Execution is
fail-fast: the first error aborts with file:line context, leaving earlier
directives applied.  Checking is the same interpreter run without a linker.
"""

from __future__ import annotations

from pathlib import Path

from .configurator import format_identifier, parse_identifier, split_identifier
from .errors import (
    DanglingContinuation,
    IncompleteInput,
    MacroParseError,
    ParseError,
    RunjobError,
    SourceCycle,
)

LOOP_KEYWORD = "loop"
ENDLOOP_KEYWORD = "endloop"


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


def split_lines(text: str) -> list[str]:
    """The physical lines of ``text``, without their line breaks; a break at
    the very end adds no empty line."""
    lines = _unify_line_breaks(text).split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def tokenize(text: str, filename: str | None = None) -> list[LogicalLine]:
    """Split ``text`` into logical lines of whitespace-separated tokens."""
    lines: list[LogicalLine] = []
    pending: list[str] = []
    pending_lineno = 0
    pending_comment = False
    physical = split_lines(text)
    for index, raw in enumerate(physical, start=1):
        if not pending and "#" not in raw and "\\" not in raw:
            lines.append(LogicalLine(index, raw.split()))  # the common, plain line
            continue
        stripped, hash_mark, _ = raw.partition("#")
        stripped = stripped.rstrip()
        if not pending:
            pending_lineno = index
            pending_comment = False
        pending_comment = pending_comment or bool(hash_mark)
        if stripped.endswith("\\"):
            pending.append(stripped[:-1])
            continue
        pending.append(stripped)
        lines.append(LogicalLine(pending_lineno, " ".join(pending).split(), pending_comment))
        pending = []
    if pending:  # the last physical line ends with a backslash
        raise DanglingContinuation("line continuation at end of input",
                                   filename=filename, lineno=len(physical))
    return lines


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
    def __init__(self, lineno: int, type_name: str, instance_name: str | None, macro: list[str]):
        self.lineno = lineno
        self.type_name = type_name
        self.instance_name = instance_name
        self.macro = macro

    def describe(self) -> str:
        return f"cfg {self.identifier} :: {' '.join(self.macro)}"


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
    def __init__(self, lineno: int = 0, var: str = "", start: str = "0", stop: str = "0",
                 body: list[Directive] | None = None):
        self.lineno = lineno
        self.var = var
        self.start = start
        self.stop = stop
        self.body = [] if body is None else body

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
        try:
            if head == "attach":
                type_name, instance = parse_identifier(tokens[1:])
                return Attach(line.lineno, type_name, instance)
            type_name, instance, macro = split_identifier(tokens[1:])
        except MacroParseError as exc:
            raise ParseError(exc.message, filename=filename, lineno=line.lineno) from None
        if not macro:
            raise ParseError("cfg requires an identifier and a macro",
                             filename=filename, lineno=line.lineno)
        return Cfg(line.lineno, type_name, instance, macro)
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
    if head == ENDLOOP_KEYWORD:
        raise ParseError("endloop without a matching loop",
                         filename=filename, lineno=line.lineno)
    raise ParseError(f"unknown directive {head!r}", filename=filename, lineno=line.lineno)


def _parse_loop_header(line: LogicalLine, filename) -> Loop:
    tokens = line.tokens
    if len(tokens) != 4:
        raise ParseError("usage: loop <var> <from> <to>",
                         filename=filename, lineno=line.lineno)
    for bound in tokens[2:]:
        if "$(" not in bound:  # else resolved by an outer loop at execution time
            _loop_bound(bound, line.lineno, filename)
    return Loop(line.lineno, tokens[1], tokens[2], tokens[3])


def _loop_bound(bound: str, lineno: int, filename) -> int:
    try:
        return int(bound)
    except ValueError:
        raise ParseError(f"loop bound {bound!r} is not an integer",
                         filename=filename, lineno=lineno) from None


def _head(line: LogicalLine) -> str | None:
    return line.tokens[0] if line.tokens else None


def _matching_endloop(lines: list[LogicalLine], start: int, filename) -> int:
    """Index of the endloop closing the loop at ``lines[start]``."""
    depth = 0
    for index in range(start, len(lines)):
        head = _head(lines[index])
        if head == LOOP_KEYWORD:
            depth += 1
        elif head == ENDLOOP_KEYWORD:
            depth -= 1
            if depth == 0:
                return index
    raise IncompleteInput("loop without a matching endloop",
                          filename=filename, lineno=lines[start].lineno)


def parse_block(lines: list[LogicalLine], filename: str | None = None) -> list[Directive]:
    """Parse logical lines into directives, folding each loop...endloop into
    a ``Loop`` whose body holds its parsed directives.

    A loop's endloop is found before its header and body are checked, so an
    unclosed loop is ``IncompleteInput`` whatever it contains.
    """
    directives: list[Directive] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        if _head(line) == LOOP_KEYWORD:
            end = _matching_endloop(lines, index, filename)
            loop = _parse_loop_header(line, filename)
            loop.body = parse_block(lines[index + 1:end], filename)
            directives.append(loop)
            index = end
        else:
            directives.append(parse_directive(line, filename))
        index += 1
    return directives


def parse_script(text: str, filename: str | None = None) -> list[Directive]:
    return parse_block(tokenize(text, filename), filename)


def substitute_block(directives: list[Directive], var: str, value: str) -> list[Directive]:
    """Copies of ``directives`` with ``$(var)`` replaced by ``value`` in every
    string field.  A nested loop that re-binds ``var`` substitutes only its
    own header: its bounds see the outer value, its body is shadowed.

    Substituting into parsed directives gives what re-parsing the
    substituted text would: loop values are integers, so a substituted token
    never holds whitespace and never becomes ``named``, ``run``, ``group``,
    ``loop`` or ``endloop``, the only tokens that steer the parser.
    """
    marker = f"$({var})"
    result = []
    for directive in directives:
        copy = object.__new__(type(directive))
        fields = copy.__dict__
        for name, current in directive.__dict__.items():
            if isinstance(current, str):
                current = current.replace(marker, value)
            elif name == "body":
                if directive.var != var:
                    current = substitute_block(current, var, value)
            elif isinstance(current, list):
                current = [token.replace(marker, value) for token in current]
            fields[name] = current
        result.append(copy)
    return result


class MacroInterpreter:
    """Executes directives against a linker, tracking source-file nesting.

    Without a linker it only checks: sourced files are parsed in turn and
    source cycles detected, but nothing executes and loops are not unrolled.
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
        self._source_stack.append(path)
        try:
            self.run_directives(parse_script(text, name), name)
        finally:
            self._source_stack.pop()

    def run_directives(self, directives: list[Directive], filename: str | None) -> None:
        for directive in directives:
            try:
                self.execute(directive, filename)
            except RunjobError as exc:
                if exc.lineno is None:
                    exc.lineno = directive.lineno
                    exc.filename = filename
                raise

    def execute(self, directive: Directive, filename: str | None = None) -> None:
        if isinstance(directive, Source):  # relative to the sourcing file
            self.run_file(Path(filename or "").parent / directive.path)
        elif self.linker is None:
            return
        elif isinstance(directive, Attach):
            self.linker.attach(directive.type_name, directive.instance_name)
        elif isinstance(directive, Cfg):
            self.linker.route(directive.identifier, directive.macro)
        elif isinstance(directive, FrameworkRun):
            self.dispatches += self.linker.run_framework(*directive.messages)
        elif isinstance(directive, FrameworkGroup):
            self.linker.define_group(directive.name, directive.messages)
        elif isinstance(directive, Loop):
            self._execute_loop(directive, filename)

    def _execute_loop(self, loop: Loop, filename: str | None) -> None:
        start, stop = (_loop_bound(bound, loop.lineno, filename)
                       for bound in (loop.start, loop.stop))
        for value in range(start, stop + 1):
            self.run_directives(substitute_block(loop.body, loop.var, str(value)), filename)


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
    MacroInterpreter(linker).run_directives(parse_script(text, filename), filename)


def execute_file(linker, path) -> None:
    MacroInterpreter(linker).run_file(path)


def check_script(path) -> None:
    """Parse a script and, recursively, everything it sources; execute nothing."""
    MacroInterpreter().run_file(path)
