"""Tokenizer, parser, and interpreter for the workflow macro language.

Grammar (line oriented, UTF-8, LF or CRLF):

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
Execution is line by line and fail-fast: the first error aborts with
file:line context, leaving earlier directives applied.  Checking is the
same interpreter run without a linker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .configurator import format_identifier, parse_identifier, split_identifier
from .errors import DanglingContinuation, MacroParseError, ParseError, RunjobError, SourceCycle

LOOP_KEYWORD = "loop"
ENDLOOP_KEYWORD = "endloop"


@dataclass
class LogicalLine:
    """One comment-stripped, continuation-joined line of macro text."""

    lineno: int  # physical line the logical line starts on
    tokens: list[str]
    comment: bool = False  # True when the raw text carried a '#' comment


def tokenize(text: str, filename: str | None = None) -> list[LogicalLine]:
    """Split ``text`` into logical lines of whitespace-separated tokens."""
    lines: list[LogicalLine] = []
    pending: list[str] = []
    pending_lineno = 0
    pending_comment = False
    physical = text.splitlines()
    for index, raw in enumerate(physical, start=1):
        stripped, had_comment = _strip_comment(raw)
        stripped = stripped.rstrip()
        if not pending:
            pending_lineno = index
            pending_comment = False
        pending_comment = pending_comment or had_comment
        if stripped.endswith("\\"):
            if index == len(physical):
                raise DanglingContinuation(
                    "line continuation at end of input",
                    filename=filename, lineno=index)
            pending.append(stripped[:-1].rstrip())
            continue
        pending.append(stripped)
        joined = " ".join(part for part in pending if part)
        lines.append(LogicalLine(pending_lineno, joined.split(), pending_comment))
        pending = []
    if pending:
        # Trailing backslash on the very last physical line (no newline after).
        raise DanglingContinuation("line continuation at end of input",
                                   filename=filename, lineno=len(physical))
    return lines


def _strip_comment(raw: str) -> tuple[str, bool]:
    position = raw.find("#")
    if position < 0:
        return raw, False
    return raw[:position], True


# directives

@dataclass
class Directive:
    lineno: int = 0

    def describe(self) -> str:
        raise NotImplementedError


@dataclass
class Blank(Directive):
    def describe(self) -> str:
        return "blank"


@dataclass
class Comment(Directive):
    def describe(self) -> str:
        return "comment"


@dataclass
class _Identified(Directive):
    type_name: str = ""
    instance_name: str | None = None

    @property
    def identifier(self) -> str:
        return format_identifier(self.type_name, self.instance_name)


@dataclass
class Attach(_Identified):
    def describe(self) -> str:
        return f"attach {self.identifier}"


@dataclass
class Cfg(_Identified):
    macro: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return f"cfg {self.identifier} :: {' '.join(self.macro)}"


@dataclass
class FrameworkRun(Directive):
    messages: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return "framework run " + " ".join(self.messages)


@dataclass
class FrameworkGroup(Directive):
    name: str = ""
    messages: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return f"framework group {self.name} " + " ".join(self.messages)


@dataclass
class Source(Directive):
    path: str = ""

    def describe(self) -> str:
        return f"source {self.path}"


@dataclass
class Loop(Directive):
    var: str = ""
    start: str = "0"
    stop: str = "0"
    body: list[LogicalLine] = field(default_factory=list)

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
    if head == LOOP_KEYWORD:
        raise ParseError("loop requires a matching endloop",
                         filename=filename, lineno=line.lineno)
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


def parse_block(lines: list[LogicalLine], filename: str | None = None) -> list[Directive]:
    """Parse logical lines into directives, folding loop...endloop blocks."""
    directives: list[Directive] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        if line.tokens and line.tokens[0] == LOOP_KEYWORD:
            loop = _parse_loop_header(line, filename)
            depth = 1
            body: list[LogicalLine] = []
            index += 1
            while index < len(lines):
                inner = lines[index]
                if inner.tokens and inner.tokens[0] == LOOP_KEYWORD:
                    depth += 1
                elif inner.tokens and inner.tokens[0] == ENDLOOP_KEYWORD:
                    depth -= 1
                    if depth == 0:
                        break
                body.append(inner)
                index += 1
            if depth != 0:
                raise ParseError("loop without a matching endloop",
                                 filename=filename, lineno=loop.lineno)
            loop.body = body
            parse_block(body, filename)  # body must parse even before substitution
            directives.append(loop)
        else:
            directives.append(parse_directive(line, filename))
        index += 1
    return directives


def parse_script(text: str, filename: str | None = None) -> list[Directive]:
    return parse_block(tokenize(text, filename), filename)


def substitute_block(lines: list[LogicalLine], var: str, value: str) -> list[LogicalLine]:
    """Textually replace $(var) in every token, honouring shadowing: a nested
    loop re-binding the same variable keeps its body untouched (its header
    bounds still see the outer value)."""
    marker = f"$({var})"
    result: list[LogicalLine] = []
    shadow_depth = 0
    for line in lines:
        head = line.tokens[0] if line.tokens else None
        if shadow_depth > 0:
            result.append(line)
            if head == LOOP_KEYWORD:
                shadow_depth += 1
            elif head == ENDLOOP_KEYWORD:
                shadow_depth -= 1
            continue
        tokens = [token.replace(marker, value) for token in line.tokens]
        result.append(LogicalLine(line.lineno, tokens, line.comment))
        if head == LOOP_KEYWORD and len(line.tokens) >= 2 and line.tokens[1] == var:
            # header bounds belong to the outer scope; the body is shadowed
            shadow_depth = 1
    return result


class MacroInterpreter:
    """Executes directives against a linker, tracking source-file nesting.

    Without a linker it only checks: sourced files are parsed in turn and
    source cycles detected, but nothing executes and loops are not unrolled.
    """

    def __init__(self, linker=None):
        self.linker = linker
        self.log: list[str] = []
        self._source_stack: list[Path] = []

    def run_text(self, text: str, filename: str | None = None) -> list[str]:
        directives = parse_script(text, filename)
        self.run_directives(directives, filename)
        return self.log

    def run_file(self, path) -> list[str]:
        path = Path(path).resolve()
        if path in self._source_stack:
            raise SourceCycle(f"{path} is already being sourced", filename=str(path))
        self._source_stack.append(path)
        try:
            text = read_utf8(path, ParseError)
            directives = parse_script(text, str(path))
            self.run_directives(directives, str(path))
        finally:
            self._source_stack.pop()
        return self.log

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
        if isinstance(directive, Source):
            self.run_file(self._resolve_source(directive.path, filename))
            return  # run_file logs its own directives
        if self.linker is None or isinstance(directive, (Blank, Comment)):
            return
        if isinstance(directive, Attach):
            self.linker.attach(directive.type_name, directive.instance_name)
        elif isinstance(directive, Cfg):
            self.linker.route(directive.identifier, directive.macro)
        elif isinstance(directive, FrameworkRun):
            self.linker.run_framework(*directive.messages)
        elif isinstance(directive, FrameworkGroup):
            self.linker.define_group(directive.name, directive.messages)
        elif isinstance(directive, Loop):
            self._execute_loop(directive, filename)
            return
        else:  # pragma: no cover - defensive
            raise ParseError(f"cannot execute directive {directive!r}")
        self.log.append(directive.describe())

    def _resolve_source(self, target: str, filename: str | None) -> Path:
        path = Path(target)
        if not path.is_absolute() and filename:
            path = Path(filename).parent / path
        return path

    def _execute_loop(self, loop: Loop, filename: str | None) -> None:
        start, stop = (_loop_bound(bound, loop.lineno, filename)
                       for bound in (loop.start, loop.stop))
        for value in range(start, stop + 1):
            expanded = substitute_block(loop.body, loop.var, str(value))
            self.run_directives(parse_block(expanded, filename), filename)


def read_utf8(path: Path, error: type[RunjobError]) -> str:
    """Read ``path`` as UTF-8; a byte that does not decode raises ``error``
    at its file:line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"invalid UTF-8 byte {data[exc.start]:#04x}", filename=str(path),
                    lineno=data.count(b"\n", 0, exc.start) + 1) from None


def execute_script(linker, text: str, filename: str | None = None) -> list[str]:
    """Run macro text against ``linker``; returns the executed-directive log."""
    return MacroInterpreter(linker).run_text(text, filename)


def execute_file(linker, path) -> list[str]:
    return MacroInterpreter(linker).run_file(path)


def check_script(path) -> None:
    """Parse a script and, recursively, everything it sources; execute nothing."""
    MacroInterpreter().run_file(path)
