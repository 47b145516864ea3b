"""The scenario mini-language: parse, check, execute, describe.

Programs are straight-line: one assignment per line binding a fresh name to a
single registry call, terminated by exactly one ``output(name)`` statement.
Calls cannot nest and there are no loops, so execution can never run
anything outside the registry. Every diagnostic carries a line/column span
and is phrased to be actionable as repair feedback. As the parser does, the
checker raises the first diagnostic it meets: one walk over a program checks
it and binds the plan ``execute`` runs, and ``execute`` walks a program on
its first run, so no program runs unchecked.

Each line is read by one compiled pattern, matched at each position in turn.
Blanks and a ``#`` comment make no token; otherwise the named group that
matched is the token's kind: a number (``inf`` and a signed ``inf`` too), a
name, a quoted string or one of ``= ( ) ,``. A malformed number, a quote the
line does not close and any other character are ParseErrors there. Tokens are
plain (kind, text, line, column) tuples, with a ``newline`` token ending each
line that has any; ``parse`` reads them by index and builds a ``Span`` only
for AST nodes and diagnostics.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .errors import ScenarioMiningError
from .predicates import REGISTRY, FunctionSpec, ParamSpec
from .scenario_set import ScenarioSet
from .tracklog import TrackLog

PARSE_ERROR = "ParseError"
UNKNOWN_FUNCTION = "UnknownFunction"
UNKNOWN_VARIABLE = "UnknownVariable"
ARITY_ERROR = "ArityError"
TYPE_ERROR = "TypeError"
INVALID_ENUM_VALUE = "InvalidEnumValue"
DUPLICATE_OUTPUT = "DuplicateOutput"
MISSING_OUTPUT = "MissingOutput"
PREDICATE_RUNTIME = "PredicateRuntime"

ERROR_KINDS = (
    PARSE_ERROR,
    UNKNOWN_FUNCTION,
    UNKNOWN_VARIABLE,
    ARITY_ERROR,
    TYPE_ERROR,
    INVALID_ENUM_VALUE,
    DUPLICATE_OUTPUT,
    MISSING_OUTPUT,
    PREDICATE_RUNTIME,
)


@dataclass(frozen=True)
class Span:
    """1-based line/column position of a token or statement."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class DslError(ScenarioMiningError):
    """A diagnostic with a kind from ERROR_KINDS, a message, and an optional span."""

    def __init__(self, kind: str, message: str, span: Span | None = None):
        super().__init__(message)
        assert kind in ERROR_KINDS, kind
        self.kind = kind
        self.message = message
        self.span = span

    def __str__(self) -> str:
        where = f" at {self.span}" if self.span else ""
        return f"{self.kind}{where}: {self.message}"


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Literal:
    """A string or number literal argument."""

    value: object  # str for strings, float for numbers
    kind: str  # "string" | "number"
    span: Span


@dataclass(frozen=True)
class VarRef:
    """A reference to a previously assigned name."""

    name: str
    span: Span


@dataclass(frozen=True)
class KwArg:
    name: str
    value: "Literal | VarRef"
    span: Span


@dataclass(frozen=True)
class Call:
    function: str
    args: tuple  # positional Literal | VarRef nodes
    kwargs: tuple  # KwArg nodes
    span: Span


@dataclass(frozen=True)
class Assignment:
    name: str
    call: Call
    span: Span


@dataclass(frozen=True)
class Output:
    name: str
    span: Span


@dataclass(frozen=True)
class Program:
    """Ordered assignments followed by the single terminal output statement."""

    assignments: tuple[Assignment, ...]
    output: Output

    @functools.cached_property
    def _plan(self) -> tuple:
        """The program as execute() runs it, walked once on first use and kept; raises the walk's first diagnostic."""
        return _walk(self)


# ---------------------------------------------------------------------------
# Tokenizer


# The unbounded number (also signed, as -inf or +inf): a literal, so it cannot name a variable.
INF = "inf"

# Matched at each position of a line; the named group that matched is the token's kind.
_TOKEN = re.compile(
    rf"""[ \t]+ | \#.*                                  # blanks, and a comment to the end of the line
    | (?P<number>[+-]?{INF}(?![A-Za-z0-9_]) | [+-]?[\d.]+(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"]*" | '[^']*')
    | (?P<punct>[=(),])
    | (?P<quote>["'])                                  # a quote the line does not close
    | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


def _decimal_digits(line: str) -> str:
    """The line as _TOKEN reads it: each digit that ``\\d`` misses ('²', '①') becomes '٠', which it matches.

    A number runs over every ``str.isdigit()`` character, so ``1²`` is one
    lexeme; cut from the original line, it fails float() as a malformed number.
    """
    if line.isascii():
        return line
    return "".join("\u0660" if ch.isdigit() and not ch.isdecimal() else ch for ch in line)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) of each token, and a ("newline", "", line, end) after each line that has any."""
    tokens: list[tuple[str, str, int, int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        before = len(tokens)
        for match in _TOKEN.finditer(_decimal_digits(line)):
            kind = match.lastgroup
            if kind is None:
                continue
            start, end = match.span()
            word = line[start:end]
            if kind == "number":
                try:
                    float(word)
                except ValueError:
                    raise DslError(PARSE_ERROR, f"malformed number '{word}'", Span(line_no, start + 1)) from None
            elif kind == "string":
                word = word[1:-1]
            elif kind == "punct":
                kind = word
            elif kind == "quote":
                raise DslError(PARSE_ERROR, "unterminated string literal", Span(line_no, start + 1))
            elif kind == "bad":
                raise DslError(PARSE_ERROR, f"unexpected character {word!r}", Span(line_no, start + 1))
            tokens.append((kind, word, line_no, start + 1))
        if len(tokens) > before:
            tokens.append(("newline", "", line_no, len(line) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


def parse(text: str) -> Program:
    """Parse program text, raising DslError on grammar or structure violations.

    A statement is one line, so the parser never reads past a line's
    ``newline`` token; a token is shown in a diagnostic by its text, or by its
    kind when it has none (``newline``, an empty ``string``).
    """
    tokens = _tokenize(text)

    def fail(message: str, at: int, kind: str = PARSE_ERROR):
        _, _, line, col = tokens[at]
        raise DslError(kind, message, Span(line, col))

    def expect(at: int, kind: str, what: str) -> str:
        if tokens[at][0] != kind:
            fail(f"expected {what}, found '{tokens[at][1] or tokens[at][0]}'", at)
        return tokens[at][1]

    def value(at: int) -> Literal | VarRef:
        kind, word, line, col = tokens[at]
        if kind == "number":
            return Literal(float(word), "number", Span(line, col))
        if kind == "string":
            return Literal(word, "string", Span(line, col))
        if kind != "name":
            fail(f"expected a value, found '{word or kind}'", at)
        if tokens[at + 1][0] == "(":
            fail(f"nested call '{word}(...)': bind it to its own name on a previous line", at)
        return VarRef(word, Span(line, col))

    def end_statement(at: int) -> int:
        if tokens[at][0] != "newline":
            fail(f"unexpected '{tokens[at][1] or tokens[at][0]}' after statement", at)
        return at + 1

    assignments: list[Assignment] = []
    output: Output | None = None
    pos = 0
    while pos < len(tokens):
        kind, name, line, col = tokens[pos]
        follows = tokens[pos + 1][0]
        if name == INF and follows == "=":
            fail(f"'{INF}' is reserved and cannot be assigned", pos)
        if kind != "name":
            fail(f"expected a statement, found '{name or kind}'", pos)
        is_output = name == "output" and follows == "("
        if output is not None:
            if is_output:
                fail("program has more than one output(...) statement", pos, DUPLICATE_OUTPUT)
            fail("statement after output(...): output must be last", pos)
        if is_output:
            output = Output(expect(pos + 2, "name", "a variable name inside output(...)"), Span(line, col))
            expect(pos + 3, ")", "')' to close output(...)")
            pos = end_statement(pos + 4)
            continue
        if follows == "(":
            fail(f"bare call '{name}(...)': assign the result to a name", pos)
        if follows != "=":
            fail(f"expected '=' after '{name}', found '{tokens[pos + 1][1] or follows}'", pos + 1)
        if name == "output":
            fail("'output' is reserved and cannot be assigned", pos)

        function = expect(pos + 2, "name", "a function name")
        expect(pos + 3, "(", "'('")
        at, args, kwargs = pos + 4, [], []
        more = tokens[at][0] != ")"
        while more:  # one argument, then a comma and another, until none follows
            keyword = tokens[at][0] == "name" and tokens[at + 1][0] == "="
            arg = value(at + 2 if keyword else at)
            if keyword:
                if any(kw.name == tokens[at][1] for kw in kwargs):
                    fail(f"duplicate keyword argument '{tokens[at][1]}'", at)
                kwargs.append(KwArg(tokens[at][1], arg, Span(*tokens[at][2:])))
            elif kwargs:
                raise DslError(PARSE_ERROR, "positional argument after keyword argument", arg.span)
            else:
                args.append(arg)
            at += 3 if keyword else 1
            more = tokens[at][0] == ","
            at += more
        expect(at, ")", "')' to close the call")
        end = end_statement(at + 1)
        if any(a.name == name for a in assignments):
            fail(f"name '{name}' assigned more than once; every name is assigned exactly once", pos)
        call = Call(function, tuple(args), tuple(kwargs), Span(*tokens[pos + 2][2:]))
        assignments.append(Assignment(name, call, Span(line, col)))
        pos = end

    if output is None:
        raise DslError(MISSING_OUTPUT, "program has no output(...) statement")
    return Program(tuple(assignments), output)


# ---------------------------------------------------------------------------
# Checker


def _edit_distance(a: str, b: str, cap: int = 3) -> int:
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        if min(cur) > cap:
            return cap + 1
        prev = cur
    return prev[-1]


def _suggest(name: str, candidates) -> str:
    """A diagnostic's ``"; did you mean '...'?"`` ending for the nearest candidate within two edits, or ``""``."""
    best: tuple[int, str] | None = None
    for cand in sorted(candidates):
        d = _edit_distance(name, cand)
        if d <= 2 and (best is None or d < best[0]):
            best = (d, cand)
    return f"; did you mean '{best[1]}'?" if best else ""


def _check_argument(fname: str, param: ParamSpec, node, names: set[str]):
    """A literal's Python value, or None for a variable; raises the diagnostic of an argument its parameter rejects."""
    if param.kind == "scenario_set":
        if isinstance(node, Literal):
            raise DslError(
                TYPE_ERROR,
                f"argument '{param.name}' of {fname}() must be a scenario set variable, not a literal",
                node.span,
            )
        if node.name not in names:
            hint = _suggest(node.name, names)
            raise DslError(UNKNOWN_VARIABLE, f"name '{node.name}' is not defined{hint}", node.span)
        return None
    if isinstance(node, VarRef):
        raise DslError(
            TYPE_ERROR,
            f"argument '{param.name}' of {fname}() expects a {param.kind} literal, not a variable",
            node.span,
        )
    if param.kind in ("float", "int"):
        if node.kind != "number":
            raise DslError(
                TYPE_ERROR, f"argument '{param.name}' of {fname}() must be a number", node.span
            )
        if param.kind == "int" and not float(node.value).is_integer():
            raise DslError(
                TYPE_ERROR, f"argument '{param.name}' of {fname}() must be a whole number", node.span
            )
        return int(node.value) if param.kind == "int" else float(node.value)
    # remaining kinds are strings: category, direction, relation, flag
    if node.kind != "string":
        raise DslError(
            TYPE_ERROR, f"argument '{param.name}' of {fname}() must be a quoted string", node.span
        )
    if param.enum_values and node.value not in param.enum_values:
        allowed = ", ".join(param.enum_values)
        raise DslError(
            INVALID_ENUM_VALUE,
            f"invalid value '{node.value}' for '{param.name}' of {fname}(); allowed values: {allowed}",
            node.span,
        )
    return node.value == "true" if param.kind == "flag" else node.value


def _bind_call(spec: FunctionSpec, call: Call) -> dict[str, object]:
    """Map a call's arguments onto the declared parameters, raising the first arity diagnostic."""
    if len(call.args) > len(spec.params):
        raise DslError(
            ARITY_ERROR,
            f"{spec.name}() takes at most {len(spec.params)} arguments ({len(call.args)} given)",
            call.span,
        )
    bound: dict[str, object] = {param.name: node for param, node in zip(spec.params, call.args)}
    for kw in call.kwargs:
        if spec.param(kw.name) is None:
            hint = _suggest(kw.name, [p.name for p in spec.params])
            raise DslError(ARITY_ERROR, f"{spec.name}() got an unexpected keyword argument '{kw.name}'{hint}", kw.span)
        if kw.name in bound:
            raise DslError(ARITY_ERROR, f"{spec.name}() got multiple values for argument '{kw.name}'", kw.span)
        bound[kw.name] = kw.value
    for param in spec.params:
        if param.required and param.name not in bound:
            raise DslError(ARITY_ERROR, f"{spec.name}() is missing the required argument '{param.name}'", call.span)
    return bound


def _walk(program: Program) -> tuple:
    """Check and bind a program in one pass: the plan execute() runs, or the first diagnostic, raised.

    Per assignment the plan holds (name, function name, {parameter: literal
    as a Python value}, ((parameter, variable name), ...), span).
    """
    plan = []
    names: set[str] = set()
    for stmt in program.assignments:
        spec = REGISTRY.get(stmt.call.function)
        if spec is None:
            hint = _suggest(stmt.call.function, REGISTRY)
            raise DslError(UNKNOWN_FUNCTION, f"unknown function '{stmt.call.function}'{hint}", stmt.call.span)
        literals, refs = {}, []
        for pname, node in _bind_call(spec, stmt.call).items():
            value = _check_argument(spec.name, spec.param(pname), node, names)
            if value is None:
                refs.append((pname, node.name))
            else:
                literals[pname] = value
        plan.append((stmt.name, spec.name, literals, tuple(refs), stmt.span))
        names.add(stmt.name)
    if program.output.name not in names:
        hint = _suggest(program.output.name, names)
        message = f"output name '{program.output.name}' is not defined{hint}"
        raise DslError(UNKNOWN_VARIABLE, message, program.output.span)
    return tuple(plan)


# ---------------------------------------------------------------------------
# Interpreter


def execute(program: Program, log: TrackLog) -> ScenarioSet:
    """Run a program against a log and return the output scenario set, held on the log.

    The first run checks and binds the program in one walk, raising its
    first diagnostic before any registry function runs, and keeps the plan
    for every later log or pack. Statements pass their sets on as log masks.
    The log may be a pack of equal-width logs (``tracklog.pack_logs``), so a
    registry function may receive a pack; ``LogPack.split`` cuts each
    member's set out of the output. Domain errors of the registry
    implementations surface as PredicateRuntime diagnostics carrying the
    statement span.
    """
    env: dict[str, ScenarioSet] = {}
    for name, function, literals, refs, span in program._plan:
        spec = REGISTRY[function]  # looked up per run, so a wrapped registry entry is the one called
        try:
            env[name] = spec.impl(log, **literals, **{param: env[var] for param, var in refs})
        except ScenarioMiningError as exc:
            raise DslError(PREDICATE_RUNTIME, f"{spec.name}(): {exc}", span) from exc
    return env[program.output.name]


def interpret(program: Program, log: TrackLog) -> ScenarioSet:
    """execute(), as its own function, so a tracer that finds functions by identity counts its calls apart."""
    return execute(program, log)


# ---------------------------------------------------------------------------
# Pretty printer and catalog text


def _render_value(node) -> str:
    if isinstance(node, VarRef):
        return node.name
    if node.kind == "string":
        # A string literal ends at its own quote, so one holding " is single-quoted.
        return f"'{node.value}'" if '"' in node.value else f'"{node.value}"'
    return _render_number(node.value)


def _render_number(value: float) -> str:
    if value == math.inf:
        return INF
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def pretty_print(program: Program) -> str:
    """Canonical text form; parsing it back yields an equal Program."""
    lines = []
    for stmt in program.assignments:
        parts = [_render_value(a) for a in stmt.call.args]
        parts += [f"{kw.name}={_render_value(kw.value)}" for kw in stmt.call.kwargs]
        lines.append(f"{stmt.name} = {stmt.call.function}({', '.join(parts)})")
    lines.append(f"output({program.output.name})")
    return "\n".join(lines) + "\n"


_CATALOG_PREAMBLE = """\
Scenario function library. Every function returns a scenario set: a mapping
from track id to the set of timestamps at which a condition holds. In the
relational functions, track_candidates is the subject set -- the result is
always a subset of it -- and related_candidates is the reference set it is
tested against.
"""


def _format_default(param: ParamSpec) -> str:
    if param.required:
        return "required"
    value = param.default
    if isinstance(value, str):
        return f'default "{value}"'
    if isinstance(value, float) and math.isinf(value):
        return "default unbounded"
    return f"default {_render_number(value)}"


def describe_functions() -> str:
    """Stable, deterministic catalog text; one block per registry function."""
    blocks = [_CATALOG_PREAMBLE]
    for spec in REGISTRY.values():
        sig_parts = []
        for p in spec.params:
            if p.required:
                sig_parts.append(p.name)
            elif isinstance(p.default, str):
                sig_parts.append(f'{p.name}="{p.default}"')
            else:
                sig_parts.append(f"{p.name}={_render_number(p.default)}")
        lines = [f"{spec.name}({', '.join(sig_parts)})", f"    {spec.summary}"]
        for p in spec.params:
            lines.append(f"    {p.name}: {p.doc} ({_format_default(p)})")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
