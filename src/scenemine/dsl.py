"""The scenario mini-language: parse, check, interpret, describe.

Programs are straight-line: one assignment per line binding a fresh name to a
single registry call, terminated by exactly one ``output(name)`` statement.
Calls cannot nest and there are no loops, so interpretation can never execute
anything outside the registry. Every diagnostic carries a line/column span
and is phrased to be actionable as repair feedback.
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
        """The program as execute() runs it, bound on first use and kept; valid only once check() accepts it.

        Per assignment: (name, function name, {parameter: literal as a Python
        value}, ((parameter, variable name), ...), span).
        """
        plan = []
        for stmt in self.assignments:
            spec = REGISTRY[stmt.call.function]
            bound, _ = _bind_call(spec, stmt.call)
            literals = {name: _to_python(spec.param(name), node) for name, node in bound.items() if isinstance(node, Literal)}
            refs = tuple((name, node.name) for name, node in bound.items() if isinstance(node, VarRef))
            plan.append((stmt.name, spec.name, literals, refs, stmt.span))
        return tuple(plan)


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NUMBER STRING EQUALS LPAREN RPAREN COMMA NEWLINE EOF
    text: str
    span: Span


# The unbounded number (also signed, as -inf or +inf): a literal, so it cannot name a variable.
INF = "inf"
_SIGNED_INF = re.compile(rf"[+-]{INF}(?![A-Za-z0-9_])")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_PUNCT = {"=": "EQUALS", "(": "LPAREN", ")": "RPAREN", ",": "COMMA"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        i = 0
        line_had_tokens = False
        while i < len(line):
            ch = line[i]
            col = i + 1
            if ch in " \t":
                i += 1
                continue
            if ch == "#":
                break
            if ch in _PUNCT:
                tokens.append(_Token(_PUNCT[ch], ch, Span(line_no, col)))
                i += 1
            elif ch in _IDENT_START:
                j = i + 1
                while j < len(line) and line[j] in _IDENT_CONT:
                    j += 1
                word = line[i:j]
                tokens.append(_Token("NUMBER" if word == INF else "IDENT", word, Span(line_no, col)))
                i = j
            elif _SIGNED_INF.match(line, i):
                tokens.append(_Token("NUMBER", line[i : i + 1 + len(INF)], Span(line_no, col)))
                i += 1 + len(INF)
            elif ch.isdigit() or ch == "." or (ch in "+-" and i + 1 < len(line) and (line[i + 1].isdigit() or line[i + 1] == ".")):
                j = i + 1 if ch in "+-" else i
                start = i
                while j < len(line) and (line[j].isdigit() or line[j] == "."):
                    j += 1
                if j < len(line) and line[j] in "eE":
                    k = j + 1
                    if k < len(line) and line[k] in "+-":
                        k += 1
                    if k < len(line) and line[k].isdigit():
                        j = k
                        while j < len(line) and line[j].isdigit():
                            j += 1
                lexeme = line[start:j]
                try:
                    float(lexeme)
                except ValueError:
                    raise DslError(PARSE_ERROR, f"malformed number '{lexeme}'", Span(line_no, col)) from None
                tokens.append(_Token("NUMBER", lexeme, Span(line_no, col)))
                i = j
            elif ch in "\"'":
                end = line.find(ch, i + 1)
                if end == -1:
                    raise DslError(PARSE_ERROR, "unterminated string literal", Span(line_no, col))
                tokens.append(_Token("STRING", line[i + 1 : end], Span(line_no, col)))
                i = end + 1
            else:
                raise DslError(PARSE_ERROR, f"unexpected character {ch!r}", Span(line_no, col))
            line_had_tokens = True
        if line_had_tokens:
            tokens.append(_Token("NEWLINE", "", Span(line_no, len(line) + 1)))
    last_line = text.count("\n") + 1
    tokens.append(_Token("EOF", "", Span(last_line, 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or tok.kind.lower()
            raise DslError(PARSE_ERROR, f"expected {what}, found '{shown}'", tok.span)
        return self.advance()

    def parse_value(self) -> Literal | VarRef:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Literal(float(tok.text), "number", tok.span)
        if tok.kind == "STRING":
            self.advance()
            return Literal(tok.text, "string", tok.span)
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "LPAREN":
                raise DslError(
                    PARSE_ERROR,
                    f"nested call '{tok.text}(...)': bind it to its own name on a previous line",
                    tok.span,
                )
            return VarRef(tok.text, tok.span)
        shown = tok.text or tok.kind.lower()
        raise DslError(PARSE_ERROR, f"expected a value, found '{shown}'", tok.span)

    def parse_call(self) -> Call:
        name_tok = self.expect("IDENT", "a function name")
        self.expect("LPAREN", "'('")
        args: list = []
        kwargs: list[KwArg] = []
        seen_kw: set[str] = set()
        if self.peek().kind != "RPAREN":
            while True:
                tok = self.peek()
                if tok.kind == "IDENT" and self.tokens[self.pos + 1].kind == "EQUALS":
                    self.advance()
                    self.advance()
                    value = self.parse_value()
                    if tok.text in seen_kw:
                        raise DslError(PARSE_ERROR, f"duplicate keyword argument '{tok.text}'", tok.span)
                    seen_kw.add(tok.text)
                    kwargs.append(KwArg(tok.text, value, tok.span))
                else:
                    value = self.parse_value()
                    if kwargs:
                        raise DslError(
                            PARSE_ERROR, "positional argument after keyword argument", value.span
                        )
                    args.append(value)
                if self.peek().kind == "COMMA":
                    self.advance()
                    continue
                break
        self.expect("RPAREN", "')' to close the call")
        return Call(name_tok.text, tuple(args), tuple(kwargs), name_tok.span)

    def end_statement(self) -> None:
        tok = self.peek()
        if tok.kind == "NEWLINE":
            self.advance()
        elif tok.kind != "EOF":
            shown = tok.text or tok.kind.lower()
            raise DslError(PARSE_ERROR, f"unexpected '{shown}' after statement", tok.span)


def parse(text: str) -> Program:
    """Parse program text, raising DslError on grammar or structure violations."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    assignments: list[Assignment] = []
    output: Output | None = None

    while parser.peek().kind != "EOF":
        if parser.peek().kind == "NEWLINE":
            parser.advance()
            continue
        tok = parser.peek()
        if tok.text == INF and parser.tokens[parser.pos + 1].kind == "EQUALS":
            raise DslError(PARSE_ERROR, f"'{INF}' is reserved and cannot be assigned", tok.span)
        if tok.kind != "IDENT":
            shown = tok.text or tok.kind.lower()
            raise DslError(PARSE_ERROR, f"expected a statement, found '{shown}'", tok.span)
        if output is not None:
            if tok.text == "output" and parser.tokens[parser.pos + 1].kind == "LPAREN":
                raise DslError(
                    DUPLICATE_OUTPUT, "program has more than one output(...) statement", tok.span
                )
            raise DslError(PARSE_ERROR, "statement after output(...): output must be last", tok.span)

        if tok.text == "output" and parser.tokens[parser.pos + 1].kind == "LPAREN":
            parser.advance()
            parser.expect("LPAREN", "'('")
            name_tok = parser.expect("IDENT", "a variable name inside output(...)")
            parser.expect("RPAREN", "')' to close output(...)")
            parser.end_statement()
            output = Output(name_tok.text, tok.span)
            continue

        name_tok = parser.advance()
        nxt = parser.peek()
        if nxt.kind == "LPAREN":
            raise DslError(
                PARSE_ERROR,
                f"bare call '{name_tok.text}(...)': assign the result to a name",
                name_tok.span,
            )
        if nxt.kind != "EQUALS":
            shown = nxt.text or nxt.kind.lower()
            raise DslError(PARSE_ERROR, f"expected '=' after '{name_tok.text}', found '{shown}'", nxt.span)
        if name_tok.text == "output":
            raise DslError(PARSE_ERROR, "'output' is reserved and cannot be assigned", name_tok.span)
        parser.advance()
        call = parser.parse_call()
        parser.end_statement()
        if any(a.name == name_tok.text for a in assignments):
            raise DslError(
                PARSE_ERROR,
                f"name '{name_tok.text}' assigned more than once; every name is assigned exactly once",
                name_tok.span,
            )
        assignments.append(Assignment(name_tok.text, call, name_tok.span))

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


def _suggest(name: str, candidates) -> str | None:
    best: tuple[int, str] | None = None
    for cand in sorted(candidates):
        d = _edit_distance(name, cand)
        if d <= 2 and (best is None or d < best[0]):
            best = (d, cand)
    return best[1] if best else None


def _check_argument(fname: str, param: ParamSpec, node, env: dict[str, str]) -> DslError | None:
    if param.kind == "scenario_set":
        if isinstance(node, Literal):
            return DslError(
                TYPE_ERROR,
                f"argument '{param.name}' of {fname}() must be a scenario set variable, not a literal",
                node.span,
            )
        if node.name not in env:
            hint = _suggest(node.name, env)
            extra = f"; did you mean '{hint}'?" if hint else ""
            return DslError(UNKNOWN_VARIABLE, f"name '{node.name}' is not defined{extra}", node.span)
        return None
    if isinstance(node, VarRef):
        return DslError(
            TYPE_ERROR,
            f"argument '{param.name}' of {fname}() expects a {param.kind} literal, not a variable",
            node.span,
        )
    if param.kind in ("float", "int"):
        if node.kind != "number":
            return DslError(
                TYPE_ERROR, f"argument '{param.name}' of {fname}() must be a number", node.span
            )
        if param.kind == "int" and not float(node.value).is_integer():
            return DslError(
                TYPE_ERROR, f"argument '{param.name}' of {fname}() must be a whole number", node.span
            )
        return None
    # remaining kinds are strings: category, direction, relation, flag
    if node.kind != "string":
        return DslError(
            TYPE_ERROR, f"argument '{param.name}' of {fname}() must be a quoted string", node.span
        )
    if param.enum_values and node.value not in param.enum_values:
        allowed = ", ".join(param.enum_values)
        return DslError(
            INVALID_ENUM_VALUE,
            f"invalid value '{node.value}' for '{param.name}' of {fname}(); allowed values: {allowed}",
            node.span,
        )
    return None


def _bind_call(spec: FunctionSpec, call: Call) -> tuple[dict[str, object], list[DslError]]:
    """Map a call's arguments onto the declared parameters, collecting arity errors."""
    errors: list[DslError] = []
    bound: dict[str, object] = {}
    if len(call.args) > len(spec.params):
        errors.append(
            DslError(
                ARITY_ERROR,
                f"{spec.name}() takes at most {len(spec.params)} arguments ({len(call.args)} given)",
                call.span,
            )
        )
    for param, node in zip(spec.params, call.args):
        bound[param.name] = node
    for kw in call.kwargs:
        param = spec.param(kw.name)
        if param is None:
            hint = _suggest(kw.name, [p.name for p in spec.params])
            extra = f"; did you mean '{hint}'?" if hint else ""
            errors.append(
                DslError(ARITY_ERROR, f"{spec.name}() got an unexpected keyword argument '{kw.name}'{extra}", kw.span)
            )
            continue
        if kw.name in bound:
            errors.append(
                DslError(ARITY_ERROR, f"{spec.name}() got multiple values for argument '{kw.name}'", kw.span)
            )
            continue
        bound[kw.name] = kw.value
    for param in spec.params:
        if param.required and param.name not in bound:
            errors.append(
                DslError(
                    ARITY_ERROR,
                    f"{spec.name}() is missing the required argument '{param.name}'",
                    call.span,
                )
            )
    return bound, errors


def check(program: Program) -> list[DslError]:
    """Name, arity, type and enum validation. Returns every diagnostic found."""
    errors: list[DslError] = []
    env: dict[str, str] = {}
    for stmt in program.assignments:
        spec = REGISTRY.get(stmt.call.function)
        if spec is None:
            hint = _suggest(stmt.call.function, REGISTRY)
            extra = f"; did you mean '{hint}'?" if hint else ""
            errors.append(
                DslError(
                    UNKNOWN_FUNCTION,
                    f"unknown function '{stmt.call.function}'{extra}",
                    stmt.call.span,
                )
            )
            env[stmt.name] = "scenario_set"  # assume, to avoid cascading noise
            continue
        bound, bind_errors = _bind_call(spec, stmt.call)
        errors.extend(bind_errors)
        for pname, node in bound.items():
            param = spec.param(pname)
            err = _check_argument(spec.name, param, node, env)
            if err is not None:
                errors.append(err)
        env[stmt.name] = "scenario_set"
    if program.output.name not in env:
        hint = _suggest(program.output.name, env)
        extra = f"; did you mean '{hint}'?" if hint else ""
        errors.append(
            DslError(
                UNKNOWN_VARIABLE,
                f"output name '{program.output.name}' is not defined{extra}",
                program.output.span,
            )
        )
    return errors


# ---------------------------------------------------------------------------
# Interpreter


def _to_python(param: ParamSpec, node: Literal):
    value = node.value
    if param.kind == "int":
        return int(value)
    if param.kind == "float":
        return float(value)
    if param.kind == "flag":
        return value == "true"
    return value


def execute(program: Program, log: TrackLog) -> ScenarioSet:
    """Run a program that check() accepted against a log and return the output scenario set, held on the log.

    Statements pass their sets on as log masks. The log may be a pack of
    equal-width logs (``tracklog.pack_logs``), so a registry function may
    receive a pack; ``LogPack.split`` cuts each member's set out of the
    output. Domain errors of the registry implementations surface as
    PredicateRuntime diagnostics carrying the statement span.
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
    """check() a program, raising its first diagnostic, so only registry functions run; then execute() it."""
    problems = check(program)
    if problems:
        raise problems[0]
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
