import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from scenemine.dsl import (
    ARITY_ERROR,
    DUPLICATE_OUTPUT,
    INVALID_ENUM_VALUE,
    MISSING_OUTPUT,
    PARSE_ERROR,
    PREDICATE_RUNTIME,
    TYPE_ERROR,
    UNKNOWN_FUNCTION,
    UNKNOWN_VARIABLE,
    DslError,
    Span,
    describe_functions,
    interpret,
    parse,
    pretty_print,
)
from scenemine.predicates import REGISTRY, registry_catalog
from scenemine.scenario_set import ScenarioSet

from util import catalog_function_names, first_diagnostic, make_log, random_track_log, sset, stamps, static_obj

MINIMAL = 'x = get_objects_of_category(category="TRUCK")\noutput(x)\n'


def err(text):
    with pytest.raises(DslError) as info:
        parse(text)
    return info.value


def first_check_error(text):
    error = first_diagnostic(parse(text))
    assert error is not None, "expected the checker to report a problem"
    return error


# ---------------------------------------------------------------------------
# Parsing


def test_minimal_program_parses():
    p = parse(MINIMAL)
    assert len(p.assignments) == 1
    assert p.assignments[0].name == "x"
    assert p.assignments[0].call.function == "get_objects_of_category"
    assert p.output.name == "x"


def test_comments_and_blank_lines_ignored():
    text = "# heading comment\n\nx = get_objects_of_category(category=\"BUS\")  # trailing\n\noutput(x)\n"
    p = parse(text)
    assert len(p.assignments) == 1


def test_positional_and_keyword_arguments():
    p = parse('y = scenario_and(a, b=c)\noutput(y)\n')
    call = p.assignments[0].call
    assert [n.name for n in call.args] == ["a"]
    assert [(k.name, k.value.name) for k in call.kwargs] == [("b", "c")]


def test_number_literals():
    p = parse("y = has_velocity(track_candidates=x, min_velocity=2.5, max_velocity=1e2)\noutput(y)\n")
    values = [kw.value.value for kw in p.assignments[0].call.kwargs[1:]]
    assert values == [2.5, 100.0]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("x = f(g(a))\noutput(x)", "nested call"),
        ("f(a)\noutput(x)", "bare call"),
        ("output = f(a)\noutput(output)", "'output' is reserved"),
        ("x = f(a)\nx = f(a)\noutput(x)", "assigned more than once"),
        ("output(x)\ny = f(a)", "statement after output"),
        ("x = f(a=1, a=2)\noutput(x)", "duplicate keyword argument"),
        ("x = f(a=1, 2)\noutput(x)", "positional argument after keyword"),
        ('x = f("unclosed)\noutput(x)', "unterminated string"),
        ("x = f(1.2.3)\noutput(x)", "malformed number"),
        ("x = @\noutput(x)", "unexpected character"),
        ("x f(a)\noutput(x)", "expected '='"),
        ("x = f(,)\noutput(x)", "expected a value"),
        ("x = f() y = f()\noutput(x)", "after statement"),
        ("= f(a)\noutput(x)", "expected a statement"),
    ],
)
def test_parse_errors(text, fragment):
    e = err(text)
    assert e.kind == PARSE_ERROR
    assert fragment in e.message


def test_missing_output():
    e = err('x = get_objects_of_category(category="TRUCK")\n')
    assert e.kind == MISSING_OUTPUT
    assert str(e) == "MissingOutput: program has no output(...) statement"


def test_duplicate_output():
    e = err("output(x)\noutput(x)\n")
    assert e.kind == DUPLICATE_OUTPUT


def test_error_spans_are_one_based():
    e = err("x = f(g(a))\noutput(x)")
    assert e.span == Span(1, 7)
    assert str(e).startswith("ParseError at 1:7:")
    e = err("x = f(a)\ny = @\noutput(y)")
    assert e.span.line == 2


# ---------------------------------------------------------------------------
# Checking


def test_valid_program_checks_clean():
    assert first_diagnostic(parse(MINIMAL)) is None


def test_unknown_function_suggests_nearest():
    e = first_check_error('x = get_objects_of_categry(category="TRUCK")\noutput(x)')
    assert e.kind == UNKNOWN_FUNCTION
    assert "did you mean 'get_objects_of_category'" in e.message


def test_unknown_function_without_neighbours():
    e = first_check_error("x = summon_dragons()\noutput(x)")
    assert e.kind == UNKNOWN_FUNCTION
    assert "did you mean" not in e.message


def test_unknown_variable_suggests_nearest():
    text = (
        'trucks = get_objects_of_category(category="TRUCK")\n'
        "y = has_velocity(track_candidates=truks)\n"
        "output(y)\n"
    )
    e = first_check_error(text)
    assert e.kind == UNKNOWN_VARIABLE
    assert "did you mean 'trucks'" in e.message


def test_output_name_must_be_defined():
    e = first_check_error(MINIMAL.replace("output(x)", "output(y)"))
    assert e.kind == UNKNOWN_VARIABLE
    assert "output name 'y'" in e.message


def test_missing_required_argument():
    e = first_check_error("x = get_objects_of_category()\noutput(x)")
    assert e.kind == ARITY_ERROR
    assert "missing the required argument 'category'" in e.message


def test_unexpected_keyword_suggests_nearest():
    e = first_check_error('x = get_objects_of_category(catagory="TRUCK")\noutput(x)')
    assert e.kind == ARITY_ERROR
    assert "unexpected keyword argument 'catagory'" in e.message
    assert "did you mean 'category'" in e.message


def test_multiple_values_for_argument():
    e = first_check_error('x = get_objects_of_category("TRUCK", category="BUS")\noutput(x)')
    assert e.kind == ARITY_ERROR
    assert "multiple values for argument 'category'" in e.message


def test_too_many_positional_arguments():
    e = first_check_error('x = get_objects_of_category("TRUCK", "BUS")\noutput(x)')
    assert e.kind == ARITY_ERROR
    assert "takes at most 1 arguments" in e.message


def test_type_errors():
    e = first_check_error('x = has_velocity(track_candidates="TRUCK")\noutput(x)')
    assert e.kind == TYPE_ERROR and "scenario set variable" in e.message

    text = 'a = get_objects_of_category(category="TRUCK")\nx = has_velocity(track_candidates=a, min_velocity=a)\noutput(x)'
    e = first_check_error(text)
    assert e.kind == TYPE_ERROR and "expects a float literal" in e.message

    text = 'a = get_objects_of_category(category="TRUCK")\nx = has_velocity(track_candidates=a, min_velocity="fast")\noutput(x)'
    e = first_check_error(text)
    assert e.kind == TYPE_ERROR and "must be a number" in e.message

    text = 'a = get_objects_of_category(category="TRUCK")\nx = near_objects(track_candidates=a, related_candidates=a, min_objects=1.5)\noutput(x)'
    e = first_check_error(text)
    assert e.kind == TYPE_ERROR and "whole number" in e.message

    e = first_check_error("x = get_objects_of_category(category=7)\noutput(x)")
    assert e.kind == TYPE_ERROR and "quoted string" in e.message


def test_invalid_enum_lists_allowed_values():
    text = (
        'a = get_objects_of_category(category="TRUCK")\n'
        'x = has_objects_in_relative_direction(track_candidates=a, related_candidates=a, direction="forwards")\n'
        "output(x)\n"
    )
    e = first_check_error(text)
    assert e.kind == INVALID_ENUM_VALUE
    assert "allowed values: forward, backward, left, right" in e.message


def test_an_unknown_function_is_the_first_diagnostic_of_its_program():
    text = (
        "a = mystery_function()\n"
        "b = has_velocity(track_candidates=a)\n"
        "output(b)\n"
    )
    assert first_check_error(text).kind == UNKNOWN_FUNCTION


# ---------------------------------------------------------------------------
# Interpreting


def _two_truck_log():
    return make_log(
        [static_obj("t1", "TRUCK", 0, 0, vx=3.0), static_obj("t2", "TRUCK", 9, 0), static_obj("p", "PEDESTRIAN", 4, 4)]
    )


def test_interpret_minimal_program():
    log = _two_truck_log()
    got = interpret(parse(MINIMAL), log)
    assert got == sset({"t1": stamps(2), "t2": stamps(2)})


def test_interpret_composed_program_matches_direct_calls():
    from scenemine.predicates import get_objects_of_category, has_velocity, near_objects, scenario_and

    log = _two_truck_log()
    text = (
        'trucks = get_objects_of_category(category="TRUCK")\n'
        "moving = has_velocity(track_candidates=trucks, min_velocity=1)\n"
        "close = near_objects(track_candidates=trucks, related_candidates=trucks, distance_thresh=10)\n"
        "both = scenario_and(a=moving, b=close)\n"
        "output(both)\n"
    )
    trucks = get_objects_of_category(log, "TRUCK")
    want = scenario_and(
        log,
        has_velocity(log, trucks, min_velocity=1),
        near_objects(log, trucks, trucks, distance_thresh=10),
    )
    assert interpret(parse(text), log) == want
    assert not want.is_empty


def test_interpret_flag_and_int_conversion():
    log = _two_truck_log()
    text = (
        'trucks = get_objects_of_category(category="TRUCK")\n'
        "moving = has_velocity(track_candidates=trucks, min_velocity=1)\n"
        "after = followed_by(first=moving, second=trucks, within_seconds=0.5, cross_track="
        '"true")\n'
        "output(after)\n"
    )
    got = interpret(parse(text), log)
    assert got == sset({"t1": [stamps(2)[1]], "t2": [stamps(2)[1]]})


def test_interpret_positional_arguments():
    log = _two_truck_log()
    got = interpret(parse('x = get_objects_of_category("PEDESTRIAN")\noutput(x)'), log)
    assert got.tracks() == ("p",)


def test_interpret_reruns_check():
    program = parse("output_of = has_velocity(track_candidates=ghost)\noutput(output_of)")
    with pytest.raises(DslError) as info:
        interpret(program, _two_truck_log())
    assert info.value.kind == UNKNOWN_VARIABLE


@pytest.mark.parametrize(
    "line, fragment",
    [
        ('x = get_objects_of_category(category="DOG")', "unknown category"),
        ('a = get_objects_of_category(category="TRUCK")\nx = has_velocity(track_candidates=a, min_velocity=5, max_velocity=1)', "max_velocity"),
    ],
)
def test_interpret_wraps_predicate_errors(line, fragment):
    text = line + "\noutput(x)\n"
    with pytest.raises(DslError) as info:
        interpret(parse(text), _two_truck_log())
    e = info.value
    assert e.kind == PREDICATE_RUNTIME
    assert fragment in e.message
    assert e.span is not None and e.span.line == line.count("\n") + 1


def test_interpret_is_deterministic():
    log = _two_truck_log()
    text = (
        'trucks = get_objects_of_category(category="TRUCK")\n'
        "near = near_objects(track_candidates=trucks, related_candidates=trucks)\n"
        "output(near)\n"
    )
    runs = [interpret(parse(text), log) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("text", [
    'a = get_objects_of_category(category="BUS")\nx = nope(a)\noutput(x)\n',
    'x = get_objects_of_category(category="BUS")\noutput(y)\n',
    "x = get_objects_of_category()\noutput(x)\n",
    "x = get_objects_of_category(category=3)\noutput(x)\n",
])
@pytest.mark.parametrize("run", ["execute", "interpret"])
def test_a_program_check_rejects_raises_its_first_diagnostic_before_any_registry_call(monkeypatch, text, run):
    from scenemine import dsl

    ran = []

    def counted(name, impl):
        return lambda *args, **kwargs: ran.append(name) or impl(*args, **kwargs)

    for name, spec in REGISTRY.items():
        monkeypatch.setitem(REGISTRY, name, replace(spec, impl=counted(name, spec.impl)))
    first = first_diagnostic(parse(text))
    with pytest.raises(DslError) as info:
        getattr(dsl, run)(parse(text), _two_truck_log())
    assert (info.value.kind, info.value.message, info.value.span) == (first.kind, first.message, first.span)
    assert ran == []
    getattr(dsl, run)(parse(MINIMAL), _two_truck_log())
    assert ran == ["get_objects_of_category"]


def test_a_program_binds_its_arguments_once_for_every_log(monkeypatch):
    from scenemine import dsl
    from scenemine.predicates import get_objects_of_category, has_velocity

    calls = Counter()
    bind = dsl._bind_call
    monkeypatch.setattr(dsl, "_bind_call", lambda spec, call: calls.update([spec.name]) or bind(spec, call))
    program = parse(
        'trucks = get_objects_of_category(category="TRUCK")\n'
        "moving = has_velocity(track_candidates=trucks, min_velocity=1)\n"
        "output(moving)\n"
    )
    logs = [_two_truck_log(), random_track_log(5)]
    results = [dsl.execute(program, log) for log in logs for _ in range(2)]
    assert calls == {"get_objects_of_category": 1, "has_velocity": 1}
    for log, got in zip(logs, results[::2]):
        assert got == has_velocity(log, get_objects_of_category(log, "TRUCK"), min_velocity=1)
    assert results[0] == results[1] and results[2] == results[3]


# ---------------------------------------------------------------------------
# Pretty printer


def test_pretty_print_canonical_form():
    text = 'x=get_objects_of_category( category = "TRUCK" )\noutput( x )'
    assert pretty_print(parse(text)) == 'x = get_objects_of_category(category="TRUCK")\noutput(x)\n'


def test_pretty_print_reparse_is_identity():
    text = (
        'a = get_objects_of_category(category="TRUCK")\n'
        "b = has_velocity(a, min_velocity=2.5, max_velocity=100)\n"
        'c = followed_by(first=a, second=b, within_seconds=1, cross_track="true")\n'
        "output(c)\n"
    )
    canonical = pretty_print(parse(text))
    assert pretty_print(parse(canonical)) == canonical
    assert parse(canonical) == parse(canonical)


@pytest.mark.parametrize("value", ['A"B', "A'B", "plain"])
def test_pretty_print_round_trips_quoted_strings(value):
    quote = "'" if '"' in value else '"'
    program = parse(f"x = get_objects_of_category(category={quote}{value}{quote})\noutput(x)")
    canonical = pretty_print(program)
    assert parse(canonical).assignments[0].call.kwargs[0].value.value == value
    assert pretty_print(parse(canonical)) == canonical


def test_pretty_print_renders_whole_floats_as_ints():
    p = parse("x = has_velocity(track_candidates=a, min_velocity=10.0)\noutput(x)")
    assert "min_velocity=10)" in pretty_print(p)


# ---------------------------------------------------------------------------
# Catalog text


def test_catalog_contains_every_function_once():
    text = describe_functions()
    names = catalog_function_names(text)
    assert names == list(REGISTRY)
    assert len(set(names)) == len(names)


def test_every_catalog_default_parses_and_checks():
    # each keyword default the catalog advertises, passed explicitly, is valid program text
    # and runs exactly as the call that leaves it out, so the catalog shows the executed defaults;
    # on these logs every call with a default keeps some pairs, so a wrong default can show
    catalog = describe_functions()
    for log in (random_track_log(seed, max_objects=40, max_frames=40) for seed in (5, 33)):
        category = Counter(obj.category for obj in log.objects.values()).most_common(1)[0][0]
        required_values = {"scenario_set": "base", "category": f'"{category}"', "float": "1"}
        for spec in REGISTRY.values():
            signature = catalog.split(f"\n{spec.name}(", 1)[1].split(")\n", 1)[0]
            defaults = [part for part in signature.split(", ") if "=" in part]
            required = [
                f'{p.name}="{p.enum_values[0]}"' if p.enum_values else f"{p.name}={required_values[p.kind]}"
                for p in spec.params
                if p.required
            ]
            spelled, omitted = (
                f'base = get_objects_of_category(category="{category}")\n'
                f"x = {spec.name}({', '.join(required + extra)})\n"
                "output(x)\n"
                for extra in (defaults, [])
            )
            assert first_diagnostic(parse(spelled)) is None, spelled
            result = interpret(parse(spelled), log)
            assert result == interpret(parse(omitted), log), spelled
            assert not (defaults and result.is_empty), spelled


def test_inf_is_a_number_literal_that_round_trips():
    for literal, number in (("inf", math.inf), ("-inf", -math.inf)):
        text = f"x = has_velocity(a, max_velocity={literal})\noutput(x)\n"
        program = parse(text)
        value = program.assignments[0].call.kwargs[0].value
        assert (value.kind, value.value) == ("number", number)
        assert pretty_print(program) == text
        assert parse(pretty_print(program)) == program


def test_inf_cannot_be_assigned():
    with pytest.raises(DslError) as info:
        parse('inf = get_objects_of_category(category="TRUCK")\noutput(inf)')
    assert info.value.kind == PARSE_ERROR
    assert "reserved" in info.value.message


def test_catalog_is_deterministic():
    assert describe_functions() == describe_functions()


def test_catalog_signature_lines():
    text = describe_functions()
    assert "get_objects_of_category(category)" in text
    assert 'direction="forward"' in text  # being_crossed_by default
    assert "max_velocity=inf" in text
    assert "(required)" in text
    assert '(default "false")' in text
    assert "(default unbounded)" in text


def test_catalog_names_parameter_roles():
    text = describe_functions()
    assert "track_candidates" in text and "related_candidates" in text
    assert "subject" in text and "reference" in text


def test_catalog_bytes_are_pinned():
    """The model reads these bytes; changing them changes every prompt, so it must be deliberate."""
    text = describe_functions()
    dump = json.dumps(registry_catalog(), indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "48335b5d0f54f7b04b21657fbcde2cbd34a191aab4bb422e2d16d9f7ef2314fb"
    )
    assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == (
        "1f72f67a9e6198ea44f0984a0d78223086433b57d9a7b930f04cbb0d5b962f54"
    )


# ---------------------------------------------------------------------------
# Fuzzing: arbitrary text never escapes the DslError contract


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=120))
def test_fuzzed_text_parses_or_raises_dsl_error(text):
    try:
        program = parse(text)
    except DslError as e:
        assert e.kind in (PARSE_ERROR, MISSING_OUTPUT, DUPLICATE_OUTPUT)
        return
    # parsed: checking and interpreting may reject, but only with DslError
    log = make_log([static_obj("t", "TRUCK", 0, 0)])
    try:
        result = interpret(program, log)
    except DslError:
        return
    assert isinstance(result, ScenarioSet)


@given(
    st.sampled_from(sorted(REGISTRY)),
    st.sampled_from(["TRUCK", "BUS", "PEDESTRIAN"]),
    st.floats(0.1, 30.0, allow_nan=False),
)
def test_checked_programs_only_raise_predicate_runtime(fname, category, number):
    """check-soundness: a clean check means interpret hits registry errors only."""
    spec = REGISTRY[fname]
    parts = []
    for p in spec.params:
        if p.kind == "scenario_set":
            parts.append(f"{p.name}=base")
        elif p.kind in ("float", "int"):
            parts.append(f"{p.name}={int(number) if p.kind == 'int' else number}")
        elif p.enum_values:
            parts.append(f'{p.name}="{p.enum_values[0]}"')
        else:
            parts.append(f'{p.name}="{category}"')
    text = (
        f'base = get_objects_of_category(category="{category}")\n'
        f"result = {fname}({', '.join(parts)})\n"
        "output(result)\n"
    )
    program = parse(text)
    assert first_diagnostic(program) is None
    log = make_log([static_obj("t", "TRUCK", 0, 0, vx=2.0), static_obj("b", "BUS", 5, 5)])
    try:
        result = interpret(program, log)
    except DslError as e:
        assert e.kind == PREDICATE_RUNTIME
        return
    assert isinstance(result, ScenarioSet)
