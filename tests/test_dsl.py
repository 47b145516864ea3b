import math

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
    check,
    describe_functions,
    interpret,
    parse,
    pretty_print,
)
from scenemine.predicates import REGISTRY
from scenemine.scenario_set import ScenarioSet

from util import catalog_function_names, make_log, sset, stamps, static_obj

MINIMAL = 'x = get_objects_of_category(category="TRUCK")\noutput(x)\n'


def err(text):
    with pytest.raises(DslError) as info:
        parse(text)
    return info.value


def first_check_error(text):
    errors = check(parse(text))
    assert errors, "expected check() to report a problem"
    return errors[0]


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
    assert check(parse(MINIMAL)) == []


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


def test_check_collects_multiple_errors_without_cascading():
    text = (
        "a = mystery_function()\n"
        "b = has_velocity(track_candidates=a)\n"  # fine: a assumed bound
        "output(b)\n"
    )
    errors = check(parse(text))
    assert [e.kind for e in errors] == [UNKNOWN_FUNCTION]


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
    required_values = {"scenario_set": "base", "category": '"TRUCK"', "float": "1"}
    catalog = describe_functions()
    for spec in REGISTRY.values():
        signature = catalog.split(f"\n{spec.name}(", 1)[1].split(")\n", 1)[0]
        defaults = [part for part in signature.split(", ") if "=" in part]
        required = [
            f'{p.name}="{p.enum_values[0]}"' if p.enum_values else f"{p.name}={required_values[p.kind]}"
            for p in spec.params
            if p.required
        ]
        text = (
            'base = get_objects_of_category(category="TRUCK")\n'
            f"x = {spec.name}({', '.join(required + defaults)})\n"
            "output(x)\n"
        )
        assert check(parse(text)) == [], text


def test_inf_is_a_number_literal_that_round_trips():
    text = "x = has_velocity(a, max_velocity=inf)\noutput(x)\n"
    program = parse(text)
    value = program.assignments[0].call.kwargs[0].value
    assert (value.kind, value.value) == ("number", math.inf)
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
    assert check(program) == []
    log = make_log([static_obj("t", "TRUCK", 0, 0, vx=2.0), static_obj("b", "BUS", 5, 5)])
    try:
        result = interpret(program, log)
    except DslError as e:
        assert e.kind == PREDICATE_RUNTIME
        return
    assert isinstance(result, ScenarioSet)
