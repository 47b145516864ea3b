"""The package's checker against the collect-all checker in oracles.py: the same first diagnostic.

A check diagnostic is a mining round's repair feedback, so its kind, message
and span are part of every transcript; "the same" is exact for all three. A
program checks clean exactly when the reference finds no diagnostic.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from scenemine.dsl import ARITY_ERROR, INVALID_ENUM_VALUE, TYPE_ERROR, UNKNOWN_FUNCTION, UNKNOWN_VARIABLE, Span, parse

import oracles
from util import first_diagnostic, programs


def _outcome(error):
    return None if error is None else (error.kind, error.message, error.span)


def assert_same_first_diagnostic(text):
    program = parse(text)
    expected = oracles.check(program)
    assert _outcome(first_diagnostic(program)) == _outcome(expected[0] if expected else None), text


# Edits of one line that keep it parsing but may break its call or its output.
_EDITS = (
    lambda line: re.sub(r"= (\w+)\(", r"= \1x(", line, count=1),  # a misspelt function
    lambda line: re.sub(r"\((\w+)=", r"(\1x=", line, count=1),  # a misspelt keyword
    lambda line: line.replace("=v", "=w", 1),  # an undefined variable
    lambda line: re.sub(r"\(\w+=[^,)]*(, )?", "(", line, count=1),  # the first argument dropped
    lambda line: re.sub(r"\(\w+=", "(", line, count=1),  # the first argument passed by position
    lambda line: line.replace("(v", "(w", 1),  # an undefined output name, or positional argument
)


@st.composite
def broken_programs(draw) -> str:
    """A util.programs() text with up to three of its lines edited, so it may fail the checker."""
    lines = draw(programs()).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from(_EDITS))(lines[at])
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(programs())
def test_the_checker_raises_the_first_diagnostic_of_the_collect_all_checker(text):
    assert_same_first_diagnostic(text)


@settings(max_examples=400, deadline=None)
@given(broken_programs())
def test_the_checker_agrees_with_the_collect_all_checker_on_broken_calls(text):
    assert_same_first_diagnostic(text)


@pytest.mark.parametrize(
    "text, kinds, fragment, span",
    [
        (
            'x = get_objects_of_category(catagory="TRUCK")\noutput(x)\n',
            [ARITY_ERROR, ARITY_ERROR], "unexpected keyword argument 'catagory'; did you mean 'category'?", Span(1, 29),
        ),
        (
            'a = get_objects_of_category(category="TRUCK")\n'
            'x = has_objects_in_relative_direction(track_candidates=a, related_candidates=a, direction="forwards")\n'
            "y = scenario_and(a=x, b=ghost)\n"
            "output(y)\n",
            [INVALID_ENUM_VALUE, UNKNOWN_VARIABLE], "invalid value 'forwards' for 'direction'", Span(2, 91),
        ),
        (
            "a = mystery_function()\n"
            'b = has_velocity(track_candidates=a, min_velocity="fast")\n'
            "output(c)\n",
            [UNKNOWN_FUNCTION, TYPE_ERROR, UNKNOWN_VARIABLE], "unknown function 'mystery_function'", Span(1, 5),
        ),
    ],
)
def test_a_program_with_several_faults_raises_the_first(text, kinds, fragment, span):
    assert [e.kind for e in oracles.check(parse(text))] == kinds
    error = first_diagnostic(parse(text))
    assert (error.kind, error.span) == (kinds[0], span)
    assert fragment in error.message
    assert_same_first_diagnostic(text)
