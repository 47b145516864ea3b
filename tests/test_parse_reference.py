"""dsl.parse against the reference parser in oracles.py: the same Program, or the same diagnostic.

A parse diagnostic is a mining round's repair feedback, so its kind, message
and span are part of every transcript; "the same" is exact for all three.
"""

from __future__ import annotations

import functools

from hypothesis import example, given, settings, strategies as st

from scenemine import ablation
from scenemine.dsl import DslError, parse
from scenemine.predicates import REGISTRY

import oracles
from util import programs


def _outcome(parser, text):
    try:
        return parser(text)
    except DslError as exc:
        return exc.kind, exc.message, exc.span


def assert_same_parse(text):
    assert _outcome(parse, text) == _outcome(oracles.parse, text), repr(text)


@functools.cache
def _ablation_texts() -> tuple[str, ...]:
    """The ablation's 30 reference programs and their 30 syntax-broken versions."""
    references = [q.program for q in ablation.build_suite().queries]
    return tuple(references + [ablation.syntax_broken(p) for p in references])


# Characters and words a program is made of, with look-alikes that are not: digits that \d does not
# match ('²', '①'), one that it does ('٣'), a number-like character that is no digit ('½'), a letter
# outside ASCII, and blanks and line breaks other than ' ', '\t' and '\n'.
_CHARS = " \t\n\r\x0b\x0c\x85\u2028\xa0=(),.#'\"+-eE0123456789_axyz²①٣½é"
_WORDS = (
    "output", "inf", "-inf", "+inf", "infinity", "1e", "1e+", "1.5", "1.2.3", ".", "1_0", '""', "''",
    "track_candidates", "related_candidates", "category", *REGISTRY,
)
_PIECES = tuple(_CHARS) + _WORDS
dsl_texts = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)


@st.composite
def edited_ablation_texts(draw) -> str:
    """One ablation text with one character deleted, inserted or replaced."""
    text = draw(st.deferred(lambda: st.sampled_from(_ablation_texts())))
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(("delete", "insert", "replace")))
    char = draw(st.sampled_from(_CHARS) | st.characters())
    if edit == "delete":
        return text[:at] + text[at + 1 :]
    if edit == "insert":
        return text[:at] + char + text[at:]
    return text[:at] + char + text[at + 1 :]


@settings(max_examples=300)
@example("x = f(a=²)")
@example("x = f(a=1²)")
@example("x = f(a=1e²)")
@example("x = f(a=1,)")
@example('"inf" = f()\noutput(x)')
@given(st.text())
def test_any_text_parses_as_the_reference_parses_it(text):
    assert_same_parse(text)


@settings(max_examples=1000)
@given(dsl_texts)
def test_text_of_dsl_pieces_parses_as_the_reference_parses_it(text):
    assert_same_parse(text)


@settings(max_examples=500)
@given(edited_ablation_texts())
def test_edited_ablation_programs_parse_as_the_reference_parses_them(text):
    assert_same_parse(text)


@settings(max_examples=200)
@given(programs())
def test_random_registry_programs_parse_as_the_reference_parses_them(text):
    assert_same_parse(text)


def test_the_ablation_programs_parse_as_the_reference_parses_them():
    texts = _ablation_texts()
    assert len(texts) == 60
    for text in texts:
        assert_same_parse(text)
    assert all(isinstance(_outcome(parse, text), tuple) for text in texts[30:])
