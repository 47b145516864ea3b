import re

import pytest
from hypothesis import given, strategies as st

from scenemine.dsl import describe_functions
from scenemine.errors import EmptyFeedback, EmptyQuery
from scenemine.promptgen import (
    EPSRF_GUIDANCE,
    Prompt,
    compose_initial,
    compose_iteration,
)

CATALOG = describe_functions()
QUERY = "vehicle turning left while a pedestrian crosses"

# the transcript-parsing contract for repair rounds
FEEDBACK_RE = re.compile(
    r"This is the code generated last time: .*, with the error message: .*\."
    r" Please avoid code runtime errors\.",
    re.DOTALL,
)


def test_text_is_concatenation_of_parts():
    prompt = compose_initial(QUERY, CATALOG)
    assert prompt.text == "".join(chunk for _, chunk in prompt.parts)


def test_initial_part_order():
    prompt = compose_initial(QUERY, CATALOG, epsrf=True)
    assert prompt.labels() == ("task_header", "function_catalog", "epsrf_guidance", "query")


def test_query_is_embedded_verbatim():
    weird = 'cars "near"\n  pedestrians\t(unicode: крест)'
    prompt = compose_initial(weird, CATALOG)
    assert prompt.part("query") == weird
    assert prompt.text.endswith(weird)


def test_catalog_normalized_to_double_newline():
    prompt = compose_initial(QUERY, CATALOG + "\n\n\n")
    part = prompt.part("function_catalog")
    assert part.endswith("\n\n") and not part.endswith("\n\n\n")
    assert part.startswith(CATALOG.rstrip("\n"))


def test_epsrf_toggle_changes_exactly_one_part():
    on = compose_initial(QUERY, CATALOG, epsrf=True)
    off = compose_initial(QUERY, CATALOG, epsrf=False)
    assert on.part("epsrf_guidance") == EPSRF_GUIDANCE + "\n\n"
    assert off.part("epsrf_guidance") is None
    assert [p for p in on.parts if p[0] != "epsrf_guidance"] == list(off.parts)


def test_epsrf_paragraph_wording_is_fixed():
    assert EPSRF_GUIDANCE == (
        "If you use has_objects_in_relative_direction(), being_crossed_by(), "
        "heading_in_relative_direction_to() functions, direction parameter "
        "specifies the orientation of related candidates relative to track "
        "candidates. The facing_toward() and heading_toward() functions "
        "indicate that the track candidates parameter is oriented toward the "
        "related candidates parameter."
    )


def test_guidance_sits_between_catalog_and_query():
    text = compose_initial(QUERY, CATALOG, epsrf=True).text
    assert text.index(EPSRF_GUIDANCE) > text.index("followed_by(")
    assert text.index(EPSRF_GUIDANCE) < text.index(QUERY)


def test_iteration_appends_single_feedback_part():
    base = compose_initial(QUERY, CATALOG)
    repair = compose_iteration(QUERY, CATALOG, True, "x = f()\noutput(x)", "unknown function 'f'")
    assert repair.labels() == base.labels() + ("iteration_feedback",)
    assert repair.parts[:-1] == base.parts
    assert repair.text.startswith(base.text)


def test_feedback_sentence_matches_transcript_contract():
    code = 'x = get_objects_of_category(category="DOG")\noutput(x)'
    error = "PredicateRuntime at 1:5: get_objects_of_category(): unknown category 'DOG'"
    repair = compose_iteration(QUERY, CATALOG, False, code, error)
    feedback = repair.part("iteration_feedback")
    assert FEEDBACK_RE.search(feedback)
    assert code in feedback
    assert error in feedback
    assert feedback == "\n\n" + (
        f"This is the code generated last time: {code}, with the error message: "
        f"{error}. Please avoid code runtime errors.\n"
    )


def test_empty_inputs_rejected():
    with pytest.raises(EmptyQuery):
        compose_initial("   \n", CATALOG)
    with pytest.raises(EmptyFeedback):
        compose_initial(QUERY, "  ")
    with pytest.raises(EmptyFeedback):
        compose_iteration(QUERY, CATALOG, True, "", "boom")
    with pytest.raises(EmptyFeedback):
        compose_iteration(QUERY, CATALOG, True, "x = f()", "")


def test_prompt_part_lookup():
    prompt = Prompt((("a", "left"), ("b", "right")))
    assert prompt.part("a") == "left"
    assert prompt.part("missing") is None
    assert prompt.text == "leftright"


@given(
    st.text(min_size=1, max_size=200).filter(lambda s: s.strip()),
    st.booleans(),
)
def test_any_query_survives_round_trip(query, epsrf):
    prompt = compose_initial(query, CATALOG, epsrf=epsrf)
    assert prompt.part("query") == query
    # the query is the final part, so the text always ends with it byte-for-byte
    assert prompt.text.endswith(query)


@given(
    st.text(min_size=1, max_size=80).filter(lambda s: s.strip()),
    st.text(min_size=1, max_size=80),
    st.text(min_size=1, max_size=80),
)
def test_any_feedback_matches_contract_regex(query, code, error):
    repair = compose_iteration(query, CATALOG, True, code, error)
    assert FEEDBACK_RE.search(repair.part("iteration_feedback"))
