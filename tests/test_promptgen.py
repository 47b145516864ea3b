import hashlib
import re

import pytest
from hypothesis import given, strategies as st

from scenemine.dsl import describe_functions
from scenemine.errors import EmptyFeedback, EmptyQuery
from scenemine.promptgen import EPSRF_GUIDANCE, TASK_HEADER, compose_initial, compose_iteration

CATALOG = describe_functions()
QUERY = "vehicle turning left while a pedestrian crosses"

# the transcript-parsing contract for repair rounds
FEEDBACK_RE = re.compile(
    r"This is the code generated last time: .*, with the error message: .*\."
    r" Please avoid code runtime errors\.",
    re.DOTALL,
)


def test_text_is_concatenation_of_parts():
    """Without guidance the prompt is header, catalog and query joined, nothing else."""
    prompt = compose_initial(QUERY, CATALOG, epsrf=False)
    assert prompt == "".join((TASK_HEADER, "\n", CATALOG.rstrip("\n"), "\n\n", QUERY))


def test_initial_part_order():
    """Header, catalog, guidance, query: the prompt is exactly these, in this order."""
    prompt = compose_initial(QUERY, CATALOG, epsrf=True)
    assert prompt == TASK_HEADER + "\n" + CATALOG.rstrip("\n") + "\n\n" + EPSRF_GUIDANCE + "\n\n" + QUERY


def test_query_is_embedded_verbatim():
    weird = 'cars "near"\n  pedestrians\t(unicode: крест)'
    prompt = compose_initial(weird, CATALOG)
    assert prompt.endswith(EPSRF_GUIDANCE + "\n\n" + weird)


def test_catalog_normalized_to_double_newline():
    prompt = compose_initial(QUERY, CATALOG + "\n\n\n", epsrf=False)
    assert prompt == compose_initial(QUERY, CATALOG.rstrip("\n"), epsrf=False)
    assert CATALOG.rstrip("\n") + "\n\n" + QUERY in prompt
    assert "\n\n\n" not in prompt


def test_epsrf_toggle_changes_exactly_one_part():
    on = compose_initial(QUERY, CATALOG, epsrf=True)
    off = compose_initial(QUERY, CATALOG, epsrf=False)
    cut = off.index(QUERY)
    assert on == off[:cut] + EPSRF_GUIDANCE + "\n\n" + off[cut:]
    assert EPSRF_GUIDANCE not in off


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
    text = compose_initial(QUERY, CATALOG, epsrf=True)
    assert text.index(EPSRF_GUIDANCE) > text.index("followed_by(")
    assert text.index(EPSRF_GUIDANCE) < text.index(QUERY)


def test_iteration_appends_single_feedback_part():
    base = compose_initial(QUERY, CATALOG)
    repair = compose_iteration(QUERY, CATALOG, True, "x = f()\noutput(x)", "unknown function 'f'")
    assert repair.startswith(base)
    feedback = repair[len(base):]  # one paragraph: a blank line, the sentence, a newline
    assert feedback[:2] == "\n\n" and feedback[-1] == "\n" and FEEDBACK_RE.fullmatch(feedback[2:-1])


def test_feedback_sentence_matches_transcript_contract():
    code = 'x = get_objects_of_category(category="DOG")\noutput(x)'
    error = "PredicateRuntime at 1:5: get_objects_of_category(): unknown category 'DOG'"
    repair = compose_iteration(QUERY, CATALOG, False, code, error)
    feedback = repair[len(compose_initial(QUERY, CATALOG, False)):]
    assert FEEDBACK_RE.search(feedback)
    assert code in feedback
    assert error in feedback
    assert feedback == "\n\n" + (
        f"This is the code generated last time: {code}, with the error message: "
        f"{error}. Please avoid code runtime errors.\n"
    )


def test_prompt_bytes_are_pinned():
    """Every round sends these bytes to the model; changing them must be deliberate."""
    code = 'x = get_objects_of_category(category="DOG")\noutput(x)'
    error = "PredicateRuntime at 1:5: get_objects_of_category(): unknown category 'DOG'"
    digest = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()  # noqa: E731
    assert digest(compose_initial(QUERY, describe_functions(), epsrf=True)) == (
        "9597cbd79a4288bfe94630289f567245fb35d59ea49ae9e4bc6b491fe6530397"
    )
    assert digest(compose_initial(QUERY, describe_functions(), epsrf=False)) == (
        "2207c83a6d11527f95115a45722bded6bb5b7fe5cda567711b013e2c8233b7f1"
    )
    assert digest(compose_iteration(QUERY, describe_functions(), False, code, error)) == (
        "2dabf4fee5c44186eb9bd420264acdd5c5c53a4af0be3774e4a35c170cdfc356"
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


@given(
    st.text(min_size=1, max_size=200).filter(lambda s: s.strip()),
    st.booleans(),
)
def test_any_query_survives_round_trip(query, epsrf):
    prompt = compose_initial(query, CATALOG, epsrf=epsrf)
    # the query comes last, so the prompt always ends with it byte-for-byte
    assert prompt == compose_initial("x", CATALOG, epsrf=epsrf)[:-1] + query


@given(
    st.text(min_size=1, max_size=80).filter(lambda s: s.strip()),
    st.text(min_size=1, max_size=80),
    st.text(min_size=1, max_size=80),
)
def test_any_feedback_matches_contract_regex(query, code, error):
    base = compose_initial(query, CATALOG)
    repair = compose_iteration(query, CATALOG, True, code, error)
    assert repair.startswith(base) and FEEDBACK_RE.fullmatch(repair[len(base) + 2:-1])
