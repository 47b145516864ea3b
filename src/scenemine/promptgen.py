"""Prompt assembly for query translation.

A prompt is plain text in a fixed order: the task header, the function
catalog, the relational-semantics guidance (when on), then the query
verbatim. A repair round's prompt is that text plus one feedback paragraph
naming the previous program and its diagnostic.
"""

from __future__ import annotations

from .errors import EmptyFeedback, EmptyQuery

TASK_HEADER = """\
You translate a natural-language driving scenario description into a short
program over the scenario function library below. Rules:
- One function call per line, each assigned to a fresh variable name.
- Calls cannot be nested; pass earlier variables by name instead.
- Finish with exactly one output(variable) line selecting the result.
- Use only the functions listed below, with the documented arguments.
Reply with the program in a fenced code block and nothing else.
"""

EPSRF_GUIDANCE = (
    "If you use has_objects_in_relative_direction(), being_crossed_by(), "
    "heading_in_relative_direction_to() functions, direction parameter "
    "specifies the orientation of related candidates relative to track "
    "candidates. The facing_toward() and heading_toward() functions indicate "
    "that the track candidates parameter is oriented toward the related "
    "candidates parameter."
)

ITERATION_TEMPLATE = (
    "This is the code generated last time: {code}, with the error message: "
    "{error}. Please avoid code runtime errors."
)


def _base_text(query_text: str, catalog_text: str, epsrf: bool) -> str:
    """The initial prompt's text.

    compose_iteration builds on this, not on compose_initial, so a repair
    prompt is one compose call to anything that wraps them, such as the
    benchmark's tracer.
    """
    if not query_text.strip():
        raise EmptyQuery("query text is empty")
    if not catalog_text.strip():
        raise EmptyFeedback("function catalog text is empty")
    guidance = EPSRF_GUIDANCE + "\n\n" if epsrf else ""
    return TASK_HEADER + "\n" + catalog_text.rstrip("\n") + "\n\n" + guidance + query_text


def compose_initial(query_text: str, catalog_text: str, epsrf: bool = True) -> str:
    """First-round prompt: header, catalog, optional guidance, then the query verbatim."""
    return _base_text(query_text, catalog_text, epsrf)


def compose_iteration(
    query_text: str,
    catalog_text: str,
    epsrf: bool,
    prior_code: str,
    error_message: str,
) -> str:
    """Repair-round prompt: the initial prompt plus one feedback paragraph.

    The feedback sentence embeds the previous program and its diagnostic
    verbatim; downstream parsing of transcripts relies on this fixed shape.
    """
    if not prior_code:
        raise EmptyFeedback("prior code for a repair round must be non-empty")
    if not error_message:
        raise EmptyFeedback("error message for a repair round must be non-empty")
    feedback = ITERATION_TEMPLATE.format(code=prior_code, error=error_message)
    return _base_text(query_text, catalog_text, epsrf) + "\n\n" + feedback + "\n"
