"""Prompt assembly for query translation.

A prompt is built from labelled parts so tests and ablations can assert on
exactly one region changing: toggling the relational-semantics guidance
swaps a single part, and repair rounds append a single feedback part. The
full text is always the in-order concatenation of the parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Prompt:
    """Prompt text plus the ordered labelled parts it was assembled from."""

    parts: tuple[tuple[str, str], ...]
    text: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "text", "".join(chunk for _, chunk in self.parts))

    def part(self, label: str) -> str | None:
        for name, chunk in self.parts:
            if name == label:
                return chunk
        return None

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.parts)


def _normalized_catalog(catalog_text: str) -> str:
    if not catalog_text.strip():
        raise EmptyFeedback("function catalog text is empty")
    return catalog_text.rstrip("\n") + "\n\n"


def _base_parts(query_text: str, catalog_text: str, epsrf: bool) -> list[tuple[str, str]]:
    if not query_text.strip():
        raise EmptyQuery("query text is empty")
    parts = [
        ("task_header", TASK_HEADER + "\n"),
        ("function_catalog", _normalized_catalog(catalog_text)),
    ]
    if epsrf:
        parts.append(("epsrf_guidance", EPSRF_GUIDANCE + "\n\n"))
    parts.append(("query", query_text))
    return parts


def compose_initial(query_text: str, catalog_text: str, epsrf: bool = True) -> Prompt:
    """First-round prompt: header, catalog, optional guidance, then the query verbatim."""
    return Prompt(tuple(_base_parts(query_text, catalog_text, epsrf)))


def compose_iteration(
    query_text: str,
    catalog_text: str,
    epsrf: bool,
    prior_code: str,
    error_message: str,
) -> Prompt:
    """Repair-round prompt: the initial parts plus one feedback part.

    The feedback sentence embeds the previous program and its diagnostic
    verbatim; downstream parsing of transcripts relies on this fixed shape.
    """
    if not prior_code:
        raise EmptyFeedback("prior code for a repair round must be non-empty")
    if not error_message:
        raise EmptyFeedback("error message for a repair round must be non-empty")
    parts = _base_parts(query_text, catalog_text, epsrf)
    feedback = ITERATION_TEMPLATE.format(code=prior_code, error=error_message)
    parts.append(("iteration_feedback", "\n\n" + feedback + "\n"))
    return Prompt(tuple(parts))
