"""Domain exceptions shared across the package."""

from __future__ import annotations


class ScenarioMiningError(Exception):
    """Base class for every domain error raised by this package."""


class MalformedFile(ScenarioMiningError):
    """A file does not follow the documented schema (missing/ill-typed fields)."""


class InvariantViolation(ScenarioMiningError):
    """A value breaks a structural invariant (ordering, ranges, uniqueness)."""


class UnknownTrack(ScenarioMiningError):
    """A track id was requested that does not exist in the log."""


class UnknownCategory(ScenarioMiningError):
    """A category name is not part of the active category registry."""


class InvalidParameter(ScenarioMiningError):
    """A predicate or config parameter is out of range or inconsistent."""


class InvalidEnumValue(ScenarioMiningError):
    """A string parameter is not one of its allowed values."""


class InconsistentInput(ScenarioMiningError):
    """Evaluation inputs disagree with each other or with the referenced log."""


class InfeasibleSpec(ScenarioMiningError):
    """A synthetic scenario spec cannot be realised with safe margins."""


class EmptyQuery(ScenarioMiningError):
    """A natural-language query is empty or whitespace."""


class EmptyFeedback(ScenarioMiningError):
    """An iteration prompt was requested without prior code or an error message."""


class EmptyResponse(ScenarioMiningError):
    """A provider returned an empty response."""


class ProviderError(ScenarioMiningError):
    """Transport-level failure while talking to an LLM provider."""
