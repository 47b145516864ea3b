"""Hand-rolled builders shared across test modules."""

from __future__ import annotations

from typing import Iterable

from scenemine.categories import DEFAULT_REGISTRY
from scenemine.errors import ProviderError
from scenemine.providers import LlmProvider
from scenemine.scenario_set import ScenarioSet
from scenemine.tracklog import ObjectState, TrackedObject, TrackLog

T0 = 1_000_000_000
DT = 100_000_000
BOX = (4.0, 2.0, 1.6)


def stamps(n: int) -> tuple[int, ...]:
    return tuple(T0 + i * DT for i in range(n))


def state(x, y, heading=0.0, vx=0.0, vy=0.0, z=0.0):
    return ObjectState((x, y, z), heading, (vx, vy, 0.0), BOX)


def obj(track_id, category, states_by_ts):
    return TrackedObject(track_id, DEFAULT_REGISTRY.category(category), states_by_ts)


def static_obj(track_id, category, x, y, heading=0.0, n=2, vx=0.0, vy=0.0):
    """An object that sits at (x, y) for the first n shared frames."""
    return obj(track_id, category, {ts: state(x, y, heading, vx, vy) for ts in stamps(n)})


def make_log(objects, n=2, log_id="log-test"):
    return TrackLog.build(log_id, stamps(n), objects)


def sset(entries) -> ScenarioSet:
    return ScenarioSet({t: frozenset(ts) for t, ts in entries.items()})


def as_dict(s: ScenarioSet) -> dict[str, set[int]]:
    """ScenarioSet -> plain {track: set(ts)} dict, the shape the oracles speak."""
    return {t: set(s.timestamps_for(t)) for t in s.tracks()}


def catalog_function_names(catalog_text: str) -> list[str]:
    """Function names announced by a catalog text (lines starting a signature)."""
    names = []
    for line in catalog_text.splitlines():
        if line and not line.startswith(" "):
            head = line.split("(", 1)
            if len(head) == 2 and head[0].isidentifier():
                names.append(head[0])
    return names


class FlakyProvider:
    """Wraps a provider, raising ProviderError on chosen call numbers (1-based)."""

    def __init__(self, inner: LlmProvider, fail_on: Iterable[int]):
        self._inner = inner
        self._fail_on = frozenset(fail_on)
        self.calls = 0

    def generate(self, prompt: str) -> str:
        self.calls += 1
        if self.calls in self._fail_on:
            raise ProviderError(f"injected transport failure on call {self.calls}")
        return self._inner.generate(prompt)
