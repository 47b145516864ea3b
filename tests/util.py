"""Hand-rolled builders shared across test modules."""

from __future__ import annotations

import math
import random
from typing import Iterable

from hypothesis import strategies as st

from scenemine.categories import DEFAULT_REGISTRY
from scenemine.dsl import DslError, Program
from scenemine.errors import ProviderError
from scenemine.geometry import wrap_angle
from scenemine.predicates import REGISTRY
from scenemine.providers import LlmProvider, _validate_fixture
from scenemine.scenario_set import ScenarioSet
from scenemine.synth import _BOX
from scenemine.tracklog import ObjectState, TrackedObject, TrackLog, read_json

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


def from_pairs(pairs: Iterable[tuple[str, int]]) -> ScenarioSet:
    """The scenario set of (track, timestamp) pairs."""
    grouped: dict[str, set[int]] = {}
    for track, ts in pairs:
        grouped.setdefault(track, set()).add(ts)
    return ScenarioSet(grouped)


def issubset(a: ScenarioSet, b: ScenarioSet) -> bool:
    """Whether every pair of ``a`` is in ``b``."""
    return all(stamps <= b.timestamps_for(track) for track, stamps in a.entries.items())


def fragment_log(pred, gt) -> tuple[TrackLog, ScenarioSet, ScenarioSet]:
    """A log holding hand-written {track: {ts: centre}} fragments, and the pred and gt scenario sets they flag.

    A track with no frames is dropped. A track id used on both sides must
    have the same centre wherever both place it.
    """
    centres: dict[str, dict[int, tuple[float, float, float]]] = {}
    for side in (pred, gt):
        for track, frames in side.items():
            for ts, centre in frames.items():
                if centres.setdefault(track, {}).setdefault(ts, centre) != centre:
                    raise ValueError(f"track '{track}' has two centres at {ts}")
    timestamps = sorted({ts for frames in centres.values() for ts in frames} | {T0, T0 + DT})
    objects = [
        obj(track, "REGULAR_VEHICLE", {ts: state(x, y, z=z) for ts, (x, y, z) in frames.items()})
        for track, frames in centres.items()
    ]
    return TrackLog.build("fragments", timestamps, objects), sset(pred), sset(gt)


def as_dict(s: ScenarioSet) -> dict[str, set[int]]:
    """ScenarioSet -> plain {track: set(ts)} dict, the shape the oracles speak."""
    return {t: set(s.timestamps_for(t)) for t in s.tracks()}


def first_diagnostic(program: Program) -> DslError | None:
    """The diagnostic the checker raises first on ``program``, or None when the program checks clean."""
    try:
        program._plan
    except DslError as exc:
        return exc
    return None


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


def load_fixture(path: str) -> dict:
    """Read and validate a reply fixture file."""
    fixture = read_json(path, "fixture")
    _validate_fixture(fixture)
    return fixture


def random_track_log(seed: int, max_objects: int = 10, max_frames: int = 50) -> TrackLog:
    """A structurally valid but behaviourally arbitrary log."""
    return TrackLog.build(f"random-{seed:05d}", *random_track_objects(seed, max_objects, max_frames))


def random_track_objects(seed: int, max_objects: int = 10, max_frames: int = 50) -> tuple[tuple[int, ...], list[TrackedObject]]:
    """The timestamps and the objects random_track_log builds its log from."""
    rng = random.Random(seed)
    n_frames = rng.randint(4, max(4, max_frames))
    gaps = [rng.choice((1, 1, 1, 2, 3)) for _ in range(n_frames - 1)]
    timestamps = [T0]
    for g in gaps:
        timestamps.append(timestamps[-1] + g * DT)
    timestamps = tuple(timestamps)

    names = DEFAULT_REGISTRY.names
    objects = []
    for k in range(rng.randint(2, max(2, max_objects))):
        category = names[rng.randrange(len(names))]
        box = _BOX[category]
        start = rng.randrange(n_frames)
        length = rng.randint(1, n_frames - start)
        states = {}
        x, y = rng.uniform(-60, 60), rng.uniform(-60, 60)
        for ts in timestamps[start : start + length]:
            heading = wrap_angle(rng.uniform(-math.pi, math.pi))
            speed = rng.choice((0.0, 0.2, rng.uniform(0.6, 12.0)))
            states[ts] = ObjectState(
                position=(x, y, box[2] / 2.0),
                heading=heading,
                velocity=(speed * math.cos(heading), speed * math.sin(heading), 0.0),
                box_dims=box,
            )
            x += rng.uniform(-1.5, 1.5)
            y += rng.uniform(-1.5, 1.5)
        objects.append(TrackedObject(f"obj-{k:02d}", DEFAULT_REGISTRY.category(category), states))
    return timestamps, objects


# Offsets from an anchor at the origin around the 2 m at which centre-distance
# similarity reaches 0: exactly 2 m and one ulp either side, on an axis and in
# z alone; coincident; inside; two under 2 m by math.dist whose squares sum,
# in float arithmetic, to 4.0 or more; and two too far apart to square.
NEAR_OFFSETS = (
    (1.5e308, 0.0, 0.0),
    (-1.5e308, 0.0, 0.0),
    (2.0, 0.0, 0.0),
    (math.nextafter(2.0, 0.0), 0.0, 0.0),
    (math.nextafter(2.0, 3.0), 0.0, 0.0),
    (0.0, 0.0, -2.0),
    (0.0, 0.0, math.nextafter(2.0, 0.0)),
    (0.0, 0.0, 1.0),
    (0.0, 0.0, 0.0),
    (-1.0, 0.5, 0.25),
    (1.621342063065417, 1.1710038063707466, 0.0),
    (1.8393530254597295, -0.43907593341895196, 0.6511472739898521),
)


@st.composite
def near_pair_logs(draw) -> TrackLog:
    """A random_track_log's objects plus an anchor and probes at NEAR_OFFSETS from it, each in some frames only."""
    timestamps, objects = random_track_objects(draw(st.integers(0, 200)), max_objects=5, max_frames=8)
    some_frames = st.sets(st.sampled_from(timestamps), min_size=1)
    objects.append(obj("anchor", "REGULAR_VEHICLE", {ts: state(0.0, 0.0) for ts in draw(some_frames)}))
    for k, (x, y, z) in enumerate(draw(st.lists(st.sampled_from(NEAR_OFFSETS), max_size=4))):
        objects.append(obj(f"probe-{k}", "PEDESTRIAN", {ts: state(x, y, z=z) for ts in draw(some_frames)}))
    return TrackLog.build("near-pairs", timestamps, objects)


# Numbers a generated program passes: the extremes a model may write, and ordinary values.
EXTREMES = (0.0, -1.0, 5e-324, 1e308, math.inf, -math.inf)
NUMBERS = st.sampled_from(EXTREMES + (0.5, 1.0, 2.0, 3.0, 10.0, 50.0)) | st.floats(-100.0, 100.0)


def _render(value: float) -> str:
    return "inf" if value == math.inf else repr(value)


@st.composite
def programs(draw) -> str:
    """A random straight-line program of registry calls: it parses, and may fail the checker or execute()."""
    names: list[str] = []
    lines = []
    for i in range(draw(st.integers(1, 6))):
        spec = draw(st.sampled_from(list(REGISTRY.values()))) if names else REGISTRY["get_objects_of_category"]
        args = []
        for param in spec.params:
            if param.kind == "scenario_set":
                value = draw(st.sampled_from(names))
            elif not param.required and draw(st.booleans()):
                continue
            elif param.kind in ("float", "int"):
                value = _render(draw(NUMBERS))
            else:
                allowed = param.enum_values or DEFAULT_REGISTRY.names
                value = '"' + draw(st.sampled_from(tuple(allowed) + ("sideways",))) + '"'
            args.append(f"{param.name}={value}")
        names.append(f"v{i}")
        lines.append(f"v{i} = {spec.name}({', '.join(args)})")
    return "\n".join(lines + [f"output({names[-1]})"])
