"""Atomic scenario predicates and their callable registry.

Every predicate maps candidate scenario sets to a new ScenarioSet over the
same log. The convention throughout: ``track_candidates`` is the subject set
(the result is always a subset of it) and ``related_candidates`` is the
reference set it is tested against. Boundary comparisons are inclusive, an
object is never related to itself, and inputs are treated as immutable.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .categories import DEFAULT_REGISTRY, CategoryRegistry
from .errors import DegenerateGeometry, InvalidEnumValue, InvalidParameter
from .geometry import (
    Direction,
    bearing_angle,
    classify_direction,
    relative_offset,
    segment_crosses_front_plane,
    velocity_bearing_angle,
)
from .scenario_set import ScenarioSet
from .tracklog import ObjectState, TrackLog

MIN_RELATION_SPEED = 0.5  # m/s; slower objects have no meaningful travel direction
NS_PER_SECOND = 1_000_000_000

RELATIONS = ("same", "opposite", "perpendicular")


def _as_direction(value: Direction | str) -> Direction:
    if isinstance(value, Direction):
        return value
    try:
        return Direction(value)
    except ValueError:
        allowed = ", ".join(d.value for d in Direction)
        raise InvalidEnumValue(f"invalid direction '{value}'; allowed values: {allowed}") from None


def _positive(value: float, name: str) -> None:
    if not (value > 0):
        raise InvalidParameter(f"{name} must be > 0, got {value!r}")


def _planar_distance(a: ObjectState, b: ObjectState) -> float:
    return math.hypot(b.position[0] - a.position[0], b.position[1] - a.position[1])


def _states_by_timestamp(log: TrackLog, sset: ScenarioSet) -> dict[int, list[tuple[str, ObjectState]]]:
    """Index a candidate set as timestamp -> [(track_id, state)] for pair scans."""
    out: dict[int, list[tuple[str, ObjectState]]] = {}
    for track in sset.tracks():
        obj = log.objects.get(track)
        if obj is None:
            continue
        for ts in sset.timestamps_for(track):
            st = obj.states.get(ts)
            if st is not None:
                out.setdefault(ts, []).append((track, st))
    return out


def _candidate_states(log: TrackLog, sset: ScenarioSet):
    """Yield (track_id, ts, state) for every candidate pair that exists in the log."""
    for track in sset.tracks():
        obj = log.objects.get(track)
        if obj is None:
            continue
        for ts in sorted(sset.timestamps_for(track)):
            st = obj.states.get(ts)
            if st is not None:
                yield track, ts, st


def get_objects_of_category(
    log: TrackLog, category: str, categories: CategoryRegistry = DEFAULT_REGISTRY
) -> ScenarioSet:
    """All objects of one category, at every timestamp where they exist."""
    categories.category(category)  # raises UnknownCategory for names outside the registry
    entries = {
        obj.track_id: frozenset(obj.states)
        for obj in log.objects.values()
        if obj.category.name == category
    }
    return ScenarioSet(entries)


def has_objects_in_relative_direction(
    log: TrackLog,
    track_candidates: ScenarioSet,
    related_candidates: ScenarioSet,
    direction: Direction | str,
    min_number: int = 1,
    max_number: float = math.inf,
    within_distance: float = 50.0,
    lateral_thresh: float = math.inf,
) -> ScenarioSet:
    """Track objects that see between min_number and max_number related objects in a direction cone.

    A related object counts when its offset classifies into ``direction``,
    its planar distance is <= within_distance, and the offset coordinate
    orthogonal to the direction axis is <= lateral_thresh in magnitude.
    """
    direction = _as_direction(direction)
    if min_number < 1:
        raise InvalidParameter(f"min_number must be >= 1, got {min_number!r}")
    if max_number < min_number:
        raise InvalidParameter(f"max_number ({max_number!r}) must be >= min_number ({min_number!r})")
    _positive(within_distance, "within_distance")
    _positive(lateral_thresh, "lateral_thresh")

    related_at = _states_by_timestamp(log, related_candidates)
    lateral_axis = direction in (Direction.FORWARD, Direction.BACKWARD)
    kept: list[tuple[str, int]] = []
    for track, ts, state in _candidate_states(log, track_candidates):
        count = 0
        for other, other_state in related_at.get(ts, ()):
            if other == track:
                continue
            off = relative_offset(state, other_state)
            if off.distance > within_distance:
                continue
            orthogonal = off.lateral if lateral_axis else off.longitudinal
            if abs(orthogonal) > lateral_thresh:
                continue
            if classify_direction(off) == direction:
                count += 1
        if min_number <= count <= max_number:
            kept.append((track, ts))
    return ScenarioSet.from_pairs(kept)


def being_crossed_by(
    log: TrackLog,
    track_candidates: ScenarioSet,
    related_candidates: ScenarioSet,
    direction: Direction | str = Direction.FORWARD,
    lateral_band: float = 5.0,
    forward_extent: float = 10.0,
) -> ScenarioSet:
    """Track objects whose direction axis is being crossed by a related object's motion.

    A timestamp tau is kept when some related object has a displacement
    segment between consecutive log timestamps, with both endpoints in the
    related candidate set and one endpoint at tau, that crosses the track's
    direction axis within the band/extent window.
    """
    direction = _as_direction(direction)
    _positive(lateral_band, "lateral_band")
    _positive(forward_extent, "forward_extent")
    index_of = {ts: i for i, ts in enumerate(log.timestamps)}
    kept: list[tuple[str, int]] = []
    for track, ts, state in _candidate_states(log, track_candidates):
        i = index_of[ts]
        neighbors = []
        if i > 0:
            neighbors.append((log.timestamps[i - 1], ts))
        if i + 1 < len(log.timestamps):
            neighbors.append((ts, log.timestamps[i + 1]))
        hit = False
        for other in related_candidates.tracks():
            if other == track or hit:
                continue
            obj = log.objects.get(other)
            if obj is None:
                continue
            stamps = related_candidates.timestamps_for(other)
            for ts_a, ts_b in neighbors:
                if ts_a not in stamps or ts_b not in stamps:
                    continue
                st_a, st_b = obj.states.get(ts_a), obj.states.get(ts_b)
                if st_a is None or st_b is None:
                    continue
                if segment_crosses_front_plane(state, st_a, st_b, direction, lateral_band, forward_extent):
                    hit = True
                    break
        if hit:
            kept.append((track, ts))
    return ScenarioSet.from_pairs(kept)


def heading_in_relative_direction_to(
    log: TrackLog,
    track_candidates: ScenarioSet,
    related_candidates: ScenarioSet,
    direction: str,
) -> ScenarioSet:
    """Track objects whose travel direction relates to some related object's travel direction.

    The unsigned angle delta between the two planar velocities lands in one
    of three bins: same (delta < pi/4), opposite (delta > 3pi/4), or
    perpendicular (|delta - pi/2| <= pi/4). Frames where either object moves
    slower than 0.5 m/s are skipped.
    """
    if direction not in RELATIONS:
        raise InvalidEnumValue(f"invalid direction '{direction}'; allowed values: {', '.join(RELATIONS)}")
    related_at = _states_by_timestamp(log, related_candidates)
    kept: list[tuple[str, int]] = []
    for track, ts, state in _candidate_states(log, track_candidates):
        if state.planar_speed < MIN_RELATION_SPEED:
            continue
        angle_track = math.atan2(state.velocity[1], state.velocity[0])
        hit = False
        for other, other_state in related_at.get(ts, ()):
            if other == track:
                continue
            if other_state.planar_speed < MIN_RELATION_SPEED:
                continue
            angle_other = math.atan2(other_state.velocity[1], other_state.velocity[0])
            delta = abs(math.remainder(angle_track - angle_other, 2 * math.pi))
            if direction == "same":
                hit = delta < math.pi / 4
            elif direction == "opposite":
                hit = delta > 3 * math.pi / 4
            else:
                hit = abs(delta - math.pi / 2) <= math.pi / 4
            if hit:
                break
        if hit:
            kept.append((track, ts))
    return ScenarioSet.from_pairs(kept)


def facing_toward(
    log: TrackLog,
    track_candidates: ScenarioSet,
    related_candidates: ScenarioSet,
    within_angle: float = math.pi / 8,
    max_distance: float = 50.0,
) -> ScenarioSet:
    """Track objects whose heading points at some related object within a half-angle."""
    _positive(within_angle, "within_angle")
    _positive(max_distance, "max_distance")
    related_at = _states_by_timestamp(log, related_candidates)
    kept: list[tuple[str, int]] = []
    for track, ts, state in _candidate_states(log, track_candidates):
        hit = False
        for other, other_state in related_at.get(ts, ()):
            if other == track:
                continue
            if _planar_distance(state, other_state) > max_distance:
                continue
            try:
                if bearing_angle(state, other_state) <= within_angle:
                    hit = True
                    break
            except DegenerateGeometry:
                continue  # coincident positions cannot be faced
        if hit:
            kept.append((track, ts))
    return ScenarioSet.from_pairs(kept)


def heading_toward(
    log: TrackLog,
    track_candidates: ScenarioSet,
    related_candidates: ScenarioSet,
    within_angle: float = math.pi / 8,
    minimum_speed: float = 0.5,
    max_distance: float = 50.0,
) -> ScenarioSet:
    """Track objects whose velocity vector points at some related object."""
    _positive(within_angle, "within_angle")
    _positive(max_distance, "max_distance")
    if minimum_speed < 0:
        raise InvalidParameter(f"minimum_speed must be >= 0, got {minimum_speed!r}")
    related_at = _states_by_timestamp(log, related_candidates)
    kept: list[tuple[str, int]] = []
    for track, ts, state in _candidate_states(log, track_candidates):
        if state.planar_speed < minimum_speed or state.planar_speed == 0.0:
            continue
        hit = False
        for other, other_state in related_at.get(ts, ()):
            if other == track:
                continue
            if _planar_distance(state, other_state) > max_distance:
                continue
            try:
                if velocity_bearing_angle(state, other_state) <= within_angle:
                    hit = True
                    break
            except DegenerateGeometry:
                continue
        if hit:
            kept.append((track, ts))
    return ScenarioSet.from_pairs(kept)


def near_objects(
    log: TrackLog,
    track_candidates: ScenarioSet,
    related_candidates: ScenarioSet,
    distance_thresh: float = 10.0,
    min_objects: int = 1,
) -> ScenarioSet:
    """Track objects with at least min_objects related objects within a planar distance."""
    _positive(distance_thresh, "distance_thresh")
    if min_objects < 1:
        raise InvalidParameter(f"min_objects must be >= 1, got {min_objects!r}")
    related_at = _states_by_timestamp(log, related_candidates)
    kept: list[tuple[str, int]] = []
    for track, ts, state in _candidate_states(log, track_candidates):
        count = 0
        for other, other_state in related_at.get(ts, ()):
            if other != track and _planar_distance(state, other_state) <= distance_thresh:
                count += 1
        if count >= min_objects:
            kept.append((track, ts))
    return ScenarioSet.from_pairs(kept)


def has_velocity(
    log: TrackLog,
    track_candidates: ScenarioSet,
    min_velocity: float = 0.0,
    max_velocity: float = math.inf,
) -> ScenarioSet:
    """Frames where a track's planar speed lies within [min_velocity, max_velocity]."""
    if min_velocity < 0:
        raise InvalidParameter(f"min_velocity must be >= 0, got {min_velocity!r}")
    if max_velocity < min_velocity:
        raise InvalidParameter(
            f"max_velocity ({max_velocity!r}) must be >= min_velocity ({min_velocity!r})"
        )
    kept = [
        (track, ts)
        for track, ts, state in _candidate_states(log, track_candidates)
        if min_velocity <= state.planar_speed <= max_velocity
    ]
    return ScenarioSet.from_pairs(kept)


def decelerating(
    log: TrackLog,
    track_candidates: ScenarioSet,
    min_decel: float = 4.0,
) -> ScenarioSet:
    """Frames where planar speed dropped by at least min_decel m/s^2 since the previous frame.

    The acceleration is a backward finite difference over the log's shared
    timestamps, so a track's first frame (or a frame whose predecessor state
    is missing) is never kept.
    """
    _positive(min_decel, "min_decel")
    index_of = {ts: i for i, ts in enumerate(log.timestamps)}
    kept: list[tuple[str, int]] = []
    for track, ts, state in _candidate_states(log, track_candidates):
        i = index_of[ts]
        if i == 0:
            continue
        prev_ts = log.timestamps[i - 1]
        prev_state = log.objects[track].states.get(prev_ts)
        if prev_state is None:
            continue
        dt = (ts - prev_ts) / NS_PER_SECOND
        accel = (state.planar_speed - prev_state.planar_speed) / dt
        if accel <= -min_decel:
            kept.append((track, ts))
    return ScenarioSet.from_pairs(kept)


def scenario_and(a: ScenarioSet, b: ScenarioSet) -> ScenarioSet:
    """Pairwise intersection of two scenario sets."""
    return a.intersection(b)


def scenario_or(a: ScenarioSet, b: ScenarioSet) -> ScenarioSet:
    """Pairwise union of two scenario sets."""
    return a.union(b)


def scenario_not(base: ScenarioSet, s: ScenarioSet) -> ScenarioSet:
    """Pairs of ``base`` that are not in ``s``."""
    return base.difference(s)


def followed_by(
    log: TrackLog,
    first: ScenarioSet,
    second: ScenarioSet,
    within_seconds: float,
    cross_track: bool = False,
) -> ScenarioSet:
    """Pairs of ``second`` preceded by a ``first`` hit within a time window.

    A pair (t, tau) of second is kept when first holds at some tau' with
    0 < tau - tau' <= within_seconds, on the same track by default or on any
    track when cross_track is true.
    """
    _positive(within_seconds, "within_seconds")
    window = within_seconds * NS_PER_SECOND
    if not math.isfinite(window):
        raise InvalidParameter(f"within_seconds is too large for a time window, got {within_seconds!r}")
    window_ns = int(round(window))

    if cross_track:
        merged: list[int] = sorted({ts for _, ts in first.pairs()})
        sources: Callable[[str], Sequence[int]] = lambda _track: merged
    else:
        per_track = {track: sorted(first.timestamps_for(track)) for track in first.tracks()}
        sources = lambda track: per_track.get(track, ())

    kept: list[tuple[str, int]] = []
    for track, ts in second.pairs():
        stamps = sources(track)
        lo = bisect_left(stamps, ts - window_ns)
        hi = bisect_right(stamps, ts - 1)
        if hi > lo:
            kept.append((track, ts))
    return ScenarioSet.from_pairs(kept)


# ---------------------------------------------------------------------------
# Registry: the machine-readable catalog the DSL and prompt builder consume.

_REQUIRED = object()

ROLE_TRACK = "track_candidates"
ROLE_RELATED = "related_candidates"


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of a registry function."""

    name: str
    kind: str  # scenario_set | category | direction | relation | flag | float | int
    doc: str
    default: object = _REQUIRED
    enum_values: tuple[str, ...] = ()
    role: str | None = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


@dataclass(frozen=True)
class EvalContext:
    """Ambient state a registry call runs against."""

    log: TrackLog
    categories: CategoryRegistry = DEFAULT_REGISTRY


@dataclass(frozen=True)
class FunctionSpec:
    """Name, parameters, one-line semantics and implementation of a registry function."""

    name: str
    summary: str
    params: tuple[ParamSpec, ...]
    impl: Callable[..., ScenarioSet] = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def param(self, name: str) -> ParamSpec | None:
        for p in self.params:
            if p.name == name:
                return p
        return None


def _set_param(name: str, role: str | None, doc: str) -> ParamSpec:
    return ParamSpec(name, "scenario_set", doc, role=role)


_TRACK_DOC = "scenario set; the subject objects — the result is drawn from this set"
_RELATED_DOC = "scenario set; the reference objects tested against the track candidates"

DIRECTION_VALUES = tuple(d.value for d in Direction)


def _build_registry() -> dict[str, FunctionSpec]:
    specs = [
        FunctionSpec(
            "get_objects_of_category",
            "All objects of one category, at every timestamp where they exist.",
            (
                ParamSpec("category", "category", 'string category name, e.g. "REGULAR_VEHICLE"'),
            ),
            lambda ctx, category: get_objects_of_category(ctx.log, category, ctx.categories),
        ),
        FunctionSpec(
            "has_objects_in_relative_direction",
            "Track objects that have between min_number and max_number related objects in the given direction.",
            (
                _set_param("track_candidates", ROLE_TRACK, _TRACK_DOC),
                _set_param("related_candidates", ROLE_RELATED, _RELATED_DOC),
                ParamSpec(
                    "direction",
                    "direction",
                    "direction of the related candidates relative to the track candidates",
                    enum_values=DIRECTION_VALUES,
                ),
                ParamSpec("min_number", "int", "smallest count of related objects that qualifies", 1),
                ParamSpec("max_number", "float", "largest count of related objects that qualifies", math.inf),
                ParamSpec("within_distance", "float", "maximum planar center distance in meters", 50.0),
                ParamSpec("lateral_thresh", "float", "maximum offset orthogonal to the direction axis, meters", math.inf),
            ),
            lambda ctx, **kw: has_objects_in_relative_direction(ctx.log, **kw),
        ),
        FunctionSpec(
            "being_crossed_by",
            "Track objects whose direction axis is currently being crossed by a related object's motion.",
            (
                _set_param("track_candidates", ROLE_TRACK, _TRACK_DOC),
                _set_param("related_candidates", ROLE_RELATED, _RELATED_DOC),
                ParamSpec(
                    "direction",
                    "direction",
                    "which side of the track candidates is crossed",
                    Direction.FORWARD.value,
                    enum_values=DIRECTION_VALUES,
                ),
                ParamSpec("lateral_band", "float", "half-width of the crossing corridor around the axis, meters", 5.0),
                ParamSpec("forward_extent", "float", "how far from the object the crossing may occur, meters", 10.0),
            ),
            lambda ctx, **kw: being_crossed_by(ctx.log, **kw),
        ),
        FunctionSpec(
            "heading_in_relative_direction_to",
            "Track objects travelling in the same, opposite, or perpendicular direction as a related object.",
            (
                _set_param("track_candidates", ROLE_TRACK, _TRACK_DOC),
                _set_param("related_candidates", ROLE_RELATED, _RELATED_DOC),
                ParamSpec(
                    "direction",
                    "relation",
                    "travel-direction relation of the related candidates to the track candidates",
                    enum_values=RELATIONS,
                ),
            ),
            lambda ctx, **kw: heading_in_relative_direction_to(ctx.log, **kw),
        ),
        FunctionSpec(
            "facing_toward",
            "Track objects whose heading points at some related object within a half-angle.",
            (
                _set_param("track_candidates", ROLE_TRACK, _TRACK_DOC),
                _set_param("related_candidates", ROLE_RELATED, _RELATED_DOC),
                ParamSpec("within_angle", "float", "half-angle of the facing cone, radians", math.pi / 8),
                ParamSpec("max_distance", "float", "maximum planar center distance in meters", 50.0),
            ),
            lambda ctx, **kw: facing_toward(ctx.log, **kw),
        ),
        FunctionSpec(
            "heading_toward",
            "Track objects whose velocity vector points at some related object.",
            (
                _set_param("track_candidates", ROLE_TRACK, _TRACK_DOC),
                _set_param("related_candidates", ROLE_RELATED, _RELATED_DOC),
                ParamSpec("within_angle", "float", "half-angle around the velocity vector, radians", math.pi / 8),
                ParamSpec("minimum_speed", "float", "smallest planar speed that counts as moving, m/s", 0.5),
                ParamSpec("max_distance", "float", "maximum planar center distance in meters", 50.0),
            ),
            lambda ctx, **kw: heading_toward(ctx.log, **kw),
        ),
        FunctionSpec(
            "near_objects",
            "Track objects with at least min_objects related objects within a distance.",
            (
                _set_param("track_candidates", ROLE_TRACK, _TRACK_DOC),
                _set_param("related_candidates", ROLE_RELATED, _RELATED_DOC),
                ParamSpec("distance_thresh", "float", "maximum planar center distance in meters", 10.0),
                ParamSpec("min_objects", "int", "smallest count of nearby related objects", 1),
            ),
            lambda ctx, **kw: near_objects(ctx.log, **kw),
        ),
        FunctionSpec(
            "has_velocity",
            "Frames where a track's planar speed lies within a closed interval.",
            (
                _set_param("track_candidates", ROLE_TRACK, _TRACK_DOC),
                ParamSpec("min_velocity", "float", "lower speed bound in m/s", 0.0),
                ParamSpec("max_velocity", "float", "upper speed bound in m/s", math.inf),
            ),
            lambda ctx, **kw: has_velocity(ctx.log, **kw),
        ),
        FunctionSpec(
            "decelerating",
            "Frames where planar speed dropped by at least min_decel m/s^2 since the previous frame.",
            (
                _set_param("track_candidates", ROLE_TRACK, _TRACK_DOC),
                ParamSpec("min_decel", "float", "deceleration threshold in m/s^2", 4.0),
            ),
            lambda ctx, **kw: decelerating(ctx.log, **kw),
        ),
        FunctionSpec(
            "scenario_and",
            "Pairs present in both scenario sets.",
            (
                _set_param("a", None, "scenario set; first operand"),
                _set_param("b", None, "scenario set; second operand"),
            ),
            lambda ctx, a, b: scenario_and(a, b),
        ),
        FunctionSpec(
            "scenario_or",
            "Pairs present in either scenario set.",
            (
                _set_param("a", None, "scenario set; first operand"),
                _set_param("b", None, "scenario set; second operand"),
            ),
            lambda ctx, a, b: scenario_or(a, b),
        ),
        FunctionSpec(
            "scenario_not",
            "Pairs of base that are not in s.",
            (
                _set_param("base", None, "scenario set; the universe to subtract from"),
                _set_param("s", None, "scenario set; the pairs to remove"),
            ),
            lambda ctx, base, s: scenario_not(base, s),
        ),
        FunctionSpec(
            "followed_by",
            "Pairs of second preceded by a first hit within a time window.",
            (
                _set_param("first", None, "scenario set; the earlier event"),
                _set_param("second", None, "scenario set; the later event the result is drawn from"),
                ParamSpec("within_seconds", "float", "largest allowed gap between the events, seconds"),
                ParamSpec(
                    "cross_track",
                    "flag",
                    'whether the first event may occur on a different track ("true" or "false")',
                    "false",
                    enum_values=("false", "true"),
                ),
            ),
            lambda ctx, first, second, within_seconds, cross_track=False: followed_by(
                ctx.log, first, second, within_seconds, cross_track
            ),
        ),
    ]
    return {spec.name: spec for spec in specs}


REGISTRY: dict[str, FunctionSpec] = _build_registry()


def _default_repr(value: object) -> object:
    if value is _REQUIRED:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def registry_catalog(registry: Mapping[str, FunctionSpec] = REGISTRY) -> list[dict]:
    """JSON-able view of the registry (names, parameters, defaults, roles)."""
    out = []
    for spec in registry.values():
        out.append(
            {
                "name": spec.name,
                "summary": spec.summary,
                "params": [
                    {
                        "name": p.name,
                        "kind": p.kind,
                        "doc": p.doc,
                        "required": p.required,
                        "default": _default_repr(p.default),
                        "enum_values": list(p.enum_values),
                        "role": p.role,
                    }
                    for p in spec.params
                ],
            }
        )
    return out
