"""Atomic scenario predicates and their callable registry.

Every predicate maps candidate scenario sets to a new ScenarioSet over the
same log. The convention throughout: ``track_candidates`` is the subject set
(the result is always a subset of it) and ``related_candidates`` is the
reference set it is tested against. Boundary comparisons are inclusive, an
object is never related to itself, and inputs are treated as immutable.
"""

from __future__ import annotations

import inspect
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .categories import DEFAULT_REGISTRY
from .errors import InvalidEnumValue, InvalidParameter
from .geometry import (
    BLOCK_ELEMENTS,
    Direction,
    body_offset,
    crosses_front_plane,
    in_cone,
    points_at,
    unsigned_turn,
    within_radius,
)
from .scenario_set import ScenarioSet
from .tracklog import TrackLog

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


# ---------------------------------------------------------------------------
# A predicate turns its candidate sets into masks over the log's arrays and its
# result back into a set, and works on masks in between. ``tc``/``rc`` are the
# log columns of the track/related candidates; a mask is [T, |tc|].


def _candidates(log: TrackLog, sset: ScenarioSet) -> tuple[np.ndarray, np.ndarray]:
    """The log columns of a set's tracks and the mask of its pairs that exist in the log."""
    entries, row = sset.entries, log.row
    tracks = [track for track in entries if track in log.column]
    width = len(tracks)
    mask = np.zeros((len(row), width), dtype=bool)
    mask.ravel()[[row[ts] * width + k for k, track in enumerate(tracks) for ts in entries[track] if ts in row]] = True
    cols = np.array([log.column[track] for track in tracks], dtype=np.intp)
    return cols, mask & log.present[:, cols]


def _scenario_set(log: TrackLog, cols: np.ndarray, mask: np.ndarray) -> ScenarioSet:
    track_ids, stamps = log.track_ids, log.timestamps
    tracks = [track_ids[col] for col in cols.tolist()]
    kept: dict[str, list[int]] = {}
    rows, ks = np.nonzero(mask)
    for row, k in zip(rows.tolist(), ks.tolist()):
        kept.setdefault(tracks[k], []).append(stamps[row])
    return ScenarioSet(kept)


def _relate(
    log: TrackLog,
    track_candidates: ScenarioSet,
    related: tuple[np.ndarray, np.ndarray],
    pair_test: Callable[[slice, np.ndarray, np.ndarray], np.ndarray],
    at_least: int = 1,
    at_most: float = math.inf,
) -> ScenarioSet:
    """Track pairs with between at_least (>= 1) and at_most related objects passing ``pair_test``.

    ``related`` is ``_candidates`` of the related candidates. ``pair_test(rows,
    tc, rc)`` answers for a block of frames; a log array indexed [rows, tc,
    None] gives the track side and [rows, None, rc] the related side. An
    object paired with itself, and related pairs outside the related
    candidates, never count.
    """
    tc, track_mask = _candidates(log, track_candidates)
    rc, related_mask = related
    if not (np.count_nonzero(track_mask) and np.count_nonzero(related_mask)):
        return ScenarioSet.empty()
    counts = np.zeros(track_mask.shape, dtype=np.intp)
    other = tc[:, None] != rc
    step = max(1, BLOCK_ELEMENTS // (tc.size * rc.size))
    for start in range(0, len(log.timestamps), step):
        rows = slice(start, start + step)
        # An offset between centres more than the largest float apart is +-inf, and inf - inf is
        # nan, as in the scalar definitions' Python floats, which do not warn either.
        with np.errstate(over="ignore", invalid="ignore"):
            passed = pair_test(rows, tc, rc)
        counts[rows] = (passed & other & related_mask[rows, None, :]).sum(axis=2)
    return _scenario_set(log, tc, track_mask & (at_least <= counts) & (counts <= at_most))


def _displacements(log: TrackLog, rows: slice, tc: np.ndarray, rc: np.ndarray):
    """Planar (dx, dy) from each track object to each related object."""
    return log.x[rows, None, rc] - log.x[rows, tc, None], log.y[rows, None, rc] - log.y[rows, tc, None]


def get_objects_of_category(log: TrackLog, category: str) -> ScenarioSet:
    """All objects of one category, at every timestamp where they exist."""
    DEFAULT_REGISTRY.category(category)  # raises UnknownCategory for names outside the vocabulary
    lifespans = log.lifespans
    return ScenarioSet(
        {track: lifespans[track] for track, kind in zip(log.track_ids, log.categories) if kind.name == category}
    )


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

    def seen(rows, tc, rc):
        lon, lat = body_offset(
            *_displacements(log, rows, tc, rc), log.cos_heading[rows, tc, None], log.sin_heading[rows, tc, None]
        )
        orthogonal = lat if direction in (Direction.FORWARD, Direction.BACKWARD) else lon
        return (
            in_cone(lon, lat, direction)
            & (np.abs(orthogonal) <= lateral_thresh)
            & within_radius(lon, lat, within_distance)
        )

    return _relate(log, track_candidates, _candidates(log, related_candidates), seen, min_number, max_number)


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
    last = len(log.timestamps) - 1
    rc, related_mask = _candidates(log, related_candidates)
    # [2, T, |rc|]: the related object is a candidate at both ends of the
    # segment from the frame before, and of the segment to the frame after.
    segment = related_mask[:-1] & related_mask[1:]
    none = np.zeros_like(segment[:1])
    segments = np.stack([np.concatenate([none, segment]), np.concatenate([segment, none])])

    def crossed(rows, tc, rc):
        frames = np.arange(last + 1)[rows]
        around = np.stack([np.maximum(frames - 1, 0), frames, np.minimum(frames + 1, last)])[..., None, None]
        lon, lat = body_offset(
            log.x[around, rc] - log.x[rows, tc, None],
            log.y[around, rc] - log.y[rows, tc, None],
            log.cos_heading[rows, tc, None],
            log.sin_heading[rows, tc, None],
        )
        crossing = crosses_front_plane(lon[:-1], lat[:-1], lon[1:], lat[1:], direction, lateral_band, forward_extent)
        return (crossing & segments[:, rows, None, :]).any(axis=0)

    return _relate(log, track_candidates, (rc, related_mask), crossed)


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
    moving = log.speed >= MIN_RELATION_SPEED

    def related(rows, tc, rc):
        delta = unsigned_turn(log.velocity_angle[rows, tc, None] - log.velocity_angle[rows, None, rc])
        if direction == "same":
            in_bin = delta < math.pi / 4
        elif direction == "opposite":
            in_bin = delta > 3 * math.pi / 4
        else:
            in_bin = np.abs(delta - math.pi / 2) <= math.pi / 4
        return in_bin & moving[rows, tc, None] & moving[rows, None, rc]

    return _relate(log, track_candidates, _candidates(log, related_candidates), related)


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

    def faces(rows, tc, rc):
        dx, dy = _displacements(log, rows, tc, rc)
        heading = log.heading[rows, tc, None]
        return within_radius(dx, dy, max_distance) & points_at(dx, dy, heading, within_angle)

    return _relate(log, track_candidates, _candidates(log, related_candidates), faces)


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

    def aims(rows, tc, rc):
        dx, dy = _displacements(log, rows, tc, rc)
        speed = log.speed[rows, tc, None]
        return (
            (speed >= minimum_speed)
            & (speed != 0.0)
            & within_radius(dx, dy, max_distance)
            & points_at(dx, dy, log.velocity_angle[rows, tc, None], within_angle)
        )

    return _relate(log, track_candidates, _candidates(log, related_candidates), aims)


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
    close = lambda rows, tc, rc: within_radius(*_displacements(log, rows, tc, rc), distance_thresh)  # noqa: E731
    return _relate(log, track_candidates, _candidates(log, related_candidates), close, min_objects)


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
    tc, mask = _candidates(log, track_candidates)
    speed = log.speed[:, tc]
    return _scenario_set(log, tc, mask & (min_velocity <= speed) & (speed <= max_velocity))


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
    tc, mask = _candidates(log, track_candidates)
    speed, present = log.speed[:, tc], log.present[:, tc]
    stamps = log.timestamps
    dt = np.array([(b - a) / NS_PER_SECOND for a, b in zip(stamps, stamps[1:])])
    mask[1:] &= present[:-1] & ((speed[1:] - speed[:-1]) / dt[:, None] <= -min_decel)
    mask[0] = False
    return _scenario_set(log, tc, mask)


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
# A function's own signature is the one declaration of its parameters' names,
# order and defaults; its entry adds only what a signature cannot say.

_REQUIRED = inspect.Parameter.empty

ROLE_TRACK = "track_candidates"
ROLE_RELATED = "related_candidates"

DIRECTION_VALUES = tuple(d.value for d in Direction)


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
class FunctionSpec:
    """Name, parameters, one-line semantics and implementation of a registry function.

    The interpreter calls ``impl(log, **arguments)`` with the log and the bound arguments.
    """

    name: str
    summary: str
    params: tuple[ParamSpec, ...]
    impl: Callable[..., ScenarioSet] = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def param(self, name: str) -> ParamSpec | None:
        for p in self.params:
            if p.name == name:
                return p
        return None


# The candidate parameters take their (kind, doc) from their name, and the name is their role.
_CANDIDATES = {
    ROLE_TRACK: ("scenario_set", "scenario set; the subject objects — the result is drawn from this set"),
    ROLE_RELATED: ("scenario_set", "scenario set; the reference objects tested against the track candidates"),
}
_ENUM_VALUES = {"direction": DIRECTION_VALUES, "relation": RELATIONS, "flag": ("false", "true")}


def _literal(default: object) -> object:
    """A Python default as the literal a program writes: a direction by its value, a bool as "false"/"true"."""
    if isinstance(default, Direction):
        return default.value
    if isinstance(default, bool):
        return "true" if default else "false"
    return default


def _spec(impl: Callable[..., ScenarioSet], summary: str, name: str | None = None, /, **declared) -> FunctionSpec:
    """The registry entry of ``impl(log, ...)``, with ``declared`` mapping each parameter to its (kind, doc).

    Raises TypeError when a declared parameter is not in the signature, or a
    parameter other than the candidates is not declared.
    """
    _log, *signature = inspect.signature(impl).parameters.values()
    name = name or impl.__name__
    names = {p.name for p in signature}
    unknown, undeclared = declared.keys() - names, names - declared.keys() - _CANDIDATES.keys()
    if unknown or undeclared:
        raise TypeError(
            f"{name}: declared parameters missing from the signature: {sorted(unknown)}; "
            f"parameters not declared: {sorted(undeclared)}"
        )
    params = []
    for p in signature:
        kind, doc = declared[p.name] if p.name in declared else _CANDIDATES[p.name]
        role = p.name if p.name in _CANDIDATES else None
        params.append(ParamSpec(p.name, kind, doc, _literal(p.default), _ENUM_VALUES.get(kind, ()), role))
    return FunctionSpec(name, summary, tuple(params), impl)


REGISTRY: dict[str, FunctionSpec] = {
    spec.name: spec
    for spec in (
        _spec(
            get_objects_of_category,
            "All objects of one category, at every timestamp where they exist.",
            category=("category", 'string category name, e.g. "REGULAR_VEHICLE"'),
        ),
        _spec(
            has_objects_in_relative_direction,
            "Track objects that have between min_number and max_number related objects in the given direction.",
            direction=("direction", "direction of the related candidates relative to the track candidates"),
            min_number=("int", "smallest count of related objects that qualifies"),
            max_number=("float", "largest count of related objects that qualifies"),
            within_distance=("float", "maximum planar center distance in meters"),
            lateral_thresh=("float", "maximum offset orthogonal to the direction axis, meters"),
        ),
        _spec(
            being_crossed_by,
            "Track objects whose direction axis is currently being crossed by a related object's motion.",
            direction=("direction", "which side of the track candidates is crossed"),
            lateral_band=("float", "half-width of the crossing corridor around the axis, meters"),
            forward_extent=("float", "how far from the object the crossing may occur, meters"),
        ),
        _spec(
            heading_in_relative_direction_to,
            "Track objects travelling in the same, opposite, or perpendicular direction as a related object.",
            direction=("relation", "travel-direction relation of the related candidates to the track candidates"),
        ),
        _spec(
            facing_toward,
            "Track objects whose heading points at some related object within a half-angle.",
            within_angle=("float", "half-angle of the facing cone, radians"),
            max_distance=("float", "maximum planar center distance in meters"),
        ),
        _spec(
            heading_toward,
            "Track objects whose velocity vector points at some related object.",
            within_angle=("float", "half-angle around the velocity vector, radians"),
            minimum_speed=("float", "smallest planar speed that counts as moving, m/s"),
            max_distance=("float", "maximum planar center distance in meters"),
        ),
        _spec(
            near_objects,
            "Track objects with at least min_objects related objects within a distance.",
            distance_thresh=("float", "maximum planar center distance in meters"),
            min_objects=("int", "smallest count of nearby related objects"),
        ),
        _spec(
            has_velocity,
            "Frames where a track's planar speed lies within a closed interval.",
            min_velocity=("float", "lower speed bound in m/s"),
            max_velocity=("float", "upper speed bound in m/s"),
        ),
        _spec(
            decelerating,
            "Frames where planar speed dropped by at least min_decel m/s^2 since the previous frame.",
            min_decel=("float", "deceleration threshold in m/s^2"),
        ),
        _spec(
            lambda log, a, b: scenario_and(a, b),
            "Pairs present in both scenario sets.",
            "scenario_and",
            a=("scenario_set", "scenario set; first operand"),
            b=("scenario_set", "scenario set; second operand"),
        ),
        _spec(
            lambda log, a, b: scenario_or(a, b),
            "Pairs present in either scenario set.",
            "scenario_or",
            a=("scenario_set", "scenario set; first operand"),
            b=("scenario_set", "scenario set; second operand"),
        ),
        _spec(
            lambda log, base, s: scenario_not(base, s),
            "Pairs of base that are not in s.",
            "scenario_not",
            base=("scenario_set", "scenario set; the universe to subtract from"),
            s=("scenario_set", "scenario set; the pairs to remove"),
        ),
        _spec(
            followed_by,
            "Pairs of second preceded by a first hit within a time window.",
            first=("scenario_set", "scenario set; the earlier event"),
            second=("scenario_set", "scenario set; the later event the result is drawn from"),
            within_seconds=("float", "largest allowed gap between the events, seconds"),
            cross_track=("flag", 'whether the first event may occur on a different track ("true" or "false")'),
        ),
    )
}


def _default_repr(value: object) -> object:
    if value is _REQUIRED:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def registry_catalog() -> list[dict]:
    """JSON-able view of the registry (names, parameters, defaults, roles)."""
    out = []
    for spec in REGISTRY.values():
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
