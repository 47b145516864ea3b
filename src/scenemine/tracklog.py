"""Tracked-object log data model and JSON file I/O.

A log is a sequence of shared timestamps (integer nanoseconds) plus a set of
tracked objects; each object carries a per-timestamp kinematic state. Files
are rejected with a diagnostic naming the violated schema field
(:class:`MalformedFile`) or structural invariant (:class:`InvariantViolation`).
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .categories import DEFAULT_REGISTRY, ObjectCategory
from .errors import InvariantViolation, MalformedFile
from .scenario_set import ScenarioSet

Vec3 = tuple[float, float, float]


def _check_vec3(value: Vec3, what: str) -> None:
    if len(value) != 3 or not all(math.isfinite(c) for c in value):
        raise InvariantViolation(f"{what} must be three finite numbers, got {value!r}")


@dataclass(frozen=True)
class ObjectState:
    """Kinematic state of one object at one timestamp.

    position is the 3D box center in meters, heading the planar yaw in
    (-pi, pi], velocity in m/s, box_dims the (length, width, height) extents.
    """

    position: Vec3
    heading: float
    velocity: Vec3
    box_dims: Vec3

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", tuple(float(c) for c in self.position))
        object.__setattr__(self, "velocity", tuple(float(c) for c in self.velocity))
        object.__setattr__(self, "box_dims", tuple(float(c) for c in self.box_dims))
        object.__setattr__(self, "heading", float(self.heading))
        _check_vec3(self.position, "position")
        _check_vec3(self.velocity, "velocity")
        _check_vec3(self.box_dims, "box_dims")
        if not math.isfinite(self.heading) or not (-math.pi < self.heading <= math.pi):
            raise InvariantViolation(f"heading must lie in (-pi, pi], got {self.heading!r}")
        if any(d <= 0 for d in self.box_dims):
            raise InvariantViolation(f"box_dims must all be > 0, got {self.box_dims!r}")

    @property
    def planar_speed(self) -> float:
        return math.hypot(self.velocity[0], self.velocity[1])


@dataclass(frozen=True)
class TrackedObject:
    """One object: an id, a category and a non-empty map timestamp -> state."""

    track_id: str
    category: ObjectCategory
    states: Mapping[int, ObjectState]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", {int(ts): st for ts, st in self.states.items()})
        if not self.track_id:
            raise InvariantViolation("track_id must be a non-empty string")
        if not self.states:
            raise InvariantViolation(f"object '{self.track_id}' has no states")


class LogColumns:
    """A log as [T, N] arrays: a row per log timestamp, a column per track id.

    Columns follow the sorted track ids. Where a track has no state,
    ``present`` is False and the values are 0. Cos and sin of the heading,
    the planar speed and the velocity angle atan2(vy, vx) come from ``math``,
    so array code built on them reproduces the scalar definitions exactly.
    """

    def __init__(self, log: TrackLog):
        self.track_ids = tuple(sorted(log.objects))
        self.row = {ts: i for i, ts in enumerate(log.timestamps)}
        self.column = {track: j for j, track in enumerate(self.track_ids)}
        rows, cols, values = [], [], []
        for j, track in enumerate(self.track_ids):
            for ts, st in log.objects[track].states.items():
                rows.append(self.row[ts])
                cols.append(j)
                h, (x, y, _), (vx, vy, _) = st.heading, st.position, st.velocity
                values.append((x, y, h, math.cos(h), math.sin(h), st.planar_speed, math.atan2(vy, vx)))
        table = np.zeros((7, len(self.row), len(self.track_ids)))
        table[:, rows, cols] = np.array(values).reshape(-1, 7).T
        self.x, self.y, self.heading, self.cos_heading, self.sin_heading, self.speed, self.velocity_angle = table
        self.present = np.zeros(table.shape[1:], dtype=bool)
        self.present[rows, cols] = True


@dataclass(frozen=True)
class TrackLog:
    """A log: id, strictly increasing shared timestamps, objects keyed by track id."""

    log_id: str
    timestamps: tuple[int, ...]
    objects: Mapping[str, TrackedObject] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", tuple(int(t) for t in self.timestamps))
        if not self.log_id:
            raise InvariantViolation("log_id must be a non-empty string")
        if len(self.timestamps) < 2:
            raise InvariantViolation(f"log '{self.log_id}' needs at least 2 timestamps, got {len(self.timestamps)}")
        for i in range(1, len(self.timestamps)):
            if self.timestamps[i] <= self.timestamps[i - 1]:
                raise InvariantViolation(
                    f"log '{self.log_id}' timestamps not strictly increasing at index {i}"
                )
        known = set(self.timestamps)
        for obj in self.objects.values():
            stray = [ts for ts in obj.states if ts not in known]
            if stray:
                raise InvariantViolation(
                    f"object '{obj.track_id}' has states at timestamps absent from the log: {sorted(stray)[:3]}"
                )

    @classmethod
    def build(cls, log_id: str, timestamps: Iterable[int], objects: Iterable[TrackedObject]) -> "TrackLog":
        """Construct from an object sequence, rejecting duplicate track ids."""
        by_id: dict[str, TrackedObject] = {}
        for obj in objects:
            if obj.track_id in by_id:
                raise InvariantViolation(f"duplicate track_id '{obj.track_id}'")
            by_id[obj.track_id] = obj
        return cls(log_id, tuple(timestamps), by_id)

    def state_of(self, track_id: str, ts: int) -> ObjectState | None:
        obj = self.objects.get(track_id)
        return None if obj is None else obj.states.get(ts)

    @functools.cached_property
    def columns(self) -> LogColumns:
        """The columnar view the predicates scan, built on first use and kept."""
        return LogColumns(self)


@dataclass(frozen=True)
class GroundTruthScenario:
    """Relevance annotation for one (query, log) pair."""

    query_text: str
    log_id: str
    relevant: ScenarioSet

    def validate_against(self, log: TrackLog) -> None:
        """Raise InvariantViolation if any relevant pair is missing from the log."""
        if log.log_id != self.log_id:
            raise InvariantViolation(f"ground truth targets log '{self.log_id}', got '{log.log_id}'")
        for track, ts in self.relevant.pairs():
            if log.state_of(track, ts) is None:
                raise InvariantViolation(
                    f"ground truth pair ({track!r}, {ts}) does not exist in log '{log.log_id}'"
                )


# ---------------------------------------------------------------------------
# JSON I/O


def read_text(path: str | Path, what: str) -> str:
    """A UTF-8 text file's contents; MalformedFile names the file when its bytes do not decode."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: {what} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path: str | Path, what: str) -> object:
    """A JSON file's value; MalformedFile names the file when it is not UTF-8 JSON."""
    try:
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path}: {what} is not valid JSON: {exc}") from exc


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write UTF-8 text through a temporary file, so the path never holds a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _require(raw: Mapping, key: str, kind: type | tuple[type, ...], where: str):
    if key not in raw:
        raise MalformedFile(f"{where}: missing required field '{key}'")
    value = raw[key]
    if not isinstance(value, kind):
        raise MalformedFile(f"{where}.{key}: expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def _float_triple(raw: object, where: str) -> Vec3:
    if not isinstance(raw, list) or len(raw) != 3 or not all(isinstance(c, (int, float)) for c in raw):
        raise MalformedFile(f"{where}: expected a list of 3 numbers")
    return (float(raw[0]), float(raw[1]), float(raw[2]))


def _parse_state(raw: object, where: str) -> ObjectState:
    if not isinstance(raw, dict):
        raise MalformedFile(f"{where}: expected an object")
    position = _float_triple(_require(raw, "position", list, where), f"{where}.position")
    heading = _require(raw, "heading", (int, float), where)
    velocity = _float_triple(_require(raw, "velocity", list, where), f"{where}.velocity")
    box_dims = _float_triple(_require(raw, "box_dims", list, where), f"{where}.box_dims")
    try:
        return ObjectState(position, float(heading), velocity, box_dims)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{where}: {exc}") from None


def load_log(path: str | Path) -> TrackLog:
    """Load a track log from JSON, enforcing the schema and all invariants."""
    path = Path(path)
    raw = read_json(path, "track log")
    if not isinstance(raw, dict):
        raise MalformedFile(f"{path.name}: top level must be an object")
    where = path.name
    log_id = _require(raw, "log_id", str, where)
    timestamps_raw = _require(raw, "timestamps", list, where)
    if not all(isinstance(t, int) and not isinstance(t, bool) for t in timestamps_raw):
        raise MalformedFile(f"{where}.timestamps: expected a list of integers")
    objects_raw = _require(raw, "objects", list, where)

    objects: list[TrackedObject] = []
    for i, obj_raw in enumerate(objects_raw):
        owhere = f"{where}.objects[{i}]"
        if not isinstance(obj_raw, dict):
            raise MalformedFile(f"{owhere}: expected an object")
        track_id = _require(obj_raw, "track_id", str, owhere)
        category_name = _require(obj_raw, "category", str, owhere)
        if category_name not in DEFAULT_REGISTRY:
            raise MalformedFile(
                f"{owhere}.category: unknown category '{category_name}' (registry has: {', '.join(DEFAULT_REGISTRY.names)})"
            )
        states_raw = _require(obj_raw, "states", dict, owhere)
        states: dict[int, ObjectState] = {}
        for ts_key, state_raw in states_raw.items():
            try:
                ts = int(ts_key)
            except ValueError:
                raise MalformedFile(f"{owhere}.states: key '{ts_key}' is not an integer timestamp") from None
            states[ts] = _parse_state(state_raw, f"{owhere}.states[{ts_key}]")
        try:
            objects.append(TrackedObject(track_id, DEFAULT_REGISTRY.category(category_name), states))
        except InvariantViolation as exc:
            raise InvariantViolation(f"{owhere}: {exc}") from None

    try:
        return TrackLog.build(log_id, timestamps_raw, objects)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{where}: {exc}") from None


def _log_to_json_dict(log: TrackLog) -> dict:
    objects = []
    for track_id in sorted(log.objects):
        obj = log.objects[track_id]
        states = {
            str(ts): {
                "position": list(st.position),
                "heading": st.heading,
                "velocity": list(st.velocity),
                "box_dims": list(st.box_dims),
            }
            for ts, st in sorted(obj.states.items())
        }
        objects.append({"track_id": obj.track_id, "category": obj.category.name, "states": states})
    return {"log_id": log.log_id, "timestamps": list(log.timestamps), "objects": objects}


def dump_log_text(log: TrackLog) -> str:
    """Deterministic JSON text for a log (numbers at full round-trip precision)."""
    return json.dumps(_log_to_json_dict(log), indent=2) + "\n"


def save_log(log: TrackLog, path: str | Path) -> None:
    """Write a log as JSON. Propagates OSError for unwritable paths."""
    write_text_atomic(path, dump_log_text(log))


def _ground_truth_from_dict(raw: object, where: str) -> GroundTruthScenario:
    if not isinstance(raw, dict):
        raise MalformedFile(f"{where}: expected an object with query_text/log_id/relevant")
    query_text = _require(raw, "query_text", str, where)
    log_id = _require(raw, "log_id", str, where)
    relevant_raw = _require(raw, "relevant", dict, where)
    relevant: dict[str, frozenset[int]] = {}
    for track, stamps in relevant_raw.items():
        if not isinstance(stamps, list) or not all(isinstance(t, int) and not isinstance(t, bool) for t in stamps):
            raise MalformedFile(f"{where}.relevant['{track}']: expected a list of integer timestamps")
        if not stamps:
            raise MalformedFile(f"{where}.relevant['{track}']: empty timestamp list (omit the track instead)")
        relevant[track] = frozenset(stamps)
    return GroundTruthScenario(query_text, log_id, ScenarioSet(relevant))


def load_ground_truth(path: str | Path) -> list[GroundTruthScenario]:
    """Load (query, log) relevance annotations: a JSON array, or one bare object."""
    path = Path(path)
    raw = read_json(path, "ground truth")
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list):
        raise MalformedFile(f"{path.name}: top level must be an array of annotations")
    entries = [
        _ground_truth_from_dict(item, f"{path.name}[{i}]") for i, item in enumerate(raw)
    ]
    seen: set[tuple[str, str]] = set()
    for entry in entries:
        key = (entry.query_text, entry.log_id)
        if key in seen:
            raise MalformedFile(
                f"{path.name}: duplicate annotation for query {entry.query_text!r} on log '{entry.log_id}'"
            )
        seen.add(key)
    return entries


def dump_ground_truth_text(entries: Iterable[GroundTruthScenario]) -> str:
    payload = [
        {
            "query_text": gt.query_text,
            "log_id": gt.log_id,
            "relevant": gt.relevant.to_json_dict(),
        }
        for gt in sorted(entries, key=lambda g: (g.query_text, g.log_id))
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_ground_truth(entries: Iterable[GroundTruthScenario], path: str | Path) -> None:
    write_text_atomic(path, dump_ground_truth_text(entries))
