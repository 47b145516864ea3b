"""Tracked-object log data model and JSON file I/O.

A log is a sequence of shared timestamps (integer nanoseconds) plus a set of
tracked objects; each object carries a per-timestamp kinematic state. A
:class:`TrackLog` holds all of it as [frames, tracks] arrays.
Files are rejected with a diagnostic naming the violated schema field
(:class:`MalformedFile`) or structural invariant (:class:`InvariantViolation`).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .categories import DEFAULT_REGISTRY, ObjectCategory
from .errors import InvariantViolation, MalformedFile
from .geometry import BLOCK_ELEMENTS, SIMILARITY_SCALE_M, center_distance_similarity
from .scenario_set import ScenarioSet

Vec3 = tuple[float, float, float]

# A squared centre distance numpy puts under this is a neighbour candidate: the
# bound is a little wider than SIMILARITY_SCALE_M, so rounding drops none.
_NEAR_SQUARED = (SIMILARITY_SCALE_M * (1 + 1e-9)) ** 2


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


class TrackLog:
    """A log as [T, N] arrays: a row per shared timestamp, a column per track id.

    ``timestamps`` are strictly increasing integer nanoseconds. Columns follow
    the sorted track ids, and ``categories`` holds each column's category.
    ``states`` is [10, T, N]: a state's position, heading, velocity and box
    dims in file order, also named ``x``, ``y``, ``z``, ``heading``, ``vx``,
    ``vy``, ``vz``, ``length``, ``width`` and ``height``. Where a track has no
    state, ``present`` is False and the values are 0. Cos and sin of the
    heading, the planar speed and the velocity angle atan2(vy, vx) come from
    ``math``, so array code built on them reproduces the scalar definitions
    exactly. Every array is read-only.

    :meth:`build` and :func:`load_log` check every invariant before they make one.
    """

    def __init__(
        self,
        log_id: str,
        timestamps: tuple[int, ...],
        tracks: Sequence[tuple[str, ObjectCategory]],
        owners: np.ndarray,
        rows: np.ndarray,
        values: np.ndarray,
    ):
        """State s, the column ``values[:, s]``, is of ``tracks[owners[s]]`` at ``timestamps[rows[s]]``."""
        self.log_id = log_id
        self.timestamps = timestamps
        order = sorted(range(len(tracks)), key=lambda k: tracks[k][0])
        self.track_ids = tuple(tracks[k][0] for k in order)
        self.categories = tuple(tracks[k][1] for k in order)
        self.row = {ts: i for i, ts in enumerate(timestamps)}
        self.column = {track: j for j, track in enumerate(self.track_ids)}
        column_of = np.empty(len(order), dtype=np.intp)
        column_of[order] = np.arange(len(order))
        cols = column_of[owners]
        heading, vx, vy = values[3].tolist(), values[4].tolist(), values[5].tolist()
        derived = (map(math.cos, heading), map(math.sin, heading), map(math.hypot, vx, vy), map(math.atan2, vy, vx))
        table = np.zeros((14, len(self.row), len(order)))
        table[:10, rows, cols] = values
        table[10:, rows, cols] = [list(d) for d in derived]
        self.present = np.zeros(table.shape[1:], dtype=bool)
        self.present[rows, cols] = True
        table.flags.writeable = self.present.flags.writeable = False
        self.states = table[:10]
        (
            self.x, self.y, self.z, self.heading, self.vx, self.vy, self.vz, self.length, self.width, self.height,
            self.cos_heading, self.sin_heading, self.speed, self.velocity_angle,
        ) = table

    @classmethod
    def build(cls, log_id: str, timestamps: Iterable[int], objects: Iterable[TrackedObject]) -> "TrackLog":
        """Construct from an object sequence, rejecting duplicate track ids and states at unknown timestamps."""
        by_id: dict[str, TrackedObject] = {}
        for obj in objects:
            if obj.track_id in by_id:
                raise InvariantViolation(f"duplicate track_id '{obj.track_id}'")
            by_id[obj.track_id] = obj
        timestamps = tuple(int(t) for t in timestamps)
        if not log_id:
            raise InvariantViolation("log_id must be a non-empty string")
        if len(timestamps) < 2:
            raise InvariantViolation(f"log '{log_id}' needs at least 2 timestamps, got {len(timestamps)}")
        for i in range(1, len(timestamps)):
            if timestamps[i] <= timestamps[i - 1]:
                raise InvariantViolation(f"log '{log_id}' timestamps not strictly increasing at index {i}")
        row = {ts: i for i, ts in enumerate(timestamps)}
        owners, rows, values = [], [], []
        for k, obj in enumerate(by_id.values()):
            stray = [ts for ts in obj.states if ts not in row]
            if stray:
                raise InvariantViolation(
                    f"object '{obj.track_id}' has states at timestamps absent from the log: {sorted(stray)[:3]}"
                )
            for ts, st in obj.states.items():
                owners.append(k)
                rows.append(row[ts])
                values.append((*st.position, st.heading, *st.velocity, *st.box_dims))
        tracks = [(obj.track_id, obj.category) for obj in by_id.values()]
        return cls(
            log_id, timestamps, tracks, np.array(owners, dtype=np.intp), np.array(rows, dtype=np.intp),
            np.array(values, dtype=np.float64).reshape(-1, 10).T,
        )

    def track_states(self) -> Iterator[tuple[str, ObjectCategory, list[int], list[list[float]]]]:
        """Per column: the track id, its category, the rows where it has a state and those states' values."""
        for j, (track, category) in enumerate(zip(self.track_ids, self.categories)):
            rows = np.flatnonzero(self.present[:, j])
            yield track, category, rows.tolist(), self.states[:, rows, j].T.tolist()

    @functools.cached_property
    def lifespans(self) -> Mapping[str, list[int]]:
        """Each track's timestamps where it has a state, in order, built on first use and kept."""
        stamps = self.timestamps
        return {
            track: [stamps[i] for i in np.flatnonzero(self.present[:, j]).tolist()]
            for j, track in enumerate(self.track_ids)
        }

    @functools.cached_property
    def neighbours(self) -> Mapping[str, Mapping[int, Sequence[tuple[str, float]]]]:
        """Each track's {timestamp: [(track, similarity), ...]} where it has a state, built on first use and kept.

        A timestamp lists, in track order, every track present there whose
        centre has a ``center_distance_similarity`` above 0 to this track's
        (the track itself, at 1.0, included), with that similarity, this
        track's centre first. A squared distance under a bound a little wider
        than SIMILARITY_SCALE_M picks the candidates, a block of frames at a
        time, so numpy's rounding can only add one; each candidate's
        similarity is then the scalar function's value.
        """
        stamps, ids, centres = self.timestamps, self.track_ids, (self.x, self.y, self.z)
        table: dict[str, dict[int, list[tuple[str, float]]]] = {track: {} for track in ids}
        step = max(1, BLOCK_ELEMENTS // max(1, len(ids) ** 2))
        for start in range(0, len(stamps), step):
            rows = slice(start, start + step)
            with np.errstate(over="ignore"):  # centres too far apart to square are no candidates
                dx, dy, dz = (v[rows, :, None] - v[rows, None, :] for v in centres)
                near = dx * dx + dy * dy + dz * dz < _NEAR_SQUARED
            here = self.present[rows]
            r, i, j = np.nonzero(near & here[:, :, None] & here[:, None, :])
            r += start
            columns = (r.tolist(), i.tolist(), j.tolist(), *(v[r, k].tolist() for k in (i, j) for v in centres))
            for row, a, b, ax, ay, az, bx, by, bz in zip(*columns):
                s = center_distance_similarity((ax, ay, az), (bx, by, bz))
                if s > 0.0:
                    table[ids[a]].setdefault(stamps[row], []).append((ids[b], s))
        return table

    @functools.cached_property
    def objects(self) -> Mapping[str, TrackedObject]:
        """Each track as a TrackedObject: a read-only mapping rebuilt from the arrays on first use."""
        objects = {}
        for track, category, rows, values in self.track_states():
            states = {
                self.timestamps[i]: ObjectState(tuple(v[0:3]), v[3], tuple(v[4:7]), tuple(v[7:10]))
                for i, v in zip(rows, values)
            }
            objects[track] = TrackedObject(track, category, states)
        return MappingProxyType(objects)

    def __eq__(self, other: object) -> bool:
        """Same id, timestamps, tracks and categories, and equal state values."""
        if not isinstance(other, TrackLog):
            return NotImplemented
        return (
            (self.log_id, self.timestamps, self.track_ids, self.categories)
            == (other.log_id, other.timestamps, other.track_ids, other.categories)
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.states, other.states)
        )


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
            j, i = log.column.get(track), log.row.get(ts)
            if j is None or i is None or not log.present[i, j]:
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
    """A JSON file's value; MalformedFile names the file when it is not UTF-8 JSON or nests too deeply to read."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path}: {what} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal longer than the interpreter converts
        raise MalformedFile(f"{path}: {what} holds a number that cannot be read: {exc}") from None
    except RecursionError:
        raise MalformedFile(f"{path}: {what} is nested too deeply to read") from None


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


def _float(value: int | float, where: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise MalformedFile(f"{where}: number too large for a float") from None


def _float_triple(raw: object, where: str) -> Vec3:
    if not isinstance(raw, list) or len(raw) != 3 or not all(type(c) in (int, float) for c in raw):  # no bool
        raise MalformedFile(f"{where}: expected a list of 3 numbers")
    return (_float(raw[0], where), _float(raw[1], where), _float(raw[2], where))


def _parse_state(raw: object, where: str) -> ObjectState:
    if not isinstance(raw, dict):
        raise MalformedFile(f"{where}: expected an object")
    position = _float_triple(_require(raw, "position", list, where), f"{where}.position")
    heading = _require(raw, "heading", (int, float), where)
    if isinstance(heading, bool):
        raise MalformedFile(f"{where}.heading: expected a number, got bool")
    velocity = _float_triple(_require(raw, "velocity", list, where), f"{where}.velocity")
    box_dims = _float_triple(_require(raw, "box_dims", list, where), f"{where}.box_dims")
    try:
        return ObjectState(position, _float(heading, f"{where}.heading"), velocity, box_dims)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{where}: {exc}") from None


_STATE_PARTS = operator.itemgetter("position", "heading", "velocity", "box_dims")


def _log_from_arrays(raw: object) -> TrackLog | None:
    """The log a parsed file holds, read into arrays in one pass and checked by array tests.

    None when any test fails. The tests pass only a file the state-by-state
    walk (``_walk_log``) reads to an equal log; they may also fail a file
    the walk accepts, such as one with no objects, which the walk then reads.
    """
    if type(raw) is not dict:
        return None
    log_id, stamps, objects = raw.get("log_id"), raw.get("timestamps"), raw.get("objects")
    if not (type(log_id) is str and log_id and type(stamps) is list and len(stamps) >= 2 and type(objects) is list):
        return None
    tracks, keys, states, counts = [], [], [], []
    for obj in objects:
        if type(obj) is not dict:
            return None
        track_id, category, by_key = obj.get("track_id"), obj.get("category"), obj.get("states")
        if not (
            type(track_id) is str and track_id and type(category) is str and category in DEFAULT_REGISTRY
            and type(by_key) is dict and by_key
        ):
            return None
        tracks.append((track_id, DEFAULT_REGISTRY.category(category)))
        keys += by_key
        states += by_key.values()
        counts.append(len(by_key))
    if not states or len({track for track, _ in tracks}) < len(tracks):
        return None
    try:
        key_stamps = list(map(int, keys))
        positions, headings, velocities, boxes = zip(*map(_STATE_PARTS, states))
    except (ValueError, TypeError, KeyError):  # a key not an integer, a state not an object or missing a field
        return None
    triples = positions + velocities + boxes
    if list(map(str, key_stamps)) != keys or set(map(type, triples)) != {list} or set(map(len, triples)) != {3}:
        return None
    numbers = list(itertools.chain.from_iterable(triples))
    numbers += headings
    if set(map(type, stamps)) != {int} or not set(map(type, numbers)) <= {int, float}:
        return None
    try:
        flat = np.array(numbers, dtype=np.float64)
        stamp_array = np.array(stamps, dtype=np.int64)
        key_array = np.array(key_stamps, dtype=np.int64)
    except OverflowError:
        return None
    s = len(states)
    position, velocity, box_dims = flat[: 9 * s].reshape(3, s, 3)
    heading = flat[9 * s:]
    if not (
        np.isfinite(flat).all() and (heading > -math.pi).all() and (heading <= math.pi).all() and (box_dims > 0).all()
        and (stamp_array[1:] > stamp_array[:-1]).all()
    ):
        return None
    rows = np.minimum(np.searchsorted(stamp_array, key_array), len(stamps) - 1)
    if not np.array_equal(stamp_array[rows], key_array):  # a state at a timestamp the log lacks
        return None
    owners = np.repeat(np.arange(len(tracks)), counts)
    values = np.vstack([position.T, heading, velocity.T, box_dims.T])
    return TrackLog(log_id, tuple(stamps), tracks, owners, rows, values)


def _walk_log(raw: object, where: str) -> TrackLog:
    """The log a parsed file holds, read state by state; raises naming the first fault it meets."""
    if not isinstance(raw, dict):
        raise MalformedFile(f"{where}: top level must be an object")
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
            if str(ts) != ts_key:  # else "01000" and "1000" would both name one timestamp
                raise MalformedFile(f"{owhere}.states: key '{ts_key}' is not a timestamp written as '{ts}'")
            states[ts] = _parse_state(state_raw, f"{owhere}.states[{ts_key}]")
        try:
            objects.append(TrackedObject(track_id, DEFAULT_REGISTRY.category(category_name), states))
        except InvariantViolation as exc:
            raise InvariantViolation(f"{owhere}: {exc}") from None

    try:
        return TrackLog.build(log_id, timestamps_raw, objects)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{where}: {exc}") from None


def load_log(path: str | Path) -> TrackLog:
    """Load a track log from JSON, enforcing the schema and all invariants.

    The file goes straight into arrays; only a file that fails an array
    test is walked state by state, to name its first fault.
    """
    path = Path(path)
    raw = read_json(path, "track log")
    log = _log_from_arrays(raw)
    return log if log is not None else _walk_log(raw, path.name)


_STATE_TEXT = """\
        "%s": {
          "position": [
            %r,
            %r,
            %r
          ],
          "heading": %r,
          "velocity": [
            %r,
            %r,
            %r
          ],
          "box_dims": [
            %r,
            %r,
            %r
          ]
        }"""
_OBJECT_TEXT = """\
    {
      "track_id": %s,
      "category": %s,
      "states": {
%s
      }
    }"""
_LOG_TEXT = """\
{
  "log_id": %s,
  "timestamps": [
%s
  ],
  "objects": %s
}
"""


def dump_log_text(log: TrackLog) -> str:
    """The log's JSON text, written from its columns as ``json.dumps(..., indent=2)`` lays it out.

    Strings go through ``json.dumps``; a state value is a finite float, whose
    ``repr`` is the text ``json`` writes for it (full round-trip precision).
    """
    keys = [str(ts) for ts in log.timestamps]
    objects = [
        _OBJECT_TEXT % (
            json.dumps(track), json.dumps(category.name),
            ",\n".join([_STATE_TEXT % (keys[i], *v) for i, v in zip(rows, values)]),
        )
        for track, category, rows, values in log.track_states()
    ]
    body = "[\n" + ",\n".join(objects) + "\n  ]" if objects else "[]"
    return _LOG_TEXT % (json.dumps(log.log_id), ",\n".join(["    " + key for key in keys]), body)


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
