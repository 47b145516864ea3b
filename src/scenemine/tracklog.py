"""Tracked-object log data model and JSON file I/O.

A log is a sequence of shared timestamps (integer nanoseconds) plus a set of
tracked objects; each object carries a per-timestamp kinematic state. A
:class:`TrackLog` holds all of it as [frames, tracks] arrays.
Files are rejected with a diagnostic naming the violated schema field
(:class:`MalformedFile`) or structural invariant (:class:`InvariantViolation`).
"""

from __future__ import annotations

import contextlib
import functools
import gc
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

from .categories import DEFAULT_REGISTRY
from .errors import InconsistentInput, InvariantViolation, MalformedFile
from .geometry import BLOCK_ELEMENTS, SIMILARITY_SCALE_M, center_distance_similarity
from .scenario_set import ScenarioSet

Vec3 = tuple[float, float, float]

# A squared centre distance numpy puts under this is a neighbour candidate: the
# bound is a little wider than SIMILARITY_SCALE_M, so rounding drops none.
_NEAR_SQUARED = (SIMILARITY_SCALE_M * (1 + 1e-9)) ** 2


def _state_fault(position: Vec3, heading: float, velocity: Vec3, box_dims: Vec3) -> str | None:
    """What a state's values break, the first broken invariant in the order they are checked; None if none."""
    for what, value in (("position", position), ("velocity", velocity), ("box_dims", box_dims)):
        if len(value) != 3 or not all(map(math.isfinite, value)):
            return f"{what} must be three finite numbers, got {value!r}"
    if not -math.pi < heading <= math.pi:
        return f"heading must lie in (-pi, pi], got {heading!r}"
    if min(box_dims) <= 0:
        return f"box_dims must all be > 0, got {box_dims!r}"
    return None


def _bad_states(values: np.ndarray) -> np.ndarray:
    """For each column of [10, S] state values, whether ``_state_fault`` finds a fault in it."""
    heading, box_dims = values[3], values[7:]
    bad = ~np.isfinite(values).all(axis=0) | (heading <= -math.pi) | (heading > math.pi)
    return bad | (box_dims <= 0).any(axis=0)


def _track_fault(track_id: str, states: Mapping) -> str | None:
    """What an object's id and states break, the first in the order they are checked; None if nothing."""
    if not track_id:
        return "track_id must be a non-empty string"
    if not states:
        return f"object '{track_id}' has no states"
    return None


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
        fault = _state_fault(self.position, self.heading, self.velocity, self.box_dims)
        if fault:
            raise InvariantViolation(fault)


@dataclass(frozen=True)
class TrackedObject:
    """One object: an id, a category name and a non-empty map timestamp -> state."""

    track_id: str
    category: str
    states: Mapping[int, ObjectState]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", {int(ts): st for ts, st in self.states.items()})
        fault = _track_fault(self.track_id, self.states)
        if fault:
            raise InvariantViolation(fault)


class TrackLog:
    """A log as [T, N] arrays: a row per shared timestamp, a column per track.

    ``timestamps`` are strictly increasing integer nanoseconds.
    ``category_names`` holds each column's category name (a category is its
    name) and ``first_rows`` each row's log's first row. ``states`` is
    [10, T, N]: a state's position, heading, velocity and box dims in file
    order, also named ``x``, ``y``, ``z``, ``heading``, ``vx``, ``vy``,
    ``vz``, ``length``, ``width`` and ``height``. Where a track has no state,
    ``present`` is False and the values are 0. ``cos_heading``,
    ``sin_heading``, the planar ``speed`` and the ``velocity_angle``
    atan2(vy, vx) are built together the first time one of them is read,
    and kept; they come from ``math`` at present cells, so array code built
    on them reproduces the scalar definitions exactly, and are 0 elsewhere.
    Every array is read-only.

    :meth:`from_arrays`, :meth:`build` and :func:`load_log` check every
    invariant, then make a log with its columns in track-id order, [N]
    ``category_names`` and ``first_rows`` of 0. :func:`pack_logs` makes a
    pack of logs with the same constructor.
    """

    def __init__(
        self,
        log_id: str,
        timestamps: tuple[int, ...],
        track_ids: tuple[str, ...],
        states: np.ndarray,
        present: np.ndarray,
        category_names: np.ndarray,
        first_rows: np.ndarray,
    ):
        """A log of its finished parts, unchecked; makes every array read-only and names the state rows.

        ``states`` is [10, T, N], ``present`` [T, N], ``category_names`` [N]
        (or [T, N] for a pack) and ``first_rows`` [T].
        """
        self.log_id, self.timestamps, self.track_ids = log_id, timestamps, track_ids
        self.row = {ts: i for i, ts in enumerate(timestamps)}
        self.column = {track: j for j, track in enumerate(track_ids)}
        for array in (states, present, category_names, first_rows):
            array.flags.writeable = False
        self.states, self.present = states, present
        self.category_names, self.first_rows = category_names, first_rows
        self.x, self.y, self.z, self.heading, self.vx, self.vy, self.vz, self.length, self.width, self.height = states

    @classmethod
    def from_arrays(
        cls,
        log_id: str,
        timestamps: Sequence[int],
        tracks: Sequence[tuple[str, str]],
        owners: np.ndarray,
        rows: np.ndarray,
        values: np.ndarray,
    ) -> "TrackLog":
        """The log whose state s, the column ``values[:, s]``, is of ``tracks[owners[s]]`` at ``timestamps[rows[s]]``.

        ``tracks`` are (track id, category name) pairs, as a log file has them.
        Rejects, in this order, a repeated track id or a category name outside
        the vocabulary, naming the first track with either; an empty log id,
        fewer than 2 timestamps, timestamps not strictly increasing, and ``owners``,
        ``rows`` and the columns of ``values`` differing in length or
        ``values`` without 10 rows, naming the lengths; ``owners``, then
        ``rows``, of a dtype other than integer, naming it, or with an index
        out of range, naming the first state that has it; then, in the column
        order of ``values``, the first state whose values are not finite, whose
        heading is outside (-pi, pi] or whose box has a dimension <= 0, and
        the first at the track and timestamp of an earlier state, naming its
        track and timestamp. The log's columns follow the sorted track ids.
        """
        seen: set[str] = set()
        for track, category in tracks:
            if track in seen:
                raise InvariantViolation(f"duplicate track_id '{track}'")
            if category not in DEFAULT_REGISTRY:
                raise InvariantViolation(
                    f"object '{track}': unknown category '{category}' (registry has: {', '.join(DEFAULT_REGISTRY.names)})"
                )
            seen.add(track)
        timestamps = tuple(int(t) for t in timestamps)
        if not log_id:
            raise InvariantViolation("log_id must be a non-empty string")
        if len(timestamps) < 2:
            raise InvariantViolation(f"log '{log_id}' needs at least 2 timestamps, got {len(timestamps)}")
        for i in range(1, len(timestamps)):
            if timestamps[i] <= timestamps[i - 1]:
                raise InvariantViolation(f"log '{log_id}' timestamps not strictly increasing at index {i}")
        if np.ndim(values) != 2 or len(values) != 10 or not len(owners) == len(rows) == values.shape[1]:
            raise InvariantViolation(
                f"log '{log_id}' has {len(owners)} owners, {len(rows)} rows and values of shape {np.shape(values)}; "
                "values needs 10 rows and one column per owner and row"
            )
        for what, index, size in (("owner", owners, len(tracks)), ("row", rows, len(timestamps))):
            if not np.issubdtype(index.dtype, np.integer):
                raise InvariantViolation(f"log '{log_id}' has {what}s of dtype {index.dtype}; they need an integer dtype")
            outside = (index < 0) | (index >= size)
            if outside.any():
                s = int(np.argmax(outside))
                raise InvariantViolation(f"log '{log_id}' state {s}: {what} {int(index[s])} is outside 0..{size - 1}")
        bad = _bad_states(values)
        if bad.any():
            s = int(np.argmax(bad))
            v = values[:, s].tolist()
            fault = _state_fault(tuple(v[0:3]), v[3], tuple(v[4:7]), tuple(v[7:10]))
            raise InvariantViolation(f"object '{tracks[owners[s]][0]}' state at {timestamps[rows[s]]}: {fault}")
        order = sorted(range(len(tracks)), key=lambda k: tracks[k][0])
        column_of = np.empty(len(order), dtype=np.intp)
        column_of[order] = np.arange(len(order))
        cols = column_of[owners]
        states = np.zeros((10, len(timestamps), len(order)))
        states[:, rows, cols] = values
        present = np.zeros(states.shape[1:], dtype=bool)
        present[rows, cols] = True
        if np.count_nonzero(present) < len(rows):  # a cell filled twice: name the first state not first in its cell
            s = np.setdiff1d(np.arange(len(rows)), np.unique(cols * len(timestamps) + rows, return_index=True)[1])[0]
            raise InvariantViolation(f"object '{tracks[owners[s]][0]}' has two states at {timestamps[rows[s]]}")
        return cls(
            log_id, timestamps, tuple(tracks[k][0] for k in order), states, present,
            np.array([tracks[k][1] for k in order], dtype=str), np.zeros(len(timestamps), dtype=np.intp),
        )

    @classmethod
    def build(cls, log_id: str, timestamps: Iterable[int], objects: Iterable[TrackedObject]) -> "TrackLog":
        """Construct from an object sequence through :meth:`_from_stamps`."""
        objects, timestamps = tuple(objects), tuple(int(t) for t in timestamps)
        row = {ts: i for i, ts in enumerate(timestamps)}
        stamps = [ts for obj in objects for ts in obj.states]
        states = [st for obj in objects for st in obj.states.values()]
        return cls._from_stamps(
            log_id, timestamps, [(obj.track_id, obj.category) for obj in objects],
            np.repeat(np.arange(len(objects)), [len(obj.states) for obj in objects]),
            np.fromiter(map(row.get, stamps, itertools.repeat(-1)), dtype=np.intp, count=len(stamps)), stamps,
            np.array([(*st.position, st.heading, *st.velocity, *st.box_dims) for st in states]).reshape(-1, 10).T,
        )

    @classmethod
    def _from_stamps(
        cls, log_id: str, timestamps: Sequence[int], tracks: Sequence[tuple[str, str]], owners: np.ndarray,
        rows: np.ndarray, stamps: Sequence[int | str], values: np.ndarray,
    ) -> "TrackLog":
        """:meth:`from_arrays`, where a row of -1 puts state s at ``stamps[s]``, a timestamp the log lacks; that fails last."""
        stray = rows < 0
        if not stray.any():
            return cls.from_arrays(log_id, timestamps, tracks, owners, rows, values)
        cls.from_arrays(log_id, timestamps, tracks, owners[~stray], rows[~stray], values[:, ~stray])
        k = owners[np.argmax(stray)]
        lost = sorted(int(stamps[s]) for s in np.flatnonzero(stray & (owners == k)))
        raise InvariantViolation(f"object '{tracks[k][0]}' has states at timestamps absent from the log: {lost[:3]}")

    def track_states(self) -> Iterator[tuple[str, str, list[int], list[list[float]]]]:
        """Per column of a log (not a pack): the track id, its category name, its rows with a state and their values."""
        for j, (track, category) in enumerate(zip(self.track_ids, self.category_names.tolist())):
            rows = np.flatnonzero(self.present[:, j])
            yield track, category, rows.tolist(), self.states[:, rows, j].T.tolist()

    @functools.cached_property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every (row, a, b, similarity) of two columns a != b present at a row whose centres' similarity is above 0.

        Four read-only arrays, in (row, a, b) order, built on first use and
        kept; the similarity is ``center_distance_similarity`` with a's
        centre first. A track's similarity to itself is exactly 1.0 and is
        never stored. A squared distance under a bound a little wider than
        SIMILARITY_SCALE_M picks the candidates, a block of frames at a time,
        so numpy's rounding can only add one; each candidate's similarity is
        then the scalar function's value.
        """
        centres = (self.x, self.y, self.z)
        width = len(self.track_ids)
        diagonal = np.arange(width)
        step = max(1, BLOCK_ELEMENTS // max(1, width**2))
        found: list[tuple[int, int, int, float]] = []
        for start in range(0, len(self.timestamps), step):
            rows = slice(start, start + step)
            with np.errstate(over="ignore"):  # centres too far apart to square are no candidates
                dx, dy, dz = (v[rows, :, None] - v[rows, None, :] for v in centres)
                near = dx * dx + dy * dy + dz * dz < _NEAR_SQUARED
            near[:, diagonal, diagonal] = False
            here = self.present[rows]
            r, i, j = np.nonzero(near & here[:, :, None] & here[:, None, :])
            r += start
            columns = (r.tolist(), i.tolist(), j.tolist(), *(v[r, k].tolist() for k in (i, j) for v in centres))
            for row, a, b, ax, ay, az, bx, by, bz in zip(*columns):
                s = center_distance_similarity((ax, ay, az), (bx, by, bz))
                if s > 0.0:
                    found.append((row, a, b, s))
        table = np.array(found, dtype=np.float64).reshape(-1, 4).T
        table = (*table[:3].astype(np.intp), table[3])  # indices under 2**53 are exact as floats
        for array in table:
            array.flags.writeable = False
        return table

    @functools.cached_property
    def _derived(self) -> np.ndarray:
        """[4, T, N], read-only: cos and sin of the heading, the speed and the velocity angle, from ``math``."""
        rows, cols = np.nonzero(self.present)
        heading, vx, vy = (v[rows, cols].tolist() for v in (self.heading, self.vx, self.vy))
        derived = np.zeros((4, *self.present.shape))
        derived[:, rows, cols] = [
            list(map(math.cos, heading)), list(map(math.sin, heading)),
            list(map(math.hypot, vx, vy)), list(map(math.atan2, vy, vx)),
        ]
        derived.flags.writeable = False
        return derived

    cos_heading = property(lambda self: self._derived[0])
    sin_heading = property(lambda self: self._derived[1])
    speed = property(lambda self: self._derived[2])
    velocity_angle = property(lambda self: self._derived[3])

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
            (self.log_id, self.timestamps, self.track_ids) == (other.log_id, other.timestamps, other.track_ids)
            and np.array_equal(self.category_names, other.category_names)
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
        """Raise InvariantViolation naming the first relevant pair, in ``pairs()`` order, missing from the log."""
        if log.log_id != self.log_id:
            raise InvariantViolation(f"ground truth targets log '{self.log_id}', got '{log.log_id}'")
        if np.count_nonzero(self.relevant.mask_on(log)) == len(self.relevant):
            return
        for track, ts in self.relevant.pairs():
            j, i = log.column.get(track), log.row.get(ts)
            if j is None or i is None or not log.present[i, j]:
                raise InvariantViolation(
                    f"ground truth pair ({track!r}, {ts}) does not exist in log '{log.log_id}'"
                )


# ---------------------------------------------------------------------------
# Packs: logs of one width run as one log

# A pack's all-absent separator row sits this long after one member's last row
# and before the next member's first, so a time step across it is a full
# second and a speed difference divided by it stays as small as the speeds.
_PACK_GAP_NS = 1_000_000_000


@dataclass(frozen=True)
class LogPack:
    """Logs with one track count, held as one log that a program runs on once.

    ``log`` holds each member's rows in order, with one all-absent separator
    row between members; column j holds each member's j-th track. Its
    timestamps start at 0 and keep each member's steps; its ``first_rows``
    hold each row's member's first row, and its ``category_names`` are
    [T, N]. Its log id joins the members' with "+", its columns are named
    by their numbers. A group of one log is that log itself, not a copy.
    """

    log: TrackLog
    members: tuple[TrackLog, ...]
    starts: tuple[int, ...]  # each member's first row in ``log``

    def split(self, result: ScenarioSet) -> dict[str, ScenarioSet]:
        """Each member's log id -> its rows of ``result``, a set on ``log``, as a set on that member.

        Each set's mask is a view of those rows of ``result``'s mask, not a copy.
        """
        mask = result.mask_on(self.log)
        return {
            member.log_id: ScenarioSet.from_mask(member, mask[start : start + len(member.timestamps)])
            for member, start in zip(self.members, self.starts)
        }


def pack_logs(logs: Sequence[TrackLog]) -> list[LogPack]:
    """The logs grouped by track count, each group packed into one log, groups in order of first appearance.

    Raises InconsistentInput naming a log id that two logs share.
    """
    groups: dict[int, list[TrackLog]] = {}
    seen: set[str] = set()
    for log in logs:
        if log.log_id in seen:
            raise InconsistentInput(f"duplicate log id '{log.log_id}'")
        seen.add(log.log_id)
        groups.setdefault(len(log.track_ids), []).append(log)
    return [_pack(group) for group in groups.values()]


def _pack(members: list[TrackLog]) -> LogPack:
    if len(members) == 1:
        return LogPack(members[0], (members[0],), (0,))
    width = len(members[0].track_ids)
    states, present, names, stamps, starts = [], [], [], [], []
    for member in members:
        if stamps:  # the separator row
            states.append(np.zeros((10, 1, width)))
            present.append(np.zeros((1, width), dtype=bool))
            names.append(np.full((1, width), ""))
            stamps.append(stamps[-1] + _PACK_GAP_NS)
        starts.append(len(stamps))
        shift = stamps[-1] + _PACK_GAP_NS - member.timestamps[0] if stamps else -member.timestamps[0]
        stamps += [ts + shift for ts in member.timestamps]
        states.append(member.states)
        present.append(member.present)
        names.append(np.broadcast_to(member.category_names, member.present.shape))
    first_rows = np.zeros(len(stamps), dtype=np.intp)
    first_rows[starts] = starts
    pack = TrackLog(
        "+".join(member.log_id for member in members), tuple(stamps), tuple(map(str, range(width))),
        np.concatenate(states, axis=1), np.concatenate(present), np.concatenate(names),
        np.maximum.accumulate(first_rows),
    )
    return LogPack(pack, tuple(members), tuple(starts))


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


def _check_state(key: str, raw: object, owhere: str) -> None:
    """Raise naming the first fault of the object at ``owhere``'s state at ``key``: key, fields, then values."""
    try:
        ts = int(key)
    except ValueError:
        raise MalformedFile(f"{owhere}.states: key '{key}' is not an integer timestamp") from None
    if str(ts) != key:  # else "01000" and "1000" would both name one timestamp
        raise MalformedFile(f"{owhere}.states: key '{key}' is not a timestamp written as '{ts}'")
    where = f"{owhere}.states[{key}]"
    if not isinstance(raw, dict):
        raise MalformedFile(f"{where}: expected an object")
    position = _float_triple(_require(raw, "position", list, where), f"{where}.position")
    heading = _require(raw, "heading", (int, float), where)
    if isinstance(heading, bool):
        raise MalformedFile(f"{where}.heading: expected a number, got bool")
    velocity = _float_triple(_require(raw, "velocity", list, where), f"{where}.velocity")
    box_dims = _float_triple(_require(raw, "box_dims", list, where), f"{where}.box_dims")
    fault = _state_fault(position, _float(heading, f"{where}.heading"), velocity, box_dims)
    if fault:
        raise InvariantViolation(f"{where}: {fault}")


def _object_header(raw: object, where: str) -> tuple[str, str, dict]:
    """An object's track id, category name and state map; MalformedFile names the first field at fault."""
    if not isinstance(raw, dict):
        raise MalformedFile(f"{where}: expected an object")
    track_id = _require(raw, "track_id", str, where)
    category = _require(raw, "category", str, where)
    if category not in DEFAULT_REGISTRY:
        raise MalformedFile(
            f"{where}.category: unknown category '{category}' (registry has: {', '.join(DEFAULT_REGISTRY.names)})"
        )
    return track_id, category, _require(raw, "states", dict, where)


_STATE_PARTS = operator.itemgetter("position", "heading", "velocity", "box_dims")


def _state_values(keys: list[str], states: list, row: Mapping[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Each state's row, -1 at a timestamp the log lacks, and the states' [10, S] values, read in bulk.

    ``row`` maps each of the log's timestamps, written as ``str`` writes it,
    to its row. Raises ValueError, TypeError, KeyError or OverflowError,
    naming no state, unless ``_check_state`` passes every key and state.
    """
    rows = np.fromiter(map(row.get, keys, itertools.repeat(-1)), dtype=np.intp, count=len(keys))
    missed = list(itertools.compress(keys, (rows < 0).tolist()))
    if list(map(str, map(int, missed))) != missed:  # a key the log lacks is a fault unless written as a timestamp
        raise ValueError("a key is at fault")
    parts = list(itertools.chain.from_iterable(map(_STATE_PARTS, states)))
    triples = parts[0::4] + parts[2::4] + parts[3::4]  # positions, velocities, box dims
    if not set(map(type, triples)) <= {list} or not set(map(len, triples)) <= {3}:
        raise ValueError("a state field is at fault")
    numbers = list(itertools.chain.from_iterable(triples))
    numbers += parts[1::4]  # headings
    if not set(map(type, numbers)) <= {int, float}:  # numpy would read true, null or "1.5" as a number
        raise ValueError("a state number is at fault")
    flat = np.array(numbers, dtype=np.float64)
    s = len(states)
    position, velocity, box_dims = flat[: 9 * s].reshape(3, s, 3)
    values = np.vstack([position.T, flat[9 * s:], velocity.T, box_dims.T])
    if _bad_states(values).any():
        raise ValueError("a state's values are at fault")
    return rows, values


def _read_log(raw: object, where: str) -> TrackLog:
    """The log a parsed file holds, read into arrays; raises naming the first fault in file order.

    A header's fault, or an object's empty id or state map, is held until
    the states before it are checked; ``_state_values`` finds whether any is
    at fault, and only then does ``_check_state`` name the first. A key that
    is a timestamp the log lacks fails after every other check.
    """
    if not isinstance(raw, dict):
        raise MalformedFile(f"{where}: top level must be an object")
    log_id = _require(raw, "log_id", str, where)
    stamps = _require(raw, "timestamps", list, where)
    if not set(map(type, stamps)) <= {int}:
        raise MalformedFile(f"{where}.timestamps: expected a list of integers")
    objects = _require(raw, "objects", list, where)
    tracks, keys, states, counts, held = [], [], [], [], None
    for i, obj in enumerate(objects):
        owhere = f"{where}.objects[{i}]"
        try:
            track_id, category, by_key = _object_header(obj, owhere)
        except MalformedFile as exc:
            held = exc
            break
        tracks.append((track_id, category))
        keys += by_key
        states += by_key.values()
        counts.append(len(by_key))
        fault = _track_fault(track_id, by_key)
        if fault:  # raised after this object's own states are checked
            held = InvariantViolation(f"{owhere}: {fault}")
            break
    try:
        rows, values = _state_values(keys, states, {str(ts): i for i, ts in enumerate(stamps)})
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        failed = exc
    else:
        failed = None
    if failed is not None:  # some key or state is at fault: name the first
        for i, obj in enumerate(objects[: len(counts)]):
            for key, state in obj["states"].items():
                _check_state(key, state, f"{where}.objects[{i}]")
        raise failed  # not reached: the bulk read fails only where a check names a fault
    if held is not None:
        raise held
    owners = np.repeat(np.arange(len(tracks)), counts)
    try:
        return TrackLog._from_stamps(log_id, stamps, tracks, owners, rows, keys, values)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{where}: {exc}") from None


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Turn the cyclic garbage collector off for the block, and back on after it, if it was on."""
    if not gc.isenabled():  # off by the caller's choice, or during another thread's load
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def load_log(path: str | Path) -> TrackLog:
    """Load a track log from JSON, enforcing the schema and all invariants.

    One reader takes every file straight into arrays, one pass per job;
    only when bulk tests find a key or state at fault are the states
    checked one by one, to name the first fault in file order. The log's
    heading and speed columns are left to the first predicate that reads
    them.

    The cyclic garbage collector is paused while the file is parsed and read,
    and left on or off as it was found, whether the load returns or raises.
    The parsed file is a tree of dicts and lists, tens of thousands for an
    Argoverse-sized log, with no cycles: reference counting frees it, and a
    collection could only scan it.
    """
    path = Path(path)
    with _collector_paused():
        raw = read_json(path, "track log")
        log = _read_log(raw, path.name)
        del raw  # freed here, before the collector resumes
    return log


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
            json.dumps(track), json.dumps(category),
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
        if not isinstance(stamps, list) or not set(map(type, stamps)) <= {int}:
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
