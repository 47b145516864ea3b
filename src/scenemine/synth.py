"""Synthetic track logs with certified ground truth.

Each template lays out a small scene in canonical coordinates where one
mining program provably holds for declared tracks and frames, with clear
margin on every threshold it touches. The whole layout is then rotated and
translated by a seeded rigid transform (every predicate is invariant to
that), slow far-away distractors are sprinkled on an outer ring, and the
declared ground truth is certified by actually running the program on the
finished log -- any mismatch is a generation bug and raises InfeasibleSpec.
``generate_scenario_log`` runs the program on that log alone; a caller that
runs it anyway, as the ablation suite does on its packed logs, builds with
``build_scenario_log`` and hands what the program mined to ``certify``.

Templates produce positive logs (the scenario occurs) and negative variants
(same cast, scenario never occurs), which gives retrieval metrics real
negatives to chew on.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .dsl import interpret, parse
from .errors import InfeasibleSpec
from .geometry import wrap_angle
from .scenario_set import ScenarioSet
from .tracklog import (
    GroundTruthScenario,
    TrackLog,
    dump_ground_truth_text,
    dump_log_text,
    write_text_atomic,
)

DT_NS = 100_000_000  # 100 ms frame spacing
BASE_TS = 1_000_000_000

_BOX = {
    "REGULAR_VEHICLE": (4.0, 2.0, 1.6),
    "PEDESTRIAN": (0.8, 0.8, 1.8),
    "BUS": (12.0, 3.0, 3.2),
    "TRUCK": (8.0, 2.6, 3.0),
    "BICYCLIST": (1.8, 0.8, 1.6),
    "MOTORCYCLIST": (2.2, 0.9, 1.5),
    "EGO_VEHICLE": (4.6, 2.0, 1.7),
}

_DISTRACTOR_CATEGORIES = ("TRUCK", "BICYCLIST", "MOTORCYCLIST")
_DISTRACTOR_RADIUS = 400.0
_DISTRACTOR_SPACING = 60.0
_DISTRACTOR_SPEED = 0.35  # below the 0.5 m/s moving threshold

TEMPLATES = (
    "relative_direction",
    "crossing",
    "facing",
    "heading_toward",
    "near",
    "braking_sequence",
    "compound",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """What to generate: a template, a seed, and optional knob overrides."""

    template: str
    seed: int
    num_frames: int = 10
    negative: bool = False
    num_distractors: int = 3
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def log_id(self) -> str:
        suffix = "-neg" if self.negative else ""
        return f"{self.template}-{self.seed:04d}{suffix}"


@dataclass(frozen=True)
class SynthResult:
    spec: ScenarioSpec
    log: TrackLog
    ground_truth: GroundTruthScenario
    query: str
    program: str

    @functools.cached_property
    def log_text(self) -> str:
        """The log's JSON text, rendered on first use and kept."""
        return dump_log_text(self.log)

    @functools.cached_property
    def manifest(self) -> dict:
        """How the log was made, with the SHA-256 of ``log_text``; built on first use and kept."""
        spec = self.spec
        return {
            "log_id": spec.log_id,
            "template": spec.template,
            "seed": spec.seed,
            "negative": spec.negative,
            "num_frames": spec.num_frames,
            "num_distractors": spec.num_distractors,
            "params": dict(spec.params),
            "query": self.query,
            "program": self.program,
            "expected": self.ground_truth.relevant.to_json_dict(),
            "log_sha256": hashlib.sha256(self.log_text.encode("utf-8")).hexdigest(),
        }


# ---------------------------------------------------------------------------
# Layout plumbing. Frames are (x, y, heading, vx, vy) in canonical coordinates.


@dataclass
class _Actor:
    track_id: str
    category: str
    frames: list  # one (x, y, heading, vx, vy) per frame index


@dataclass
class _Layout:
    actors: list
    program: str
    query: str
    expected: Mapping[str, Sequence[int]]  # track id -> frame indices


def _static(track_id: str, category: str, x: float, y: float, heading: float, n: int) -> _Actor:
    return _Actor(track_id, category, [(x, y, heading, 0.0, 0.0)] * n)


def _cruising(
    track_id: str, category: str, x: float, y: float, heading: float, speed: float, n: int
) -> _Actor:
    vx, vy = speed * math.cos(heading), speed * math.sin(heading)
    dt = DT_NS / 1e9
    frames = [(x + vx * dt * i, y + vy * dt * i, heading, vx, vy) for i in range(n)]
    return _Actor(track_id, category, frames)


def _speed_profile(
    track_id: str, category: str, x: float, y: float, heading: float, speeds: Sequence[float]
) -> _Actor:
    ux, uy = math.cos(heading), math.sin(heading)
    dt = DT_NS / 1e9
    frames = []
    for speed in speeds:
        frames.append((x, y, heading, speed * ux, speed * uy))
        x, y = x + speed * ux * dt, y + speed * uy * dt
    return _Actor(track_id, category, frames)


def _num(params: Mapping, key: str, default: float) -> float:
    value = params.get(key, default)
    if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
        raise InfeasibleSpec(f"parameter '{key}' must be a positive number, got {value!r}")
    return float(value)


def _literal(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _all(n: int) -> range:
    return range(n)


# ---------------------------------------------------------------------------
# Templates


def _build_relative_direction(params: Mapping, n: int, negative: bool) -> _Layout:
    direction = params.get("direction", "left")
    offsets = {
        # (ped offset from the vehicle); ~14 degrees off the cone axis
        "left": (0.25, 1.0),
        "right": (0.25, -1.0),
        "forward": (1.0, 0.25),
        "backward": (-1.0, -0.25),
    }
    if direction not in offsets:
        raise InfeasibleSpec(f"unsupported direction {direction!r} for relative_direction")
    within = _num(params, "within_distance", 20.0)
    gap = 0.4 * within  # ped distance ~0.41*within, comfortably inside
    ux, uy = offsets[direction]
    flip = {"left": (0.25, -1.0), "right": (0.25, 1.0), "forward": (-1.0, 0.25), "backward": (1.0, -0.25)}
    if negative:
        ux, uy = flip[direction]  # same range, opposite cone: never matches

    actors = [
        _static("veh-a", "REGULAR_VEHICLE", 0.0, 0.0, 0.0, n),
        _static("ped-a", "PEDESTRIAN", ux * gap, uy * gap, math.pi / 2, n),
        # same cone axis but 1.5x beyond the distance bound
        _static("ped-far", "PEDESTRIAN", ux * 1.5 * within, uy * 1.5 * within, math.pi / 2, n),
        _static("veh-b", "REGULAR_VEHICLE", 40.0, -40.0, 0.0, n),
    ]
    program = (
        'vehicles = get_objects_of_category(category="REGULAR_VEHICLE")\n'
        'peds = get_objects_of_category(category="PEDESTRIAN")\n'
        f'flagged = has_objects_in_relative_direction(track_candidates=vehicles, related_candidates=peds, direction="{direction}", within_distance={_literal(within)})\n'
        "output(flagged)\n"
    )
    query = (
        f"vehicles that have at least one pedestrian to their {direction.replace('forward', 'front').replace('backward', 'rear')} "
        f"within {_literal(within)} meters"
    )
    expected = {} if negative else {"veh-a": _all(n)}
    return _Layout(actors, program, query, expected)


def _build_crossing(params: Mapping, n: int, negative: bool) -> _Layout:
    extent = _num(params, "forward_extent", 10.0)
    cross_x = 0.6 * extent
    step = 0.16  # metres southward per frame; sign flips between frames 2 and 3
    ped_frames = []
    speed = step / (DT_NS / 1e9)
    for i in range(n):
        y = 0.4 + step * i if negative else 0.4 - step * i
        vy = speed if negative else -speed
        ped_frames.append((cross_x, y, -math.pi / 2 if not negative else math.pi / 2, 0.0, vy))

    actors = [
        _static("veh-a", "REGULAR_VEHICLE", 0.0, 0.0, 0.0, n),
        _Actor("ped-a", "PEDESTRIAN", ped_frames),
        # same walk far behind the vehicle: crossing point off the kept span
        _Actor(
            "ped-behind",
            "PEDESTRIAN",
            [(-.6 * extent, y, h, vx, vy) for (_x, y, h, vx, vy) in ped_frames],
        ),
        _static("veh-b", "REGULAR_VEHICLE", -30.0, 25.0, 1.0, n),
    ]
    program = (
        'vehicles = get_objects_of_category(category="REGULAR_VEHICLE")\n'
        'peds = get_objects_of_category(category="PEDESTRIAN")\n'
        f'crossed = being_crossed_by(track_candidates=vehicles, related_candidates=peds, direction="forward", forward_extent={_literal(extent)})\n'
        "output(crossed)\n"
    )
    query = f"vehicles whose forward path is being cut across by a pedestrian within {_literal(extent)} meters"
    expected = {} if negative else {"veh-a": (2, 3)}
    return _Layout(actors, program, query, expected)


def _build_facing(params: Mapping, n: int, negative: bool) -> _Layout:
    within_angle = _num(params, "within_angle", 0.4)
    max_distance = _num(params, "max_distance", 30.0)
    d = 0.4 * max_distance
    heading = math.pi / 2 if negative else 0.0  # negative: look north, ped is east

    actors = [
        _static("veh-a", "REGULAR_VEHICLE", 0.0, 0.0, heading, n),
        # ~0.1 rad off the vehicle's nose, i.e. at a quarter of the default cone
        _static("ped-a", "PEDESTRIAN", d, 0.1 * d, math.pi / 2, n),
        _static("veh-b", "REGULAR_VEHICLE", 0.0, 0.9 * max_distance, 0.0, n),
    ]
    program = (
        'vehicles = get_objects_of_category(category="REGULAR_VEHICLE")\n'
        'peds = get_objects_of_category(category="PEDESTRIAN")\n'
        f"oriented = facing_toward(track_candidates=vehicles, related_candidates=peds, within_angle={_literal(within_angle)}, max_distance={_literal(max_distance)})\n"
        "output(oriented)\n"
    )
    query = f"vehicles oriented toward a pedestrian within {_literal(max_distance)} meters"
    expected = {} if negative else {"veh-a": _all(n)}
    return _Layout(actors, program, query, expected)


def _build_heading_toward(params: Mapping, n: int, negative: bool) -> _Layout:
    within_angle = _num(params, "within_angle", 0.4)
    max_distance = _num(params, "max_distance", 40.0)
    speed_angle = math.atan2(0.3, 5.0)
    heading = wrap_angle(speed_angle + math.pi) if negative else speed_angle
    velocity = (-5.0, -0.3) if negative else (5.0, 0.3)

    dt = DT_NS / 1e9
    veh_frames = [
        (velocity[0] * dt * i, velocity[1] * dt * i, heading, velocity[0], velocity[1])
        for i in range(n)
    ]
    actors = [
        _Actor("veh-a", "REGULAR_VEHICLE", veh_frames),
        _static("ped-a", "PEDESTRIAN", 15.0, 1.2, math.pi / 2, n),
        # veh-b drives away from the pedestrian at matching speed
        _cruising("veh-b", "REGULAR_VEHICLE", 30.0, 0.0, 0.0, 4.0, n),
    ]
    program = (
        'vehicles = get_objects_of_category(category="REGULAR_VEHICLE")\n'
        'peds = get_objects_of_category(category="PEDESTRIAN")\n'
        f"approaching = heading_toward(track_candidates=vehicles, related_candidates=peds, within_angle={_literal(within_angle)}, minimum_speed=1, max_distance={_literal(max_distance)})\n"
        "output(approaching)\n"
    )
    query = f"vehicles driving toward a pedestrian closer than {_literal(max_distance)} meters"
    expected = {} if negative else {"veh-a": _all(n)}
    return _Layout(actors, program, query, expected)


def _build_near(params: Mapping, n: int, negative: bool) -> _Layout:
    thresh = _num(params, "distance_thresh", 10.0)
    bus_y = 2.2 * thresh if negative else 0.75 * thresh

    actors = [
        _static("veh-a", "REGULAR_VEHICLE", 0.0, 0.0, 0.0, n),
        _static("bus-a", "BUS", 0.0, bus_y, 0.0, n),
        _static("veh-b", "REGULAR_VEHICLE", 3.0 * thresh, thresh, 0.0, n),
    ]
    program = (
        'vehicles = get_objects_of_category(category="REGULAR_VEHICLE")\n'
        'buses = get_objects_of_category(category="BUS")\n'
        f"close = near_objects(track_candidates=vehicles, related_candidates=buses, distance_thresh={_literal(thresh)})\n"
        "output(close)\n"
    )
    query = f"vehicles within {_literal(thresh)} meters of a bus"
    expected = {} if negative else {"veh-a": _all(n)}
    return _Layout(actors, program, query, expected)


def _build_braking_sequence(params: Mapping, n: int, negative: bool) -> _Layout:
    if not 7 <= n <= 10:
        raise InfeasibleSpec("braking_sequence supports 7 to 10 frames")
    min_decel = _num(params, "min_decel", 4.0)
    # drop 0.8 m/s per 100 ms frame = 8 m/s^2, twice the default threshold
    speeds = [4.0, 4.0, 3.2, 2.4, 1.6, 0.8] + [0.8] * (n - 6)
    if negative:
        speeds = [4.0] * n

    actors = [
        _speed_profile("veh-a", "REGULAR_VEHICLE", 0.0, 0.0, 0.0, speeds),
        _cruising("veh-b", "REGULAR_VEHICLE", -10.0, 8.0, 0.0, 4.0, n),
    ]
    program = (
        'vehicles = get_objects_of_category(category="REGULAR_VEHICLE")\n'
        f"braking = decelerating(track_candidates=vehicles, min_decel={_literal(min_decel)})\n"
        "slow = has_velocity(track_candidates=vehicles, min_velocity=0, max_velocity=1.2)\n"
        "stopping = followed_by(first=braking, second=slow, within_seconds=0.5)\n"
        "output(stopping)\n"
    )
    query = "vehicles that brake hard and come nearly to a stop right after"
    expected = {} if negative else {"veh-a": tuple(range(5, n))}
    return _Layout(actors, program, query, expected)


def _build_compound(params: Mapping, n: int, negative: bool) -> _Layout:
    within = _num(params, "within_distance", 20.0)
    thresh = _num(params, "distance_thresh", 10.0)
    bus_y = 2.2 * thresh if negative else 0.75 * thresh

    actors = [
        _static("veh-a", "REGULAR_VEHICLE", 0.0, 0.0, 0.0, n),
        _static("ped-a", "PEDESTRIAN", 0.5 * within, 0.05 * within, math.pi / 2, n),
        _static("bus-a", "BUS", 0.0, bus_y, 0.0, n),
        # ped ahead but no bus nearby
        _static("veh-b", "REGULAR_VEHICLE", 60.0, 0.0, 0.0, n),
        _static("ped-b", "PEDESTRIAN", 60.0 + 0.5 * within, 0.05 * within, math.pi / 2, n),
        # bus nearby but no ped ahead
        _static("veh-c", "REGULAR_VEHICLE", 0.0, 15.0, 0.0, n),
    ]
    program = (
        'vehicles = get_objects_of_category(category="REGULAR_VEHICLE")\n'
        'peds = get_objects_of_category(category="PEDESTRIAN")\n'
        'buses = get_objects_of_category(category="BUS")\n'
        f'ahead = has_objects_in_relative_direction(track_candidates=vehicles, related_candidates=peds, direction="forward", within_distance={_literal(within)})\n'
        f"beside = near_objects(track_candidates=vehicles, related_candidates=buses, distance_thresh={_literal(thresh)})\n"
        "flagged = scenario_and(a=ahead, b=beside)\n"
        "output(flagged)\n"
    )
    query = (
        f"vehicles with a pedestrian ahead of them within {_literal(within)} meters "
        f"while within {_literal(thresh)} meters of a bus"
    )
    expected = {} if negative else {"veh-a": _all(n)}
    return _Layout(actors, program, query, expected)


_BUILDERS: dict[str, Callable[[Mapping, int, bool], _Layout]] = {
    "relative_direction": _build_relative_direction,
    "crossing": _build_crossing,
    "facing": _build_facing,
    "heading_toward": _build_heading_toward,
    "near": _build_near,
    "braking_sequence": _build_braking_sequence,
    "compound": _build_compound,
}


# ---------------------------------------------------------------------------
# Generation


def _rigid_transform(rng: random.Random):
    theta = rng.uniform(0.0, 2.0 * math.pi)
    tx = rng.uniform(-100.0, 100.0)
    ty = rng.uniform(-100.0, 100.0)
    cos_t, sin_t = math.cos(theta), math.sin(theta)

    def frame(point):
        x, y, heading, vx, vy = point
        return (
            x * cos_t - y * sin_t + tx,
            x * sin_t + y * cos_t + ty,
            wrap_angle(heading + theta),
            vx * cos_t - vy * sin_t,
            vx * sin_t + vy * cos_t,
        )

    return frame


def _distractors(rng: random.Random, count: int, n: int) -> list:
    actors = []
    for k in range(count):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        radius = _DISTRACTOR_RADIUS + _DISTRACTOR_SPACING * k
        category = _DISTRACTOR_CATEGORIES[k % len(_DISTRACTOR_CATEGORIES)]
        x0, y0, heading = radius * math.cos(phi), radius * math.sin(phi), wrap_angle(phi + math.pi / 2)
        actors.append(_cruising(f"bg-{k:02d}", category, x0, y0, heading, _DISTRACTOR_SPEED, n))
    return actors


def build_scenario_log(spec: ScenarioSpec) -> SynthResult:
    """Build the log for a spec and its declared ground truth, running nothing; ``certify`` checks them."""
    builder = _BUILDERS.get(spec.template)
    if builder is None:
        raise InfeasibleSpec(
            f"unknown template {spec.template!r}; available: {', '.join(TEMPLATES)}"
        )
    if spec.template != "braking_sequence" and not 4 <= spec.num_frames <= 40:
        raise InfeasibleSpec("num_frames must be between 4 and 40")
    if spec.num_distractors < 0 or spec.num_distractors > 20:
        raise InfeasibleSpec("num_distractors must be between 0 and 20")

    layout = builder(spec.params, spec.num_frames, spec.negative)
    rng = random.Random(spec.seed)
    transform = _rigid_transform(rng)

    actors = list(layout.actors)
    actors.append(_static("ego", "EGO_VEHICLE", -40.0, -30.0, 0.0, spec.num_frames))
    for actor in actors:
        actor.frames = [transform(point) for point in actor.frames]
    actors.extend(_distractors(rng, spec.num_distractors, spec.num_frames))

    timestamps = tuple(BASE_TS + i * DT_NS for i in range(spec.num_frames))
    counts = [len(actor.frames) for actor in actors]
    owners = np.repeat(np.arange(len(actors)), counts)
    x, y, heading, vx, vy = np.array([point for actor in actors for point in actor.frames]).T
    length, width, height = np.array([_BOX[actor.category] for actor in actors])[owners].T
    log = TrackLog.from_arrays(
        spec.log_id,
        timestamps,
        [(actor.track_id, actor.category) for actor in actors],
        owners,
        np.concatenate([np.arange(count) for count in counts]),
        np.array([x, y, height / 2.0, heading, vx, vy, np.zeros_like(x), length, width, height]),
    )

    expected = ScenarioSet(
        {
            track: frozenset(timestamps[i] for i in indices)
            for track, indices in layout.expected.items()
        }
    )
    ground_truth = GroundTruthScenario(layout.query, spec.log_id, expected)
    return SynthResult(spec, log, ground_truth, layout.query, layout.program)


def certify(result: SynthResult, mined: ScenarioSet) -> None:
    """Raise InfeasibleSpec unless ``mined``, what the result's program found on its log, is the declared set.

    A negative spec must also declare an empty set, and a positive one a
    non-empty set.
    """
    spec, expected = result.spec, result.ground_truth.relevant
    if mined != expected:
        raise InfeasibleSpec(
            f"certification failed for {spec.log_id}: program mined "
            f"{mined.to_json_dict()} but the layout declares {expected.to_json_dict()}"
        )
    if spec.negative != expected.is_empty:
        raise InfeasibleSpec(
            f"certification failed for {spec.log_id}: negative={spec.negative} "
            f"but ground truth {'is' if expected.is_empty else 'is not'} empty"
        )


def generate_scenario_log(spec: ScenarioSpec) -> SynthResult:
    """Build the log for a spec and certify its declared ground truth by running its program on it."""
    result = build_scenario_log(spec)
    certify(result, interpret(parse(result.program), result.log))
    return result


def write_bundle(result: SynthResult, out_dir: str) -> dict[str, str]:
    """Write log, ground truth and manifest files; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    log_id = result.spec.log_id
    paths = {
        "log": os.path.join(out_dir, f"{log_id}.json"),
        "ground_truth": os.path.join(out_dir, f"{log_id}.gt.json"),
        "manifest": os.path.join(out_dir, f"{log_id}.manifest.json"),
    }
    gt_text = dump_ground_truth_text([result.ground_truth])
    manifest_text = json.dumps(result.manifest, indent=2, sort_keys=True) + "\n"
    for key, text in (
        ("log", result.log_text),
        ("ground_truth", gt_text),
        ("manifest", manifest_text),
    ):
        write_text_atomic(paths[key], text)
    return paths

