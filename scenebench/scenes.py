"""Seeded inputs for the benchmark: Argoverse-shaped logs, query sets and scripted replies.

The logs follow the shape of Argoverse 2 sensor logs (Wilson et al., NeurIPS
2021 Datasets): 10 Hz, 150 frames, 50-200 smoothly moving objects within
about 60 m of the ego vehicle, mostly vehicles, about a quarter pedestrians,
about 30% stationary. Object counts are fixed per log slot, so the amount of
work does not depend on the seed; the seed moves everything else.
"""

from __future__ import annotations

import math
import random

from scenemine.categories import DEFAULT_REGISTRY
from scenemine.geometry import wrap_angle
from scenemine.providers import make_fixture
from scenemine.tracklog import ObjectState, TrackedObject, TrackLog

DT_S = 0.1
BASE_TS = 1_000_000_000
FRAMES = 150
EGO_SPEED = 8.0

_BOX = {
    "REGULAR_VEHICLE": (4.5, 1.9, 1.6),
    "PEDESTRIAN": (0.7, 0.7, 1.75),
    "BUS": (12.0, 2.9, 3.2),
    "TRUCK": (8.0, 2.5, 3.0),
    "BICYCLIST": (1.8, 0.7, 1.7),
    "EGO_VEHICLE": (4.8, 2.0, 1.7),
}

# Share of the non-ego objects per category: about a quarter pedestrians,
# mostly vehicles. Shares, the stationary share and the share with a partial
# lifespan are exact per log, so the work per log does not move with the seed.
_MIX = (("PEDESTRIAN", 0.25), ("BUS", 0.05), ("TRUCK", 0.03), ("BICYCLIST", 0.02))
_STATIONARY = 0.3
_PARTIAL = 0.1
# Moving vehicles that brake hard, and the share of those that brake to a stop.
_BRAKING = 0.2
_STOPPING = 0.6


def _composition(rng: random.Random, count: int) -> list[tuple[str, bool]]:
    """(category, stationary) for ``count`` objects in a seeded order."""
    sizes = {name: round(share * count) for name, share in _MIX}
    sizes["REGULAR_VEHICLE"] = count - sum(sizes.values())
    objects = []
    for name, size in sizes.items():
        still = round(_STATIONARY * size)
        objects += [(name, True)] * still + [(name, False)] * (size - still)
    rng.shuffle(objects)
    return objects


# Travel lanes in the canonical frame, where the ego starts at the origin
# heading +x: (axis the lane runs along, fixed coordinate, heading, cumulative
# share of moving traffic, range where the lane's front vehicle starts).
_LANES = (
    ("x", 1.75, 0.0, 0.14, (40.0, 90.0)),
    ("x", 5.25, 0.0, 0.28, (40.0, 90.0)),
    ("x", 8.75, 0.0, 0.40, (40.0, 90.0)),
    ("x", -1.75, math.pi, 0.54, (10.0, 60.0)),
    ("x", -5.25, math.pi, 0.68, (10.0, 60.0)),
    ("x", -8.75, math.pi, 0.80, (10.0, 60.0)),
    ("y", 54.75, math.pi / 2, 0.85, (15.0, 40.0)),
    ("y", 58.25, math.pi / 2, 0.90, (15.0, 40.0)),
    ("y", 61.75, -math.pi / 2, 0.95, (15.0, 40.0)),
    ("y", 65.25, -math.pi / 2, 1.0, (15.0, 40.0)),
)
_CURB = 12.0
_SIDEWALK = (13.5, 16.0)


def _pick(rng: random.Random, weighted):
    """An item from (item, cumulative share) pairs."""
    u = rng.random()
    for item, upto in weighted:
        if u < upto:
            return item
    return weighted[-1][0]


def _integrate(x, y, heading, speeds, wobble, rng):
    """Positions from a speed profile and a slowly wobbling heading (lane keeping)."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    period = rng.uniform(6.0, 12.0)
    frames = []
    for i, speed in enumerate(speeds):
        h = heading + wobble * math.sin(phase + 2.0 * math.pi * i * DT_S / period)
        vx, vy = speed * math.cos(h), speed * math.sin(h)
        frames.append((x, y, h, vx, vy))
        x, y = x + vx * DT_S, y + vy * DT_S
    return frames


def _braking_profile(rng: random.Random, speed: float, stop: bool, n: int) -> list[float]:
    """Cruise, brake hard (5-7 m/s^2) to a stop or a lower speed, then hold."""
    start = rng.randrange(30, 110)
    decel = rng.uniform(5.0, 7.0)
    floor = 0.0 if stop else speed * 0.4
    speeds, v = [], speed
    for i in range(n):
        if i > start and v > floor:
            v = max(floor, v - decel * DT_S)
        speeds.append(v)
    return speeds


def _lane_traffic(rng: random.Random, lane, members) -> list:
    """Vehicles queued in one lane, front first, that never close on their leader.

    Each follower starts a gap behind its leader and drives at its own
    desired speed capped by the leader's speed at every frame, so gaps never
    shrink and hard braking propagates back down the queue.
    """
    axis, fixed, heading, _, (lo, hi) = lane
    sign = round(math.cos(heading) if axis == "x" else math.sin(heading))
    along = rng.uniform(lo, hi)
    leader_speeds, leader_length = None, 0.0
    actors = []
    for track_id, category, speeds in members:
        length = _BOX[category][0]
        if leader_speeds is not None:
            along -= rng.uniform(3.0, 15.0) + (leader_length + length) / 2.0
            speeds = [min(v, lead) for v, lead in zip(speeds, leader_speeds)]
        x, y = (sign * along, fixed) if axis == "x" else (fixed, sign * along)
        actors.append((track_id, category, _integrate(x, y, heading, speeds, 0.01, rng)))
        leader_speeds, leader_length = speeds, length
    return actors


def _pedestrian(rng: random.Random, standing: bool, n: int):
    side = rng.choice((-1.0, 1.0))
    x, y = rng.uniform(-30.0, 130.0), side * rng.uniform(*_SIDEWALK)
    if standing:
        return [(x, y, rng.uniform(-math.pi, math.pi), 0.0, 0.0)] * n
    speed = rng.uniform(1.0, 1.6)
    if rng.random() < 0.5:  # crossing the road
        return _integrate(x, side * rng.uniform(8.0, 16.0), -side * math.pi / 2, [speed] * n, 0.05, rng)
    return _integrate(x, y, rng.choice((0.0, math.pi)), [speed] * n, 0.05, rng)


def argo_log(seed: int, slot: int, num_objects: int, num_frames: int = FRAMES) -> TrackLog:
    """One Argoverse-shaped log; the same (seed, slot, size) always gives the same log."""
    rng = random.Random(seed * 1009 + slot)
    actors, parked, moving = [], [], []
    for k, (category, stationary) in enumerate(_composition(rng, num_objects - 1)):
        track_id = f"{category.lower()}-{k:03d}"
        if category == "PEDESTRIAN":
            actors.append((track_id, category, _pedestrian(rng, stationary, num_frames)))
        elif stationary:
            parked.append((track_id, category))
        else:
            top = {"BUS": 9.0, "TRUCK": 10.0, "BICYCLIST": 6.0}.get(category, 13.0)
            moving.append((track_id, category, rng.uniform(3.0, top)))

    # Brakers queue at the back of their lane, so how many vehicles stop does
    # not depend on where a braker lands in a queue.
    brakers = rng.sample(range(len(moving)), round(_BRAKING * len(moving)))
    stops = set(brakers[: round(_STOPPING * len(brakers))])
    brakers = set(brakers)
    queues = {lane: ([], []) for lane in _LANES}
    queues[_LANES[0]][0].append(("ego", "EGO_VEHICLE", [EGO_SPEED] * num_frames))
    for index, (track_id, category, speed) in enumerate(moving):
        lane = _pick(rng, [(lane, lane[3]) for lane in _LANES])
        if index in brakers:
            queues[lane][1].append((track_id, category, _braking_profile(rng, speed, index in stops, num_frames)))
        else:
            queues[lane][0].append((track_id, category, [speed] * num_frames))
    for lane, (cruising, braking) in queues.items():
        rng.shuffle(cruising)
        rng.shuffle(braking)
        actors.extend(_lane_traffic(rng, lane, cruising + braking))

    # Parked along both curbs, never overlapping on the same side.
    ends = {-1.0: -40.0, 1.0: -40.0}
    for track_id, category in parked:
        side = rng.choice((-1.0, 1.0))
        x = ends[side] + rng.uniform(1.0, 6.0) + _BOX[category][0] / 2.0
        ends[side] = x + _BOX[category][0] / 2.0
        heading = (0.0 if side > 0 else math.pi) + rng.uniform(-0.05, 0.05)
        actors.append((track_id, category, [(x, side * _CURB, heading, 0.0, 0.0)] * num_frames))

    theta = rng.uniform(-math.pi, math.pi)
    tx, ty = rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    timestamps = tuple(BASE_TS + i * 100_000_000 for i in range(num_frames))
    actors.sort()
    partial = set(rng.sample([a[0] for a in actors if a[0] != "ego"], round(_PARTIAL * (num_objects - 1))))
    objects = []
    for track_id, category, frames in actors:
        start, end = 0, num_frames
        if track_id in partial:  # enters late or leaves early
            start = rng.randrange(0, num_frames // 3)
            end = rng.randrange(2 * num_frames // 3, num_frames + 1)
        box = _BOX[category]
        states = {}
        for i in range(start, end):
            x, y, heading, vx, vy = frames[i]
            states[timestamps[i]] = ObjectState(
                position=(x * cos_t - y * sin_t + tx, x * sin_t + y * cos_t + ty, box[2] / 2.0),
                heading=wrap_angle(heading + theta),
                velocity=(vx * cos_t - vy * sin_t, vx * sin_t + vy * cos_t, 0.0),
                box_dims=box,
            )
        objects.append(TrackedObject(track_id, DEFAULT_REGISTRY.category(category), states))
    return TrackLog.build(f"argo-s{seed:05d}-{slot}", timestamps, objects)


# ---------------------------------------------------------------------------
# Queries and scripted replies. Each entry is (query, correct program,
# replies): the scripted model's program text per round, the last one
# repeating; "" is an empty completion.

_CAT = 'get_objects_of_category(category="{}")'


def _prog(*lines: str) -> str:
    return "\n".join(lines) + "\n"


_V = f"vehicles = {_CAT.format('REGULAR_VEHICLE')}"
_P = f"peds = {_CAT.format('PEDESTRIAN')}"
_B = f"buses = {_CAT.format('BUS')}"
_T = f"trucks = {_CAT.format('TRUCK')}"

# The query whose model never produces a usable program: every run ends
# Failed after the full round budget, so the failed-run share is never zero.
NEVER_ANSWERED = "vehicles overtaking a cyclist on the right"
_NEVER_PROGRAM = _prog(_V, "fast = has_velocity(track_candidates=vehicles, min_velocity=12)", "output(fast)")
_NEVER_REPLIES = [
    _prog(_V, "out = overtaking_on_right(track_candidates=vehicles)", "output(out)"),
    "",
    _prog(_V, "out = has_velocity(track_candidates=vehicles, min_velocity=8)"),
]


def _swap(program: str) -> str:
    """The program with its subject and reference roles exchanged."""
    return (
        program.replace("track_candidates=", "@T@")
        .replace("related_candidates=", "track_candidates=")
        .replace("@T@", "related_candidates=")
    )


def _entries(specs):
    """(query, correct program, replies) from (query, correct program, fault).

    fault is "clean" (right on round 1), "swap" (roles exchanged, accepted on
    round 1), "never" (never usable), or a faulty program that round 2 repairs.
    """
    out = []
    for query, program, fault in specs:
        replies = {"clean": [program], "swap": [_swap(program)], "never": _NEVER_REPLIES}.get(fault, [fault, program])
        out.append((query, program, replies))
    return out


ARGO_QUERIES = _entries([
    (
        "vehicles tailgating another vehicle within 12 meters",
        _prog(_V, 'tail = has_objects_in_relative_direction(track_candidates=vehicles, related_candidates=vehicles, direction="forward", within_distance=12, lateral_thresh=1.5)', "output(tail)"),
        "clean",
    ),
    (
        "vehicles with a pedestrian within 4 meters on their right",
        _prog(_V, _P, 'right = has_objects_in_relative_direction(track_candidates=vehicles, related_candidates=peds, direction="right", within_distance=4)', "output(right)"),
        _prog(_V, _P, 'right = has_objects_in_relative_direction(track_candidates=vehicles, related_candidates=peds, direction="starboard", within_distance=4)', "output(right)"),
    ),
    (
        "pedestrians with a bus crossing their path",
        _prog(_P, _B, "crossed = being_crossed_by(track_candidates=peds, related_candidates=buses, forward_extent=10)", "output(crossed)"),
        "clean",
    ),
    (
        "pedestrians walking perpendicular to a moving vehicle",
        _prog(_V, _P, 'perp = heading_in_relative_direction_to(track_candidates=peds, related_candidates=vehicles, direction="perpendicular")', "output(perp)"),
        _prog(_V, _P, 'perp = heading_in_relative_direction_to(track_candidates=peds, related_candidates=vehicles, direction="perpendicular"', "output(perp)"),
    ),
    (
        "vehicles travelling opposite to a bus",
        _prog(_V, _B, 'opp = heading_in_relative_direction_to(track_candidates=vehicles, related_candidates=buses, direction="opposite")', "output(opp)"),
        "swap",
    ),
    (
        "pedestrians facing a bus within 30 meters",
        _prog(_P, _B, "facing = facing_toward(track_candidates=peds, related_candidates=buses, within_angle=0.5, max_distance=30)", "output(facing)"),
        "swap",
    ),
    (
        "vehicles heading toward a pedestrian within 8 meters",
        _prog(_V, _P, "toward = heading_toward(track_candidates=vehicles, related_candidates=peds, max_distance=8)", "output(toward)"),
        "swap",
    ),
    (
        "vehicles with at least two other vehicles within 4 meters",
        _prog(_V, "crowded = near_objects(track_candidates=vehicles, related_candidates=vehicles, distance_thresh=4, min_objects=2)", "output(crowded)"),
        "clean",
    ),
    (
        "stationary vehicles",
        _prog(_V, "still = has_velocity(track_candidates=vehicles, max_velocity=0.5)", "output(still)"),
        _prog(_V, "still = has_speed(track_candidates=vehicles, max_velocity=0.5)", "output(still)"),
    ),
    (
        "vehicles that brake and then stop within 3 seconds",
        _prog(_V, "braking = decelerating(track_candidates=vehicles, min_decel=4)", "still = has_velocity(track_candidates=vehicles, max_velocity=0.5)", "stop = followed_by(first=braking, second=still, within_seconds=3)", "output(stop)"),
        _prog(_V, "braking = decelerating(track_candidates=vehicles, min_decel=4)", "still = has_velocity(track_candidates=vehicles, max_velocity=0.5)", "stop = followed_by(first=braking, second=still, within_seconds=-3)", "output(stop)"),
    ),
    (
        "fast vehicles within 5 meters of a pedestrian",
        _prog(_V, _P, "near = near_objects(track_candidates=vehicles, related_candidates=peds, distance_thresh=5)", "fast = has_velocity(track_candidates=vehicles, min_velocity=5)", "both = scenario_and(a=near, b=fast)", "output(both)"),
        "clean",
    ),
    (
        "buses or trucks",
        _prog(_B, _T, "large = scenario_or(a=buses, b=trucks)", "output(large)"),
        "clean",
    ),
    (
        "pedestrians with no vehicle within 5 meters",
        _prog(_V, _P, "close = near_objects(track_candidates=peds, related_candidates=vehicles, distance_thresh=5)", "alone = scenario_not(base=peds, s=close)", "output(alone)"),
        "clean",
    ),
    (NEVER_ANSWERED, _NEVER_PROGRAM, "never"),
])

def _reply(code: str) -> str:
    return code if code == "" else f"```\n{code}```\n"


def fixture_for(entries) -> dict:
    """Scripted-provider fixture: reply i answers round i, the last one repeats."""
    return make_fixture(
        {query: [_reply(code) for code in replies] for query, _, replies in entries}
    )
