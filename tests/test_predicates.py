import math
import warnings

import pytest
from hypothesis import given, strategies as st

from scenemine import predicates
from scenemine.errors import InvalidEnumValue, InvalidParameter, UnknownCategory
from scenemine.geometry import DIRECTIONS
from scenemine.predicates import (
    REGISTRY,
    being_crossed_by,
    decelerating,
    facing_toward,
    followed_by,
    get_objects_of_category,
    has_objects_in_relative_direction,
    has_velocity,
    heading_in_relative_direction_to,
    heading_toward,
    near_objects,
    scenario_and,
    scenario_not,
    scenario_or,
)
from scenemine.scenario_set import ScenarioSet

import oracles
from util import as_dict, make_log, obj, random_track_log, sset, state, stamps, static_obj


def full_set(log):
    """Every (track, timestamp) pair present in the log."""
    return ScenarioSet({t: frozenset(o.states) for t, o in log.objects.items()})


def walker(track_id, x, ys, heading=-math.pi / 2):
    """A pedestrian at fixed x whose y follows the given per-frame sequence."""
    ts = stamps(len(ys))
    states = {}
    for i, y in enumerate(ys):
        vy = 0.0 if i == 0 else (y - ys[i - 1]) / 0.1
        states[ts[i]] = state(x, y, heading, 0.0, vy)
    return obj(track_id, "PEDESTRIAN", states)


# ---------------------------------------------------------------------------
# get_objects_of_category


def test_category_lookup():
    log = make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0), static_obj("p", "PEDESTRIAN", 3, 3)])
    t0, t1 = stamps(2)
    assert get_objects_of_category(log, "PEDESTRIAN") == sset({"p": [t0, t1]})
    assert get_objects_of_category(log, "BUS").is_empty


def test_category_lookup_unknown_name():
    log = make_log([])
    with pytest.raises(UnknownCategory):
        get_objects_of_category(log, "DOG")


def test_category_covers_partial_lifespans():
    t = stamps(3)
    short = obj("s", "BUS", {t[1]: state(0, 0)})
    log = make_log([short], n=3)
    assert get_objects_of_category(log, "BUS") == sset({"s": [t[1]]})


# ---------------------------------------------------------------------------
# has_objects_in_relative_direction


def _direction_log():
    peds = [
        static_obj("p-ahead-l", "PEDESTRIAN", 5.0, 0.5),
        static_obj("p-ahead-r", "PEDESTRIAN", 5.0, -0.5),
        static_obj("p-left", "PEDESTRIAN", 0.5, 5.0),
        static_obj("p-behind", "PEDESTRIAN", -5.0, 0.0),
        static_obj("p-far", "PEDESTRIAN", 45.0, 0.0),
    ]
    return make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0)] + peds)


def test_relative_direction_counts():
    log = _direction_log()
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    both = sset({"v": stamps(2)})

    kw = dict(track_candidates=vehicles, related_candidates=peds, within_distance=40.0)
    assert has_objects_in_relative_direction(log, direction="forward", min_number=2, **kw) == both
    assert has_objects_in_relative_direction(log, direction="forward", min_number=3, **kw).is_empty
    assert has_objects_in_relative_direction(log, direction="forward", max_number=1, **kw).is_empty
    assert has_objects_in_relative_direction(log, direction="left", **kw) == both
    assert has_objects_in_relative_direction(log, direction="backward", **kw) == both
    assert has_objects_in_relative_direction(log, direction="right", **kw).is_empty


def test_relative_direction_distance_is_inclusive():
    log = make_log(
        [static_obj("v", "REGULAR_VEHICLE", 0, 0), static_obj("p", "PEDESTRIAN", 10.0, 0.0)]
    )
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    at_bound = has_objects_in_relative_direction(
        log, vehicles, peds, "forward", within_distance=10.0
    )
    assert not at_bound.is_empty
    inside = has_objects_in_relative_direction(log, vehicles, peds, "forward", within_distance=9.9)
    assert inside.is_empty


def test_relative_direction_lateral_thresh():
    log = _direction_log()
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    squeezed = has_objects_in_relative_direction(
        log, vehicles, peds, "forward", within_distance=40.0, lateral_thresh=0.4
    )
    assert squeezed.is_empty  # the two ahead sit 0.5 m off-axis


def test_relative_direction_is_role_asymmetric():
    log = _direction_log()
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    a = has_objects_in_relative_direction(log, vehicles, peds, "forward", within_distance=40.0)
    b = has_objects_in_relative_direction(log, peds, vehicles, "forward", within_distance=40.0)
    assert a != b


def test_relative_direction_never_counts_self():
    log = make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0)])
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    assert has_objects_in_relative_direction(log, vehicles, vehicles, "forward").is_empty


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(min_number=0),
        dict(min_number=3, max_number=2),
        dict(within_distance=0.0),
        dict(lateral_thresh=-1.0),
    ],
)
def test_relative_direction_rejects_bad_params(kwargs):
    log = _direction_log()
    s = get_objects_of_category(log, "REGULAR_VEHICLE")
    with pytest.raises(InvalidParameter):
        has_objects_in_relative_direction(log, s, s, "forward", **kwargs)


def test_relative_direction_rejects_bad_direction():
    log = _direction_log()
    s = get_objects_of_category(log, "REGULAR_VEHICLE")
    with pytest.raises(InvalidEnumValue, match="allowed values"):
        has_objects_in_relative_direction(log, s, s, "sideways")


# ---------------------------------------------------------------------------
# being_crossed_by


def _crossing_log():
    # pedestrian walks south across the vehicle's nose between frames 1 and 2
    return make_log(
        [static_obj("v", "REGULAR_VEHICLE", 0, 0, n=4), walker("p", 5.0, [0.3, 0.1, -0.1, -0.3])],
        n=4,
    )


def test_crossing_flags_frames_adjacent_to_the_segment():
    log = _crossing_log()
    t = stamps(4)
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    got = being_crossed_by(log, vehicles, peds)
    assert got == sset({"v": [t[1], t[2]]})


def test_crossing_requires_both_endpoints_in_related_set():
    log = _crossing_log()
    t = stamps(4)
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    # drop the pedestrian's post-crossing endpoint from the candidate set
    amputated = sset({"p": [t[0], t[1], t[3]]})
    assert being_crossed_by(log, vehicles, amputated).is_empty


def test_crossing_direction_parameter():
    log = _crossing_log()
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    assert being_crossed_by(log, vehicles, peds, direction="backward").is_empty
    # narrow the corridor below the crossing distance
    assert being_crossed_by(log, vehicles, peds, forward_extent=4.0).is_empty


def test_crossing_rejects_bad_thresholds():
    log = _crossing_log()
    s = get_objects_of_category(log, "REGULAR_VEHICLE")
    with pytest.raises(InvalidParameter):
        being_crossed_by(log, s, s, lateral_band=0.0)


# ---------------------------------------------------------------------------
# heading_in_relative_direction_to


def _traffic_log():
    return make_log(
        [
            static_obj("east", "REGULAR_VEHICLE", 0, 0, vx=5.0),
            static_obj("east2", "REGULAR_VEHICLE", 10, 0, vx=5.0),
            static_obj("west", "REGULAR_VEHICLE", 20, 0, vx=-5.0),
            static_obj("north", "REGULAR_VEHICLE", 30, 0, vy=5.0),
            static_obj("diag", "REGULAR_VEHICLE", 40, 0, vx=5.0, vy=5.0),
            static_obj("slow", "REGULAR_VEHICLE", 50, 0, vx=0.4),
        ]
    )


def test_heading_relation_bins():
    log = _traffic_log()
    both = stamps(2)
    all_v = get_objects_of_category(log, "REGULAR_VEHICLE")
    east = sset({"east": both})

    same = heading_in_relative_direction_to(log, all_v, east, "same")
    assert as_dict(same) == {"east2": set(both)}  # self never counts; 45 degrees is not "same"
    opposite = heading_in_relative_direction_to(log, all_v, east, "opposite")
    assert as_dict(opposite) == {"west": set(both)}
    perp = heading_in_relative_direction_to(log, all_v, east, "perpendicular")
    # the 45-degree mover lands exactly on the inclusive perpendicular edge
    assert as_dict(perp) == {"north": set(both), "diag": set(both)}


def test_heading_relation_ignores_slow_objects():
    log = _traffic_log()
    all_v = get_objects_of_category(log, "REGULAR_VEHICLE")
    slow = sset({"slow": stamps(2)})
    assert heading_in_relative_direction_to(log, slow, all_v, "same").is_empty
    assert heading_in_relative_direction_to(log, all_v, slow, "same").is_empty


def test_heading_relation_rejects_unknown_relation():
    log = _traffic_log()
    s = get_objects_of_category(log, "REGULAR_VEHICLE")
    with pytest.raises(InvalidEnumValue):
        heading_in_relative_direction_to(log, s, s, "diagonal")


# ---------------------------------------------------------------------------
# facing_toward / heading_toward


def test_facing_toward_cone_and_distance():
    log = make_log(
        [
            static_obj("v", "REGULAR_VEHICLE", 0, 0),
            static_obj("p-near", "PEDESTRIAN", 10.0, 1.0),
            static_obj("p-wide", "PEDESTRIAN", 10.0, 10.0),
            static_obj("p-far", "PEDESTRIAN", 60.0, 0.0),
        ]
    )
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    assert facing_toward(log, vehicles, sset({"p-near": stamps(2)})) == sset({"v": stamps(2)})
    assert facing_toward(log, vehicles, sset({"p-wide": stamps(2)})).is_empty
    assert facing_toward(log, vehicles, sset({"p-far": stamps(2)})).is_empty
    # widen the cone to exactly 45 degrees: the wide pedestrian is on the edge
    wide = facing_toward(log, vehicles, peds, within_angle=math.pi / 4)
    assert wide == sset({"v": stamps(2)})


def test_facing_toward_coincident_positions_do_not_count():
    log = make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0), static_obj("p", "PEDESTRIAN", 0, 0)])
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    assert facing_toward(log, vehicles, peds).is_empty


def test_heading_toward_uses_velocity_not_heading():
    # drives east while its nose points north
    mover = static_obj("v", "REGULAR_VEHICLE", 0, 0, heading=math.pi / 2, vx=4.0)
    log = make_log([mover, static_obj("p", "PEDESTRIAN", 12.0, 0.0)])
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    assert heading_toward(log, vehicles, peds) == sset({"v": stamps(2)})
    assert facing_toward(log, vehicles, peds).is_empty


def test_heading_toward_minimum_speed_is_inclusive():
    mover = static_obj("v", "REGULAR_VEHICLE", 0, 0, vx=0.5)
    log = make_log([mover, static_obj("p", "PEDESTRIAN", 10.0, 0.0)])
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    assert heading_toward(log, vehicles, peds) == sset({"v": stamps(2)})
    assert heading_toward(log, vehicles, peds, minimum_speed=0.6).is_empty


def test_heading_toward_never_counts_a_standing_track():
    # a track with no velocity has no travel direction, even when no minimum speed is asked for
    log = make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0), static_obj("p", "PEDESTRIAN", 10.0, 0.0)])
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    peds = get_objects_of_category(log, "PEDESTRIAN")
    assert heading_toward(log, vehicles, peds, within_angle=math.pi, minimum_speed=0.0).is_empty


def test_toward_predicates_reject_bad_params():
    log = make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0)])
    s = get_objects_of_category(log, "REGULAR_VEHICLE")
    with pytest.raises(InvalidParameter):
        facing_toward(log, s, s, within_angle=0.0)
    with pytest.raises(InvalidParameter):
        heading_toward(log, s, s, minimum_speed=-0.5)
    with pytest.raises(InvalidParameter):
        heading_toward(log, s, s, max_distance=0.0)


# ---------------------------------------------------------------------------
# near_objects


def test_near_objects_threshold_inclusive_and_count():
    log = make_log(
        [
            static_obj("v", "REGULAR_VEHICLE", 0, 0),
            static_obj("bus-1", "BUS", 0.0, 10.0),
            static_obj("bus-2", "BUS", 6.0, 0.0),
            static_obj("bus-far", "BUS", 100.0, 0.0),
        ]
    )
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    buses = get_objects_of_category(log, "BUS")
    both = sset({"v": stamps(2)})
    assert near_objects(log, vehicles, buses) == both  # bus-1 exactly at 10 m
    assert near_objects(log, vehicles, buses, min_objects=2) == both
    assert near_objects(log, vehicles, buses, min_objects=3).is_empty
    assert near_objects(log, vehicles, buses, distance_thresh=9.99) == both  # bus-2 only


def test_near_objects_excludes_self():
    log = make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0)])
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    assert near_objects(log, vehicles, vehicles).is_empty


def test_near_objects_rejects_bad_params():
    log = make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0)])
    s = get_objects_of_category(log, "REGULAR_VEHICLE")
    with pytest.raises(InvalidParameter):
        near_objects(log, s, s, min_objects=0)
    with pytest.raises(InvalidParameter):
        near_objects(log, s, s, distance_thresh=0.0)


# ---------------------------------------------------------------------------
# has_velocity / decelerating


def test_has_velocity_closed_interval():
    log = make_log(
        [
            static_obj("still", "REGULAR_VEHICLE", 0, 0),
            static_obj("slow", "REGULAR_VEHICLE", 5, 0, vx=1.0),
            static_obj("fast", "REGULAR_VEHICLE", 10, 0, vx=5.0),
        ]
    )
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    got = has_velocity(log, vehicles, min_velocity=1.0, max_velocity=5.0)
    assert as_dict(got) == {"slow": set(stamps(2)), "fast": set(stamps(2))}
    assert len(has_velocity(log, vehicles)) == 6  # default bounds keep everything


def test_has_velocity_rejects_bad_bounds():
    log = make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0)])
    s = get_objects_of_category(log, "REGULAR_VEHICLE")
    with pytest.raises(InvalidParameter):
        has_velocity(log, s, min_velocity=-1.0)
    with pytest.raises(InvalidParameter):
        has_velocity(log, s, min_velocity=5.0, max_velocity=1.0)


def speed_profile(track_id, speeds):
    ts = stamps(len(speeds))
    return obj(track_id, "REGULAR_VEHICLE", {ts[i]: state(0, 0, vx=speeds[i]) for i in range(len(speeds))})


def test_decelerating_backward_difference():
    t = stamps(4)
    log = make_log([speed_profile("v", [4.0, 4.0, 3.2, 2.4])], n=4)
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    assert decelerating(log, vehicles) == sset({"v": [t[2], t[3]]})  # -8 m/s^2 drops
    assert decelerating(log, vehicles, min_decel=9.0).is_empty


def test_decelerating_skips_missing_predecessor():
    t = stamps(4)
    gappy = obj(
        "g",
        "REGULAR_VEHICLE",
        {t[0]: state(0, 0, vx=4.0), t[2]: state(0, 0, vx=1.0), t[3]: state(0, 0, vx=0.2)},
    )
    log = make_log([gappy], n=4)
    got = decelerating(log, get_objects_of_category(log, "REGULAR_VEHICLE"))
    assert got == sset({"g": [t[3]]})  # t[2] has no stored state at t[1] to diff against


# ---------------------------------------------------------------------------
# composition


def test_boolean_composition():
    t = stamps(10)
    log = make_log([static_obj(track, "BUS", 0, 0, n=10) for track in "xyz"], n=10)
    a = sset({"x": [t[1], t[2]], "y": [t[3]]})
    b = sset({"x": [t[2]], "z": [t[9]]})
    assert scenario_and(log, a, b) == sset({"x": [t[2]]})
    assert scenario_or(log, a, b) == sset({"x": [t[1], t[2]], "y": [t[3]], "z": [t[9]]})
    assert scenario_not(log, a, b) == sset({"x": [t[1]], "y": [t[3]]})


def test_each_registry_entry_runs_the_predicates_function_of_its_name():
    for name, spec in REGISTRY.items():
        assert spec.name == name
        assert spec.impl is getattr(predicates, name)


def test_followed_by_window_boundaries():
    t = stamps(4)
    log = make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0, n=4)], n=4)
    first = sset({"v": [t[1]]})
    second = sset({"v": [t[0], t[1], t[2], t[3]]})
    got = followed_by(log, first, second, within_seconds=0.2)
    # strictly-after, inclusive window: t[2] (0.1 s later) and t[3] (exactly 0.2 s)
    assert got == sset({"v": [t[2], t[3]]})
    assert followed_by(log, first, second, within_seconds=0.1) == sset({"v": [t[2]]})


def test_followed_by_cross_track_flag():
    t = stamps(3)
    log = make_log(
        [static_obj("a", "REGULAR_VEHICLE", 0, 0, n=3), static_obj("b", "BUS", 5, 5, n=3)], n=3
    )
    first = sset({"a": [t[0]]})
    second = sset({"b": [t[1]]})
    assert followed_by(log, first, second, within_seconds=0.5).is_empty
    assert followed_by(log, first, second, within_seconds=0.5, cross_track=True) == second


def test_followed_by_rejects_bad_window():
    log = make_log([static_obj("v", "REGULAR_VEHICLE", 0, 0)])
    s = full_set(log)
    with pytest.raises(InvalidParameter):
        followed_by(log, s, s, within_seconds=0.0)
    for window in (math.inf, 1e300):  # infinite once converted to nanoseconds
        with pytest.raises(InvalidParameter, match="too large"):
            followed_by(log, s, s, within_seconds=window)


# ---------------------------------------------------------------------------
# Oracle equivalence on randomized logs. The acceptance suite runs the wide
# sweep; these catch regressions fast with a narrower net.

seeds = st.integers(0, 120)


def _oracle_args(log, *sets):
    return (log,) + tuple(as_dict(s) for s in sets)


@given(seeds)
def test_oracle_category(seed):
    log = random_track_log(seed, max_objects=6, max_frames=12)
    for name in ("REGULAR_VEHICLE", "PEDESTRIAN", "BUS"):
        assert as_dict(get_objects_of_category(log, name)) == oracles.get_objects_of_category(log, name)


@given(seeds, st.sampled_from(["forward", "backward", "left", "right"]))
def test_oracle_relative_direction(seed, direction):
    log = random_track_log(seed, max_objects=6, max_frames=12)
    cand = full_set(log)
    got = has_objects_in_relative_direction(
        log, cand, cand, direction, within_distance=25.0, lateral_thresh=8.0
    )
    want = oracles.has_objects_in_relative_direction(
        *_oracle_args(log, cand, cand), direction=direction, within_distance=25.0, lateral_thresh=8.0
    )
    assert as_dict(got) == want


@given(seeds, st.sampled_from(["forward", "left"]))
def test_oracle_being_crossed_by(seed, direction):
    log = random_track_log(seed, max_objects=6, max_frames=12)
    cand = full_set(log)
    got = being_crossed_by(log, cand, cand, direction=direction)
    want = oracles.being_crossed_by(*_oracle_args(log, cand, cand), direction=direction)
    assert as_dict(got) == want


@given(seeds, st.sampled_from(["same", "opposite", "perpendicular"]))
def test_oracle_heading_relation(seed, relation):
    log = random_track_log(seed, max_objects=6, max_frames=12)
    cand = full_set(log)
    got = heading_in_relative_direction_to(log, cand, cand, relation)
    want = oracles.heading_in_relative_direction_to(*_oracle_args(log, cand, cand), direction=relation)
    assert as_dict(got) == want


@given(seeds)
def test_oracle_facing_and_heading_toward(seed):
    log = random_track_log(seed, max_objects=6, max_frames=12)
    cand = full_set(log)
    assert as_dict(facing_toward(log, cand, cand)) == oracles.facing_toward(*_oracle_args(log, cand, cand))
    assert as_dict(heading_toward(log, cand, cand)) == oracles.heading_toward(*_oracle_args(log, cand, cand))


@given(seeds, st.sampled_from([5.0, 12.0]))
def test_oracle_near_objects(seed, thresh):
    log = random_track_log(seed, max_objects=6, max_frames=12)
    cand = full_set(log)
    got = near_objects(log, cand, cand, distance_thresh=thresh)
    want = oracles.near_objects(*_oracle_args(log, cand, cand), distance_thresh=thresh)
    assert as_dict(got) == want


@given(seeds)
def test_oracle_speed_predicates(seed):
    log = random_track_log(seed, max_objects=6, max_frames=12)
    cand = full_set(log)
    got = has_velocity(log, cand, min_velocity=0.5, max_velocity=8.0)
    assert as_dict(got) == oracles.has_velocity(*_oracle_args(log, cand), min_velocity=0.5, max_velocity=8.0)
    assert as_dict(decelerating(log, cand, min_decel=1.0)) == oracles.decelerating(
        *_oracle_args(log, cand), min_decel=1.0
    )


@given(seeds, st.sampled_from([0.1, 0.25, 0.7]), st.booleans())
def test_oracle_followed_by(seed, window, cross):
    log = random_track_log(seed, max_objects=6, max_frames=12)
    cand = full_set(log)
    first = has_velocity(log, cand, min_velocity=0.5)
    got = followed_by(log, first, cand, within_seconds=window, cross_track=cross)
    want = oracles.followed_by(
        log, as_dict(first), as_dict(cand), within_seconds=window, cross_track=cross
    )
    assert as_dict(got) == want


@given(seeds, st.booleans())
def test_followed_by_on_masks_matches_the_oracle_at_extreme_windows(seed, cross):
    """Both sets made on the log, with a window past 2**63 ns and windows exactly one frame gap long."""
    log = random_track_log(seed, max_objects=6, max_frames=12)
    cand = has_velocity(log, full_set(log))
    first = has_velocity(log, cand, min_velocity=0.5)
    gaps = sorted({b - a for a, b in zip(log.timestamps, log.timestamps[1:])})
    windows = [1e10] + [gap / 1e9 for gap in gaps]
    assert 1e10 * 1e9 > 2**63 and [round(w * 1e9) for w in windows[1:]] == gaps
    for window in windows:
        got = followed_by(log, first, cand, within_seconds=window, cross_track=cross)
        want = oracles.followed_by(log, as_dict(first), as_dict(cand), within_seconds=window, cross_track=cross)
        assert as_dict(got) == want


RELATIONAL_CASES = [
    ("has_objects_in_relative_direction", dict(direction="forward", within_distance=25.0, lateral_thresh=8.0)),
    ("has_objects_in_relative_direction", dict(direction="left", min_number=2)),
    ("being_crossed_by", dict(direction="forward")),
    ("being_crossed_by", dict(direction="right", lateral_band=20.0, forward_extent=30.0)),
    ("heading_in_relative_direction_to", dict(direction="perpendicular")),
    ("facing_toward", dict(within_angle=math.pi / 4)),
    ("heading_toward", dict(within_angle=math.pi / 3, minimum_speed=0.0)),
    ("near_objects", dict(distance_thresh=12.0)),
]


@pytest.mark.parametrize("budget", [1, 40])
def test_frame_blocks_agree_with_the_oracles(monkeypatch, budget):
    # A tiny element budget makes every call run over many blocks of frames.
    monkeypatch.setattr(predicates, "BLOCK_ELEMENTS", budget)
    for seed in range(25):
        log = random_track_log(seed, max_objects=6, max_frames=12)
        cand = full_set(log)
        subset = ScenarioSet({t: frozenset(sorted(s)[::2]) for t, s in cand.entries.items()})
        for name, kwargs in RELATIONAL_CASES:
            for track, related in ((cand, cand), (subset, cand), (cand, subset)):
                got = REGISTRY[name].impl(log, track_candidates=track, related_candidates=related, **kwargs)
                want = oracles.ORACLE_PREDICATES[name](*_oracle_args(log, track, related), **kwargs)
                assert as_dict(got) == want, (seed, name, kwargs)
        assert as_dict(has_velocity(log, subset, 0.5, 8.0)) == oracles.has_velocity(*_oracle_args(log, subset), 0.5, 8.0)
        assert as_dict(decelerating(log, subset, 1.0)) == oracles.decelerating(*_oracle_args(log, subset), 1.0)


def _far_apart_log():
    """Objects at the origin and at x = +-1.5e308, whose centre differences overflow to +-inf."""
    t = stamps(3)
    return make_log(
        [
            obj("mid", "REGULAR_VEHICLE", {ts: state(0.0, 0.0, 0.3, vx=2.0, vy=1.0) for ts in t}),
            obj("east", "PEDESTRIAN", {ts: state(1.5e308, 0.0, math.pi, vx=-1.0) for ts in t}),
            obj("west", "BUS", {ts: state(-1.5e308, float(i), -math.pi / 2, vy=1.0) for i, ts in enumerate(t)}),
        ],
        n=3,
    )


@pytest.mark.parametrize("name,kwargs", RELATIONAL_CASES)
def test_far_apart_centres_raise_no_warning_and_match_the_oracles(name, kwargs):
    log = _far_apart_log()
    cand = full_set(log)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = REGISTRY[name].impl(log, track_candidates=cand, related_candidates=cand, **kwargs)
    assert as_dict(got) == oracles.ORACLE_PREDICATES[name](*_oracle_args(log, cand, cand), **kwargs)


def test_candidates_outside_the_log_are_ignored():
    log = _crossing_log()
    ghosts = sset({"ghost": stamps(4), "p": [stamps(4)[0], 12345]})
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    assert near_objects(log, vehicles, ghosts, distance_thresh=6.0) == sset({"v": [stamps(4)[0]]})
    assert has_velocity(log, ghosts).entries == {"p": frozenset([stamps(4)[0]])}


def test_registry_lists_all_predicates():
    assert set(REGISTRY) == set(oracles.ORACLE_PREDICATES)
    for spec in REGISTRY.values():
        assert spec.name and spec.summary and spec.params


def test_registry_entries_come_from_the_signature():
    def throwaway(log, track_candidates, side="left", strict=False, reach=2.5):
        return track_candidates

    spec = predicates._spec(
        throwaway, "A throwaway.", side=("direction", "which side"), strict=("flag", "strictly"), reach=("float", "m")
    )
    assert spec.name == "throwaway" and spec.impl is throwaway
    assert [(p.name, p.kind, p.required, p.default, p.role) for p in spec.params] == [
        ("track_candidates", "scenario_set", True, predicates._REQUIRED, predicates.ROLE_TRACK),
        ("side", "direction", False, "left", None),
        ("strict", "flag", False, "false", None),
        ("reach", "float", False, 2.5, None),
    ]
    assert spec.param("side").enum_values == DIRECTIONS
    assert spec.param("strict").enum_values == ("false", "true")
    relation = predicates._spec(lambda log, how="same": None, "A throwaway.", how=("relation", "how"))
    assert relation.params[0].enum_values == predicates.RELATIONS and relation.params[0].default == "same"

    with pytest.raises(TypeError, match=r"missing from the signature: \['radius'\]"):
        predicates._spec(throwaway, "A throwaway.", side=("direction", ""), strict=("flag", ""),
                         reach=("float", ""), radius=("float", ""))
    with pytest.raises(TypeError, match=r"not declared: \['reach'\]"):
        predicates._spec(throwaway, "A throwaway.", side=("direction", ""), strict=("flag", ""))


_CHECKED = {"direction": DIRECTIONS, "relation": predicates.RELATIONS}


def test_the_catalog_advertises_exactly_the_values_each_function_accepts():
    taking = {
        spec.name: _CHECKED[p.kind] for spec in REGISTRY.values() for p in spec.params if p.kind in _CHECKED
    }
    assert taking == {
        "has_objects_in_relative_direction": DIRECTIONS,
        "being_crossed_by": DIRECTIONS,
        "heading_in_relative_direction_to": predicates.RELATIONS,
    }
    log = _direction_log()
    s = get_objects_of_category(log, "REGULAR_VEHICLE")
    for name, allowed in taking.items():
        param = REGISTRY[name].param("direction")
        assert param.enum_values == allowed
        for good in param.enum_values:
            assert isinstance(REGISTRY[name].impl(log, s, s, direction=good), ScenarioSet)
        others = [v for values in _CHECKED.values() if values != allowed for v in values]
        for bad in ["sideways", "Forward", "", *others]:
            with pytest.raises(InvalidEnumValue) as refused:
                REGISTRY[name].impl(log, s, s, direction=bad)
            assert str(refused.value) == f"invalid direction '{bad}'; allowed values: {', '.join(allowed)}"
