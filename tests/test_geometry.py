import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scenemine.geometry import (
    DIRECTIONS,
    bearing,
    body_offset,
    crosses_front_plane,
    in_cone,
    points_at,
    unsigned_turn,
    within_radius,
    wrap_angle,
)

import oracles
from util import state

coords = st.floats(-60.0, 60.0, allow_nan=False)
headings = st.floats(-math.pi, math.pi, exclude_min=True)
speeds = st.floats(-15.0, 15.0, allow_nan=False)


@st.composite
def states(draw):
    return state(draw(coords), draw(coords), draw(headings), draw(speeds), draw(speeds))


def displacement(a, b):
    return b.position[0] - a.position[0], b.position[1] - a.position[1]


def offset(a, b):
    """b's displacement from a in a's body frame."""
    return body_offset(*displacement(a, b), math.cos(a.heading), math.sin(a.heading))


def classify(lon, lat):
    """The cone an offset falls in, or None; at most one cone ever claims it."""
    claimed = [d for d in DIRECTIONS if in_cone(lon, lat, d)]
    assert len(claimed) <= 1
    return claimed[0] if claimed else None


def velocity_angle(s):
    return math.atan2(s.velocity[1], s.velocity[0])


# ---------------------------------------------------------------------------
# wrap_angle


@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_wrap_angle_range_and_congruence(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    # same point on the circle
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)


def test_wrap_angle_half_open_boundary():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2 * math.pi) == 0.0


@given(st.floats(-2 * math.pi, 2 * math.pi))
def test_unsigned_turn_is_the_wrapped_magnitude(a):
    assert unsigned_turn(a) == abs(wrap_angle(a))


# ---------------------------------------------------------------------------
# body-frame offset


def test_relative_offset_identity_heading():
    lon, lat = offset(state(1.0, 2.0, 0.0), state(4.0, 6.0))
    assert (lon, lat) == (3.0, 4.0)
    assert within_radius(lon, lat, 5.0) and not within_radius(lon, lat, 4.999)


def test_relative_offset_rotated_observer():
    # observer faces north; a target to the north is straight ahead
    lon, lat = offset(state(0.0, 0.0, math.pi / 2), state(0.0, 5.0))
    assert math.isclose(lon, 5.0, abs_tol=1e-12)
    assert math.isclose(lat, 0.0, abs_tol=1e-12)
    # and a target to the east is on the observer's right
    lon, lat = offset(state(0.0, 0.0, math.pi / 2), state(5.0, 0.0))
    assert math.isclose(lat, -5.0, abs_tol=1e-12)


@given(states(), states())
def test_relative_offset_matches_complex_rotation(a, b):
    lon, lat = offset(a, b)
    want_lon, want_lat = oracles.to_frame(a, b)
    assert math.isclose(lon, want_lon, abs_tol=1e-9)
    assert math.isclose(lat, want_lat, abs_tol=1e-9)
    # rotation preserves length
    assert math.isclose(math.hypot(lon, lat), math.hypot(*displacement(a, b)), rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# classify_direction


@pytest.mark.parametrize(
    "lon, lat, want",
    [
        (1.0, 0.0, "forward"),
        (1.0, 1.0, "forward"),  # 45 degrees: inclusive, forward wins
        (-1.0, 1.0, "backward"),  # backward beats left on the tie
        (-1.0, -1.0, "backward"),
        (0.0, 1.0, "left"),
        (0.0, -1.0, "right"),
        (0.0, 0.0, None),
    ],
)
def test_classify_direction_cones_and_priority(lon, lat, want):
    assert classify(lon, lat) == want


@given(states(), states())
def test_classify_direction_matches_oracle(a, b):
    got = classify(*offset(a, b))
    want = oracles.classify(a, b)
    assert got == want


# ---------------------------------------------------------------------------
# bearing angles


def test_bearing_angle_quarter_turn():
    assert math.isclose(bearing(0.0, 5.0, 0.0), math.pi / 2)
    assert math.isclose(bearing(0.0, 5.0, math.pi / 2), 0.0, abs_tol=1e-12)
    assert points_at(0.0, 5.0, 0.0, math.pi / 2) and not points_at(0.0, 5.0, 0.0, 1.57)


def test_bearing_angle_degenerate():
    # a target on the observer's own position has no bearing, so it is never pointed at
    assert not points_at(0.0, 0.0, 0.0, math.pi)


def test_velocity_bearing_angle_uses_velocity_not_heading():
    # heading north but driving east, target to the east: angle 0
    s = state(0, 0, math.pi / 2, vx=3.0)
    assert math.isclose(bearing(*displacement(s, state(10, 0)), velocity_angle(s)), 0.0, abs_tol=1e-12)
    assert math.isclose(bearing(*displacement(s, state(10, 0)), s.heading), math.pi / 2)


@given(states(), states())
def test_bearing_angles_match_oracle(a, b):
    planar = math.hypot(*displacement(a, b))
    if planar == 0.0:
        return
    assert math.isclose(bearing(*displacement(a, b), a.heading), oracles.bearing(a, b), abs_tol=1e-9)
    if math.hypot(a.velocity[0], a.velocity[1]) > 0.0:
        assert math.isclose(
            bearing(*displacement(a, b), velocity_angle(a)), oracles.velocity_bearing(a, b), abs_tol=1e-9
        )


@given(states(), states())
def test_bearing_angle_range(a, b):
    if (a.position[0], a.position[1]) == (b.position[0], b.position[1]):
        return
    assert 0.0 <= bearing(*displacement(a, b), a.heading) <= math.pi


# ---------------------------------------------------------------------------
# Array answers equal the scalar math definitions, even where numpy's hypot
# and arctan2 round differently from math's right at a bound.

rng = np.random.default_rng(7)
XS, YS = rng.uniform(-60.0, 60.0, 4000), rng.uniform(-60.0, 60.0, 4000)
REFS = rng.uniform(-math.pi, math.pi, 4000)


def _bounds_at_exact_values(fast, exact):
    """Bounds equal to some exact values, first those numpy rounds differently (if any, on this CPU)."""
    differs = [i for i, (f, e) in enumerate(zip(fast.tolist(), exact)) if f != e]
    return [exact[i] for i in differs[:20] + list(range(5))]


def test_within_radius_decides_like_math_hypot():
    exact = [math.hypot(x, y) for x, y in zip(XS.tolist(), YS.tolist())]
    for bound in _bounds_at_exact_values(np.hypot(XS, YS), exact):
        assert within_radius(XS, YS, bound).tolist() == [d <= bound for d in exact]


def test_points_at_decides_like_math_atan2():
    exact = [abs(wrap_angle(math.atan2(y, x) - r)) for x, y, r in zip(XS.tolist(), YS.tolist(), REFS.tolist())]
    for bound in _bounds_at_exact_values(bearing(XS, YS, REFS), exact):
        assert points_at(XS, YS, REFS, bound).tolist() == [b <= bound for b in exact]


def scalar_cone(lon, lat):
    """The cone definition, written with math.atan2 one offset at a time."""
    if lon == 0.0 and lat == 0.0:
        return None
    if abs(math.atan2(lat, lon)) <= math.pi / 4:
        return "forward"
    if abs(math.atan2(lat, -lon)) <= math.pi / 4:
        return "backward"
    if lat > 0 and abs(math.atan2(lon, lat)) <= math.pi / 4:
        return "left"
    if lat < 0 and abs(math.atan2(lon, -lat)) <= math.pi / 4:
        return "right"
    return None


def test_cones_on_the_diagonals_decide_like_math_atan2():
    # offsets on, and a few ulps either side of, the four diagonals
    ulps = [math.ulp(1.0) * k for k in range(-3, 4)]
    lon = np.array([sx * (1.0 + u) for sx in (1.0, -1.0) for sy in (1.0, -1.0) for u in ulps])
    lat = np.array([sy * 1.0 for sx in (1.0, -1.0) for sy in (1.0, -1.0) for u in ulps])
    lon, lat = np.concatenate([lon, XS]), np.concatenate([lat, YS])
    for direction in DIRECTIONS:
        want = [scalar_cone(a, b) == direction for a, b in zip(lon.tolist(), lat.tolist())]
        assert in_cone(lon, lat, direction).tolist() == want


# ---------------------------------------------------------------------------
# segment crossing


def segment_crosses_front_plane(track, p0, p1, *args, **kw):
    return crosses_front_plane(*offset(track, p0), *offset(track, p1), *args, **kw)


def cross(track, p0, p1, **kw):
    return segment_crosses_front_plane(track, state(*p0), state(*p1), **kw)


def test_crossing_example_inside_window():
    t = state(0, 0, 0.0)
    assert cross(t, (5, 2), (5, -2), lateral_band=3.0, forward_extent=10.0)


def test_crossing_example_beyond_extent():
    t = state(0, 0, 0.0)
    assert not cross(t, (20, 2), (20, -2), lateral_band=3.0, forward_extent=10.0)


def test_crossing_requires_both_endpoints_in_band():
    t = state(0, 0, 0.0)
    assert not cross(t, (5, 4), (5, -2), lateral_band=3.0, forward_extent=10.0)


def test_crossing_sign_rules():
    t = state(0, 0, 0.0)
    assert not cross(t, (5, 2), (5, 1))  # no sign change
    assert not cross(t, (2, 0), (7, 0))  # lies on the axis
    assert cross(t, (5, 0), (5, -2))  # one on-axis endpoint counts
    assert not cross(t, (-5, 2), (-5, -2))  # crossing point behind the observer


def test_crossing_other_axes():
    t = state(0, 0, 0.0)
    assert cross(t, (-5, 2), (-5, -2), direction="backward")
    assert cross(t, (2, 5), (-2, 5), direction="left")
    assert cross(t, (2, -5), (-2, -5), direction="right")
    # a rotated observer drags its axes along
    t_north = state(0, 0, math.pi / 2)
    assert cross(t_north, (2, 5), (-2, 5), direction="forward")


@given(states(), states(), states(), st.sampled_from(DIRECTIONS))
def test_crossing_matches_oracle(track, p0, p1, direction):
    got = segment_crosses_front_plane(track, p0, p1, direction)
    want = oracles.segment_crosses(track, p0, p1, direction, 5.0, 10.0)
    assert got == want
