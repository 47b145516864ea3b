"""Geometric kernels shared by the scenario predicates and by scoring.

Apart from the 3D centre-distance similarity that HOTA scores with, all
quantities are expressed in the observer's body frame: +longitudinal is
the heading direction, +lateral is the observer's left. Angles are radians.
Kernels take floats or numpy arrays and answer elementwise. Their decisions
match the scalar ``math`` definitions bit for bit: numpy's ``hypot`` and
SIMD ``arctan2`` can round an ulp away from ``math``'s, so the elements
within a relative GUARD of a boundary are decided again with ``math``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

GUARD = 1e-9
HALF_ANGLE = math.pi / 4  # half-width of each direction cone
TWO_PI = 2 * math.pi

# Array code over pairs of tracks sees [frames, tracks, tracks] arrays, a
# block of frames at a time, so no temporary grows much past this many elements.
BLOCK_ELEMENTS = 1 << 16

SIMILARITY_SCALE_M = 2.0


def center_distance_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """1 at zero distance, linearly down to 0 at SIMILARITY_SCALE_M metres, clamped."""
    d = math.dist(a, b)
    return max(0.0, 1.0 - d / SIMILARITY_SCALE_M)


DIRECTIONS = ("forward", "backward", "left", "right")  # the four cones around an observer, in priority order

_AXES = {
    # direction -> (along, across) the direction ray, from (longitudinal, lateral)
    "forward": lambda lon, lat: (lon, lat),
    "backward": lambda lon, lat: (-lon, lat),
    "left": lambda lon, lat: (lat, lon),
    "right": lambda lon, lat: (-lat, lon),
}


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, 2 * math.pi)
    if wrapped == -math.pi:
        return math.pi
    return wrapped


def unsigned_turn(delta):
    """abs(wrap_angle(delta)), bit for bit, for |delta| <= 2 pi."""
    turn = np.abs(delta)
    return np.where(turn > math.pi, TWO_PI - turn, turn)


def _at_most(fast, bound: float, exact, *args) -> np.ndarray:
    """``exact(*scalar args) <= bound`` elementwise, read off ``fast`` away from the bound."""
    out = np.asarray(fast <= bound)
    if math.isfinite(bound):
        near = np.abs(fast - bound) <= GUARD * max(1.0, bound)
        if np.count_nonzero(near):
            columns = [np.broadcast_to(a, near.shape)[near].tolist() for a in args]
            out[near] = [exact(*values) <= bound for values in zip(*columns)]
    return out


def body_offset(dx, dy, cos_heading, sin_heading):
    """(longitudinal, lateral) of a planar displacement in the frame of a heading."""
    return cos_heading * dx + sin_heading * dy, -sin_heading * dx + cos_heading * dy


def within_radius(a, b, radius: float) -> np.ndarray:
    """hypot(a, b) <= radius."""
    return _at_most(np.hypot(a, b), radius, math.hypot, a, b)


def _exact_cone(lon: float, lat: float) -> str | None:
    for direction in DIRECTIONS:
        along, across = _AXES[direction](lon, lat)
        if along > 0 and abs(math.atan2(across, along)) <= HALF_ANGLE:
            return direction
    return None


def in_cone(lon, lat, direction: str) -> np.ndarray:
    """Whether a body-frame offset falls in a direction's cone.

    An offset is in a cone when its angle from the cone's axis is <= pi/4.
    Overlaps resolve with priority forward > backward > left > right, and the
    origin is in no cone. Off the diagonals the nearer axis decides.
    """
    along, across = _AXES[direction](np.asarray(lon, dtype=float), np.asarray(lat, dtype=float))
    across = np.abs(across)
    inside = np.asarray(across < along)
    near = (np.abs(across - along) <= GUARD * along) & (along > 0)
    if np.count_nonzero(near):
        lon, lat = (np.broadcast_to(v, near.shape)[near].tolist() for v in (lon, lat))
        inside[near] = [_exact_cone(a, b) == direction for a, b in zip(lon, lat)]
    return inside


def bearing(dx, dy, ref_angle):
    """Unsigned angle in [0, pi] between the direction ref_angle and the ray to (dx, dy)."""
    return unsigned_turn(np.arctan2(dy, dx) - ref_angle)


def _exact_bearing(dx: float, dy: float, ref_angle: float) -> float:
    return abs(wrap_angle(math.atan2(dy, dx) - ref_angle))


def points_at(dx, dy, ref_angle, within_angle: float) -> np.ndarray:
    """bearing(dx, dy, ref_angle) <= within_angle; the origin, having no bearing, never is."""
    aimed = _at_most(bearing(dx, dy, ref_angle), within_angle, _exact_bearing, dx, dy, ref_angle)
    return aimed & ((np.asarray(dx) != 0.0) | (np.asarray(dy) != 0.0))


def crosses_front_plane(
    lon0,
    lat0,
    lon1,
    lat1,
    direction: str = "forward",
    lateral_band: float = 5.0,
    forward_extent: float = 10.0,
) -> np.ndarray:
    """Whether the segment between two body-frame offsets crosses a direction ray in-window.

    The segment crosses when the coordinate across the ray changes sign (a
    single on-axis endpoint counts; a segment lying on the axis does not),
    the crossing point sits within [0, forward_extent] along the ray, and
    both endpoints stay within lateral_band of the ray.
    """
    a0, o0 = _AXES[direction](np.asarray(lon0, dtype=float), np.asarray(lat0, dtype=float))
    a1, o1 = _AXES[direction](np.asarray(lon1, dtype=float), np.asarray(lat1, dtype=float))
    straddles = (o0 * o1 <= 0.0) & (o0 != o1) & (np.abs(o0) <= lateral_band) & (np.abs(o1) <= lateral_band)
    t = np.divide(o0, o0 - o1, out=np.zeros(straddles.shape), where=straddles)
    along = a0 + t * (a1 - a0)
    return straddles & (0.0 <= along) & (along <= forward_extent)
