"""Independent reference implementations the test suite checks against.

Deliberately written with different machinery than the package: complex
arithmetic instead of rotation matrices, exhaustive enumeration instead of
assignment solvers, plain quantifier loops instead of indexes. Slow but
transparently faithful to the definitions; only ever run on small inputs.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from scenemine.categories import DEFAULT_REGISTRY
from scenemine.dsl import (
    ARITY_ERROR,
    DUPLICATE_OUTPUT,
    INF,
    INVALID_ENUM_VALUE,
    MISSING_OUTPUT,
    PARSE_ERROR,
    TYPE_ERROR,
    UNKNOWN_FUNCTION,
    UNKNOWN_VARIABLE,
    Assignment,
    Call,
    DslError,
    KwArg,
    Literal,
    Output,
    Program,
    Span,
    VarRef,
    _edit_distance,
)
from scenemine.errors import InvariantViolation, MalformedFile, ProviderError
from scenemine.metrics import DEFAULT_ALPHAS, AlphaScore, HotaResult
from scenemine.predicates import REGISTRY, FunctionSpec, ParamSpec
from scenemine.tracklog import ObjectState, TrackedObject, TrackLog, read_json

NS = 1_000_000_000
MOVING = 0.5


def to_frame(observer, target):
    """Target offset rotated into the observer's body frame via complex division."""
    d = complex(target.position[0] - observer.position[0], target.position[1] - observer.position[1])
    z = d / cmath.exp(1j * observer.heading)
    return z.real, z.imag


def classify(observer, target, long_half=math.pi / 4, lat_half=math.pi / 4):
    lon, lat = to_frame(observer, target)
    if lon == 0.0 and lat == 0.0:
        return None
    theta = math.atan2(lat, lon)
    if abs(theta) <= long_half:
        return "forward"
    if math.pi - abs(theta) <= long_half:
        return "backward"
    if abs(theta - math.pi / 2) <= lat_half:
        return "left"
    if abs(theta + math.pi / 2) <= lat_half:
        return "right"
    return None


def bearing(observer, target):
    d = complex(target.position[0] - observer.position[0], target.position[1] - observer.position[1])
    return abs(cmath.phase(d * cmath.exp(-1j * observer.heading)))


def velocity_bearing(observer, target):
    d = complex(target.position[0] - observer.position[0], target.position[1] - observer.position[1])
    v = complex(observer.velocity[0], observer.velocity[1])
    return abs(cmath.phase(d * cmath.exp(-1j * cmath.phase(v))))


def planar_distance(a, b):
    return math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])


def speed(state):
    return math.hypot(state.velocity[0], state.velocity[1])


_AXIS_TURN = {"forward": 0.0, "left": math.pi / 2, "backward": math.pi, "right": -math.pi / 2}


def segment_crosses(track_state, prev_state, next_state, direction, band, extent):
    base = complex(track_state.position[0], track_state.position[1])
    axis = cmath.exp(1j * (track_state.heading + _AXIS_TURN[direction]))
    z0 = (complex(prev_state.position[0], prev_state.position[1]) - base) / axis
    z1 = (complex(next_state.position[0], next_state.position[1]) - base) / axis
    o0, o1 = z0.imag, z1.imag
    if o0 == 0.0 and o1 == 0.0:
        return False
    if o0 * o1 > 0.0:
        return False
    if abs(o0) > band or abs(o1) > band:
        return False
    t = o0 / (o0 - o1)
    along = z0.real + t * (z1.real - z0.real)
    return 0.0 <= along <= extent


# ---------------------------------------------------------------------------
# Scenario predicates as plain quantifier loops over (track, timestamp) pairs.
# Each takes and returns {track_id: set(timestamps)} dicts.


def pairs(entries):
    return {(track, ts) for track, stamps in entries.items() for ts in stamps}


def from_pairs(kept):
    out = {}
    for track, ts in kept:
        out.setdefault(track, set()).add(ts)
    return out


def _state(log, track, ts):
    obj = log.objects.get(track)
    return None if obj is None else obj.states.get(ts)


def _present(log, entries):
    """(track, ts, state) for every candidate pair that exists in the log."""
    for t, ts in sorted(pairs(entries)):
        st = _state(log, t, ts)
        if st is not None:
            yield t, ts, st


def _others_at(log, entries, ts, excluding):
    found = []
    for other, stamps in entries.items():
        if other == excluding or ts not in stamps:
            continue
        st = _state(log, other, ts)
        if st is not None:
            found.append((other, st))
    return found


def get_objects_of_category(log, name):
    return {
        obj.track_id: set(obj.states)
        for obj in log.objects.values()
        if obj.category == name
    }


def has_objects_in_relative_direction(
    log, track, related, direction, min_number=1, max_number=math.inf,
    within_distance=50.0, lateral_thresh=math.inf,
):
    kept = set()
    for t, ts, me in _present(log, track):
        count = 0
        for _o, st in _others_at(log, related, ts, t):
            lon, lat = to_frame(me, st)
            if math.hypot(lon, lat) > within_distance:
                continue
            orth = lat if direction in ("forward", "backward") else lon
            if abs(orth) > lateral_thresh:
                continue
            if classify(me, st) == direction:
                count += 1
        if min_number <= count <= max_number:
            kept.add((t, ts))
    return from_pairs(kept)


def being_crossed_by(log, track, related, direction="forward", lateral_band=5.0, forward_extent=10.0):
    kept = set()
    stamps = list(log.timestamps)
    for t, ts, me in _present(log, track):
        i = stamps.index(ts)
        segments = []
        if i > 0:
            segments.append((stamps[i - 1], ts))
        if i + 1 < len(stamps):
            segments.append((ts, stamps[i + 1]))
        hit = False
        for other, other_stamps in related.items():
            if other == t:
                continue
            for ts_a, ts_b in segments:
                if ts_a not in other_stamps or ts_b not in other_stamps:
                    continue
                st_a, st_b = _state(log, other, ts_a), _state(log, other, ts_b)
                if st_a is None or st_b is None:
                    continue
                if segment_crosses(me, st_a, st_b, direction, lateral_band, forward_extent):
                    hit = True
        if hit:
            kept.add((t, ts))
    return from_pairs(kept)


def heading_in_relative_direction_to(log, track, related, direction):
    kept = set()
    for t, ts, me in _present(log, track):
        if speed(me) < MOVING:
            continue
        hit = False
        for _o, st in _others_at(log, related, ts, t):
            if speed(st) < MOVING:
                continue
            delta = abs(
                cmath.phase(
                    complex(me.velocity[0], me.velocity[1])
                    / complex(st.velocity[0], st.velocity[1])
                )
            )
            if direction == "same" and delta < math.pi / 4:
                hit = True
            elif direction == "opposite" and delta > 3 * math.pi / 4:
                hit = True
            elif direction == "perpendicular" and abs(delta - math.pi / 2) <= math.pi / 4:
                hit = True
        if hit:
            kept.add((t, ts))
    return from_pairs(kept)


def facing_toward(log, track, related, within_angle=math.pi / 8, max_distance=50.0):
    kept = set()
    for t, ts, me in _present(log, track):
        for _o, st in _others_at(log, related, ts, t):
            if planar_distance(me, st) > max_distance or planar_distance(me, st) == 0.0:
                continue
            if bearing(me, st) <= within_angle:
                kept.add((t, ts))
                break
    return from_pairs(kept)


def heading_toward(log, track, related, within_angle=math.pi / 8, minimum_speed=0.5, max_distance=50.0):
    kept = set()
    for t, ts, me in _present(log, track):
        if speed(me) < minimum_speed or speed(me) == 0.0:
            continue
        for _o, st in _others_at(log, related, ts, t):
            if planar_distance(me, st) > max_distance or planar_distance(me, st) == 0.0:
                continue
            if velocity_bearing(me, st) <= within_angle:
                kept.add((t, ts))
                break
    return from_pairs(kept)


def near_objects(log, track, related, distance_thresh=10.0, min_objects=1):
    kept = set()
    for t, ts, me in _present(log, track):
        close = [1 for _o, st in _others_at(log, related, ts, t) if planar_distance(me, st) <= distance_thresh]
        if len(close) >= min_objects:
            kept.add((t, ts))
    return from_pairs(kept)


def has_velocity(log, track, min_velocity=0.0, max_velocity=math.inf):
    kept = {(t, ts) for t, ts, st in _present(log, track) if min_velocity <= speed(st) <= max_velocity}
    return from_pairs(kept)


def decelerating(log, track, min_decel=4.0):
    stamps = list(log.timestamps)
    kept = set()
    for t, ts, me in _present(log, track):
        i = stamps.index(ts)
        if i == 0:
            continue
        prev = _state(log, t, stamps[i - 1])
        if prev is None:
            continue
        dv = speed(me) - speed(prev)
        if dv / ((ts - stamps[i - 1]) / NS) <= -min_decel:
            kept.add((t, ts))
    return from_pairs(kept)


def scenario_and(a, b):
    return from_pairs(pairs(a) & pairs(b))


def scenario_or(a, b):
    return from_pairs(pairs(a) | pairs(b))


def scenario_not(base, s):
    return from_pairs(pairs(base) - pairs(s))


def followed_by(log, first, second, within_seconds, cross_track=False):
    window = int(round(within_seconds * NS))
    kept = set()
    for t, ts in pairs(second):
        if cross_track:
            earlier = [e for _t2, e in pairs(first)]
        else:
            earlier = sorted(first.get(t, ()))
        if any(0 < ts - e <= window for e in earlier):
            kept.add((t, ts))
    return from_pairs(kept)


ORACLE_PREDICATES = {
    "get_objects_of_category": get_objects_of_category,
    "has_objects_in_relative_direction": has_objects_in_relative_direction,
    "being_crossed_by": being_crossed_by,
    "heading_in_relative_direction_to": heading_in_relative_direction_to,
    "facing_toward": facing_toward,
    "heading_toward": heading_toward,
    "near_objects": near_objects,
    "has_velocity": has_velocity,
    "decelerating": decelerating,
    "scenario_and": scenario_and,
    "scenario_or": scenario_or,
    "scenario_not": scenario_not,
    "followed_by": followed_by,
}


# ---------------------------------------------------------------------------
# HOTA by exhaustive matching enumeration (inputs must stay tiny).


def _similarity(a, b):
    return max(0.0, 1.0 - math.dist(a, b) / 2.0)


def _matchings(pred_ids, gt_ids, eligible):
    """Every one-to-one matching over eligible pairs, as sorted tuples."""
    results = set()
    gt_list = list(gt_ids)
    for choice in itertools.product([None, *range(len(gt_list))], repeat=len(pred_ids)):
        used = [g for g in choice if g is not None]
        if len(used) != len(set(used)):
            continue
        matching = []
        ok = True
        for p, gi in zip(pred_ids, choice):
            if gi is None:
                continue
            pair = (p, gt_list[gi])
            if pair not in eligible:
                ok = False
                break
            matching.append(pair)
        if ok:
            results.add(tuple(sorted(matching)))
    return results


def _best_matching(pred_ids, gt_ids, eligible):
    best = None
    best_total = -1.0
    for matching in sorted(_matchings(pred_ids, gt_ids, eligible)):
        total = sum(eligible[p] for p in matching)
        if total > best_total + 1e-9:
            best, best_total = matching, total
        # sorted iteration means the first optimum seen is the lex-smallest
    return best or ()


def hota(pred, gt, alphas):
    """pred/gt: {track: {ts: (x, y, z)}}. Returns (score, per-alpha list)."""
    pred = {p: dict(v) for p, v in pred.items() if v}
    gt = {g: dict(v) for g, v in gt.items() if v}
    total_pred = sum(len(v) for v in pred.values())
    total_gt = sum(len(v) for v in gt.values())
    if total_pred == 0 and total_gt == 0:
        return 1.0, [(a, 1.0) for a in alphas]

    frames = sorted({ts for v in pred.values() for ts in v} | {ts for v in gt.values() for ts in v})
    per_alpha = []
    for alpha in alphas:
        co = {}
        tp = 0
        for ts in frames:
            pred_here = sorted(p for p, v in pred.items() if ts in v)
            gt_here = sorted(g for g, v in gt.items() if ts in v)
            eligible = {}
            for p in pred_here:
                for g in gt_here:
                    s = _similarity(pred[p][ts], gt[g][ts])
                    if s >= alpha:
                        eligible[(p, g)] = s
            for pair in _best_matching(pred_here, gt_here, eligible):
                co[pair] = co.get(pair, 0) + 1
                tp += 1
        fn, fp = total_gt - tp, total_pred - tp
        assoc = sum(c * c / (len(pred[p]) + len(gt[g]) - c) for (p, g), c in co.items())
        denom = tp + fn + fp
        per_alpha.append((alpha, math.sqrt(assoc / denom) if denom else 1.0))
    return sum(s for _, s in per_alpha) / len(per_alpha), per_alpha


def f1(tp, fp, fn):
    if tp == fp == fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


def timestamp_f1(pred_pairs, gt_pairs):
    tp = len(pred_pairs & gt_pairs)
    return f1(tp, len(pred_pairs) - tp, len(gt_pairs) - tp)


# ---------------------------------------------------------------------------
# HOTA one alpha at a time. Unlike the rest of this file, this is not an
# independent derivation: it is the package's earlier implementation, which
# ran one full pass over every frame per alpha and matched each frame's whole
# eligible set at once. The banded, per-component scoring must reproduce it
# bit for bit, so tests compare the two with ==.


def _max_total(matrix):
    if matrix.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return float(matrix[rows, cols].sum())


def lexmin_matching(eligible):
    """Max-total matching over the whole eligible set, lex-smallest among optima."""
    if not eligible:
        return []
    pred_deg = {}
    gt_deg = {}
    for p, g in eligible:
        pred_deg[p] = pred_deg.get(p, 0) + 1
        gt_deg[g] = gt_deg.get(g, 0) + 1
    if all(v == 1 for v in pred_deg.values()) and all(v == 1 for v in gt_deg.values()):
        return sorted(eligible)

    preds = sorted(pred_deg)
    gts = sorted(gt_deg)
    p_index = {p: i for i, p in enumerate(preds)}
    g_index = {g: j for j, g in enumerate(gts)}
    matrix = np.zeros((len(preds), len(gts)))
    for (p, g), sim in eligible.items():
        matrix[p_index[p], g_index[g]] = sim
    optimum = _max_total(matrix)

    fixed = []
    used_p = set()
    used_g = set()
    total = 0.0
    for p, g in sorted(eligible):
        if p in used_p or g in used_g:
            continue
        rows = [p_index[q] for q in preds if q not in used_p and q != p]
        cols = [g_index[h] for h in gts if h not in used_g and h != g]
        residual = _max_total(matrix[np.ix_(rows, cols)]) if rows and cols else 0.0
        if total + eligible[(p, g)] + residual >= optimum - 1e-9:
            fixed.append((p, g))
            used_p.add(p)
            used_g.add(g)
            total += eligible[(p, g)]
    return fixed


def hota_per_alpha(pred, gt, alphas=DEFAULT_ALPHAS):
    """HotaResult by one pass over every frame per alpha."""
    pred_counts = {p: len(frames) for p, frames in pred.items() if frames}
    gt_counts = {g: len(frames) for g, frames in gt.items() if frames}
    total_pred = sum(pred_counts.values())
    total_gt = sum(gt_counts.values())
    if total_pred == 0 and total_gt == 0:
        return HotaResult(1.0, tuple(AlphaScore(a, 1.0, 0, 0, 0, 0.0) for a in alphas))

    timestamps = set()
    for frames in pred.values():
        timestamps.update(frames)
    for frames in gt.values():
        timestamps.update(frames)

    frame_sims = []
    for ts in sorted(timestamps):
        sims = {}
        preds_here = [(p, frames[ts]) for p, frames in sorted(pred.items()) if ts in frames]
        gts_here = [(g, frames[ts]) for g, frames in sorted(gt.items()) if ts in frames]
        for p, ppos in preds_here:
            for g, gpos in gts_here:
                s = _similarity(ppos, gpos)
                if s > 0.0:
                    sims[(p, g)] = s
        frame_sims.append(sims)

    per_alpha = []
    for alpha in alphas:
        co_match = {}
        tp = 0
        for sims in frame_sims:
            eligible = {pair: s for pair, s in sims.items() if s >= alpha}
            for pair in lexmin_matching(eligible):
                co_match[pair] = co_match.get(pair, 0) + 1
                tp += 1
        fn = total_gt - tp
        fp = total_pred - tp
        assoc = 0.0
        for (p, g), c in co_match.items():
            assoc += c * (c / (pred_counts[p] + gt_counts[g] - c))
        denom = tp + fn + fp
        score = math.sqrt(assoc / denom) if denom else 1.0
        per_alpha.append(AlphaScore(alpha, score, tp, fn, fp, assoc))
    final = sum(a.score for a in per_alpha) / len(per_alpha)
    return HotaResult(final, tuple(per_alpha))


# ---------------------------------------------------------------------------
# Log loading one state at a time. Like hota_per_alpha, this is the package's
# earlier implementation: it builds an ObjectState per state and a
# TrackedObject per track, each checking its own invariants, then the log.
# load_log's one reader takes every file into arrays and checks states one by
# one only to name a fault. It must read every file this walk accepts to an
# equal log, and reject every other file with the same error, except where
# this walk has no clean error of its own: a number too large for a float
# (OverflowError) and a state key that int() reads but that is not written
# canonically (which this walk accepts, keeping the last state of a timestamp
# written twice), and true or false for a state number (which this walk reads
# as 1 or 0).


def _require(raw, key, kind, where):
    if key not in raw:
        raise MalformedFile(f"{where}: missing required field '{key}'")
    value = raw[key]
    if not isinstance(value, kind):
        raise MalformedFile(f"{where}.{key}: expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def _float_triple(raw, where):
    if not isinstance(raw, list) or len(raw) != 3 or not all(isinstance(c, (int, float)) for c in raw):
        raise MalformedFile(f"{where}: expected a list of 3 numbers")
    return (float(raw[0]), float(raw[1]), float(raw[2]))


def _parse_state(raw, where):
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


def load_log_walk(path):
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

    objects = []
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
        states = {}
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


# ---------------------------------------------------------------------------
# Log text through the json module. Like load_log_walk, this is the package's
# earlier implementation: a dict per state, encoded by json.dumps with
# indent=2. The template writer must produce the same text for every log.


def dump_log_text_json(log):
    objects = []
    for track_id, category, rows, values in log.track_states():
        states = {
            str(log.timestamps[i]): {"position": v[0:3], "heading": v[3], "velocity": v[4:7], "box_dims": v[7:10]}
            for i, v in zip(rows, values)
        }
        objects.append({"track_id": track_id, "category": category, "states": states})
    return json.dumps({"log_id": log.log_id, "timestamps": list(log.timestamps), "objects": objects}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scripted provider matching. This is the provider's earlier scan: every
# entry is tested against the prompt and the longest matching query is kept,
# the first of equal length in fixture order.


def scripted_match(fixture, prompt):
    best_key = None
    best_len = -1
    for key, entry in fixture.items():
        query = entry["query"]
        if query in prompt and len(query) > best_len:
            best_key, best_len = key, len(query)
    if best_key is None:
        raise ProviderError("no fixture entry matches the prompt")
    return best_key


# ---------------------------------------------------------------------------
# DSL parsing. This is the package's earlier front end: a character-by-character
# tokenizer into _Token objects and a recursive-descent _Parser over them.
# dsl.parse must return an equal Program for every text, or raise a DslError
# with the same kind, message and span.


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NUMBER STRING EQUALS LPAREN RPAREN COMMA NEWLINE EOF
    text: str
    span: Span


_SIGNED_INF = re.compile(rf"[+-]{INF}(?![A-Za-z0-9_])")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_PUNCT = {"=": "EQUALS", "(": "LPAREN", ")": "RPAREN", ",": "COMMA"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        i = 0
        line_had_tokens = False
        while i < len(line):
            ch = line[i]
            col = i + 1
            if ch in " \t":
                i += 1
                continue
            if ch == "#":
                break
            if ch in _PUNCT:
                tokens.append(_Token(_PUNCT[ch], ch, Span(line_no, col)))
                i += 1
            elif ch in _IDENT_START:
                j = i + 1
                while j < len(line) and line[j] in _IDENT_CONT:
                    j += 1
                word = line[i:j]
                tokens.append(_Token("NUMBER" if word == INF else "IDENT", word, Span(line_no, col)))
                i = j
            elif _SIGNED_INF.match(line, i):
                tokens.append(_Token("NUMBER", line[i : i + 1 + len(INF)], Span(line_no, col)))
                i += 1 + len(INF)
            elif ch.isdigit() or ch == "." or (ch in "+-" and i + 1 < len(line) and (line[i + 1].isdigit() or line[i + 1] == ".")):
                j = i + 1 if ch in "+-" else i
                start = i
                while j < len(line) and (line[j].isdigit() or line[j] == "."):
                    j += 1
                if j < len(line) and line[j] in "eE":
                    k = j + 1
                    if k < len(line) and line[k] in "+-":
                        k += 1
                    if k < len(line) and line[k].isdigit():
                        j = k
                        while j < len(line) and line[j].isdigit():
                            j += 1
                lexeme = line[start:j]
                try:
                    float(lexeme)
                except ValueError:
                    raise DslError(PARSE_ERROR, f"malformed number '{lexeme}'", Span(line_no, col)) from None
                tokens.append(_Token("NUMBER", lexeme, Span(line_no, col)))
                i = j
            elif ch in "\"'":
                end = line.find(ch, i + 1)
                if end == -1:
                    raise DslError(PARSE_ERROR, "unterminated string literal", Span(line_no, col))
                tokens.append(_Token("STRING", line[i + 1 : end], Span(line_no, col)))
                i = end + 1
            else:
                raise DslError(PARSE_ERROR, f"unexpected character {ch!r}", Span(line_no, col))
            line_had_tokens = True
        if line_had_tokens:
            tokens.append(_Token("NEWLINE", "", Span(line_no, len(line) + 1)))
    last_line = text.count("\n") + 1
    tokens.append(_Token("EOF", "", Span(last_line, 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or tok.kind.lower()
            raise DslError(PARSE_ERROR, f"expected {what}, found '{shown}'", tok.span)
        return self.advance()

    def parse_value(self) -> Literal | VarRef:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Literal(float(tok.text), "number", tok.span)
        if tok.kind == "STRING":
            self.advance()
            return Literal(tok.text, "string", tok.span)
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "LPAREN":
                raise DslError(
                    PARSE_ERROR,
                    f"nested call '{tok.text}(...)': bind it to its own name on a previous line",
                    tok.span,
                )
            return VarRef(tok.text, tok.span)
        shown = tok.text or tok.kind.lower()
        raise DslError(PARSE_ERROR, f"expected a value, found '{shown}'", tok.span)

    def parse_call(self) -> Call:
        name_tok = self.expect("IDENT", "a function name")
        self.expect("LPAREN", "'('")
        args: list = []
        kwargs: list[KwArg] = []
        seen_kw: set[str] = set()
        if self.peek().kind != "RPAREN":
            while True:
                tok = self.peek()
                if tok.kind == "IDENT" and self.tokens[self.pos + 1].kind == "EQUALS":
                    self.advance()
                    self.advance()
                    value = self.parse_value()
                    if tok.text in seen_kw:
                        raise DslError(PARSE_ERROR, f"duplicate keyword argument '{tok.text}'", tok.span)
                    seen_kw.add(tok.text)
                    kwargs.append(KwArg(tok.text, value, tok.span))
                else:
                    value = self.parse_value()
                    if kwargs:
                        raise DslError(
                            PARSE_ERROR, "positional argument after keyword argument", value.span
                        )
                    args.append(value)
                if self.peek().kind == "COMMA":
                    self.advance()
                    continue
                break
        self.expect("RPAREN", "')' to close the call")
        return Call(name_tok.text, tuple(args), tuple(kwargs), name_tok.span)

    def end_statement(self) -> None:
        tok = self.peek()
        if tok.kind == "NEWLINE":
            self.advance()
        elif tok.kind != "EOF":
            shown = tok.text or tok.kind.lower()
            raise DslError(PARSE_ERROR, f"unexpected '{shown}' after statement", tok.span)


def parse(text: str) -> Program:
    """Parse program text, raising DslError on grammar or structure violations."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    assignments: list[Assignment] = []
    output: Output | None = None

    while parser.peek().kind != "EOF":
        if parser.peek().kind == "NEWLINE":
            parser.advance()
            continue
        tok = parser.peek()
        if tok.text == INF and parser.tokens[parser.pos + 1].kind == "EQUALS":
            raise DslError(PARSE_ERROR, f"'{INF}' is reserved and cannot be assigned", tok.span)
        if tok.kind != "IDENT":
            shown = tok.text or tok.kind.lower()
            raise DslError(PARSE_ERROR, f"expected a statement, found '{shown}'", tok.span)
        if output is not None:
            if tok.text == "output" and parser.tokens[parser.pos + 1].kind == "LPAREN":
                raise DslError(
                    DUPLICATE_OUTPUT, "program has more than one output(...) statement", tok.span
                )
            raise DslError(PARSE_ERROR, "statement after output(...): output must be last", tok.span)

        if tok.text == "output" and parser.tokens[parser.pos + 1].kind == "LPAREN":
            parser.advance()
            parser.expect("LPAREN", "'('")
            name_tok = parser.expect("IDENT", "a variable name inside output(...)")
            parser.expect("RPAREN", "')' to close output(...)")
            parser.end_statement()
            output = Output(name_tok.text, tok.span)
            continue

        name_tok = parser.advance()
        nxt = parser.peek()
        if nxt.kind == "LPAREN":
            raise DslError(
                PARSE_ERROR,
                f"bare call '{name_tok.text}(...)': assign the result to a name",
                name_tok.span,
            )
        if nxt.kind != "EQUALS":
            shown = nxt.text or nxt.kind.lower()
            raise DslError(PARSE_ERROR, f"expected '=' after '{name_tok.text}', found '{shown}'", nxt.span)
        if name_tok.text == "output":
            raise DslError(PARSE_ERROR, "'output' is reserved and cannot be assigned", name_tok.span)
        parser.advance()
        call = parser.parse_call()
        parser.end_statement()
        if any(a.name == name_tok.text for a in assignments):
            raise DslError(
                PARSE_ERROR,
                f"name '{name_tok.text}' assigned more than once; every name is assigned exactly once",
                name_tok.span,
            )
        assignments.append(Assignment(name_tok.text, call, name_tok.span))

    if output is None:
        raise DslError(MISSING_OUTPUT, "program has no output(...) statement")
    return Program(tuple(assignments), output)


# ---------------------------------------------------------------------------
# DSL checking. This is the package's earlier checker, which collects every
# diagnostic of a program in order rather than raising the first. The
# package's walk must raise exactly check(program)[0] (kind, message and
# span), and accept a program exactly when check(program) is empty.


def _suggest(name: str, candidates) -> str | None:
    best: tuple[int, str] | None = None
    for cand in sorted(candidates):
        d = _edit_distance(name, cand)
        if d <= 2 and (best is None or d < best[0]):
            best = (d, cand)
    return best[1] if best else None


def _check_argument(fname: str, param: ParamSpec, node, names: set[str]):
    """A literal's Python value, or None for a variable; raises the diagnostic of an argument its parameter rejects."""
    if param.kind == "scenario_set":
        if isinstance(node, Literal):
            raise DslError(
                TYPE_ERROR,
                f"argument '{param.name}' of {fname}() must be a scenario set variable, not a literal",
                node.span,
            )
        if node.name not in names:
            hint = _suggest(node.name, names)
            extra = f"; did you mean '{hint}'?" if hint else ""
            raise DslError(UNKNOWN_VARIABLE, f"name '{node.name}' is not defined{extra}", node.span)
        return None
    if isinstance(node, VarRef):
        raise DslError(
            TYPE_ERROR,
            f"argument '{param.name}' of {fname}() expects a {param.kind} literal, not a variable",
            node.span,
        )
    if param.kind in ("float", "int"):
        if node.kind != "number":
            raise DslError(
                TYPE_ERROR, f"argument '{param.name}' of {fname}() must be a number", node.span
            )
        if param.kind == "int" and not float(node.value).is_integer():
            raise DslError(
                TYPE_ERROR, f"argument '{param.name}' of {fname}() must be a whole number", node.span
            )
        return int(node.value) if param.kind == "int" else float(node.value)
    # remaining kinds are strings: category, direction, relation, flag
    if node.kind != "string":
        raise DslError(
            TYPE_ERROR, f"argument '{param.name}' of {fname}() must be a quoted string", node.span
        )
    if param.enum_values and node.value not in param.enum_values:
        allowed = ", ".join(param.enum_values)
        raise DslError(
            INVALID_ENUM_VALUE,
            f"invalid value '{node.value}' for '{param.name}' of {fname}(); allowed values: {allowed}",
            node.span,
        )
    return node.value == "true" if param.kind == "flag" else node.value


def _bind_call(spec: FunctionSpec, call: Call) -> tuple[dict[str, object], list[DslError]]:
    """Map a call's arguments onto the declared parameters, collecting arity errors."""
    errors: list[DslError] = []
    bound: dict[str, object] = {}
    if len(call.args) > len(spec.params):
        errors.append(
            DslError(
                ARITY_ERROR,
                f"{spec.name}() takes at most {len(spec.params)} arguments ({len(call.args)} given)",
                call.span,
            )
        )
    for param, node in zip(spec.params, call.args):
        bound[param.name] = node
    for kw in call.kwargs:
        param = spec.param(kw.name)
        if param is None:
            hint = _suggest(kw.name, [p.name for p in spec.params])
            extra = f"; did you mean '{hint}'?" if hint else ""
            errors.append(
                DslError(ARITY_ERROR, f"{spec.name}() got an unexpected keyword argument '{kw.name}'{extra}", kw.span)
            )
            continue
        if kw.name in bound:
            errors.append(
                DslError(ARITY_ERROR, f"{spec.name}() got multiple values for argument '{kw.name}'", kw.span)
            )
            continue
        bound[kw.name] = kw.value
    for param in spec.params:
        if param.required and param.name not in bound:
            errors.append(
                DslError(
                    ARITY_ERROR,
                    f"{spec.name}() is missing the required argument '{param.name}'",
                    call.span,
                )
            )
    return bound, errors


def _walk(program: Program) -> tuple[list[DslError], tuple]:
    """Check and bind a program in one pass: every diagnostic found, in order, and the plan execute() runs.

    Per assignment with a known function the plan holds (name, function
    name, {parameter: literal as a Python value}, ((parameter, variable
    name), ...), span); it is runnable only when there is no diagnostic.
    """
    errors: list[DslError] = []
    plan = []
    names: set[str] = set()
    for stmt in program.assignments:
        spec = REGISTRY.get(stmt.call.function)
        if spec is None:
            hint = _suggest(stmt.call.function, REGISTRY)
            extra = f"; did you mean '{hint}'?" if hint else ""
            errors.append(DslError(UNKNOWN_FUNCTION, f"unknown function '{stmt.call.function}'{extra}", stmt.call.span))
        else:
            bound, bind_errors = _bind_call(spec, stmt.call)
            errors.extend(bind_errors)
            literals, refs = {}, []
            for pname, node in bound.items():
                try:
                    value = _check_argument(spec.name, spec.param(pname), node, names)
                except DslError as err:
                    errors.append(err)
                    continue
                if value is None:
                    refs.append((pname, node.name))
                else:
                    literals[pname] = value
            plan.append((stmt.name, spec.name, literals, tuple(refs), stmt.span))
        names.add(stmt.name)  # after an unknown function too, to avoid cascading noise
    if program.output.name not in names:
        hint = _suggest(program.output.name, names)
        extra = f"; did you mean '{hint}'?" if hint else ""
        message = f"output name '{program.output.name}' is not defined{extra}"
        errors.append(DslError(UNKNOWN_VARIABLE, message, program.output.span))
    return errors, tuple(plan)


def check(program: Program) -> list[DslError]:
    """Name, arity, type and enum validation. Returns every diagnostic found."""
    return _walk(program)[0]
