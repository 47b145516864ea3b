"""Retrieval quality scoring.

Two HOTA variants over scenario sets (temporal fragments vs. full track
lifespans), a micro timestamp F1, and a per-log retrieval F1, plus the
aggregation that rolls per-(query, log) scores into one report.

Matching inside HOTA is deliberately deterministic: per frame we take the
one-to-one matching with maximum total similarity, breaking ties by the
lexicographically smallest sorted (pred id, gt id) pair list. Ties are real
-- symmetric layouts produce them -- and an arbitrary argmax would make
scores depend on dict order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InconsistentInput, UnknownTrack
from .scenario_set import ScenarioSet
from .tracklog import GroundTruthScenario, TrackLog

DEFAULT_ALPHAS: tuple[float, ...] = tuple(i / 20 for i in range(1, 20))

SIMILARITY_SCALE_M = 2.0

_MATCH_EPS = 1e-9

Fragments = Mapping[str, Mapping[int, tuple[float, float, float]]]


def center_distance_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """1 at zero distance, linearly down to 0 at SIMILARITY_SCALE_M metres, clamped."""
    d = math.dist(a, b)
    return max(0.0, 1.0 - d / SIMILARITY_SCALE_M)


# ---------------------------------------------------------------------------
# Frame matching


def _max_total(matrix: np.ndarray) -> float:
    if matrix.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return float(matrix[rows, cols].sum())


def _lexmin_matching(eligible: Mapping[tuple[str, str], float]) -> list[tuple[str, str]]:
    """Max-total-similarity matching, lex-smallest pair list among optima.

    Pairs are visited in ascending (pred id, gt id) order and fixed whenever
    some maximum matching extends the already-fixed pairs with this one,
    checked as fixed-total + pair + best-residual >= optimum. Fixing greedily
    in that order yields exactly the lexicographically smallest sorted pair
    list over all maximum matchings.
    """
    if not eligible:
        return []
    pred_deg: dict[str, int] = {}
    gt_deg: dict[str, int] = {}
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

    fixed: list[tuple[str, str]] = []
    used_p: set[str] = set()
    used_g: set[str] = set()
    total = 0.0
    for p, g in sorted(eligible):
        if p in used_p or g in used_g:
            continue
        rows = [p_index[q] for q in preds if q not in used_p and q != p]
        cols = [g_index[h] for h in gts if h not in used_g and h != g]
        residual = _max_total(matrix[np.ix_(rows, cols)]) if rows and cols else 0.0
        if total + eligible[(p, g)] + residual >= optimum - _MATCH_EPS:
            fixed.append((p, g))
            used_p.add(p)
            used_g.add(g)
            total += eligible[(p, g)]
    return fixed


# ---------------------------------------------------------------------------
# HOTA over detection fragments


@dataclass(frozen=True)
class AlphaScore:
    alpha: float
    score: float
    tp: int
    fn: int
    fp: int
    assoc_sum: float


@dataclass(frozen=True)
class HotaResult:
    score: float
    per_alpha: tuple[AlphaScore, ...]


def hota_from_fragments(
    pred: Fragments,
    gt: Fragments,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> HotaResult:
    """Detection + association accuracy over positioned fragments.

    A fragment maps a track id to {timestamp: centre}. Per alpha, matching is
    restricted to pairs with similarity >= alpha; the association term for a
    matched pair (p, g) is their co-match count over the union of their
    detection counts. Empty vs empty scores 1 by convention.
    """
    pred_counts = {p: len(frames) for p, frames in pred.items() if frames}
    gt_counts = {g: len(frames) for g, frames in gt.items() if frames}
    total_pred = sum(pred_counts.values())
    total_gt = sum(gt_counts.values())
    if total_pred == 0 and total_gt == 0:
        return HotaResult(1.0, tuple(AlphaScore(a, 1.0, 0, 0, 0, 0.0) for a in alphas))

    timestamps: set[int] = set()
    for frames in pred.values():
        timestamps.update(frames)
    for frames in gt.values():
        timestamps.update(frames)

    frame_sims: list[dict[tuple[str, str], float]] = []
    for ts in sorted(timestamps):
        sims: dict[tuple[str, str], float] = {}
        preds_here = [(p, frames[ts]) for p, frames in sorted(pred.items()) if ts in frames]
        gts_here = [(g, frames[ts]) for g, frames in sorted(gt.items()) if ts in frames]
        for p, ppos in preds_here:
            for g, gpos in gts_here:
                s = center_distance_similarity(ppos, gpos)
                if s > 0.0:
                    sims[(p, g)] = s
        frame_sims.append(sims)

    per_alpha: list[AlphaScore] = []
    match_cache: list[dict[frozenset, list[tuple[str, str]]]] = [{} for _ in frame_sims]
    for alpha in alphas:
        co_match: dict[tuple[str, str], int] = {}
        tp = 0
        for sims, cache in zip(frame_sims, match_cache):
            eligible = {pair: s for pair, s in sims.items() if s >= alpha}
            key = frozenset(eligible)
            matches = cache.get(key)
            if matches is None:
                matches = _lexmin_matching(eligible)
                cache[key] = matches
            for pair in matches:
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
# Scenario sets -> fragments


def scenario_fragments(log: TrackLog, scenario: ScenarioSet, full_lifespan: bool = False) -> dict:
    """Positioned fragments for a scenario set's tracks.

    With full_lifespan the fragment covers every frame the track exists in,
    so identity and detection quality are judged over whole tracks; without
    it only the flagged timestamps count.
    """
    fragments: dict[str, dict[int, tuple[float, float, float]]] = {}
    for track_id in scenario.tracks():
        if track_id not in log.objects:
            raise UnknownTrack(f"scenario references track '{track_id}' absent from log '{log.log_id}'")
        states = log.objects[track_id].states
        if full_lifespan:
            fragments[track_id] = {ts: state.position for ts, state in states.items()}
        else:
            frames = {}
            for ts in scenario.timestamps_for(track_id):
                state = states.get(ts)
                if state is None:
                    raise InconsistentInput(
                        f"scenario flags track '{track_id}' at {ts} but the track has no state there"
                    )
                frames[ts] = state.position
            fragments[track_id] = frames
    return fragments


def hota_temporal(pred: ScenarioSet, gt: ScenarioSet, log: TrackLog) -> HotaResult:
    """HOTA over exactly the flagged (track, timestamp) fragments."""
    return hota_from_fragments(scenario_fragments(log, pred), scenario_fragments(log, gt))


def hota_full(pred: ScenarioSet, gt: ScenarioSet, log: TrackLog) -> HotaResult:
    """HOTA over the flagged tracks extended to their full lifespans."""
    return hota_from_fragments(
        scenario_fragments(log, pred, full_lifespan=True), scenario_fragments(log, gt, full_lifespan=True)
    )


# ---------------------------------------------------------------------------
# F1 metrics


def timestamp_counts(pred: ScenarioSet, gt: ScenarioSet) -> tuple[int, int, int]:
    """(tp, fp, fn) over flagged (track, timestamp) pairs."""
    pred_pairs = set(pred.pairs())
    gt_pairs = set(gt.pairs())
    tp = len(pred_pairs & gt_pairs)
    return tp, len(pred_pairs) - tp, len(gt_pairs) - tp


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


def timestamp_f1(pred: ScenarioSet, gt: ScenarioSet) -> float:
    """Single-pair timestamp F1; empty vs empty is a perfect retrieval."""
    return f1_from_counts(*timestamp_counts(pred, gt))


# ---------------------------------------------------------------------------
# Aggregated evaluation


@dataclass(frozen=True)
class PairEvaluation:
    query_text: str
    log_id: str
    hota_temporal: HotaResult
    hota: HotaResult
    ts_tp: int
    ts_fp: int
    ts_fn: int
    pred_positive: bool
    gt_positive: bool


@dataclass(frozen=True)
class QueryReport:
    query_text: str
    hota_temporal: float
    hota: float
    per_log: Mapping[str, tuple[float, float]]


@dataclass(frozen=True)
class EvalReport:
    """Aggregate scores plus the per-query and per-pair numbers behind them."""

    hota_temporal: float
    hota: float
    timestamp_f1: float
    log_f1: float
    alphas: tuple[float, ...]
    hota_temporal_curve: tuple[float, ...]
    hota_curve: tuple[float, ...]
    per_query: Mapping[str, QueryReport]
    pairs: tuple[PairEvaluation, ...]

    def summary_table(self) -> str:
        headers = ("HOTA-T", "HOTA", "TS-F1", "Log-F1")
        scores = (self.hota_temporal, self.hota, self.timestamp_f1, self.log_f1)
        cells = tuple(f"{100.0 * s:.2f}" for s in scores)
        widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
        head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        row = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        return head + "\n" + row + "\n"

    def to_json_dict(self) -> dict:
        return {
            "hota_temporal": self.hota_temporal,
            "hota": self.hota,
            "timestamp_f1": self.timestamp_f1,
            "log_f1": self.log_f1,
            "alphas": list(self.alphas),
            "hota_temporal_curve": list(self.hota_temporal_curve),
            "hota_curve": list(self.hota_curve),
            "per_query": {
                q: {
                    "hota_temporal": r.hota_temporal,
                    "hota": r.hota,
                    "per_log": {log_id: list(scores) for log_id, scores in sorted(r.per_log.items())},
                }
                for q, r in sorted(self.per_query.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def evaluate(
    predictions: Mapping[str, Mapping[str, ScenarioSet]],
    ground_truth: Sequence[GroundTruthScenario],
    logs: Mapping[str, TrackLog],
) -> EvalReport:
    """Score predictions against ground truth over its (query, log) universe.

    HOTA numbers average per-log scores within each query, then across
    queries, so a query probed on many logs weighs the same as one probed on
    one. The F1 metrics pool counts over every pair instead: timestamp F1 is
    micro over flagged (track, timestamp) pairs, log F1 treats each pair as
    one binary retrieval decision (positive = non-empty scenario set).
    """
    universe: dict[str, dict[str, ScenarioSet]] = {}
    for gt in ground_truth:
        per_log = universe.setdefault(gt.query_text, {})
        if gt.log_id in per_log:
            raise InconsistentInput(
                f"duplicate ground truth for query {gt.query_text!r} on log '{gt.log_id}'"
            )
        per_log[gt.log_id] = gt.relevant
    if not universe:
        raise InconsistentInput("ground truth is empty; nothing to evaluate")

    pair_evals: list[PairEvaluation] = []
    query_reports: dict[str, QueryReport] = {}
    query_t_curves: list[list[float]] = []
    query_f_curves: list[list[float]] = []
    ts_tp = ts_fp = ts_fn = 0
    log_tp = log_fp = log_fn = 0
    any_positive = False

    for query_text in sorted(universe):
        per_log_scores: dict[str, tuple[float, float]] = {}
        t_scores: list[float] = []
        f_scores: list[float] = []
        t_curves: list[tuple[float, ...]] = []
        f_curves: list[tuple[float, ...]] = []
        for log_id in sorted(universe[query_text]):
            log = logs.get(log_id)
            if log is None:
                raise InconsistentInput(f"ground truth references log '{log_id}' but it was not provided")
            gt_set = universe[query_text][log_id]
            pred_set = predictions.get(query_text, {}).get(log_id, ScenarioSet.empty())

            t_result = hota_temporal(pred_set, gt_set, log)
            f_result = hota_full(pred_set, gt_set, log)
            tp, fp, fn = timestamp_counts(pred_set, gt_set)
            ts_tp, ts_fp, ts_fn = ts_tp + tp, ts_fp + fp, ts_fn + fn

            pred_pos = not pred_set.is_empty
            gt_pos = not gt_set.is_empty
            any_positive = any_positive or pred_pos or gt_pos
            if pred_pos and gt_pos:
                log_tp += 1
            elif pred_pos:
                log_fp += 1
            elif gt_pos:
                log_fn += 1

            per_log_scores[log_id] = (t_result.score, f_result.score)
            t_scores.append(t_result.score)
            f_scores.append(f_result.score)
            t_curves.append(tuple(a.score for a in t_result.per_alpha))
            f_curves.append(tuple(a.score for a in f_result.per_alpha))
            pair_evals.append(
                PairEvaluation(query_text, log_id, t_result, f_result, tp, fp, fn, pred_pos, gt_pos)
            )
        query_reports[query_text] = QueryReport(
            query_text, _mean(t_scores), _mean(f_scores), per_log_scores
        )
        query_t_curves.append([_mean(at_alpha) for at_alpha in zip(*t_curves)])
        query_f_curves.append([_mean(at_alpha) for at_alpha in zip(*f_curves)])

    t_curve = tuple(_mean(at_alpha) for at_alpha in zip(*query_t_curves))
    f_curve = tuple(_mean(at_alpha) for at_alpha in zip(*query_f_curves))
    overall_t = _mean([r.hota_temporal for r in query_reports.values()])
    overall_f = _mean([r.hota for r in query_reports.values()])
    overall_ts = f1_from_counts(ts_tp, ts_fp, ts_fn)
    overall_log = 1.0 if not any_positive else 2 * log_tp / (2 * log_tp + log_fp + log_fn)

    return EvalReport(
        overall_t,
        overall_f,
        overall_ts,
        overall_log,
        DEFAULT_ALPHAS,
        t_curve,
        f_curve,
        query_reports,
        tuple(pair_evals),
    )
