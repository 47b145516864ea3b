"""Retrieval quality scoring.

Two HOTA variants over scenario sets (temporal fragments vs. full track
lifespans), a micro timestamp F1, and a per-log retrieval F1, plus the
aggregation that rolls per-(query, log) scores into one report.

Matching inside HOTA is deliberately deterministic: per frame we take the
one-to-one matching with maximum total similarity, breaking ties by the
lexicographically smallest sorted (pred id, gt id) pair list. Ties are real
-- symmetric layouts produce them -- and an arbitrary argmax would make
scores depend on dict order.

HOTA is defined per alpha, but a frame's eligible pairs change only where an
alpha crosses one of its similarities. So each frame is matched once per
connected component of its candidate pairs and per band of alphas over which
that component's eligible set stays the same, never once per alpha. Matching
a component alone gives the same pairs as matching the whole frame, and the
association sums add the same terms in the same order as a separate pass per
alpha, so every score is bit-identical to that pass (``hota_per_alpha`` in
the test oracles keeps it as the reference).

Only centres under SIMILARITY_SCALE_M apart can match, so a log's candidate
pairs come from its neighbour table (``TrackLog.neighbours``), built once
per log and read by every ``hota_temporal`` and ``hota_full`` call on it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InconsistentInput, UnknownTrack
from .scenario_set import ScenarioSet
from .tracklog import GroundTruthScenario, TrackLog

DEFAULT_ALPHAS: tuple[float, ...] = tuple(i / 20 for i in range(1, 20))

_MATCH_EPS = 1e-9

# pred track -> timestamp -> [(gt track, similarity above 0), ...] in gt id order
Candidates = Mapping[str, Mapping[int, Sequence[tuple[str, float]]]]


# ---------------------------------------------------------------------------
# Frame matching


def _max_total(matrix: np.ndarray) -> float:
    if matrix.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return float(matrix[rows, cols].sum())


def _components(pairs: Iterable[tuple[str, str]]) -> list[list[tuple[str, str]]]:
    """The pairs grouped by connected component of the pred-gt graph they span."""
    gts_of: dict[str, list[str]] = {}
    preds_of: dict[str, list[str]] = {}
    for p, g in pairs:
        gts_of.setdefault(p, []).append(g)
        preds_of.setdefault(g, []).append(p)
    groups = []
    reached: set[str] = set()
    for start in gts_of:
        if start in reached:
            continue
        reached.add(start)
        preds = [start]
        gts_reached: set[str] = set()
        for p in preds:  # grows while it is walked: a breadth-first search
            for g in gts_of[p]:
                if g not in gts_reached:
                    gts_reached.add(g)
                    for q in preds_of[g]:
                        if q not in reached:
                            reached.add(q)
                            preds.append(q)
        groups.append([(p, g) for p in preds for g in gts_of[p]])
    return groups


def _lexmin_matching(eligible: Mapping[tuple[str, str], float]) -> list[tuple[str, str]]:
    """Max-total-similarity matching, lex-smallest pair list among optima.

    A maximum matching is a maximum matching of each connected component of
    the eligible graph, so each component is solved alone and the sorted
    union returned; a single-pair component is its own matching. Within a
    component, pairs are visited in ascending (pred id, gt id) order and
    fixed whenever some maximum matching extends the already-fixed pairs with
    this one, checked as fixed-total + pair + best-residual >= optimum.
    Fixing greedily in that order yields exactly the lexicographically
    smallest sorted pair list over all maximum matchings, and whether a pair
    can be fixed depends only on the pairs fixed in its own component.
    """
    matches: list[tuple[str, str]] = []
    for component in _components(eligible):
        if len(component) == 1:
            matches += component
        else:
            matches += _lexmin_component({pair: eligible[pair] for pair in component})
    matches.sort()
    return matches


def _lexmin_component(eligible: Mapping[tuple[str, str], float]) -> list[tuple[str, str]]:
    preds = sorted({p for p, _ in eligible})
    gts = sorted({g for _, g in eligible})
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
# HOTA over detection timestamps


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


_EMPTY_VS_EMPTY = HotaResult(1.0, tuple(AlphaScore(a, 1.0, 0, 0, 0, 0.0) for a in DEFAULT_ALPHAS))


def _hota(
    pred: Mapping[str, Collection[int]],
    gt: Mapping[str, Collection[int]],
    candidates: Candidates,
) -> HotaResult:
    """HOTA of pred vs gt, each track -> the timestamps it is detected at.

    ``candidates[p][ts]`` lists, in gt id order, every (g, similarity) with
    similarity above 0 that pred track p may match at a timestamp it is
    detected at; a g not detected in gt there is skipped. Per alpha of
    DEFAULT_ALPHAS, matching is restricted to pairs with similarity >= alpha;
    the association term for a matched pair (p, g) is their co-match count
    over the union of their detection counts. Empty vs empty scores 1 by
    convention.

    Each frame is matched once per distinct eligible set, not once per
    alpha. The alphas ascend, so a pair of similarity s is eligible at
    exactly the first k = bisect_right(DEFAULT_ALPHAS, s) of them, and a
    frame's eligible set changes only at its pairs' distinct k. Each
    connected component of the frame's pairs is matched once per band
    between consecutive distinct k, and the matches are credited to that
    band's alphas; a frame whose every degree is 1 needs no matching at all.
    The per-alpha match sets are therefore the ones a separate pass per alpha
    finds. The association sum then adds its terms per alpha in order of
    (first frame matched at that alpha, pair), which is the order a per-alpha
    pass meets them, since every frame's matches are sorted. The scores are
    built from the same float operations in the same order, so the result is
    bit-identical.
    """
    pred_counts = {p: len(frames) for p, frames in pred.items() if frames}
    gt_counts = {g: len(frames) for g, frames in gt.items() if frames}
    total_pred = sum(pred_counts.values())
    total_gt = sum(gt_counts.values())
    if total_pred == 0 and total_gt == 0:
        return _EMPTY_VS_EMPTY

    # timestamp -> {pair: similarity} and {pair: k} over its eligible pairs, in (pred id, gt id) order
    sims_at: defaultdict[int, dict[tuple[str, str], float]] = defaultdict(dict)
    bands_at: defaultdict[int, dict[tuple[str, str], int]] = defaultdict(dict)
    for p, stamps in sorted(pred.items()):
        row = candidates[p]
        for ts in stamps:
            for g, s in row[ts]:
                if ts in gt.get(g, ()):
                    k = bisect_right(DEFAULT_ALPHAS, s)
                    if k:
                        sims_at[ts][(p, g)] = s
                        bands_at[ts][(p, g)] = k
    # pair -> (lo, hi) -> [frames matched at alphas lo..hi-1, first such frame]
    spans: dict[tuple[str, str], dict[tuple[int, int], list[int]]] = {}

    def credit(pair: tuple[str, str], lo: int, hi: int) -> None:
        """Record that ``pair`` is matched in the current frame at alphas lo..hi-1."""
        spans.setdefault(pair, {}).setdefault((lo, hi), [0, frame])[0] += 1

    for frame in sorted(sims_at):
        sims, bands = sims_at[frame], bands_at[frame]
        if len({p for p, _ in bands}) == len(bands) == len({g for _, g in bands}):
            # every degree is 1: each pair is matched wherever it is eligible
            for pair, k in bands.items():
                credit(pair, 0, k)
            continue
        for component in _components(sims):
            lo = 0
            for k in sorted({bands[pair] for pair in component}):
                eligible = {pair: sims[pair] for pair in component if bands[pair] >= k}
                for pair in _lexmin_matching(eligible):
                    credit(pair, lo, k)
                lo = k

    # Between consecutive span ends every pair's count and first frame are
    # constant, so each such run of alphas shares one association sum.
    ends = {0, len(DEFAULT_ALPHAS)}
    for by_span in spans.values():
        for span in by_span:
            ends.update(span)
    edges = sorted(ends)
    per_alpha: list[AlphaScore] = []
    for lo, hi in zip(edges, edges[1:]):
        # (first frame matched at these alphas, pair, frames matched there)
        entries = []
        for pair, by_span in spans.items():
            count = 0
            first = None
            for (start, end), (span_count, span_first) in by_span.items():  # in order of first frame
                if start <= lo < end:
                    count += span_count
                    if first is None:
                        first = span_first
            if count:
                entries.append((first, pair, count))
        entries.sort()
        tp = sum(c for _, _, c in entries)
        fn = total_gt - tp
        fp = total_pred - tp
        assoc = 0.0
        for _, (p, g), c in entries:
            assoc += c * (c / (pred_counts[p] + gt_counts[g] - c))
        denom = tp + fn + fp
        score = math.sqrt(assoc / denom) if denom else 1.0
        per_alpha += (AlphaScore(alpha, score, tp, fn, fp, assoc) for alpha in DEFAULT_ALPHAS[lo:hi])
    final = sum(a.score for a in per_alpha) / len(per_alpha)
    return HotaResult(final, tuple(per_alpha))


# ---------------------------------------------------------------------------
# Scenario sets -> fragments


def scenario_fragments(log: TrackLog, scenario: ScenarioSet, full_lifespan: bool = False) -> dict[str, Collection[int]]:
    """Each of a scenario set's tracks -> the timestamps its fragment covers.

    With full_lifespan the fragment covers every frame the track exists in,
    so identity and detection quality are judged over whole tracks; without
    it only the flagged timestamps count.
    """
    fragments: dict[str, Collection[int]] = {}
    neighbours = log.neighbours  # keyed by every track, then by each timestamp it has a state at
    for track_id in scenario.tracks():
        if track_id not in neighbours:
            raise UnknownTrack(f"scenario references track '{track_id}' absent from log '{log.log_id}'")
        track = neighbours[track_id]
        if full_lifespan:
            fragments[track_id] = track.keys()
        else:
            frames = scenario.timestamps_for(track_id)
            for ts in frames:
                if ts not in track:
                    raise InconsistentInput(
                        f"scenario flags track '{track_id}' at {ts} but the track has no state there"
                    )
            fragments[track_id] = frames
    return fragments


def hota_temporal(pred: ScenarioSet, gt: ScenarioSet, log: TrackLog) -> HotaResult:
    """HOTA over exactly the flagged (track, timestamp) fragments."""
    return _hota(scenario_fragments(log, pred), scenario_fragments(log, gt), log.neighbours)


def hota_full(pred: ScenarioSet, gt: ScenarioSet, log: TrackLog) -> HotaResult:
    """HOTA over the flagged tracks extended to their full lifespans."""
    return _hota(
        scenario_fragments(log, pred, full_lifespan=True),
        scenario_fragments(log, gt, full_lifespan=True),
        log.neighbours,
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
class QueryReport:
    query_text: str
    hota_temporal: float
    hota: float
    per_log: Mapping[str, tuple[float, float]]


@dataclass(frozen=True)
class EvalReport:
    """Aggregate scores plus the per-query and per-log numbers behind them."""

    hota_temporal: float
    hota: float
    timestamp_f1: float
    log_f1: float
    alphas: tuple[float, ...]
    hota_temporal_curve: tuple[float, ...]
    hota_curve: tuple[float, ...]
    per_query: Mapping[str, QueryReport]

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
    )
