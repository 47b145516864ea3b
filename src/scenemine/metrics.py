"""Retrieval quality scoring.

Two HOTA variants over scenario sets (temporal fragments vs. full track
lifespans), a micro timestamp F1, and a per-log retrieval F1, plus the
aggregation that rolls per-(query, log) scores into one report.

Scoring reads each set as its [frames, tracks] mask on the log (``_bind``).
HOTA's frames are mask rows and its track ids mask columns, which a log
holds in timestamp and track-id order, so every order below is theirs.

Matching inside HOTA is deliberately deterministic: per frame we take the
one-to-one matching with maximum total similarity, breaking ties by the
lexicographically smallest sorted (pred id, gt id) pair list. Ties are real
-- symmetric layouts produce them -- and an arbitrary argmax would make
scores depend on iteration order.

HOTA is defined per alpha, but a frame's eligible pairs change only where an
alpha crosses one of its similarities. So each frame is matched once per
connected component of its candidate pairs and per band of alphas over which
that component's eligible set stays the same, never once per alpha. Two
kinds of pair are credited without matching: a pair with no rival in its
frame (most often a track with itself), and every self pair of an agreeing
frame, one where pred and gt flag the same tracks. Matching a component
alone gives the same pairs as matching the whole frame, and the association
sums add the same terms in the same order as a separate pass per alpha, so
every score is bit-identical to that pass (``hota_per_alpha`` in the test
oracles keeps it as the reference).

An agreeing frame needs no matching, ties included. Say both sides flag the
set D there. At every alpha the identity matching reaches the largest total
any matching can, |D|: no similarity exceeds 1.0, and a self pair's is
exactly 1.0. The lexmin matching visits pairs in sorted order, and for each
pred p it meets (p, p) as the first pair whose gt is still free, since each
smaller gt of D is already taken by the smaller pred of the same id; the
identity completes that choice to a maximum, so it fixes (p, p), even where
another track's centre coincides with p's. Every alpha therefore matches the
identity there, and the frame's cross pairs are dropped unmatched.

Only centres under SIMILARITY_SCALE_M apart can match, so a log's candidate
cross pairs, of two different tracks, come from its neighbour table
(``TrackLog.neighbours``), built once per log and read by every HOTA call on
it: the table's (row, a, b) at a frame that does not agree, where pred flags
a and gt flags b. A track's similarity to itself is exactly 1.0, so self
pairs come from the masks alone.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InconsistentInput, UnknownTrack
from .scenario_set import ScenarioSet
from .tracklog import GroundTruthScenario, TrackLog

DEFAULT_ALPHAS: tuple[float, ...] = tuple(i / 20 for i in range(1, 20))

_MATCH_EPS = 1e-9

# the ``side`` of an error raised by hota_temporal, hota_full or evaluate
PREDICTIONS, GROUND_TRUTH = "predictions", "ground truth"

Pair = tuple[int, int]  # (pred track, gt track): two columns of a log


# ---------------------------------------------------------------------------
# Frame matching


def _max_total(matrix: np.ndarray) -> float:
    if matrix.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return float(matrix[rows, cols].sum())


def _components(pairs: Iterable[Pair]) -> list[list[Pair]]:
    """The pairs grouped by connected component of the pred-gt graph they span."""
    gts_of: dict[int, list[int]] = {}
    preds_of: dict[int, list[int]] = {}
    for p, g in pairs:
        gts_of.setdefault(p, []).append(g)
        preds_of.setdefault(g, []).append(p)
    groups = []
    reached: set[int] = set()
    for start in gts_of:
        if start in reached:
            continue
        reached.add(start)
        preds = [start]
        gts_reached: set[int] = set()
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


def _lexmin_matching(eligible: Mapping[Pair, float]) -> list[Pair]:
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
    matches: list[Pair] = []
    for component in _components(eligible):
        if len(component) == 1:
            matches += component
        else:
            matches += _lexmin_component({pair: eligible[pair] for pair in component})
    matches.sort()
    return matches


def _lexmin_component(eligible: Mapping[Pair, float]) -> list[Pair]:
    preds = sorted({p for p, _ in eligible})
    gts = sorted({g for _, g in eligible})
    p_index = {p: i for i, p in enumerate(preds)}
    g_index = {g: j for j, g in enumerate(gts)}
    matrix = np.zeros((len(preds), len(gts)))
    for (p, g), sim in eligible.items():
        matrix[p_index[p], g_index[g]] = sim
    optimum = _max_total(matrix)

    fixed: list[Pair] = []
    used_p: set[int] = set()
    used_g: set[int] = set()
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


class AlphaScore(NamedTuple):
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


_NOTHING = ScenarioSet.empty()  # the prediction of a pair that has none

_EMPTY_VS_EMPTY = HotaResult(1.0, tuple(AlphaScore(a, 1.0, 0, 0, 0, 0.0) for a in DEFAULT_ALPHAS))


def _hota(pred: np.ndarray, gt: np.ndarray, neighbours: Sequence[np.ndarray]) -> HotaResult:
    """HOTA of pred vs gt, two [frames, tracks] masks on one log: a track is detected at the rows its column flags.

    ``neighbours`` is the log's table (``TrackLog.neighbours``): arrays of
    every (row, a, b, similarity) with a != b and similarity above 0. Pred
    track a may match gt track b at a row where the table holds them and pred
    flags a and gt flags b. A track matches itself at similarity 1.0
    wherever it is detected on both sides. Per alpha of DEFAULT_ALPHAS,
    matching is restricted to pairs with similarity >= alpha; the
    association term for a matched pair (p, g) is their co-match count over
    the union of their detection counts. Empty vs empty scores 1 by
    convention.

    Each frame is matched once per distinct eligible set, not once per
    alpha. The alphas ascend, so a pair of similarity s is eligible at
    exactly the first k = bisect_right(DEFAULT_ALPHAS, s) of them, and a
    frame's eligible set changes only at its pairs' distinct k. A pair with
    no rival in its frame (no other eligible pair shares its pred or gt) is
    matched at exactly those k alphas and is credited there directly. Cross
    pairs are taken only at rows where pred and gt differ: at a row where
    they agree, every alpha's matching is the identity (see the module
    docstring for why, ties included). A self pair joins a frame only where
    an eligible cross pair touches its track; its other frames, the agreeing
    ones among them, are all uncontested and credited in one step. Each
    connected component of a frame's remaining pairs is matched once per
    band between consecutive distinct k, and the matches are credited to
    that band's alphas. The per-alpha match sets are therefore the ones a
    separate pass per alpha finds. The association sum then adds its terms
    per alpha in order of (first frame matched at that alpha, pair), which is
    the order a per-alpha pass meets them, since every frame's matches are
    sorted; frames are credited in no fixed order, so that first frame is the
    smallest over the pair's spans covering the alpha. The scores are built
    from the same float operations in the same order, so the result is
    bit-identical.
    """
    total_pred = int(np.count_nonzero(pred))
    total_gt = int(np.count_nonzero(gt))
    if total_pred == 0 and total_gt == 0:
        return _EMPTY_VS_EMPTY
    pred_counts, gt_counts = pred.sum(axis=0).tolist(), gt.sum(axis=0).tolist()  # detections per track
    top = len(DEFAULT_ALPHAS)

    # pair -> (lo, hi) -> [frames matched at alphas lo..hi-1, first such frame]
    spans: dict[Pair, dict[tuple[int, int], list[int]]] = {}

    def credit(pair: Pair, lo: int, hi: int, frame: int, count: int = 1) -> None:
        """Record that ``pair`` is matched at alphas lo..hi-1 in ``count`` frames, the earliest ``frame``."""
        span = spans.setdefault(pair, {}).setdefault((lo, hi), [0, frame])
        span[0] += count
        span[1] = min(span[1], frame)

    # row -> {pair: (similarity, k)} over its eligible pairs that may need matching
    pairs_at: defaultdict[int, dict[Pair, tuple[float, int]]] = defaultdict(dict)
    both = pred & gt  # the self pairs; those an eligible cross pair touches leave it
    rows, a, b, similarity = neighbours
    # Most small logs hold no two centres close enough to match: then there is nothing to filter.
    cross = ()
    if len(rows):
        differ = (pred != gt).any(axis=1)  # the rows where the two sides do not agree
        cross = np.flatnonzero(differ[rows] & pred[rows, a] & gt[rows, b] & (similarity >= DEFAULT_ALPHAS[0]))
    if len(cross):
        rows, a, b = rows[cross], a[cross], b[cross]
        for row, p, g, s in zip(rows.tolist(), a.tolist(), b.tolist(), similarity[cross].tolist()):
            pairs_at[row][(p, g)] = (s, bisect_right(DEFAULT_ALPHAS, s))
        touched = np.zeros_like(both)
        touched[rows, a] = touched[rows, b] = True
        for row, t in zip(*(x.tolist() for x in np.nonzero(both & touched))):
            pairs_at[row][(t, t)] = (1.0, top)
        both &= ~touched
    firsts = both.argmax(axis=0).tolist()
    for t, count in enumerate(both.sum(axis=0).tolist()):
        if count:
            credit((t, t), 0, top, firsts[t], count)

    for frame, pairs in pairs_at.items():
        pred_degree = Counter(p for p, _ in pairs)
        gt_degree = Counter(g for _, g in pairs)
        contested = {}
        for (p, g), (s, k) in pairs.items():
            if pred_degree[p] == gt_degree[g] == 1:
                credit((p, g), 0, k, frame)
            else:
                contested[(p, g)] = (s, k)
        for component in _components(contested):
            lo = 0
            for k in sorted({contested[pair][1] for pair in component}):
                eligible = {pair: contested[pair][0] for pair in component if contested[pair][1] >= k}
                # At the lowest band the whole component is eligible, and it is connected.
                for pair in _lexmin_component(eligible) if lo == 0 else _lexmin_matching(eligible):
                    credit(pair, lo, k, frame)
                lo = k

    # Between consecutive span ends every pair's count and first frame are
    # constant, so each such run of alphas shares one association sum.
    ends = {0, top}
    for by_span in spans.values():
        for span in by_span:
            ends.update(span)
    edges = sorted(ends)
    per_alpha: list[AlphaScore] = []
    for lo, hi in zip(edges, edges[1:]):
        # (first frame matched at these alphas, pair, frames matched there)
        entries = []
        for pair, by_span in spans.items():
            covering = [span for (start, end), span in by_span.items() if start <= lo < end]
            if covering:
                entries.append((min(first for _, first in covering), pair, sum(c for c, _ in covering)))
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
# Scenario sets -> masks -> the two HOTA variants


def _bind(scenario: ScenarioSet, log: TrackLog, side: str) -> np.ndarray:
    """The scenario's mask on ``log``: a set made on ``log`` is its mask as it is.

    For its first track in id order that flags a pair ``log`` lacks, any
    other set raises UnknownTrack (no such track) or InconsistentInput (the
    earliest flagged timestamp without a state), with ``side`` set.
    """
    if scenario.log is log:
        return scenario.mask
    mask = scenario.mask_on(log)
    if np.count_nonzero(mask) < len(scenario):  # the mask dropped a pair: name the first
        row, column = log.row, log.column
        for track in scenario.tracks():
            j = column.get(track)
            if j is None:
                fault = UnknownTrack(f"scenario references track '{track}' absent from log '{log.log_id}'")
            else:
                unstated = [ts for ts in scenario.timestamps_for(track) if ts not in row or not log.present[row[ts], j]]
                if not unstated:
                    continue
                fault = InconsistentInput(
                    f"scenario flags track '{track}' at {min(unstated)} but the track has no state there"
                )
            fault.side = side
            raise fault
    return mask


def hota_temporal(pred: ScenarioSet, gt: ScenarioSet, log: TrackLog) -> HotaResult:
    """HOTA over exactly the flagged (track, timestamp) fragments."""
    return _hota(_bind(pred, log, PREDICTIONS), _bind(gt, log, GROUND_TRUTH), log.neighbours)


def hota_full(pred: ScenarioSet, gt: ScenarioSet, log: TrackLog) -> HotaResult:
    """HOTA over the flagged tracks extended to their full lifespans."""
    pred, gt = _bind(pred, log, PREDICTIONS), _bind(gt, log, GROUND_TRUTH)
    return _hota(log.present & pred.any(axis=0), log.present & gt.any(axis=0), log.neighbours)


# ---------------------------------------------------------------------------
# F1 metrics


def timestamp_counts(pred: np.ndarray, gt: np.ndarray) -> tuple[int, int, int]:
    """(tp, fp, fn) over the flagged cells of two masks on one log."""
    tp = int(np.count_nonzero(pred & gt))
    return tp, int(np.count_nonzero(pred)) - tp, int(np.count_nonzero(gt)) - tp


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


def timestamp_f1(pred: ScenarioSet, gt: ScenarioSet) -> float:
    """Single-pair timestamp F1 over flagged (track, timestamp) pairs; empty vs empty is a perfect retrieval."""
    p, g = set(pred.pairs()), set(gt.pairs())
    return f1_from_counts(len(p & g), len(p - g), len(g - p))


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
    scores: dict | None = None,
) -> EvalReport:
    """Score predictions against ground truth over its (query, log) universe.

    HOTA numbers average per-log scores within each query, then across
    queries, so a query probed on many logs weighs the same as one probed on
    one. The F1 metrics pool counts over every pair instead: timestamp F1 is
    micro over flagged (track, timestamp) pairs, log F1 treats each pair as
    one binary retrieval decision (positive = non-empty scenario set).

    Each set is read once as its mask on its log (``_bind``), so a set that
    flags a pair the log lacks raises UnknownTrack or InconsistentInput with
    ``side`` set. ``scores`` maps (log id, the bytes of the prediction's mask,
    the bytes of the ground truth's mask) to that pair's scores with the log
    they were made on, and is reused only for that same log object; it
    defaults to a fresh dict per call.
    Before any scoring, a repeated annotation, empty ground truth or a log not
    given raises InconsistentInput with ``side`` GROUND_TRUTH.
    """
    if scores is None:
        scores = {}
    universe: dict[str, dict[str, ScenarioSet]] = {}
    try:
        for gt in ground_truth:
            per_log = universe.setdefault(gt.query_text, {})
            if gt.log_id in per_log:
                raise InconsistentInput(f"duplicate ground truth for query {gt.query_text!r} on log '{gt.log_id}'")
            per_log[gt.log_id] = gt.relevant
        if not universe:
            raise InconsistentInput("ground truth is empty; nothing to evaluate")
        missing = min(((gt.query_text, gt.log_id) for gt in ground_truth if gt.log_id not in logs), default=None)
        if missing:
            raise InconsistentInput(f"ground truth references log '{missing[1]}' but it was not provided")
    except InconsistentInput as exc:
        exc.side = GROUND_TRUTH  # every fault above is the ground truth's
        raise

    query_reports: dict[str, QueryReport] = {}
    query_t_curves: list[list[float]] = []
    query_f_curves: list[list[float]] = []
    ts_tp = ts_fp = ts_fn = 0
    log_tp = log_fp = log_fn = 0

    for query_text in sorted(universe):
        per_log_scores: dict[str, tuple[float, float]] = {}
        t_curves: list[tuple[float, ...]] = []
        f_curves: list[tuple[float, ...]] = []
        predicted = predictions.get(query_text, {})
        for log_id, gt_set in sorted(universe[query_text].items()):
            log = logs[log_id]
            pred = _bind(predicted.get(log_id, _NOTHING), log, PREDICTIONS)
            gt = _bind(gt_set, log, GROUND_TRUTH)

            key = (log_id, pred.tobytes(), gt.tobytes())
            scored = scores.get(key)
            if scored is None or scored[0] is not log:
                pred_on, gt_on = ScenarioSet.from_mask(log, pred), ScenarioSet.from_mask(log, gt)
                t_result = hota_temporal(pred_on, gt_on, log)
                f_result = hota_full(pred_on, gt_on, log)
                scored = scores[key] = (
                    log,
                    t_result.score,
                    f_result.score,
                    tuple(a.score for a in t_result.per_alpha),
                    tuple(a.score for a in f_result.per_alpha),
                    timestamp_counts(pred, gt),
                )
            _, t_score, f_score, t_curve, f_curve, (tp, fp, fn) = scored
            ts_tp, ts_fp, ts_fn = ts_tp + tp, ts_fp + fp, ts_fn + fn

            pred_pos = tp + fp > 0
            gt_pos = tp + fn > 0
            if pred_pos and gt_pos:
                log_tp += 1
            elif pred_pos:
                log_fp += 1
            elif gt_pos:
                log_fn += 1

            per_log_scores[log_id] = (t_score, f_score)
            t_curves.append(t_curve)
            f_curves.append(f_curve)
        t_scores, f_scores = zip(*per_log_scores.values())
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
    overall_log = f1_from_counts(log_tp, log_fp, log_fn)

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
