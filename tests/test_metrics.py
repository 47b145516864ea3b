import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from scenemine.errors import InconsistentInput, UnknownTrack
from scenemine.geometry import center_distance_similarity
from scenemine.metrics import (
    DEFAULT_ALPHAS,
    _lexmin_matching,
    evaluate,
    f1_from_counts,
    hota_full,
    hota_temporal,
    scenario_fragments,
    timestamp_counts,
    timestamp_f1,
)
from scenemine.scenario_set import ScenarioSet
from scenemine.tracklog import GroundTruthScenario

import oracles
from util import T0, DT, fragment_log, make_log, near_pair_logs, obj, sset, stamps, state, static_obj

TS = stamps(3)


def _hota_of(pred, gt):
    """hota_temporal of hand-written {track: {ts: centre}} fragments, scored on a log that holds them."""
    log, pred_set, gt_set = fragment_log(pred, gt)
    return hota_temporal(pred_set, gt_set, log)


def test_default_alphas_are_the_nineteen_twentieths():
    assert DEFAULT_ALPHAS == tuple(i / 20 for i in range(1, 20))


def test_center_distance_similarity():
    assert center_distance_similarity((0, 0, 0), (0, 0, 0)) == 1.0
    assert center_distance_similarity((0, 0, 0), (1, 0, 0)) == 0.5
    assert center_distance_similarity((0, 0, 0), (2, 0, 0)) == 0.0
    assert center_distance_similarity((0, 0, 0), (7, 0, 0)) == 0.0


# ---------------------------------------------------------------------------
# Matching


def test_lexmin_matching_empty():
    assert _lexmin_matching({}) == []


def test_lexmin_matching_unambiguous():
    eligible = {("p2", "g2"): 0.9, ("p1", "g1"): 0.8}
    assert _lexmin_matching(eligible) == [("p1", "g1"), ("p2", "g2")]


def test_lexmin_matching_skips_greedy_trap():
    # taking (a, x) first would strand b; the maximum matching avoids it
    eligible = {("a", "x"): 1.0, ("a", "y"): 1.0, ("b", "x"): 1.0}
    assert _lexmin_matching(eligible) == [("a", "y"), ("b", "x")]


def test_lexmin_matching_breaks_ties_lexicographically():
    eligible = {("p1", "g"): 0.75, ("p2", "g"): 0.75}
    assert _lexmin_matching(eligible) == [("p1", "g")]


def test_lexmin_matching_prefers_total_over_cardinality():
    eligible = {("a", "x"): 1.0, ("a", "y"): 0.7, ("b", "x"): 0.7}
    assert _lexmin_matching(eligible) == [("a", "y"), ("b", "x")]
    eligible = {("a", "x"): 1.0, ("a", "y"): 0.1, ("b", "x"): 0.1}
    assert _lexmin_matching(eligible) == [("a", "x")]


# ---------------------------------------------------------------------------
# HOTA over hand-written fragments: frozen cases


def _swap_fragments():
    gt = {
        "g1": {t: (0.0, 0.0, 0.0) for t in TS},
        "g2": {t: (100.0, 0.0, 0.0) for t in TS},
    }
    pred = {
        "pA": {TS[0]: (0.0, 0.0, 0.0), TS[1]: (0.0, 0.0, 0.0), TS[2]: (100.0, 0.0, 0.0)},
        "pB": {TS[0]: (100.0, 0.0, 0.0), TS[1]: (100.0, 0.0, 0.0), TS[2]: (0.0, 0.0, 0.0)},
    }
    return pred, gt


def test_identity_swap_costs_association_not_detection():
    """Predictions swap identities after frame 2: every detection matches at
    similarity 1, so TP=6 with no misses, but the association term drops to
    2.4 and the score lands at sqrt(0.4) for every alpha."""
    pred, gt = _swap_fragments()
    result = _hota_of(pred, gt)
    assert result.score == 0.6324555320336759
    assert result.score == math.sqrt(0.4)
    for a in result.per_alpha:
        assert a.score == result.score
        assert (a.tp, a.fn, a.fp) == (6, 0, 0)
        assert a.assoc_sum == pytest.approx(2.4, abs=1e-12)


def test_identity_swap_matches_oracle_exactly():
    pred, gt = _swap_fragments()
    result = _hota_of(pred, gt)
    oracle_score, oracle_alphas = oracles.hota(pred, gt, DEFAULT_ALPHAS)
    assert result.score == oracle_score
    assert [a.score for a in result.per_alpha] == [s for _, s in oracle_alphas]


def test_perfect_tracking_scores_one():
    _, gt = _swap_fragments()
    result = _hota_of(gt, gt)
    assert result.score == 1.0
    assert all(a.score == 1.0 and a.tp == 6 and a.fn == a.fp == 0 for a in result.per_alpha)


def test_empty_conventions():
    both = _hota_of({}, {})
    assert both.score == 1.0
    assert all(a == a.__class__(a.alpha, 1.0, 0, 0, 0, 0.0) for a in both.per_alpha)

    _, gt = _swap_fragments()
    assert _hota_of({}, gt).score == 0.0
    assert _hota_of(gt, {}).score == 0.0
    # tracks with no frames are dropped before counting
    assert _hota_of({"x": {}}, {"y": {}}).score == 1.0


def test_tie_break_is_deterministic_and_lex_min():
    pred = {"p1": {TS[0]: (0.0, 0.0, 0.0), TS[1]: (50.0, 0.0, 0.0)}, "p2": {TS[0]: (1.0, 0.0, 0.0)}}
    gt = {"g": {TS[0]: (0.5, 0.0, 0.0)}}
    at_half = _hota_of(pred, gt).per_alpha[DEFAULT_ALPHAS.index(0.5)]
    # p1 and p2 tie at similarity 0.75; the lex-min match (p1, g) has the
    # bigger union so the association term is 1/2, not 1
    assert at_half.alpha == 0.5
    assert at_half.assoc_sum == 0.5
    assert at_half.score == math.sqrt(0.5 / 3)
    assert at_half.score == oracles.hota(pred, gt, (0.5,))[0]


def test_alpha_threshold_excludes_weak_pairs():
    pred = {"p": {TS[0]: (1.0, 0.0, 0.0)}}
    gt = {"g": {TS[0]: (0.0, 0.0, 0.0)}}
    result = _hota_of(pred, gt)
    by_alpha = {a.alpha: a for a in result.per_alpha}
    assert by_alpha[0.25].tp == 1
    assert by_alpha[0.5].tp == 1  # similarity 0.5 is still eligible at 0.5
    assert by_alpha[0.75].tp == 0
    assert by_alpha[0.75].score == 0.0


# ---------------------------------------------------------------------------
# Scenario sets -> fragments -> the two HOTA variants


def _partial_log():
    return make_log(
        [
            obj("x", "REGULAR_VEHICLE", {t: state(float(i), 0.0) for i, t in enumerate(TS)}),
            obj("y", "PEDESTRIAN", {TS[0]: state(40.0, 0.0)}),
        ],
        n=3,
    )


def test_scenario_fragments_flagged_only():
    log = _partial_log()
    frags = scenario_fragments(log, sset({"x": TS[:2]}))
    assert frags == {"x": {TS[0], TS[1]}}


def test_scenario_fragments_full_lifespan():
    log = _partial_log()
    frags = scenario_fragments(log, sset({"x": TS[:1], "y": TS[:1]}), full_lifespan=True)
    assert set(frags["x"]) == set(TS)
    assert set(frags["y"]) == {TS[0]}


def test_scenario_fragments_rejects_unknown_track():
    with pytest.raises(UnknownTrack, match="ghost"):
        scenario_fragments(_partial_log(), sset({"ghost": TS[:1]}))


def test_scenario_fragments_rejects_flag_without_state():
    with pytest.raises(InconsistentInput, match="no state there"):
        scenario_fragments(_partial_log(), sset({"y": [TS[2]]}))


def test_temporal_penalizes_partial_flagging_but_full_does_not():
    log = _partial_log()
    gt = sset({"x": TS})
    pred = sset({"x": TS[:2]})
    temporal = hota_temporal(pred, gt, log)
    full = hota_full(pred, gt, log)
    # temporal: TP=2, FN=1, assoc 2*(2/3) -> sqrt((4/3)/3) = 2/3
    assert temporal.score == pytest.approx(2 / 3, abs=1e-12)
    assert temporal.per_alpha[0].score == pytest.approx(2 / 3, abs=1e-12)
    assert full.score == 1.0


# ---------------------------------------------------------------------------
# Oracle equivalence on random fragments

_POSITIONS = st.tuples(
    st.sampled_from([0.0, 0.4, 0.8, 1.2, 25.0]),
    st.sampled_from([0.0, 0.4, 1.6]),
    st.just(0.0),
)
_FRAMES = st.dictionaries(st.sampled_from(TS), _POSITIONS, max_size=3)


def _fragments(names):
    return st.dictionaries(st.sampled_from(names), _FRAMES, max_size=3)


@given(_fragments(["p1", "p2", "p3"]), _fragments(["g1", "g2", "g3"]))
def test_hota_matches_enumeration_oracle(pred, gt):
    result = _hota_of(pred, gt)
    oracle_score, oracle_alphas = oracles.hota(pred, gt, DEFAULT_ALPHAS)
    assert result.score == pytest.approx(oracle_score, abs=1e-9)
    for ours, (alpha, theirs) in zip(result.per_alpha, oracle_alphas):
        assert ours.alpha == alpha
        assert ours.score == pytest.approx(theirs, abs=1e-9)


@given(_fragments(["p1", "p2"]), _fragments(["g1", "g2"]))
def test_hota_score_is_bounded(pred, gt):
    result = _hota_of(pred, gt)
    assert 0.0 <= result.score <= 1.0


# ---------------------------------------------------------------------------
# Bit-exact equivalence with one matching pass per alpha

# Centres on a 0.5 m grid put similarities exactly on the alpha bounds
# 0.25, 0.5 and 0.75 and make ties; up to six tracks give frames where a
# track has several candidates and frames with several components. Both
# sides flag tracks from one pool, as hota_full's do, so a frame can pair a
# track with itself.
_GRID = st.tuples(
    st.sampled_from([i * 0.5 for i in range(7)]),
    st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    st.just(0.0),
)
_TIE_POOL = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e", "f"]),
    st.dictionaries(st.sampled_from(stamps(4)), _GRID, max_size=4),
    max_size=6,
)


@st.composite
def _tie_fragments(draw):
    """Pred and gt fragments, each flagging some of one tie-heavy pool's (track, timestamp) centres."""
    pool = draw(_TIE_POOL)
    present = [(track, ts) for track, frames in sorted(pool.items()) for ts in sorted(frames)]
    if not present:
        return {}, {}
    sides = []
    for _ in range(2):
        side: dict = {}
        for track, ts in draw(st.sets(st.sampled_from(present))):
            side.setdefault(track, {})[ts] = pool[track][ts]
        sides.append(side)
    return sides


def _positioned(log, scenario, full_lifespan):
    """Fragments with centres, read from the log's objects."""
    out = {}
    for track in scenario.tracks():
        states = log.objects[track].states
        out[track] = {ts: states[ts].position for ts in (states if full_lifespan else scenario.timestamps_for(track))}
    return out


def _assert_log_hota_is_one_pass_per_alpha(log, pred, gt):
    for score, full in ((hota_temporal, False), (hota_full, True)):
        expected = oracles.hota_per_alpha(_positioned(log, pred, full), _positioned(log, gt, full))
        assert score(pred, gt, log) == expected


@settings(max_examples=300)
@given(_tie_fragments())
def test_hota_is_bit_identical_to_one_pass_per_alpha(fragments):
    _assert_log_hota_is_one_pass_per_alpha(*fragment_log(*fragments))


@st.composite
def _log_and_scenarios(draw):
    """A near-pair log with a predicted and a ground-truth scenario set drawn from its (track, timestamp) pairs."""
    log = draw(near_pair_logs())
    present = [(track, ts) for track, o in sorted(log.objects.items()) for ts in sorted(o.states)]
    pred, gt = (ScenarioSet.from_pairs(draw(st.sets(st.sampled_from(present)))) for _ in range(2))
    return log, pred, gt


@settings(max_examples=150)
@given(_log_and_scenarios())
def test_log_hota_is_bit_identical_to_one_pass_per_alpha_on_positions(drawn):
    _assert_log_hota_is_one_pass_per_alpha(*drawn)


_ELIGIBLE = st.dictionaries(
    st.tuples(st.sampled_from(["p1", "p2", "p3", "p4", "p5"]), st.sampled_from(["g1", "g2", "g3", "g4", "g5"])),
    st.sampled_from([0.25, 0.3, 0.5, 0.6, 0.75, 1.0]),
    max_size=12,
)


@settings(max_examples=300)
@given(_ELIGIBLE)
def test_lexmin_matching_per_component_equals_the_global_matching(eligible):
    assert _lexmin_matching(eligible) == oracles.lexmin_matching(eligible)


# ---------------------------------------------------------------------------
# Timestamp F1


def test_timestamp_counts_and_f1_two_thirds():
    pred = sset({"a": TS})
    gt = sset({"a": TS[:2], "b": TS[:1]})
    assert timestamp_counts(pred, gt) == (2, 1, 1)
    assert timestamp_f1(pred, gt) == 2 / 3


def test_timestamp_f1_conventions():
    empty = ScenarioSet.empty()
    assert timestamp_f1(empty, empty) == 1.0
    assert timestamp_f1(sset({"a": TS[:1]}), empty) == 0.0
    assert timestamp_f1(empty, sset({"a": TS[:1]})) == 0.0
    assert timestamp_f1(sset({"a": TS[:1]}), sset({"a": TS[:1]})) == 1.0


def test_f1_from_counts_all_zero_is_perfect():
    assert f1_from_counts(0, 0, 0) == 1.0
    assert f1_from_counts(1, 1, 1) == 0.5


@given(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), st.sets(st.sampled_from(TS), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), st.sets(st.sampled_from(TS), max_size=3), max_size=3),
)
def test_timestamp_f1_matches_oracle(pred_dict, gt_dict):
    pred, gt = sset(pred_dict), sset(gt_dict)
    assert timestamp_f1(pred, gt) == oracles.timestamp_f1(set(pred.pairs()), set(gt.pairs()))


# ---------------------------------------------------------------------------
# Aggregated evaluation


def _eval_logs():
    log_a = make_log(
        [static_obj("x", "REGULAR_VEHICLE", 0.0, 0.0), static_obj("y", "PEDESTRIAN", 30.0, 0.0)],
        log_id="log-a",
    )
    log_b = make_log(
        [static_obj("x", "REGULAR_VEHICLE", 0.0, 0.0), static_obj("y", "PEDESTRIAN", 30.0, 0.0)],
        log_id="log-b",
    )
    return {"log-a": log_a, "log-b": log_b}


def _gts(entries):
    return [GroundTruthScenario(q, log_id, relevant) for q, log_id, relevant in entries]


def test_evaluate_averages_per_query_then_across_queries():
    logs = _eval_logs()
    two = sset({"x": stamps(2)})
    ground_truth = _gts(
        [("q1", "log-a", two), ("q1", "log-b", two), ("q2", "log-a", two)]
    )
    predictions = {
        "q1": {"log-a": two},  # log-b missing -> scored as empty
        "q2": {"log-a": two},
    }
    report = evaluate(predictions, ground_truth, logs)
    # q1 averages (1.0 + 0.0) / 2, q2 is 1.0; queries weigh equally
    assert report.per_query["q1"].hota_temporal == 0.5
    assert report.per_query["q2"].hota_temporal == 1.0
    assert report.hota_temporal == 0.75
    assert report.hota == 0.75
    assert report.per_query["q1"].per_log == {"log-a": (1.0, 1.0), "log-b": (0.0, 0.0)}
    # micro timestamp counts pool across all three pairs: tp=4, fn=2
    assert report.timestamp_f1 == pytest.approx(8 / 10, abs=1e-12)
    # log decisions: two hits, one miss
    assert report.log_f1 == pytest.approx(4 / 5, abs=1e-12)
    assert len(report.hota_temporal_curve) == len(DEFAULT_ALPHAS)
    assert report.hota_temporal_curve[0] == 0.75
    assert [(q, log_id) for q, r in report.per_query.items() for log_id in r.per_log] == [
        ("q1", "log-a"), ("q1", "log-b"), ("q2", "log-a"),
    ]


def test_evaluate_log_f1_half():
    logs = _eval_logs()
    hit = sset({"x": stamps(2)})
    ground_truth = _gts(
        [
            ("q1", "log-a", hit),                  # predicted: true positive
            ("q1", "log-b", ScenarioSet.empty()),  # predicted: false positive
            ("q2", "log-a", hit),                  # not predicted: false negative
            ("q2", "log-b", ScenarioSet.empty()),  # not predicted: true negative
        ]
    )
    predictions = {"q1": {"log-a": hit, "log-b": sset({"y": stamps(2)})}}
    report = evaluate(predictions, ground_truth, logs)
    assert report.log_f1 == 0.5


def test_evaluate_no_positives_anywhere_is_perfect():
    logs = _eval_logs()
    ground_truth = _gts([("q1", "log-a", ScenarioSet.empty())])
    report = evaluate({}, ground_truth, logs)
    assert report.log_f1 == 1.0
    assert report.timestamp_f1 == 1.0
    assert report.hota_temporal == 1.0
    assert report.hota == 1.0


def test_evaluate_ignores_predictions_outside_the_universe():
    logs = _eval_logs()
    hit = sset({"x": stamps(2)})
    ground_truth = _gts([("q1", "log-a", hit)])
    predictions = {"q1": {"log-a": hit}, "q-extra": {"log-a": hit}}
    report = evaluate(predictions, ground_truth, logs)
    assert set(report.per_query) == {"q1"}
    assert report.hota_temporal == 1.0


def test_evaluate_input_validation():
    logs = _eval_logs()
    hit = sset({"x": stamps(2)})
    with pytest.raises(InconsistentInput, match="duplicate ground truth"):
        evaluate({}, _gts([("q", "log-a", hit), ("q", "log-a", hit)]), logs)
    with pytest.raises(InconsistentInput, match="nothing to evaluate"):
        evaluate({}, [], logs)
    with pytest.raises(InconsistentInput, match="log 'log-z'"):
        evaluate({}, _gts([("q", "log-z", hit)]), logs)


def test_perfect_run_summary_table():
    logs = _eval_logs()
    hit = sset({"x": stamps(2)})
    ground_truth = _gts([("q1", "log-a", hit)])
    report = evaluate({"q1": {"log-a": hit}}, ground_truth, logs)
    assert report.summary_table() == (
        "HOTA-T    HOTA   TS-F1  Log-F1\n"
        "100.00  100.00  100.00  100.00\n"
    )


def test_report_json_round_trip():
    logs = _eval_logs()
    hit = sset({"x": stamps(2)})
    report = evaluate({"q1": {"log-a": hit}}, _gts([("q1", "log-a", hit)]), logs)
    blob = json.loads(report.to_json())
    assert blob == report.to_json_dict()
    assert blob["hota_temporal"] == 1.0
    assert blob["per_query"]["q1"]["per_log"]["log-a"] == [1.0, 1.0]
    assert len(blob["alphas"]) == len(DEFAULT_ALPHAS)
