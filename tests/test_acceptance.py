"""End-to-end checks of the package's headline guarantees, one test each.

Run with `pytest tests/test_acceptance.py -v` for a one-line verdict per
guarantee; add `-s` to see the PASS summaries with timings.
"""

import json
import math
import random
import re
import time

import pytest

import oracles
from scenemine.cli import main
from scenemine.ablation import run_ablation
from scenemine.dsl import interpret, parse
from scenemine.errors import InvariantViolation, MalformedFile
from scenemine.metrics import DEFAULT_ALPHAS, evaluate, hota_from_fragments, timestamp_f1
from scenemine.orchestrator import (
    STATUS_FAILED,
    STATUS_SUCCEEDED,
    MiningConfig,
    mine_scenario,
    run_batch,
)
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
from scenemine.providers import ScriptedProvider, make_fixture
from scenemine.scenario_set import ScenarioSet
from scenemine.synth import ScenarioSpec, generate_scenario_log, random_track_log
from scenemine.tracklog import (
    GroundTruthScenario,
    dump_log_text,
    load_log,
    save_ground_truth,
    save_log,
)

from util import as_dict, make_log, sset, stamps, static_obj

FEEDBACK_RE = re.compile(
    r"This is the code generated last time: .*, with the error message: .*\."
    r" Please avoid code runtime errors\.",
    re.DOTALL,
)


def fenced(code):
    return f"```\n{code}\n```"


# ---------------------------------------------------------------------------
# 1. Every predicate agrees with its brute-force oracle on random logs.


def test_predicates_match_their_oracles_across_random_logs():
    directions = ("forward", "backward", "left", "right")
    relations = ("same", "opposite", "perpendicular")
    start = time.monotonic()
    mismatches = []
    for seed in range(200):
        log = random_track_log(seed, max_objects=10, max_frames=50)
        cand = ScenarioSet({t: frozenset(o.states) for t, o in log.objects.items()})
        cd = as_dict(cand)
        d = directions[seed % 4]
        rel = relations[seed % 3]
        window = (0.15, 0.25, 0.35)[seed % 3]
        cross = bool(seed % 2)
        moving = has_velocity(log, cand, min_velocity=0.5)
        md = as_dict(moving)
        checks = [
            ("get_objects_of_category",
             as_dict(get_objects_of_category(log, "PEDESTRIAN")),
             oracles.get_objects_of_category(log, "PEDESTRIAN")),
            ("has_objects_in_relative_direction",
             as_dict(has_objects_in_relative_direction(
                 log, cand, cand, d, within_distance=25.0, lateral_thresh=8.0)),
             oracles.has_objects_in_relative_direction(
                 log, cd, cd, direction=d, within_distance=25.0, lateral_thresh=8.0)),
            ("being_crossed_by",
             as_dict(being_crossed_by(log, cand, cand, direction=d)),
             oracles.being_crossed_by(log, cd, cd, direction=d)),
            ("heading_in_relative_direction_to",
             as_dict(heading_in_relative_direction_to(log, cand, cand, rel)),
             oracles.heading_in_relative_direction_to(log, cd, cd, direction=rel)),
            ("facing_toward",
             as_dict(facing_toward(log, cand, cand)),
             oracles.facing_toward(log, cd, cd)),
            ("heading_toward",
             as_dict(heading_toward(log, cand, cand)),
             oracles.heading_toward(log, cd, cd)),
            ("near_objects",
             as_dict(near_objects(log, cand, cand, distance_thresh=12.0)),
             oracles.near_objects(log, cd, cd, distance_thresh=12.0)),
            ("has_velocity", md, oracles.has_velocity(log, cd, min_velocity=0.5)),
            ("decelerating",
             as_dict(decelerating(log, cand, min_decel=1.0)),
             oracles.decelerating(log, cd, min_decel=1.0)),
            ("scenario_and", as_dict(scenario_and(cand, moving)), oracles.scenario_and(cd, md)),
            ("scenario_or", as_dict(scenario_or(cand, moving)), oracles.scenario_or(cd, md)),
            ("scenario_not", as_dict(scenario_not(cand, moving)), oracles.scenario_not(cd, md)),
            ("followed_by",
             as_dict(followed_by(log, moving, cand, window, cross_track=cross)),
             oracles.followed_by(log, md, cd, window, cross_track=cross)),
        ]
        assert len(checks) == len(REGISTRY)
        for name, got, want in checks:
            if got != want:
                mismatches.append((seed, name))
    elapsed = time.monotonic() - start
    assert mismatches == []
    assert elapsed < 60.0
    print(f"PASS: all {len(REGISTRY)} predicates match their oracles on 200 random logs "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Direction roles are asymmetric: "a car in front of a pedestrian" is not
#    "a pedestrian in front of a car".


def test_direction_roles_distinguish_car_ahead_of_pedestrian():
    n = 3
    log = make_log(
        [
            static_obj("ped-a", "PEDESTRIAN", 0.0, 0.0, heading=0.0, n=n),
            static_obj("car-x", "REGULAR_VEHICLE", 8.0, 1.0, heading=math.pi / 2, n=n),
            static_obj("car-y", "REGULAR_VEHICLE", -20.0, 0.0, heading=0.0, n=n),
            static_obj("ped-b", "PEDESTRIAN", 400.0, 400.0, heading=0.0, n=n),
        ],
        n=n,
    )
    # the layout's annotation: ped-a is the only pedestrian with a car ahead,
    # at every frame (car-x sits 8 m ahead of it; car-y is behind it)
    manifest_car_in_front_of_ped = {"ped-a": set(stamps(n))}

    peds = get_objects_of_category(log, "PEDESTRIAN")
    cars = get_objects_of_category(log, "REGULAR_VEHICLE")

    forward = has_objects_in_relative_direction(log, peds, cars, "forward")
    swapped = has_objects_in_relative_direction(log, cars, peds, "forward")

    assert as_dict(forward) == manifest_car_in_front_of_ped
    # swapping the roles asks the opposite question and flags the car whose
    # nose points at the pedestrian instead
    assert as_dict(swapped) == {"car-y": set(stamps(n))}
    assert forward != swapped
    print("PASS: role order separates 'car ahead of pedestrian' from its reversal")


# ---------------------------------------------------------------------------
# 3. The generate/repair loop: feedback is verbatim, the round cap is real.


def _mining_log():
    return make_log([static_obj("t1", "TRUCK", 0.0, 0.0)])


def test_repair_loop_heals_in_exactly_three_rounds():
    query = "trucks that exist"
    good = 'x = get_objects_of_category(category="TRUCK")\noutput(x)'
    replies = [
        fenced("x = summon_ghosts()\noutput(x)"),
        fenced('x = get_objects_of_category(category="DOG")\noutput(x)'),
        fenced(good),
    ]
    fixture = make_fixture({query: replies})
    config = MiningConfig(provider=ScriptedProvider(fixture))
    outcome = mine_scenario(query, [_mining_log()], config)

    assert outcome.status == STATUS_SUCCEEDED
    assert len(outcome.iterations) == 3
    errors = [r.error_kind for r in outcome.iterations]
    assert errors == ["UnknownFunction", "PredicateRuntime", None]
    assert len(set(errors[:2])) == 2  # two distinct failure kinds
    for later, earlier in ((1, 0), (2, 1)):
        prompt = outcome.iterations[later].prompt_text
        match = FEEDBACK_RE.search(prompt)
        assert match is not None
        assert outcome.iterations[earlier].code in match.group(0)
        assert outcome.iterations[earlier].error_message in match.group(0)
    assert not FEEDBACK_RE.search(outcome.iterations[0].prompt_text)
    print("PASS: two seeded failures are repaired on round 3 with verbatim feedback")


def test_repair_loop_stops_after_five_failed_rounds():
    query = "trucks that exist"
    fixture = make_fixture({query: [fenced("x = summon_ghosts()\noutput(x)")]})
    provider = ScriptedProvider(fixture)
    config = MiningConfig(provider=provider, max_iterations=5)
    log = _mining_log()
    outcome = mine_scenario(query, [log], config)

    assert provider.calls == 5
    assert outcome.status == STATUS_FAILED
    assert len(outcome.iterations) == 5
    assert outcome.predictions[log.log_id] == ScenarioSet.empty()
    print("PASS: an always-failing provider is called exactly 5 times, then Failed")


# ---------------------------------------------------------------------------
# 4. Metrics reproduce hand-derived values and the brute-force oracle.


def test_metrics_reproduce_hand_derived_scores():
    ts = stamps(3)
    # timestamp F1 = 2/3: two shared pairs, one spurious, one missed
    pred = sset({"a": ts})
    gt = sset({"a": ts[:2], "b": ts[:1]})
    assert timestamp_f1(pred, gt) == 2 / 3

    # log F1 = 0.5: one hit, one false alarm, one miss, one true rejection
    logs = {
        log_id: make_log(
            [static_obj("x", "REGULAR_VEHICLE", 0.0, 0.0), static_obj("y", "PEDESTRIAN", 30.0, 0.0)],
            log_id=log_id,
        )
        for log_id in ("log-a", "log-b")
    }
    hit = sset({"x": stamps(2)})
    ground_truth = [
        GroundTruthScenario("q1", "log-a", hit),
        GroundTruthScenario("q1", "log-b", ScenarioSet.empty()),
        GroundTruthScenario("q2", "log-a", hit),
        GroundTruthScenario("q2", "log-b", ScenarioSet.empty()),
    ]
    predictions = {"q1": {"log-a": hit, "log-b": sset({"y": stamps(2)})}}
    assert evaluate(predictions, ground_truth, logs).log_f1 == 0.5
    print("PASS: timestamp F1 hits 2/3 and log F1 hits 0.5 on the hand-worked cases")


def test_hota_matches_the_enumeration_oracle_on_small_instances():
    grid_x = [0.0, 0.4, 0.8, 1.2, 1.9, 30.0]
    grid_y = [0.0, 0.4, 1.6]
    ts = stamps(5)

    def random_fragments(rng, names):
        frags = {}
        for name in names[: rng.randint(0, 3)]:
            frags[name] = {
                t: (rng.choice(grid_x), rng.choice(grid_y), 0.0)
                for t in rng.sample(ts, rng.randint(0, 5))
            }
        return frags

    worst = 0.0
    for seed in range(300):
        rng = random.Random(seed)
        pred = random_fragments(rng, ["p1", "p2", "p3"])
        gt = random_fragments(rng, ["g1", "g2", "g3"])
        result = hota_from_fragments(pred, gt)
        oracle_score, oracle_alphas = oracles.hota(pred, gt, DEFAULT_ALPHAS)
        assert result.score == pytest.approx(oracle_score, abs=1e-9)
        for ours, (_, theirs) in zip(result.per_alpha, oracle_alphas):
            assert ours.score == pytest.approx(theirs, abs=1e-9)
        worst = max(worst, abs(result.score - oracle_score))
    print(f"PASS: HOTA equals exhaustive matching on 300 small instances "
          f"(worst gap {worst:.2e} <= 1e-9)")


def test_perfect_predictions_score_one_hundred_everywhere():
    results = [
        generate_scenario_log(ScenarioSpec("near", 5)),
        generate_scenario_log(ScenarioSpec("facing", 8)),
    ]
    logs = {r.log.log_id: r.log for r in results}
    queries = [r.query for r in results]
    fixture = make_fixture({r.query: [fenced(r.program)] for r in results})
    batch = run_batch(
        queries, list(logs.values()), MiningConfig(provider=ScriptedProvider(fixture))
    )
    assert not batch.failed_runs()
    predictions = {
        q: {log_id: outcome.predictions[log_id] for log_id, outcome in per_log.items()}
        for q, per_log in batch.outcomes.items()
    }
    ground_truth = [
        GroundTruthScenario(r.query, log_id, interpret(parse(r.program), log))
        for r in results
        for log_id, log in sorted(logs.items())
    ]
    report = evaluate(predictions, ground_truth, logs)
    scores = (report.hota_temporal, report.hota, report.timestamp_f1, report.log_f1)
    assert all(100.0 * s == 100.0 for s in scores)
    assert report.summary_table().splitlines()[1].split() == ["100.00"] * 4
    print("PASS: a perfect mining run scores 100.0 on all four metrics")


# ---------------------------------------------------------------------------
# 5. Repair rounds and the guidance paragraph each buy score, in order.


def test_repair_and_guidance_improve_scores_in_order():
    outcome = run_ablation()
    a = outcome.reports["baseline"].hota_temporal
    b = outcome.reports["repair"].hota_temporal
    c = outcome.reports["repair+guidance"].hota_temporal
    assert a < b < c
    print(f"PASS: HOTA-Temporal orders strictly: baseline {100*a:.2f} < "
          f"repair {100*b:.2f} < repair+guidance {100*c:.2f}")


# ---------------------------------------------------------------------------
# 6. The whole pipeline is byte-deterministic.


def _pipeline(root):
    """synth two bundles -> mine with scripted replies -> eval; returns file bytes."""
    data, mined, report = root / "data", root / "mined", root / "report"
    assert main(["synth", "--template", "near", "--seed", "5", "--out", str(data)]) == 0
    assert main(["synth", "--template", "crossing", "--seed", "9", "--out", str(data)]) == 0

    manifests = [
        json.loads((data / name).read_text())
        for name in ("near-0005.manifest.json", "crossing-0009.manifest.json")
    ]
    queries_path = root / "queries.txt"
    queries_path.write_text("".join(m["query"] + "\n" for m in manifests))
    fixture_path = root / "fixture.json"
    fixture_path.write_text(
        json.dumps(make_fixture({m["query"]: [fenced(m["program"])] for m in manifests}))
    )

    logs = [load_log(str(data / f"{m['log_id']}.json")) for m in manifests]
    entries = [
        GroundTruthScenario(m["query"], log.log_id, interpret(parse(m["program"]), log))
        for m in manifests
        for log in logs
    ]
    gt_path = root / "gt.json"
    save_ground_truth(entries, str(gt_path))

    assert main(["mine", "--queries", str(queries_path), "--logs", str(data),
                 "--out", str(mined), "--fixture", str(fixture_path)]) == 0
    assert main(["eval", "--predictions", str(mined / "predictions.json"),
                 "--gt", str(gt_path), "--logs", str(data), "--out", str(report)]) == 0

    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_pipeline_runs_are_byte_identical(tmp_path, capsys):
    first = _pipeline(tmp_path / "run1")
    second = _pipeline(tmp_path / "run2")
    capsys.readouterr()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    assert "mined/predictions.json" in first
    assert "report/report.json" in first
    print(f"PASS: two synth->mine->eval runs produced {len(first)} byte-identical files")


# ---------------------------------------------------------------------------
# 7. Logs survive save/load unchanged; malformed files are each rejected
#    with a diagnostic naming the violation.


def test_logs_round_trip_and_malformed_files_are_rejected(tmp_path):
    from scenemine.synth import TEMPLATES

    round_tripped = 0
    specimens = [
        generate_scenario_log(ScenarioSpec(template, 13, negative=negative)).log
        for template in TEMPLATES
        for negative in (False, True)
    ] + [random_track_log(seed) for seed in range(20)]
    for log in specimens:
        path = tmp_path / f"{log.log_id}.json"
        save_log(log, str(path))
        loaded = load_log(str(path))
        assert loaded == log
        assert dump_log_text(loaded) == dump_log_text(log)
        round_tripped += 1

    base = json.loads(dump_log_text(make_log([static_obj("a", "BUS", 0.0, 0.0)])))

    def corrupted(mutate):
        raw = json.loads(json.dumps(base))
        mutate(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def drop_timestamps(raw):
        del raw["timestamps"]

    def bad_timestamp_type(raw):
        raw["timestamps"] = [1.5, "x"]

    def unknown_category(raw):
        raw["objects"][0]["category"] = "UNICYCLE"

    def reversed_timestamps(raw):
        raw["timestamps"] = list(reversed(raw["timestamps"]))

    def duplicate_track(raw):
        raw["objects"].append(dict(raw["objects"][0]))

    def heading_out_of_range(raw):
        first = next(iter(raw["objects"][0]["states"]))
        raw["objects"][0]["states"][first]["heading"] = 9.9

    rejections = [
        ("syntax", MalformedFile, "not valid JSON", None),
        ("missing field", MalformedFile, "missing required field 'timestamps'", drop_timestamps),
        ("field type", MalformedFile, "timestamps", bad_timestamp_type),
        ("category", MalformedFile, "unknown category 'UNICYCLE'", unknown_category),
        ("ordering", InvariantViolation, "strictly increasing", reversed_timestamps),
        ("duplicate id", InvariantViolation, "duplicate track_id", duplicate_track),
        ("state invariant", InvariantViolation, "heading", heading_out_of_range),
    ]
    for label, exc_type, fragment, mutate in rejections:
        if mutate is None:
            path = tmp_path / "bad.json"
            path.write_text("{not json")
            path = str(path)
        else:
            path = corrupted(mutate)
        with pytest.raises(exc_type, match=fragment):
            load_log(path)

    print(f"PASS: {round_tripped}/{round_tripped} logs round-tripped intact; "
          f"{len(rejections)} malformed classes rejected with named diagnostics")
