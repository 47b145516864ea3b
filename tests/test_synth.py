import json
import math

import pytest
from hypothesis import given, strategies as st

from scenemine.dsl import interpret, parse
from scenemine.errors import InfeasibleSpec
from scenemine.synth import (
    BASE_TS,
    DT_NS,
    TEMPLATES,
    ScenarioSpec,
    generate_scenario_log,
    write_bundle,
)
from scenemine.tracklog import dump_log_text, load_ground_truth, load_log

from util import random_track_log


def test_template_tuple_is_stable():
    assert TEMPLATES == (
        "relative_direction",
        "crossing",
        "facing",
        "heading_toward",
        "near",
        "braking_sequence",
        "compound",
    )


def test_log_id_encodes_spec():
    assert ScenarioSpec("near", 7).log_id == "near-0007"
    assert ScenarioSpec("crossing", 123, negative=True).log_id == "crossing-0123-neg"


@pytest.mark.parametrize("template", TEMPLATES)
@pytest.mark.parametrize("negative", [False, True])
def test_every_template_generates_and_certifies(template, negative):
    spec = ScenarioSpec(template, seed=11, negative=negative)
    result = generate_scenario_log(spec)

    assert result.log.log_id == spec.log_id
    assert result.ground_truth.log_id == spec.log_id
    assert result.ground_truth.query_text == result.query
    assert result.ground_truth.relevant.is_empty == negative
    result.ground_truth.validate_against(result.log)

    # independent re-run of the declared program against the written log
    assert interpret(parse(result.program), result.log) == result.ground_truth.relevant


def test_timestamps_follow_frame_grid():
    result = generate_scenario_log(ScenarioSpec("near", 3, num_frames=6))
    assert result.log.timestamps == tuple(BASE_TS + i * DT_NS for i in range(6))


def test_same_spec_reproduces_identical_bytes(tmp_path):
    spec = ScenarioSpec("compound", seed=42, num_frames=12, num_distractors=4)
    first = generate_scenario_log(spec)
    second = generate_scenario_log(spec)
    assert dump_log_text(first.log) == dump_log_text(second.log)
    assert first.manifest == second.manifest
    assert first.query == second.query and first.program == second.program

    paths_a = write_bundle(first, str(tmp_path / "a"))
    paths_b = write_bundle(second, str(tmp_path / "b"))
    for key in ("log", "ground_truth", "manifest"):
        with open(paths_a[key]) as fa, open(paths_b[key]) as fb:
            assert fa.read() == fb.read()


def test_different_seeds_move_the_scene():
    a = generate_scenario_log(ScenarioSpec("facing", seed=1))
    b = generate_scenario_log(ScenarioSpec("facing", seed=2))
    assert dump_log_text(a.log) != dump_log_text(b.log)
    # the relation survives the rigid motion, so ground truth pairs agree
    assert set(a.ground_truth.relevant.pairs()) == set(b.ground_truth.relevant.pairs())


def test_manifest_records_the_generation():
    spec = ScenarioSpec("crossing", seed=5, num_frames=8, num_distractors=2, params={"speed": 4.0})
    result = generate_scenario_log(spec)
    m = result.manifest
    assert m["log_id"] == "crossing-0005"
    assert m["template"] == "crossing"
    assert m["seed"] == 5
    assert m["negative"] is False
    assert m["num_frames"] == 8
    assert m["num_distractors"] == 2
    assert m["params"] == {"speed": 4.0}
    assert m["query"] == result.query
    assert m["program"] == result.program
    assert m["expected"] == result.ground_truth.relevant.to_json_dict()
    import hashlib

    assert m["log_sha256"] == hashlib.sha256(dump_log_text(result.log).encode()).hexdigest()


@pytest.mark.parametrize(
    "spec, fragment",
    [
        (ScenarioSpec("wormhole", 0), "unknown template"),
        (ScenarioSpec("near", 0, num_frames=3), "between 4 and 40"),
        (ScenarioSpec("near", 0, num_frames=41), "between 4 and 40"),
        (ScenarioSpec("braking_sequence", 0, num_frames=6), "7 to 10"),
        (ScenarioSpec("braking_sequence", 0, num_frames=11), "7 to 10"),
        (ScenarioSpec("near", 0, num_distractors=21), "between 0 and 20"),
        (ScenarioSpec("near", 0, params={"distance_thresh": -2.0}), "positive number"),
        (ScenarioSpec("near", 0, params={"distance_thresh": "close"}), "positive number"),
    ],
)
def test_bad_specs_raise_infeasible(spec, fragment):
    with pytest.raises(InfeasibleSpec, match=fragment):
        generate_scenario_log(spec)


def test_distractors_are_slow_far_and_unflagged():
    base = generate_scenario_log(ScenarioSpec("near", 9, num_distractors=0))
    busy = generate_scenario_log(ScenarioSpec("near", 9, num_distractors=5))
    assert len(busy.log.objects) - len(base.log.objects) == 5

    backgrounds = [t for t in busy.log.objects if t.startswith("bg-")]
    scene = [t for t in busy.log.objects if not t.startswith("bg-")]
    assert len(backgrounds) == 5
    flagged = set(busy.ground_truth.relevant.tracks())
    for bg in backgrounds:
        assert bg not in flagged
        for ts, s in busy.log.objects[bg].states.items():
            assert math.hypot(s.velocity[0], s.velocity[1]) < 0.5
            for other in scene:
                other_state = busy.log.objects[other].states.get(ts)
                if other_state is not None:
                    assert math.dist(s.position[:2], other_state.position[:2]) > 100.0


def test_ego_vehicle_is_always_present():
    for template in TEMPLATES:
        result = generate_scenario_log(ScenarioSpec(template, 3))
        assert "ego" in result.log.objects
        assert result.log.objects["ego"].category.name == "EGO_VEHICLE"


def test_bundle_files_round_trip(tmp_path):
    result = generate_scenario_log(ScenarioSpec("heading_toward", 21, negative=True))
    paths = write_bundle(result, str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "heading_toward-0021-neg.gt.json",
        "heading_toward-0021-neg.json",
        "heading_toward-0021-neg.manifest.json",
    ]
    loaded = load_log(paths["log"])
    assert dump_log_text(loaded) == dump_log_text(result.log)
    (gt,) = load_ground_truth(paths["ground_truth"])
    assert gt == result.ground_truth
    manifest = json.loads(open(paths["manifest"]).read())
    assert manifest == result.manifest


@given(st.sampled_from(TEMPLATES), st.integers(0, 30), st.booleans())
def test_generation_is_certified_for_any_seed(template, seed, negative):
    result = generate_scenario_log(ScenarioSpec(template, seed, negative=negative))
    assert interpret(parse(result.program), result.log) == result.ground_truth.relevant
    assert result.ground_truth.relevant.is_empty == negative


# ---------------------------------------------------------------------------
# Unstructured random logs


def test_random_track_log_is_deterministic():
    assert dump_log_text(random_track_log(17)) == dump_log_text(random_track_log(17))
    assert dump_log_text(random_track_log(17)) != dump_log_text(random_track_log(18))


def test_random_track_log_respects_bounds():
    for seed in range(10):
        log = random_track_log(seed, max_objects=6, max_frames=12)
        assert log.log_id == f"random-{seed:05d}"
        assert 2 <= len(log.objects) <= 6
        assert 4 <= len(log.timestamps) <= 12
