import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from scenemine import ablation, synth, tracklog
from scenemine.dsl import interpret, parse
from scenemine.errors import InfeasibleSpec
from scenemine.scenario_set import ScenarioSet
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
    assert m["log_sha256"] == hashlib.sha256(dump_log_text(result.log).encode()).hexdigest()


# SHA-256 of each template's log text at seed 11, as the per-state object builder wrote it.
LOG_SHA256 = {
    ("relative_direction", False): "5007af9105c7570a074fac1f874089b36e117dbee42ab0a22dfa40e25869c980",
    ("relative_direction", True): "6e685a788364207aff928057059cf060adca4175635a3a9c7894d02067d90ef4",
    ("crossing", False): "eafe7f732d71ef5de4b1b414e6f6329c0a93625875af84a7cbc7908bde6d2286",
    ("crossing", True): "3dd1fb7ea978a485d05de8966b66783869695c9e3df501968bfc87cde7ba8c9e",
    ("facing", False): "0a0df0507898f649aa28cc080dcb779ccd9dfe4488857b7500bd266b2bb82b7d",
    ("facing", True): "aa678b845f96dd0d4743160d7276b99387acc4f928c111259281b84f5dfb1ccf",
    ("heading_toward", False): "4ced3b2b76b379a4dc518915be7398c53ef135bd2f9b3c62f775699ad9cfdd7f",
    ("heading_toward", True): "536f4fb436a8c8235ba3983a4a10b8db039f5deda146ec2a1aed047fdd1dfde1",
    ("near", False): "1b495dacd109538ad66b69a21ec2b76554a9069f7a0b14f845372b62ae0ab6fa",
    ("near", True): "9792ce1f3fcba1197995491821332554765debaf33f4761a4262d7ada0cc913f",
    ("braking_sequence", False): "0f162d74311562a7c92f61c85799c4efd242342806845379c09b404a53c024ec",
    ("braking_sequence", True): "87ac3502a95d0ce56b54b030b56546c0034b9a09f0296f7e99a1ffc2e213a631",
    ("compound", False): "772509f9d33f9bf8b3b2c14ba55bad3c402ff8dc27f30b0e33841acbe4036313",
    ("compound", True): "a0bc2d944fc459e836153deccdb02f0d193ea927a5b395edff734ad76d127236",
}


@pytest.mark.parametrize("template, negative", sorted(LOG_SHA256))
def test_log_bytes_are_pinned(template, negative):
    result = generate_scenario_log(ScenarioSpec(template, seed=11, negative=negative))
    digest = hashlib.sha256(dump_log_text(result.log).encode("utf-8")).hexdigest()
    assert digest == LOG_SHA256[template, negative]


def test_manifest_hash_is_the_hash_of_the_written_log(tmp_path):
    result = generate_scenario_log(ScenarioSpec("braking_sequence", seed=4, negative=True))
    paths = write_bundle(result, str(tmp_path))
    digest = hashlib.sha256(Path(paths["log"]).read_bytes()).hexdigest()
    assert result.manifest["log_sha256"] == digest
    assert json.loads(Path(paths["manifest"]).read_text())["log_sha256"] == digest


@pytest.fixture
def rendered(monkeypatch):
    """The log id of each log whose text is rendered, in order."""
    log_ids = []

    def counting(log):
        log_ids.append(log.log_id)
        return dump_log_text(log)

    monkeypatch.setattr(synth, "dump_log_text", counting)
    monkeypatch.setattr(tracklog, "dump_log_text", counting)
    return log_ids


def test_a_bundle_renders_its_log_once(tmp_path, rendered):
    result = generate_scenario_log(ScenarioSpec("near", seed=2))
    assert rendered == []
    write_bundle(result, str(tmp_path / "a"))
    write_bundle(result, str(tmp_path / "b"))
    assert result.manifest["log_sha256"]
    assert rendered == ["near-0002"]


def test_the_ablation_suite_renders_no_log(rendered):
    assert len(ablation.build_suite().logs) == 30
    assert rendered == []


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
        assert result.log.objects["ego"].category == "EGO_VEHICLE"


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


@pytest.mark.parametrize("negative", [False, True])
def test_building_runs_nothing_and_certify_checks_a_mined_set(monkeypatch, negative):
    spec = ScenarioSpec("crossing", seed=6, negative=negative)
    certified = generate_scenario_log(spec)
    monkeypatch.setattr(synth, "parse", None)
    monkeypatch.setattr(synth, "interpret", None)
    built = synth.build_scenario_log(spec)
    assert built.log == certified.log and built.ground_truth == certified.ground_truth
    assert built.manifest == certified.manifest
    synth.certify(built, certified.ground_truth.relevant)
    other = ScenarioSet({"ego": [BASE_TS]})
    with pytest.raises(InfeasibleSpec) as raised:
        synth.certify(built, other)
    assert str(raised.value) == (
        f"certification failed for {spec.log_id}: program mined {other.to_json_dict()} "
        f"but the layout declares {certified.ground_truth.relevant.to_json_dict()}"
    )


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
