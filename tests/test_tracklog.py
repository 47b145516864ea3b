import json
import math

import pytest
from hypothesis import given, strategies as st

from scenemine.errors import InvariantViolation, MalformedFile
from scenemine.scenario_set import ScenarioSet
from scenemine.tracklog import (
    GroundTruthScenario,
    ObjectState,
    TrackedObject,
    TrackLog,
    dump_ground_truth_text,
    dump_log_text,
    load_ground_truth,
    load_log,
    save_ground_truth,
    save_log,
)

from util import make_log, obj, random_track_log, sset, state, stamps, static_obj


# ---------------------------------------------------------------------------
# Value types


def test_object_state_normalizes_components():
    st_ = ObjectState((1, 2, 3), 0, (0, 0, 0), (1, 1, 1))
    assert st_.position == (1.0, 2.0, 3.0)
    assert isinstance(st_.heading, float)


def test_planar_speed_ignores_vertical():
    assert state(0, 0, vx=3.0, vy=4.0).planar_speed == 5.0
    assert ObjectState((0, 0, 0), 0.0, (0.0, 0.0, 9.0), (1, 1, 1)).planar_speed == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(position=(math.nan, 0, 0)),
        dict(position=(0, math.inf, 0)),
        dict(velocity=(0, math.nan, 0)),
        dict(heading=4.0),  # outside (-pi, pi]
        dict(heading=-math.pi),  # open lower bound
        dict(heading=math.nan),
        dict(box_dims=(0.0, 1, 1)),
        dict(box_dims=(1, -2, 1)),
    ],
)
def test_object_state_rejects_bad_fields(kwargs):
    base = dict(position=(0, 0, 0), heading=0.0, velocity=(0, 0, 0), box_dims=(1, 1, 1))
    base.update(kwargs)
    with pytest.raises(InvariantViolation):
        ObjectState(**base)


def test_heading_pi_is_allowed():
    assert ObjectState((0, 0, 0), math.pi, (0, 0, 0), (1, 1, 1)).heading == math.pi


def test_tracked_object_requires_states_and_id():
    with pytest.raises(InvariantViolation):
        obj("x", "BUS", {})
    with pytest.raises(InvariantViolation):
        TrackedObject("", None, {stamps(2)[0]: state(0, 0)})


def test_log_invariants():
    a = static_obj("a", "BUS", 0, 0)
    with pytest.raises(InvariantViolation):
        TrackLog.build("log", stamps(1), [a])  # too few timestamps
    with pytest.raises(InvariantViolation):
        TrackLog.build("log", (stamps(2)[0], stamps(2)[0]), [])  # not increasing
    with pytest.raises(InvariantViolation):
        TrackLog.build("", stamps(2), [])
    with pytest.raises(InvariantViolation):
        TrackLog.build("log", stamps(2), [a, a])  # duplicate track id
    stray = obj("s", "BUS", {stamps(3)[2]: state(0, 0)})
    with pytest.raises(InvariantViolation):
        TrackLog.build("log", stamps(2), [stray])  # state at unknown timestamp


def test_log_lookup_helpers():
    log = make_log([static_obj("a", "BUS", 1, 2)])
    t0, t1 = log.timestamps
    assert log.state_of("a", t0).position[0] == 1.0
    assert log.state_of("a", t1 + 999) is None
    assert log.state_of("nope", t0) is None


# ---------------------------------------------------------------------------
# Columnar view


def test_view_is_built_on_first_use_and_kept(tmp_path):
    path = tmp_path / "log.json"
    save_log(random_track_log(3), path)
    log = load_log(path)
    assert "columns" not in vars(log)  # loading alone builds no arrays
    save_log(log, path)
    assert "columns" not in vars(log)
    view = log.columns
    assert log.columns is view
    assert load_log(path).columns is not view


@given(st.integers(0, 200))
def test_view_arrays_equal_the_logged_states(seed):
    log = random_track_log(seed, max_objects=6, max_frames=12)
    view = log.columns
    assert view.track_ids == tuple(sorted(log.objects))
    assert view.present.sum() == sum(len(o.states) for o in log.objects.values())
    for j, track in enumerate(view.track_ids):
        assert view.column[track] == j
        for i, ts in enumerate(log.timestamps):
            assert view.row[ts] == i
            st_ = log.objects[track].states.get(ts)
            assert view.present[i, j] == (st_ is not None)
            if st_ is None:
                continue
            vx, vy = st_.velocity[0], st_.velocity[1]
            want = (
                st_.position[0],
                st_.position[1],
                st_.heading,
                math.cos(st_.heading),
                math.sin(st_.heading),
                st_.planar_speed,
                math.atan2(vy, vx),
            )
            got = (view.x, view.y, view.heading, view.cos_heading, view.sin_heading, view.speed, view.velocity_angle)
            assert tuple(a[i, j] for a in got) == want


def test_ground_truth_validate_against():
    log = make_log([static_obj("a", "BUS", 0, 0)])
    t0 = log.timestamps[0]
    good = GroundTruthScenario("q", "log-test", sset({"a": [t0]}))
    good.validate_against(log)

    wrong_log = GroundTruthScenario("q", "other", sset({"a": [t0]}))
    with pytest.raises(InvariantViolation):
        wrong_log.validate_against(log)
    bad_pair = GroundTruthScenario("q", "log-test", sset({"a": [t0 + 7]}))
    with pytest.raises(InvariantViolation):
        bad_pair.validate_against(log)


# ---------------------------------------------------------------------------
# Log file I/O


def test_minimal_log_round_trip(tmp_path):
    log = make_log([static_obj("a", "PEDESTRIAN", 1.5, -2.0, heading=0.25)])
    path = tmp_path / "log.json"
    save_log(log, path)
    assert load_log(path) == log


@given(st.integers(0, 60))
def test_random_log_round_trip(tmp_path_factory, seed):
    """save -> load reproduces both the value and the serialized bytes."""
    log = random_track_log(seed, max_objects=4, max_frames=8)
    path = tmp_path_factory.mktemp("logs") / "log.json"
    save_log(log, path)
    again = load_log(path)
    assert again == log
    assert dump_log_text(again) == path.read_text(encoding="utf-8")


def test_empty_objects_log_round_trips(tmp_path):
    log = TrackLog.build("empty", stamps(2), [])
    save_log(log, tmp_path / "e.json")
    assert load_log(tmp_path / "e.json") == log


def test_save_log_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        save_log(make_log([]), tmp_path / "no-such-dir" / "x.json")


def _write(tmp_path, payload, name="bad.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    return path


def _valid_log_dict():
    return json.loads(dump_log_text(make_log([static_obj("a", "BUS", 0, 0)])))


# The seven rejection classes: each malformed fixture names the violated
# field or invariant in its diagnostic.


def test_rejects_unparseable_json(tmp_path):
    with pytest.raises(MalformedFile, match="not valid JSON"):
        load_log(_write(tmp_path, "{not json"))


def test_rejects_missing_field(tmp_path):
    raw = _valid_log_dict()
    del raw["timestamps"]
    with pytest.raises(MalformedFile, match="missing required field 'timestamps'"):
        load_log(_write(tmp_path, raw))


def test_rejects_wrong_field_type(tmp_path):
    raw = _valid_log_dict()
    raw["timestamps"] = [1.5, "x"]
    with pytest.raises(MalformedFile, match="timestamps"):
        load_log(_write(tmp_path, raw))
    raw = _valid_log_dict()
    raw["objects"][0]["states"][str(stamps(2)[0])]["position"] = [1, 2]
    with pytest.raises(MalformedFile, match="position"):
        load_log(_write(tmp_path, raw))


def test_rejects_unknown_category(tmp_path):
    raw = _valid_log_dict()
    raw["objects"][0]["category"] = "UNICYCLE"
    with pytest.raises(MalformedFile, match="unknown category 'UNICYCLE'"):
        load_log(_write(tmp_path, raw))


def test_rejects_non_monotone_timestamps(tmp_path):
    raw = _valid_log_dict()
    raw["timestamps"] = list(reversed(raw["timestamps"]))
    raw["objects"] = []
    with pytest.raises(InvariantViolation, match="strictly increasing"):
        load_log(_write(tmp_path, raw))


def test_rejects_duplicate_track_id(tmp_path):
    raw = _valid_log_dict()
    raw["objects"].append(dict(raw["objects"][0]))
    with pytest.raises(InvariantViolation, match="duplicate track_id"):
        load_log(_write(tmp_path, raw))


def test_rejects_state_outside_invariants(tmp_path):
    raw = _valid_log_dict()
    first_ts = str(stamps(2)[0])
    raw["objects"][0]["states"][first_ts]["heading"] = 9.9
    with pytest.raises(InvariantViolation, match="heading"):
        load_log(_write(tmp_path, raw))


# ---------------------------------------------------------------------------
# Ground-truth file I/O


def test_ground_truth_round_trip(tmp_path):
    entries = [
        GroundTruthScenario("q2", "log-b", ScenarioSet.empty()),
        GroundTruthScenario("q1", "log-a", sset({"a": [3, 1]})),
    ]
    path = tmp_path / "gt.json"
    save_ground_truth(entries, path)
    loaded = load_ground_truth(path)
    # dumped sorted by (query, log)
    assert [(g.query_text, g.log_id) for g in loaded] == [("q1", "log-a"), ("q2", "log-b")]
    assert loaded[0].relevant == sset({"a": [1, 3]})
    assert dump_ground_truth_text(loaded) == path.read_text(encoding="utf-8")


def test_ground_truth_accepts_bare_object(tmp_path):
    path = _write(tmp_path, {"query_text": "q", "log_id": "l", "relevant": {"a": [1]}})
    loaded = load_ground_truth(path)
    assert len(loaded) == 1 and loaded[0].relevant == sset({"a": [1]})


@pytest.mark.parametrize(
    "payload, pattern",
    [
        ("[{", "not valid JSON"),
        ({"log_id": "l", "relevant": {}}, "missing required field 'query_text'"),
        ({"query_text": "q", "log_id": "l", "relevant": {"a": [1.5]}}, "integer timestamps"),
        ({"query_text": "q", "log_id": "l", "relevant": {"a": []}}, "empty timestamp list"),
        (3, "top level"),
    ],
)
def test_ground_truth_rejects_malformed(tmp_path, payload, pattern):
    with pytest.raises(MalformedFile, match=pattern):
        load_ground_truth(_write(tmp_path, payload))


def test_ground_truth_rejects_duplicate_pair(tmp_path):
    entry = {"query_text": "q", "log_id": "l", "relevant": {"a": [1]}}
    with pytest.raises(MalformedFile, match="duplicate annotation"):
        load_ground_truth(_write(tmp_path, [entry, dict(entry)]))
