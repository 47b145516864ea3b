import contextlib
import functools
import gc
import io
import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scenemine import cli, tracklog
from scenemine.categories import DEFAULT_REGISTRY
from scenemine.errors import InvariantViolation, MalformedFile
from scenemine.geometry import center_distance_similarity
from scenemine.metrics import evaluate
from scenemine.providers import make_fixture
from scenemine.scenario_set import ScenarioSet
from scenemine.synth import ScenarioSpec, generate_scenario_log, write_bundle
from scenemine.tracklog import (
    GroundTruthScenario,
    ObjectState,
    TrackedObject,
    TrackLog,
    dump_ground_truth_text,
    dump_log_text,
    load_ground_truth,
    load_log,
    pack_logs,
    save_ground_truth,
    save_log,
)

import oracles
from util import (
    make_log, near_pair_logs, obj, random_track_log, random_track_objects, sset, state, stamps, static_obj,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scenebench"))
import scenes  # noqa: E402  the benchmark's Argoverse-shaped logs


# ---------------------------------------------------------------------------
# Value types


def test_object_state_normalizes_components():
    st_ = ObjectState((1, 2, 3), 0, (0, 0, 0), (1, 1, 1))
    assert st_.position == (1.0, 2.0, 3.0)
    assert isinstance(st_.heading, float)


def test_view_speed_ignores_vertical():
    t0, t1 = stamps(2)
    moving = obj("a", "BUS", {t0: state(0, 0, vx=3.0, vy=4.0), t1: ObjectState((0, 0, 0), 0.0, (0.0, 0.0, 9.0), (1, 1, 1))})
    assert make_log([moving]).speed[:, 0].tolist() == [5.0, 0.0]


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
    with pytest.raises(InvariantViolation, match="duplicate track_id 's'"):
        TrackLog.build("log", stamps(2), [stray, stray])  # the repeated id first, then the stray state


def _as_arrays(timestamps, objects):
    """The objects' (tracks, owners, rows, values), gathered as TrackLog.from_arrays takes them."""
    row = {ts: i for i, ts in enumerate(timestamps)}
    tracks, owners, rows, values = [], [], [], []
    for k, o in enumerate(objects):
        tracks.append((o.track_id, o.category))
        for ts, s in o.states.items():
            owners.append(k)
            rows.append(row[ts])
            values.append([*s.position, s.heading, *s.velocity, *s.box_dims])
    return tracks, np.array(owners, dtype=np.intp), np.array(rows, dtype=np.intp), np.array(values).reshape(-1, 10).T


@pytest.mark.parametrize(
    "log_id, timestamps, names",
    [
        ("log", stamps(1), ["a"]),  # too few timestamps
        ("log", (stamps(2)[0], stamps(2)[0]), []),  # not increasing
        ("log", (stamps(3)[0], stamps(3)[2], stamps(3)[1]), ["a"]),  # decreasing at index 2
        ("", stamps(2), ["a"]),
        ("log", stamps(2), ["a", "b", "a"]),  # duplicate track id
        ("", stamps(1), ["a", "a"]),  # every fault at once: the duplicate is named first
        ("", (stamps(2)[1], stamps(2)[0]), []),  # the empty id before the order
    ],
)
def test_from_arrays_rejects_what_build_rejects_with_its_message(log_id, timestamps, names):
    objects = [static_obj(name, "BUS", 0, 0, n=1) for name in names]
    with pytest.raises(InvariantViolation) as built:
        TrackLog.build(log_id, timestamps, objects)
    with pytest.raises(InvariantViolation) as made:
        TrackLog.from_arrays(log_id, timestamps, *_as_arrays(timestamps, objects))
    assert str(made.value) == str(built.value)


_VOCABULARY = ", ".join(DEFAULT_REGISTRY.names)


@pytest.mark.parametrize("category", ["FOO", "bus", "", None])
def test_from_arrays_and_build_refuse_a_category_outside_the_vocabulary(category):
    timestamps = stamps(2)
    objects = [static_obj("a", "BUS", 0, 0), TrackedObject("b", category, {timestamps[0]: state(0, 0)})]
    message = f"object 'b': unknown category '{category}' (registry has: {_VOCABULARY})"
    with pytest.raises(InvariantViolation) as made:
        TrackLog.from_arrays("log", timestamps, *_as_arrays(timestamps, objects))
    assert str(made.value) == message
    with pytest.raises(InvariantViolation) as built:
        TrackLog.build("log", timestamps, objects)
    assert str(built.value) == message
    with pytest.raises(InvariantViolation) as first:  # found in the pass over the tracks, before the log's checks
        TrackLog.from_arrays("", timestamps[:1], *_as_arrays(timestamps, objects))
    assert str(first.value) == message


def test_from_arrays_names_the_first_track_with_a_repeated_id_or_an_unknown_category():
    timestamps = stamps(2)
    owners, rows, values = np.array([0]), np.array([0]), np.ones((10, 1))
    for tracks, message in [
        ([("b", "FOO"), ("a", "BUS"), ("a", "BUS")], f"object 'b': unknown category 'FOO' (registry has: {_VOCABULARY})"),
        ([("a", "BUS"), ("a", "FOO")], "duplicate track_id 'a'"),
    ]:
        with pytest.raises(InvariantViolation) as made:
            TrackLog.from_arrays("log", timestamps, tracks, owners, rows, values)
        assert str(made.value) == message


def test_a_log_of_every_category_name_round_trips(tmp_path):
    timestamps = stamps(2)
    tracks = [(f"t{k}", name) for k, name in enumerate(DEFAULT_REGISTRY.names)]
    values = np.tile(np.array([0, 0, 0, 0, 0, 0, 0, 4, 2, 1], dtype=np.float64)[:, None], len(tracks))
    owners = np.arange(len(tracks))
    log = TrackLog.from_arrays("log", timestamps, tracks, owners, owners % 2, values)
    assert log.category_names.tolist() == list(DEFAULT_REGISTRY.names)
    assert [category for _, category, _, _ in log.track_states()] == list(DEFAULT_REGISTRY.names)
    path = tmp_path / "log.json"
    save_log(log, path)
    again = load_log(path)
    assert again == log and again.category_names.tolist() == list(DEFAULT_REGISTRY.names)
    assert {obj.category for obj in again.objects.values()} == set(DEFAULT_REGISTRY.names)
    assert dump_log_text(again) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "index, value, fault",
    [
        (0, math.nan, "position must be three finite numbers"),
        (1, math.inf, "position must be three finite numbers"),
        (2, -math.inf, "position must be three finite numbers"),
        (5, math.nan, "velocity must be three finite numbers"),
        (9, math.inf, "box_dims must be three finite numbers"),
        (3, math.nan, "heading must lie in (-pi, pi]"),
        (3, -math.pi, "heading must lie in (-pi, pi]"),
        (3, math.nextafter(math.pi, 4.0), "heading must lie in (-pi, pi]"),
        (3, 4.0, "heading must lie in (-pi, pi]"),
        (7, 0.0, "box_dims must all be > 0"),
        (8, -1.5, "box_dims must all be > 0"),
    ],
)
def test_from_arrays_names_the_first_bad_state_as_object_state_words_it(index, value, fault):
    timestamps = stamps(3)
    tracks, owners, rows, values = _as_arrays(timestamps, [static_obj(t, "BUS", 0, 0, n=3) for t in ("b", "a")])
    values = values.copy()
    values[index, 4:] = value  # track a at its second and third timestamps
    with pytest.raises(InvariantViolation) as made:
        TrackLog.from_arrays("log", timestamps, tracks, owners, rows, values)
    v = values[:, 4].tolist()
    with pytest.raises(InvariantViolation, match=re.escape(fault)) as worded:
        ObjectState(tuple(v[0:3]), v[3], tuple(v[4:7]), tuple(v[7:10]))
    assert str(made.value) == f"object 'a' state at {timestamps[1]}: {worded.value}"


def test_from_arrays_accepts_the_bounds_of_each_range():
    timestamps = stamps(2)
    tracks, owners, rows, values = _as_arrays(timestamps, [static_obj("a", "BUS", 0, 0)])
    values = values.copy()
    values[3] = (math.pi, math.nextafter(-math.pi, 0.0))
    values[7:] = 5e-324  # the least positive float
    log = TrackLog.from_arrays("log", timestamps, tracks, owners, rows, values)
    assert log.heading[:, 0].tolist() == [math.pi, math.nextafter(-math.pi, 0.0)]


@pytest.mark.parametrize(
    "owners, rows, message",
    [
        ([0, 0], [0, -1], "log 'log' state 1: row -1 is outside 0..1"),
        ([0, 0], [0, 2], "log 'log' state 1: row 2 is outside 0..1"),
        ([0, -1], [0, 1], "log 'log' state 1: owner -1 is outside 0..1"),
        ([2, 0], [0, 9], "log 'log' state 0: owner 2 is outside 0..1"),  # owners are checked before rows
        ([1, 0, 1, 0], [0, 0, 0, 1], "object 'b' has two states at 1000000000"),
        ([0, 1, 1, 1], [0, 0, 1, 1], "object 'b' has two states at 1100000000"),
    ],
)
def test_from_arrays_rejects_a_state_outside_the_log_or_twice_in_one_cell(owners, rows, message):
    timestamps = stamps(2)
    tracks = [("a", "BUS"), ("b", "BUS")]
    values = np.tile(np.array([0, 0, 0, 0, 0, 0, 0, 4, 2, 1], dtype=np.float64)[:, None], len(owners))
    with pytest.raises(InvariantViolation) as made:
        TrackLog.from_arrays("log", timestamps, tracks, np.array(owners), np.array(rows), values)
    assert str(made.value) == message
    if message.startswith("log"):  # an index out of range is named before a bad value of its state
        values[3] = math.nan
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            TrackLog.from_arrays("log", timestamps, tracks, np.array(owners), np.array(rows), values)


_SHAPES = "values needs 10 rows and one column per owner and row"


@pytest.mark.parametrize(
    "owners, rows, shape, message",
    [
        ([0, 1], [0, 1], (10, 3), f"2 owners, 2 rows and values of shape (10, 3); {_SHAPES}"),
        ([0, 1, 1], [0, 1], (10, 3), f"3 owners, 2 rows and values of shape (10, 3); {_SHAPES}"),
        ([0, 1], [0, 1], (9, 2), f"2 owners, 2 rows and values of shape (9, 2); {_SHAPES}"),
        ([0, 1], [0, 1], (20,), f"2 owners, 2 rows and values of shape (20,); {_SHAPES}"),
        ([0.0, 0.0], [0, 1], (10, 2), "owners of dtype float64; they need an integer dtype"),
        ([0, 1], [False, True], (10, 2), "rows of dtype bool; they need an integer dtype"),
    ],
)
def test_from_arrays_rejects_owners_rows_and_values_of_other_shapes(owners, rows, shape, message):
    timestamps = stamps(2)
    tracks = [("a", "BUS"), ("b", "BUS")]
    values = np.ones(shape)
    with pytest.raises(InvariantViolation) as made:
        TrackLog.from_arrays("log", timestamps, tracks, np.array(owners), np.array(rows), values)
    assert str(made.value) == f"log 'log' has {message}"
    with pytest.raises(InvariantViolation, match="needs at least 2 timestamps"):  # log-level checks come first
        TrackLog.from_arrays("log", timestamps[:1], tracks, np.array(owners), np.array(rows), values)


@given(st.integers(0, 200))
def test_build_equals_from_arrays_on_the_same_states(seed):
    timestamps, objects = random_track_objects(seed, max_objects=6, max_frames=12)
    made = TrackLog.from_arrays("log", timestamps, *_as_arrays(timestamps, objects))
    assert TrackLog.build("log", timestamps, objects) == made


def test_log_lookup_helpers():
    log = make_log([static_obj("a", "BUS", 1, 2)])
    t0, t1 = log.timestamps
    assert log.objects["a"].states[t0].position[0] == 1.0
    assert t1 + 999 not in log.objects["a"].states
    assert "nope" not in log.objects
    assert log.objects["a"].category == "BUS"
    with pytest.raises(TypeError):
        log.objects["b"] = log.objects["a"]  # a derived view, not storage


# ---------------------------------------------------------------------------
# Columnar view


_DERIVED = ("cos_heading", "sin_heading", "speed", "velocity_angle")  # built on first read


def test_view_is_the_log_and_objects_are_built_on_demand(tmp_path):
    path = tmp_path / "log.json"
    save_log(random_track_log(3), path)
    log = load_log(path)
    save_log(log, path)
    assert "objects" not in vars(log)  # loading and saving walk no per-state objects
    assert log.objects is log.objects
    with pytest.raises(ValueError):
        log.x[0, 0] = 1.0  # the arrays are read-only


@given(st.integers(0, 200))
def test_view_arrays_equal_the_logged_states(seed):
    timestamps, objects = random_track_objects(seed, max_objects=6, max_frames=12)
    log = TrackLog.build("log", timestamps, objects)
    given_objects = {o.track_id: o for o in objects}
    assert dict(log.objects) == given_objects
    assert log.track_ids == tuple(sorted(given_objects))
    assert log.category_names.tolist() == [given_objects[t].category for t in log.track_ids]
    assert log.present.sum() == sum(len(o.states) for o in objects)
    for j, track in enumerate(log.track_ids):
        assert log.column[track] == j
        for i, ts in enumerate(log.timestamps):
            assert log.row[ts] == i
            st_ = given_objects[track].states.get(ts)
            assert log.present[i, j] == (st_ is not None)
            if st_ is None:
                assert [getattr(log, name)[i, j] for name in _DERIVED] == [0.0] * 4
                continue
            vx, vy = st_.velocity[0], st_.velocity[1]
            want = (
                *st_.position,
                st_.heading,
                *st_.velocity,
                *st_.box_dims,
                math.cos(st_.heading),
                math.sin(st_.heading),
                math.hypot(vx, vy),
                math.atan2(vy, vx),
            )
            got = (
                log.x, log.y, log.z, log.heading, log.vx, log.vy, log.vz, log.length, log.width, log.height,
                log.cos_heading, log.sin_heading, log.speed, log.velocity_angle,
            )
            assert tuple(a[i, j] for a in got) == want


def _scanned_neighbours(log):
    """Each track's {timestamp: [(other track, similarity)]} by scoring every pair of tracks present in a frame.

    Only non-empty timestamps are kept, and only tracks with one.
    """
    objects = sorted(log.objects.items())
    table = {}
    for track, obj_ in objects:
        for ts, st_ in obj_.states.items():
            near = [
                (other, s)
                for other, o in objects
                if other != track
                and ts in o.states
                and (s := center_distance_similarity(st_.position, o.states[ts].position)) > 0.0
            ]
            if near:
                table.setdefault(track, {})[ts] = near
    return table


def _by_track(log):
    """The log's neighbour table as each track's {timestamp: [(other track, similarity)]}, and no self pairs in it."""
    rows, a, b, similarity = log.neighbours
    assert not any(array.flags.writeable for array in log.neighbours)
    assert (a != b).all()
    table = {}
    for row, i, j, s in zip(rows.tolist(), a.tolist(), b.tolist(), similarity.tolist()):
        table.setdefault(log.track_ids[i], {}).setdefault(log.timestamps[row], []).append((log.track_ids[j], s))
    return table


@settings(max_examples=200)
@given(near_pair_logs())
def test_neighbour_table_equals_a_scan_of_every_pair(log):
    assert _by_track(log) == _scanned_neighbours(log)


@pytest.mark.parametrize("budget", [1, 2000, 1 << 16])  # a frame, 5 frames and all 10 frames a block
def test_neighbour_table_is_the_same_in_any_block_size(monkeypatch, budget):
    monkeypatch.setattr(tracklog, "BLOCK_ELEMENTS", budget)
    log = scenes.argo_log(0, 0, 20, num_frames=10)
    table = _by_track(log)
    assert table == _scanned_neighbours(log)
    assert table  # some track has a neighbour


def _counted_builds(monkeypatch, name: str) -> list:
    """The logs whose cached property ``name`` (the neighbour table, say) is built from now on, one entry per build."""
    built = []
    build = TrackLog.__dict__[name].func

    def counted(log):
        built.append(log)
        return build(log)

    table = functools.cached_property(counted)
    table.__set_name__(TrackLog, name)
    monkeypatch.setattr(TrackLog, name, table)
    return built


def test_neighbour_table_is_built_once_per_log_and_only_to_score(tmp_path, monkeypatch):
    built = _counted_builds(monkeypatch, "neighbours")
    data = tmp_path / "data"
    write_bundle(generate_scenario_log(ScenarioSpec("near", 7)), str(data))
    path = data / "near-0007.json"
    save_log(load_log(path), path)
    queries = ["trucks in the scene", "buses in the scene", "vehicles in the scene"]
    fixture = make_fixture({q: ['```\nx = get_objects_of_category(category="TRUCK")\noutput(x)\n```'] for q in queries})
    (tmp_path / "fixture.json").write_text(json.dumps(fixture))
    (tmp_path / "queries.txt").write_text("\n".join(queries) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["validate", "--logs", str(data), "--gt", str(data / "near-0007.gt.json")]) == 0
        assert cli.main([
            "mine", "--queries", str(tmp_path / "queries.txt"), "--logs", str(data),
            "--out", str(tmp_path / "run"), "--fixture", str(tmp_path / "fixture.json"),
        ]) == 0
    assert built == []  # loading, saving, validating and mining score nothing

    log = load_log(path)
    every = ScenarioSet({track: log.objects[track].states for track in log.objects})
    first = ScenarioSet({track: list(log.objects[track].states)[:1] for track in log.objects})
    report = evaluate(
        {q: {log.log_id: first} for q in queries},
        [GroundTruthScenario(q, log.log_id, every) for q in queries],
        {log.log_id: log},
    )
    assert [len(r.per_log) for r in report.per_query.values()] == [1, 1, 1] and built == [log]  # six HOTA calls, one table


def test_a_packs_heading_and_speed_columns_are_its_members_rows_and_0_at_its_separator():
    a = make_log([static_obj("a1", "BUS", 0, 0, 0.5, n=2, vx=3.0, vy=-4.0),
                  static_obj("a2", "PEDESTRIAN", 5, 0, -2.0, n=3, vx=-1.0, vy=0.5)], n=3, log_id="a")
    b = make_log([static_obj("b1", "TRUCK", 0, 0, 3.0, vx=0.0, vy=2.0),
                  static_obj("b2", "BUS", 9, 0, -0.1, vx=7.0, vy=0.0)], log_id="b")
    (pack,) = pack_logs([a, b])
    for name in _DERIVED:
        column = getattr(pack.log, name)
        assert column[:3].tolist() == getattr(a, name).tolist() and column[2, 0] == 0.0  # a1 is absent at row 2
        assert column[3].tolist() == [0.0, 0.0]  # the separator row
        assert column[4:].tolist() == getattr(b, name).tolist()


def test_heading_and_speed_columns_are_built_once_per_log_and_read_only(monkeypatch):
    built = _counted_builds(monkeypatch, "_derived")
    log = random_track_log(3)
    assert built == []
    columns = [getattr(log, name) for _ in range(2) for name in _DERIVED]
    assert built == [log]
    for column in columns:
        with pytest.raises(ValueError):
            column[0, 0] = 1.0


def test_validate_and_eval_build_no_heading_or_speed_column(tmp_path, monkeypatch):
    result = generate_scenario_log(ScenarioSpec("braking_sequence", 7))
    paths = write_bundle(result, str(tmp_path / "data"))
    built = _counted_builds(monkeypatch, "_derived")
    (tmp_path / "fixture.json").write_text(json.dumps(make_fixture({result.query: [f"```\n{result.program}\n```"]})))
    (tmp_path / "queries.json").write_text(json.dumps([result.query]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["validate", "--logs", str(tmp_path / "data"), "--gt", paths["ground_truth"]]) == 0
        assert built == []
        assert cli.main([
            "mine", "--queries", str(tmp_path / "queries.json"), "--logs", str(tmp_path / "data"),
            "--out", str(tmp_path / "run"), "--fixture", str(tmp_path / "fixture.json"),
        ]) == 0
        assert len(built) == 1  # the program reads speeds
        built.clear()
        assert cli.main([
            "eval", "--predictions", str(tmp_path / "run" / "predictions.json"), "--gt", paths["ground_truth"],
            "--logs", str(tmp_path / "data"), "--out", str(tmp_path / "report"),
        ]) == 0
    assert built == []


def test_validate_against_names_the_first_missing_pair_in_pair_order():
    log = make_log([static_obj("a", "BUS", 0, 0, n=1), static_obj("b", "BUS", 5, 0)])
    t0, t1 = log.timestamps
    for entries, (track, ts) in (
        ({"b": [t0, t1], "a": [t1, t0]}, ("a", t1)),  # a has no state at t1
        ({"b": [t1 + 7, t0], "c": [t0]}, ("b", t1 + 7)),  # the log has no t1 + 7
        ({"z": [t0], "b": [t1]}, ("z", t0)),  # the log has no track z
    ):
        with pytest.raises(InvariantViolation) as caught:
            GroundTruthScenario("q", "log-test", sset(entries)).validate_against(log)
        assert str(caught.value) == f"ground truth pair ({track!r}, {ts}) does not exist in log 'log-test'"


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
    text = path.read_text(encoding="utf-8")
    assert dump_log_text(again) == text


def test_empty_objects_log_round_trips(tmp_path):
    log = TrackLog.build("empty", stamps(2), [])
    save_log(log, tmp_path / "e.json")
    assert load_log(tmp_path / "e.json") == log


def test_save_log_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        save_log(make_log([]), tmp_path / "no-such-dir" / "x.json")


_ODD_TEXT = ('say "hi"', "back\\slash", "bell\x07", "line\nbreak", "café", "日本語", "\u2028", "\U0001f697")
_EDGE_VALUES = (-0.0, 5e-324, 1e-300, 1e16, 0.1, math.pi, -math.pi)
_HEADINGS = tuple(v for v in _EDGE_VALUES if -math.pi < v <= math.pi)
_BOX_DIMS = tuple(v for v in _EDGE_VALUES if v > 0)
_NAMES = st.sampled_from(_ODD_TEXT) | st.text(min_size=1, max_size=8)


@st.composite
def _edge_logs(draw) -> TrackLog:
    """Up to two objects with odd ids, each state value one whose float text is an edge case."""
    timestamps = sorted(draw(st.lists(st.integers(-(10**18), 10**18), min_size=2, max_size=4, unique=True)))

    def triple(values):
        return tuple(draw(st.sampled_from(values)) for _ in range(3))

    objects = []
    for track_id in draw(st.lists(_NAMES, max_size=2, unique=True)):
        states = {
            ts: ObjectState(
                triple(_EDGE_VALUES), draw(st.sampled_from(_HEADINGS)), triple(_EDGE_VALUES), triple(_BOX_DIMS)
            )
            for ts in draw(st.lists(st.sampled_from(timestamps), min_size=1, unique=True))
        }
        category = DEFAULT_REGISTRY.category(draw(st.sampled_from(DEFAULT_REGISTRY.names)))
        objects.append(TrackedObject(track_id, category, states))
    return TrackLog.build(draw(_NAMES), timestamps, objects)


@settings(max_examples=300)
@given(
    st.one_of(
        st.integers(0, 60).map(lambda seed: random_track_log(seed, max_objects=4, max_frames=8)),
        st.builds(scenes.argo_log, st.integers(0, 9), st.integers(0, 3), st.integers(2, 6), st.integers(2, 10)),
        _edge_logs(),
    )
)
@example(TrackLog.build("empty", stamps(2), []))
@example(make_log([static_obj("a", "BUS", 0.1, -0.0, heading=math.pi)], log_id='log "1"\\é'))
def test_log_text_is_the_json_module_text(log):
    """The template writer's text is json.dumps(..., indent=2)'s, byte for byte."""
    assert dump_log_text(log) == oracles.dump_log_text_json(log)


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


def test_rejects_number_too_large_for_a_float(tmp_path):
    first_ts = str(stamps(2)[0])
    for field, value in (("position", [0, 10**400, 0]), ("heading", -(10**400)), ("box_dims", [1, 1, 10**400])):
        raw = _valid_log_dict()
        raw["objects"][0]["states"][first_ts][field] = value
        with pytest.raises(MalformedFile, match=rf"states\[{first_ts}\]\.{field}: number too large for a float"):
            load_log(_write(tmp_path, raw))


def test_rejects_a_bool_for_a_state_number(tmp_path):
    first_ts = str(stamps(2)[0])
    for field, value, message in (
        ("heading", True, "heading: expected a number, got bool"),
        ("position", [0, False, 0], "position: expected a list of 3 numbers"),
        ("box_dims", [1, 1, True], "box_dims: expected a list of 3 numbers"),
    ):
        raw = _valid_log_dict()
        raw["objects"][0]["states"][first_ts][field] = value
        with pytest.raises(MalformedFile, match=rf"states\[{first_ts}\]\.{message}"):
            load_log(_write(tmp_path, raw))


def test_rejects_integer_literal_past_the_digit_limit(tmp_path):
    raw = _valid_log_dict()
    raw["objects"][0]["states"][str(stamps(2)[0])]["heading"] = "@digits@"
    path = _write(tmp_path, json.dumps(raw).replace('"@digits@"', "1" * 5000))
    with pytest.raises(MalformedFile, match="bad.json: track log holds a number that cannot be read"):
        load_log(path)


@pytest.mark.parametrize("spelling", ["0{}{}", " {}{}", "+{}{}", "{}{}\n", "{}_{}"])
def test_rejects_non_canonical_state_key(tmp_path, spelling):
    raw = _valid_log_dict()
    first_ts = str(stamps(2)[0])
    key = spelling.format(first_ts[:1], first_ts[1:])
    states = raw["objects"][0]["states"]
    states[key] = states[first_ts]  # both keys name one timestamp
    with pytest.raises(MalformedFile, match="is not a timestamp written as"):
        load_log(_write(tmp_path, raw))


# ---------------------------------------------------------------------------
# load_log's one reader against the state-by-state walk

_BASE_LOG = json.loads(dump_log_text(random_track_log(5, max_objects=3, max_frames=5)))

_VALUE_MUTATIONS = {
    "wrong type": lambda v: None,
    "bool": lambda v: True,
    "numeric string": str,
    "nested list": lambda v: [v],
    "NaN": lambda v: math.nan,
    "Infinity": lambda v: math.inf,
    "-Infinity": lambda v: -math.inf,
    "pi": lambda v: math.pi,
    "minus pi": lambda v: -math.pi,
    "zero": lambda v: 0,
    "oversized integer": lambda v: 10**400,
}
_STRUCTURE_MUTATIONS = (
    "stray key", "duplicate key", "non-canonical key", "non-canonical duplicate key", "duplicate track id",
    "timestamps past 2**63",
)


def _nodes(doc, path=()):
    """The path of every value inside a parsed JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _mutated_log_text(data) -> tuple[str, tuple, str]:
    """(mutation, path of the mutated value or (), file text): one mutation of a small valid log file."""
    doc = json.loads(json.dumps(_BASE_LOG))
    of_structure = data.draw(st.booleans())
    mutation = data.draw(st.sampled_from(_STRUCTURE_MUTATIONS if of_structure else ["drop", *_VALUE_MUTATIONS]))
    if mutation == "duplicate track id":
        doc["objects"][-1]["track_id"] = doc["objects"][0]["track_id"]
        return mutation, (), json.dumps(doc)
    if mutation == "timestamps past 2**63":  # every timestamp and state key moved past int64
        doc["timestamps"] = [ts + 2**63 for ts in doc["timestamps"]]
        for obj in doc["objects"]:
            obj["states"] = {str(int(key) + 2**63): state for key, state in obj["states"].items()}
        return mutation, (), json.dumps(doc)
    if of_structure:
        states = data.draw(st.sampled_from(doc["objects"]))["states"]
        key = data.draw(st.sampled_from(sorted(states)))
        moved = json.loads(json.dumps(states[key]))
        moved["position"][0] += 1.0
        if mutation == "stray key":
            states[str(doc["timestamps"][-1] + 7)] = moved
        elif mutation == "duplicate key":
            states[key + "@"] = moved  # written below as a second copy of the key
        elif mutation == "non-canonical key":
            states[data.draw(st.sampled_from(["0", " ", "+"])) + key] = states.pop(key)
        else:
            states[key[:1] + "_" + key[1:]] = moved
        return mutation, (), json.dumps(doc).replace(f'"{key}@"', f'"{key}"')
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _VALUE_MUTATIONS[mutation](parent[path[-1]])
    return mutation, path, json.dumps(doc)


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # the error is the outcome under test
        return exc


@settings(max_examples=400)
@given(st.data())
def test_array_loader_matches_the_state_walk(tmp_path_factory, data):
    """Every mutated file loads to the walk's log or fails with the walk's error."""
    mutation, node, text = _mutated_log_text(data)
    path = tmp_path_factory.mktemp("logs") / "log.json"
    path.write_text(text, encoding="utf-8")
    want, got = _outcome(oracles.load_log_walk, path), _outcome(load_log, path)
    state_number = node[2:3] == ("states",) and (len(node) == 6 or node[-1] == "heading")
    if (
        isinstance(want, OverflowError) or mutation in ("non-canonical key", "non-canonical duplicate key")
        or (mutation == "bool" and state_number)  # the walk reads true as 1.0
    ):
        assert isinstance(got, MalformedFile), (mutation, want, got)
    elif isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert isinstance(got, TrackLog) and got == want, (mutation, got)


def _set_state(obj, field, value, ts=None):
    obj["states"][str(ts or stamps(2)[0])][field] = value


def _stray_state(obj):
    obj["states"][str(stamps(3)[2])] = obj["states"][str(stamps(2)[0])]


def _stray_state_then_a_bad_heading(obj):
    """A valid state at a timestamp the log lacks, first in file order, then a state with a heading out of range."""
    t0, t1, absent = map(str, stamps(3))
    obj["states"] = {absent: obj["states"][t0], t0: obj["states"][t0], t1: dict(obj["states"][t1], heading=4.0)}


# (fault in object 0, fault in object 1, the object whose fault wins): the walk checks each object's
# header and then its states in file order, and a state at a timestamp the log lacks only when the
# log is built.
_CROSS_OBJECT_FAULTS = {
    "header fault after a state-value fault": (
        lambda obj: _set_state(obj, "heading", "north"), lambda obj: obj.update(category="UNICYCLE"), 0,
    ),
    "state fault after a header fault": (
        lambda obj: obj.pop("track_id"), lambda obj: _set_state(obj, "position", [1, 2]), 0,
    ),
    "two state faults": (
        lambda obj: _set_state(obj, "heading", 9.9, stamps(2)[1]), lambda obj: _set_state(obj, "velocity", None), 0,
    ),
    "two state faults, the later one of another class": (
        lambda obj: _set_state(obj, "box_dims", [1, 1, "x"]), lambda obj: _set_state(obj, "heading", math.nan), 0,
    ),
    "stray timestamp then a header fault": (_stray_state, lambda obj: obj.pop("track_id"), 1),
    "stray timestamp then a state fault": (
        _stray_state, lambda obj: _set_state(obj, "position", [1, 2, math.inf]), 1,
    ),
    "stray timestamp then a state fault in one object": (_stray_state_then_a_bad_heading, lambda obj: None, 0),
}


@pytest.mark.parametrize("first, second, winner", _CROSS_OBJECT_FAULTS.values(), ids=list(_CROSS_OBJECT_FAULTS))
def test_the_first_fault_across_objects_is_the_walks(tmp_path, first, second, winner):
    raw = json.loads(dump_log_text(make_log([static_obj("a", "BUS", 0, 0), static_obj("b", "PEDESTRIAN", 9, 0)])))
    first(raw["objects"][0])
    second(raw["objects"][1])
    path = _write(tmp_path, raw)
    want = _outcome(oracles.load_log_walk, path)
    assert isinstance(want, (MalformedFile, InvariantViolation))
    assert str(want).startswith(f"bad.json.objects[{winner}]")
    got = _outcome(load_log, path)
    assert (type(got), str(got)) == (type(want), str(want))


@settings(max_examples=10)
@given(st.integers(0, 9), st.integers(0, 3), st.integers(2, 12))
def test_argo_shaped_log_files_round_trip_byte_for_byte(tmp_path_factory, seed, slot, num_objects):
    log = scenes.argo_log(seed, slot, num_objects, num_frames=20)
    path = tmp_path_factory.mktemp("logs") / "log.json"
    save_log(log, path)
    again = load_log(path)
    assert again == log
    text = path.read_text(encoding="utf-8")
    assert dump_log_text(again) == text


# ---------------------------------------------------------------------------
# The cyclic garbage collector during a load


@pytest.mark.parametrize("enabled", [True, False])
def test_load_log_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    log = make_log([static_obj("a", "BUS", 0, 0)])
    save_log(log, tmp_path / "good.json")
    unknown = _valid_log_dict()
    unknown["objects"][0]["category"] = "UNICYCLE"
    bent = _valid_log_dict()
    bent["objects"][0]["states"][str(stamps(2)[0])]["heading"] = 9.9
    rejected = [  # not JSON, walked to each fault class, missing
        (_write(tmp_path, "{not json", "text.json"), MalformedFile),
        (_write(tmp_path, unknown, "category.json"), MalformedFile),
        (_write(tmp_path, bent, "heading.json"), InvariantViolation),
        (tmp_path / "missing.json", OSError),
    ]
    try:
        gc.enable() if enabled else gc.disable()
        assert load_log(tmp_path / "good.json") == log
        assert gc.isenabled() is enabled
        for path, error in rejected:
            with pytest.raises(error):
                load_log(path)
            assert gc.isenabled() is enabled, path.name
    finally:
        gc.enable()


def test_loading_a_log_sets_off_no_collection(tmp_path):
    """The parsed file has no cycles, so reference counting frees it and no collection scans it."""
    log = scenes.argo_log(0, 0, 20, num_frames=150)  # 3,000 states
    save_log(log, tmp_path / "log.json")
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    # A first load fills the interpreter's free lists, which a full collection
    # empties. Objects taken from or given back to them are not counted, so a
    # load on empty lists can end with the count past the threshold, and one
    # collection of the young generation (by then only the new log) follows it.
    load_log(tmp_path / "log.json")
    gc.collect(0)  # a zero count, so only the load's own allocations could set one off
    gc.callbacks.append(count)
    try:
        again = load_log(tmp_path / "log.json")
    finally:
        gc.callbacks.remove(count)
    assert again == log
    assert starts == []


def test_concurrent_loads_end_with_the_collector_on(tmp_path):
    log = scenes.argo_log(0, 0, 10, num_frames=150)
    paths = [tmp_path / f"log-{i}.json" for i in range(8)]
    for path in paths:
        save_log(log, path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade the interpreter often, so loads overlap
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            loaded = list(pool.map(load_log, paths, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert loaded == [log] * 8
    assert gc.isenabled()


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
        ({"query_text": "q", "log_id": "l", "relevant": {"a": [1, True]}}, "integer timestamps"),
        ({"query_text": "q", "log_id": "l", "relevant": {"a": 1}}, "integer timestamps"),
    ],
)
def test_ground_truth_rejects_malformed(tmp_path, payload, pattern):
    with pytest.raises(MalformedFile, match=pattern):
        load_ground_truth(_write(tmp_path, payload))


def test_ground_truth_rejects_duplicate_pair(tmp_path):
    entry = {"query_text": "q", "log_id": "l", "relevant": {"a": [1]}}
    with pytest.raises(MalformedFile, match="duplicate annotation"):
        load_ground_truth(_write(tmp_path, [entry, dict(entry)]))
