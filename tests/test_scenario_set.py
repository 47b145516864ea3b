import numpy as np
import pytest
from hypothesis import given, strategies as st

from scenemine.errors import InvalidParameter, MalformedFile
from scenemine.predicates import (
    followed_by,
    get_objects_of_category,
    has_velocity,
    near_objects,
    scenario_and,
    scenario_not,
    scenario_or,
)
from scenemine.scenario_set import ScenarioSet
from scenemine.tracklog import TrackLog

from util import from_pairs, issubset, random_track_log, sset


def entries_strategy():
    return st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.frozensets(st.integers(0, 6), max_size=5),
        max_size=4,
    )


scenario_sets = entries_strategy().map(ScenarioSet)


def test_empty_entries_are_dropped():
    s = ScenarioSet({"a": frozenset({1}), "b": frozenset()})
    assert s.tracks() == ("a",)
    assert not s.is_empty
    assert len(s) == 1


def test_empty_constructor_and_flag():
    assert ScenarioSet.empty().is_empty
    assert len(ScenarioSet.empty()) == 0
    assert ScenarioSet.empty() == ScenarioSet({"x": frozenset()})


def test_contains_and_timestamps_for():
    s = sset({"a": [1, 2], "b": [2]})
    assert ("a", 1) in s
    assert ("a", 3) not in s
    assert ("z", 1) not in s
    assert "a" not in s  # non-pair objects are simply absent
    assert s.timestamps_for("b") == frozenset({2})
    assert s.timestamps_for("missing") == frozenset()


def test_pairs_are_sorted():
    s = sset({"b": [3, 1], "a": [2]})
    assert list(s.pairs()) == [("a", 2), ("b", 1), ("b", 3)]


def test_from_pairs_groups():
    s = from_pairs([("a", 1), ("b", 2), ("a", 3)])
    assert s == sset({"a": [1, 3], "b": [2]})


def test_json_round_trip():
    s = sset({"b": [3, 1], "a": [2]})
    raw = s.to_json_dict()
    assert raw == {"a": [2], "b": [1, 3]}
    assert ScenarioSet.from_json_dict(raw) == s


@pytest.mark.parametrize("raw", [
    {"a": "123"},       # a string, not a list
    {"a": [1.9, True]},  # a float and a bool in a list
    {"a": 5},           # a number, not a list
    {"a": [1], "b": [None]},
    ["a", [1]],
])
def test_from_json_dict_rejects_anything_but_lists_of_integers(raw):
    with pytest.raises(MalformedFile, match="must map track ids to lists of integer timestamps"):
        ScenarioSet.from_json_dict(raw)


@pytest.mark.parametrize("entries, message", [
    ({"a": "123"}, "track 'a' of a scenario set needs integer timestamps, got '123'"),
    ({"a": [1.9, True]}, "track 'a' of a scenario set needs integer timestamps, got [1.9, True]"),
    ({"a": [1, True]}, "track 'a' of a scenario set needs integer timestamps, got [1, True]"),
    ({"a": [1, 2.0]}, "track 'a' of a scenario set needs integer timestamps, got [1, 2.0]"),
    ({"a": 5}, "track 'a' of a scenario set needs integer timestamps, got 5"),
    ({"a": [1], "b": [None]}, "track 'b' of a scenario set needs integer timestamps, got [None]"),
    ({"a": [np.bool_(True)]}, "track 'a' of a scenario set needs integer timestamps, got [np.True_]"),
    ({1: [5]}, "a scenario set's track ids must be str, got 1"),
])
def test_the_constructor_refuses_anything_but_str_track_ids_and_integer_timestamps(entries, message):
    with pytest.raises(InvalidParameter) as refused:
        ScenarioSet(entries)
    assert str(refused.value) == message


def test_the_constructor_takes_numpy_integers_as_python_ints():
    s = ScenarioSet({"a": np.array([3, 1], dtype=np.int64), "b": (np.int32(2), 4), "c": []})
    assert s == sset({"a": [1, 3], "b": [2, 4]})
    assert {type(ts) for stamps in s.entries.values() for ts in stamps} == {int}


def test_from_json_dict_drops_an_empty_list():
    assert ScenarioSet.from_json_dict({"a": [], "b": [2, 1]}) == sset({"b": [1, 2]})


@given(scenario_sets, scenario_sets)
def test_issubset_matches_pair_semantics(a, b):
    assert issubset(a, b) == (set(a.pairs()) <= set(b.pairs()))


@given(scenario_sets)
def test_round_trip_preserves_value(s):
    assert ScenarioSet.from_json_dict(s.to_json_dict()) == s


# ---------------------------------------------------------------------------
# A set a predicate makes on a log holds a mask; one built from a dict holds
# the pairs. Both must behave as the same set of pairs.


def _random_mask(log: TrackLog, seed: int) -> np.ndarray:
    """A random subset of the log's present pairs."""
    return log.present & (np.random.default_rng(seed).random(log.present.shape) < 0.5)


def _dict_copy(log: TrackLog, mask: np.ndarray, extra=None) -> ScenarioSet:
    """The pairs of a mask as a dict-built set, read cell by cell, plus any ``extra`` entries."""
    entries = {
        track: {log.timestamps[i] for i in range(len(log.timestamps)) if mask[i, j]}
        for j, track in enumerate(log.track_ids)
    }
    return ScenarioSet({**entries, **(extra or {})})


def _pairs_of(log: TrackLog, mask: np.ndarray) -> set[tuple[str, int]]:
    """The (track, timestamp) pairs where a [frames, tracks] mask is True."""
    return {(log.track_ids[j], log.timestamps[i]) for i, j in zip(*mask.nonzero())}


def _stray_copy(log: TrackLog, seed: int) -> ScenarioSet:
    """A dict-built set of random cells of the log, present or not, plus pairs no cell holds.

    Every log track also has a timestamp after the log's last, and a ghost
    track the log lacks has its first timestamp and that later one.
    """
    grid = np.random.default_rng(seed).random(log.present.shape) < 0.5
    late = log.timestamps[-1] + 1
    entries = {
        track: {log.timestamps[i] for i in grid[:, j].nonzero()[0]} | {late} for j, track in enumerate(log.track_ids)
    }
    return ScenarioSet({**entries, "ghost": {log.timestamps[0], late}})


# Each set operation of the registry, with the set-of-pairs operation it restricts to the log.
_SET_OPERATIONS = (
    (scenario_and, set.__and__),
    (scenario_or, set.__or__),
    (scenario_not, set.__sub__),
)


def _assert_same(got: ScenarioSet, want: ScenarioSet, log: TrackLog) -> None:
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert len(got) == len(want)
    assert got.is_empty == want.is_empty
    assert got.tracks() == want.tracks()
    assert list(got.pairs()) == list(want.pairs())
    assert got.to_json_dict() == want.to_json_dict()
    for track in (*log.track_ids, "ghost"):
        assert got.timestamps_for(track) == want.timestamps_for(track)
        for ts in (*log.timestamps, log.timestamps[-1] + 1):
            assert ((track, ts) in got) == ((track, ts) in want)


@given(st.integers(0, 120), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 120))
def test_a_mask_backed_set_behaves_as_its_dict_built_copy(log_seed, seed_a, seed_b, other_seed):
    log, other_log = random_track_log(log_seed, 6, 12), random_track_log(other_seed, 6, 12)
    mask_a, mask_b, mask_c = _random_mask(log, seed_a), _random_mask(log, seed_b), _random_mask(other_log, seed_b)
    a, b, c = ScenarioSet.from_mask(log, mask_a), ScenarioSet.from_mask(log, mask_b), ScenarioSet.from_mask(other_log, mask_c)
    da, db, dc = _dict_copy(log, mask_a), _dict_copy(log, mask_b), _dict_copy(other_log, mask_c)
    ghost = _dict_copy(log, mask_b, {"ghost": {log.timestamps[0], log.timestamps[-1] + 1}})
    for got, want, on in ((a, da, log), (b, db, log), (c, dc, other_log)):
        _assert_same(got, want, on)
    # mask with mask on one log, mask with dict and dict with mask, masks of two logs, a track absent from the log
    for (x, y), (dx, dy) in (
        ((a, b), (da, db)),
        ((a, db), (da, db)),
        ((da, b), (da, db)),
        ((a, c), (da, dc)),
        ((c, a), (dc, da)),
        ((a, ghost), (da, ghost)),
        ((ghost, a), (ghost, da)),
    ):
        px, py = set(dx.pairs()), set(dy.pairs())
        for on in (log, other_log):
            present = _pairs_of(on, on.present)
            for op, pair_op in _SET_OPERATIONS:
                got = op(on, x, y)
                _assert_same(got, op(on, dx, dy), on)
                assert set(got.pairs()) == pair_op(px, py) & present


@given(
    st.integers(0, 120), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.booleans(), st.booleans()
)
def test_set_operations_are_pair_semantics_on_the_pairs_the_log_holds(log_seed, seed_a, seed_b, dict_a, dict_b):
    """scenario_and/or/not of masks or of dict-built sets with strays: the pair operation, within the log."""
    log = random_track_log(log_seed, 6, 12)
    a, b = (
        _stray_copy(log, seed) if from_dict else ScenarioSet.from_mask(log, _random_mask(log, seed))
        for seed, from_dict in ((seed_a, dict_a), (seed_b, dict_b))
    )
    present = _pairs_of(log, log.present)
    for op, pair_op in _SET_OPERATIONS:
        want = pair_op(set(a.pairs()), set(b.pairs())) & present
        got = op(log, a, b)
        _assert_same(got, from_pairs(want), log)
        assert not got.mask_on(log).flags.writeable


def test_equal_sets_hash_alike_and_unequal_sets_are_unequal():
    a = ScenarioSet({"x": [1, 2], "y": [3]})
    # other order and iterables; a track with no timestamps is dropped
    same = ScenarioSet({"y": {3}, "x": (2, 1), "z": []})
    assert a == same and hash(a) == hash(same)
    assert hash(ScenarioSet.empty()) == hash(ScenarioSet({"z": []}))
    others = [
        ScenarioSet({"x": [1, 2]}),
        ScenarioSet({"x": [1, 2], "y": [4]}),
        ScenarioSet({"x": [1], "y": [2, 3]}),
        ScenarioSet.empty(),
    ]
    for other in others:
        assert a != other and other != a
    assert len({a, same, *others}) == 1 + len(others)


def test_len_of_a_predicate_result_builds_no_pairs():
    log = random_track_log(3, 6, 12)
    vehicles = get_objects_of_category(log, "REGULAR_VEHICLE")
    every = has_velocity(log, ScenarioSet.from_mask(log, log.present))
    results = [
        vehicles,
        every,
        near_objects(log, every, every, distance_thresh=50.0),
        scenario_or(log, vehicles, every),
        followed_by(log, every, every, within_seconds=0.5),
    ]
    for result in results:
        assert len(result) == np.count_nonzero(result.mask_on(log))
        assert result.is_empty == (len(result) == 0)
        assert "entries" not in vars(result)
        assert not result.mask_on(log).flags.writeable
    assert [len(r) for r in results] == [len(_dict_copy(log, r.mask_on(log))) for r in results]
