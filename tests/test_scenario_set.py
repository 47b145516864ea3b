from hypothesis import given, strategies as st

from scenemine.scenario_set import ScenarioSet

from util import sset


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
    s = ScenarioSet.from_pairs([("a", 1), ("b", 2), ("a", 3)])
    assert s == sset({"a": [1, 3], "b": [2]})


def test_json_round_trip():
    s = sset({"b": [3, 1], "a": [2]})
    raw = s.to_json_dict()
    assert raw == {"a": [2], "b": [1, 3]}
    assert ScenarioSet.from_json_dict(raw) == s


def test_set_operations_small_case():
    a = sset({"x": [1, 2], "y": [1]})
    b = sset({"x": [2, 3], "z": [5]})
    assert a.union(b) == sset({"x": [1, 2, 3], "y": [1], "z": [5]})
    assert a.intersection(b) == sset({"x": [2]})
    assert a.difference(b) == sset({"x": [1], "y": [1]})
    assert b.difference(a) == sset({"x": [3], "z": [5]})


@given(scenario_sets, scenario_sets)
def test_set_operations_match_pair_semantics(a, b):
    """union/intersection/difference behave exactly like sets of pairs."""
    pa, pb = set(a.pairs()), set(b.pairs())
    assert set(a.union(b).pairs()) == pa | pb
    assert set(a.intersection(b).pairs()) == pa & pb
    assert set(a.difference(b).pairs()) == pa - pb


@given(scenario_sets, scenario_sets)
def test_issubset_matches_pair_semantics(a, b):
    assert a.issubset(b) == (set(a.pairs()) <= set(b.pairs()))


@given(scenario_sets)
def test_round_trip_preserves_value(s):
    assert ScenarioSet.from_json_dict(s.to_json_dict()) == s
