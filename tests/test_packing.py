"""Logs of one width packed into one log: layout, and results equal to one log at a time.

A program runs once per pack, and each member's set is cut back out of the
output. Every member's result must equal execute() on that log alone, and a
program that fails on a pack must fail with the diagnostic the pack's first
log gives.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenemine import orchestrator
from scenemine.dsl import DslError, execute, parse
from scenemine.errors import InconsistentInput
from scenemine.orchestrator import MiningConfig, run_batch
from scenemine.providers import ScriptedProvider, make_fixture
from scenemine.tracklog import pack_logs

from util import DT, first_diagnostic, make_log, obj, programs, random_track_log, state, stamps, static_obj

# ---------------------------------------------------------------------------
# Layout


def _narrow(log_id, n=2):
    return make_log([static_obj("t1", "TRUCK", 0.0, 0.0, n=n)], n=n, log_id=log_id)


def _wide(log_id):
    return make_log([static_obj("b1", "BUS", 0.0, 0.0), static_obj("p1", "PEDESTRIAN", 3.0, 0.0)], log_id=log_id)


def test_logs_are_grouped_by_width_in_order_of_first_appearance():
    logs = [_wide("w1"), _narrow("n1"), _wide("w2"), _narrow("n2"), _narrow("n3")]
    packs = pack_logs(logs)
    assert [[m.log_id for m in pack.members] for pack in packs] == [["w1", "w2"], ["n1", "n2", "n3"]]
    assert [pack.log.log_id for pack in packs] == ["w1+w2", "n1+n2+n3"]


def test_a_group_of_one_is_its_own_log():
    log = _wide("w1")
    (pack,) = pack_logs([_narrow("n1"), log])[1:]
    assert pack.log is log and pack.members == (log,) and pack.starts == (0,)
    assert log.first_rows.tolist() == [0, 0]
    assert log.category_names.tolist() == ["BUS", "PEDESTRIAN"]
    for array in (log.category_names, log.first_rows):
        assert not array.flags.writeable


def test_a_pack_holds_its_members_rows_between_absent_separator_rows():
    a, b = _narrow("a", n=3), _wide("b")
    c = make_log([static_obj("c1", "TRUCK", 0.0, 0.0), static_obj("c2", "BUS", 5.0, 0.0)], log_id="c")
    pack = pack_logs([a, b, c])[1]
    log = pack.log
    assert pack.starts == (0, 3)
    assert log.present.tolist() == [[True, True], [True, True], [False, False], [True, True], [True, True]]
    assert log.first_rows.tolist() == [0, 0, 0, 3, 3]
    assert log.category_names.tolist() == [
        ["BUS", "PEDESTRIAN"], ["BUS", "PEDESTRIAN"], ["", ""], ["TRUCK", "BUS"], ["TRUCK", "BUS"]
    ]
    # Timestamps start at 0, keep each member's steps, and put a second on either side of a separator.
    second = 1_000_000_000
    assert log.timestamps == (0, DT, DT + second, DT + 2 * second, 2 * DT + 2 * second)
    assert np.array_equal(log.x[3:], c.x) and np.array_equal(log.speed[:2], b.speed)
    for array in (log.present, log.x, log.category_names, log.first_rows):
        assert not array.flags.writeable


def test_a_log_id_two_logs_share_is_refused():
    with pytest.raises(InconsistentInput, match="duplicate log id 'n1'"):
        pack_logs([_narrow("n1"), _wide("w1"), _wide("n1")])


def test_packs_do_not_outlive_the_batch(monkeypatch):
    made = []

    def recording(logs):
        packs = pack_logs(logs)
        made.extend(weakref.ref(pack.log) for pack in packs if len(pack.members) > 1)
        return packs

    monkeypatch.setattr(orchestrator, "pack_logs", recording)
    code = 'x = get_objects_of_category(category="TRUCK")\noutput(x)'
    config = MiningConfig(provider=ScriptedProvider(make_fixture({"trucks": [f"```\n{code}\n```"]})))
    batch = run_batch(["trucks"], [_narrow("n1"), _narrow("n2")], config)
    assert batch.outcomes["trucks"]["n2"].predictions["n2"].to_json_dict() == {"t1": list(stamps(2))}
    gc.collect()
    assert len(made) == 1 and made[0]() is None


# ---------------------------------------------------------------------------
# Results equal one log at a time

# Calls that read across frames, so a pack's separator row and row clamp
# matter: followed_by windows from within one frame to far past a whole log,
# on one track and across tracks; decelerating at a member's first frame; and
# crossings whose segment would join two members' frames.
FOLLOWED = 'followed_by(first={a}, second={b}, within_seconds={w}, cross_track="{flag}")'
DECELERATING = "decelerating(track_candidates={a}, min_decel={d})"
CROSSED = (
    'being_crossed_by(track_candidates={a}, related_candidates={b}, direction="{direction}", '
    "lateral_band={band}, forward_extent={extent})"
)


@st.composite
def frame_programs(draw, categories) -> str:
    """One frame-reading call on the logs' categories or on every object, mostly the latter."""
    lines = [f'c{i} = get_objects_of_category(category="{name}")' for i, name in enumerate(categories)]
    every = "c0"
    for i in range(1, len(categories)):
        lines.append(f"u{i} = scenario_or(a={every}, b=c{i})")
        every = f"u{i}"
    sets = st.just(every) | st.sampled_from([f"c{i}" for i in range(len(categories))])
    call = draw(st.sampled_from((FOLLOWED, DECELERATING, CROSSED))).format(
        a=draw(sets),
        b=draw(sets),
        w=draw(st.sampled_from((0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1e6))),
        flag=draw(st.sampled_from(("false", "true"))),
        d=draw(st.sampled_from((0.1, 1.0, 4.0, 20.0))),
        direction=draw(st.sampled_from(("forward", "backward", "left", "right"))),
        band=draw(st.sampled_from((1.0, 10.0, 60.0))),
        extent=draw(st.sampled_from((5.0, 40.0, 150.0))),
    )
    return "\n".join(lines + [f"x = {call}", "output(x)"])


def _diagnostic(program, log):
    """execute() on one log: its set, or its diagnostic as (kind, message, span)."""
    try:
        return execute(program, log)
    except DslError as exc:
        return exc.kind, exc.message, exc.span


def _assert_each_log_gets_what_it_gets_alone(text, logs):
    program = parse(text)
    if first_diagnostic(program) is not None:
        return
    for pack in pack_logs(logs):
        try:
            per_log = pack.split(execute(program, pack.log))
        except DslError as exc:
            assert _diagnostic(program, pack.members[0]) == (exc.kind, exc.message, exc.span)
            continue
        assert per_log == {log.log_id: execute(program, log) for log in pack.members}


# Two or three objects, so three logs or more hold some of one width; up to 8
# frames, so a window of 3 s or more spans a log.
equal_width_logs = st.lists(st.integers(0, 400), min_size=3, max_size=6, unique=True).map(
    lambda seeds: [random_track_log(seed, max_objects=3, max_frames=8) for seed in seeds]
)


@settings(max_examples=200, deadline=None)
@given(programs(), equal_width_logs)
def test_each_log_of_a_pack_gets_what_it_gets_alone(text, logs):
    _assert_each_log_gets_what_it_gets_alone(text, logs)


@settings(max_examples=300, deadline=None)
@given(equal_width_logs, st.data())
def test_calls_that_read_across_frames_stop_at_the_edges_of_each_log(logs, data):
    categories = sorted({name for log in logs for name in log.category_names.tolist()})
    _assert_each_log_gets_what_it_gets_alone(data.draw(frame_programs(categories)), logs)


def test_each_member_set_is_a_view_of_the_pack_output():
    logs = _twin_logs()
    (pack,) = pack_logs(logs)
    program = parse('x = get_objects_of_category(category="REGULAR_VEHICLE")\noutput(x)')
    result = execute(program, pack.log)
    per_log = pack.split(result)
    assert list(per_log) == ["one", "two"]
    for member, found in zip(pack.members, per_log.values()):
        assert found.log is member
        assert np.shares_memory(found.mask_on(member), result.mask_on(pack.log))
        assert found == execute(program, member)


def _twin_logs():
    """Two logs of two tracks each, a car and a bus and a car and a pedestrian, moving and braking."""
    t = stamps(4)
    moving = {ts: state(i * 2.0, 0.0, vx=8.0 - 3 * i) for i, ts in enumerate(t)}
    return [
        make_log([obj("car", "REGULAR_VEHICLE", moving), static_obj("bus", "BUS", 4.0, 1.0, n=4)], n=4, log_id="one"),
        make_log([obj("car", "REGULAR_VEHICLE", moving), static_obj("ped", "PEDESTRIAN", 4.0, -1.0, n=4)], n=4, log_id="two"),
    ]


@pytest.mark.parametrize(
    "text",
    [
        'x = get_objects_of_category(category="DOG")\noutput(x)',
        'a = get_objects_of_category(category="BUS")\nx = followed_by(first=a, second=a, within_seconds=1e999)\noutput(x)',
        'a = get_objects_of_category(category="BUS")\nx = near_objects(track_candidates=a, related_candidates=a, distance_thresh=-1)\noutput(x)',
        'a = get_objects_of_category(category="BUS")\n'
        'x = has_objects_in_relative_direction(track_candidates=a, related_candidates=a, direction="left", min_number=0)\n'
        "output(x)",
        'a = get_objects_of_category(category="REGULAR_VEHICLE")\nx = decelerating(track_candidates=a, min_decel=0)\noutput(x)',
    ],
)
def test_a_program_fails_on_a_pack_as_on_its_first_log(text):
    program = parse(text)
    assert first_diagnostic(program) is None
    (pack,) = pack_logs(_twin_logs())
    with pytest.raises(DslError) as on_pack:
        execute(program, pack.log)
    with pytest.raises(DslError) as on_first:
        execute(program, pack.members[0])
    assert (on_pack.value.kind, str(on_pack.value)) == (on_first.value.kind, str(on_first.value))
    assert on_pack.value.kind == "PredicateRuntime"
