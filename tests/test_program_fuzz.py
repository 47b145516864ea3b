"""Random straight-line programs built from the registry.

Whatever a program asks for, interpret() either returns a ScenarioSet --
every relational call answering with a subset of its track candidates -- or
raises a DslError. Nothing else may escape: not a numpy warning (pytest
turns RuntimeWarning into an error), not an IndexError on an empty candidate
column, not an overflow on an infinite threshold.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from scenemine.dsl import DslError, interpret, parse, pretty_print
from scenemine.predicates import REGISTRY, ROLE_TRACK
from scenemine.scenario_set import ScenarioSet

from util import issubset, make_log, obj, programs, random_track_log, state, stamps


def _checked(spec):
    def impl(log, **kwargs):
        result = spec.impl(log, **kwargs)
        assert isinstance(result, ScenarioSet)
        if ROLE_TRACK in kwargs:
            assert issubset(result, kwargs[ROLE_TRACK])
        return result

    return dataclasses.replace(spec, impl=impl)


CHECKED_REGISTRY = {name: _checked(spec) for name, spec in REGISTRY.items()}


def _stacked_log():
    """Objects sharing positions, standing and moving, present in some frames only."""
    t = stamps(4)
    here = {ts: state(0.0, 0.0, 0.0, vx=1.0) for ts in t}
    return make_log(
        [
            obj("a", "REGULAR_VEHICLE", here),
            obj("b", "REGULAR_VEHICLE", {ts: state(0.0, 0.0, math.pi) for ts in t[1:]}),
            obj("c", "PEDESTRIAN", {t[0]: state(1.0, 1.0), t[2]: state(1.0, 1.0, vy=-2.0)}),
            obj("d", "BUS", {ts: state(-2.0, 0.0, math.pi / 2, vy=3.0) for ts in t}),
        ],
        n=4,
    )


logs = st.integers(0, 300).map(lambda seed: random_track_log(seed, max_objects=6, max_frames=12)) | st.just(
    _stacked_log()
)


@settings(max_examples=300)
@given(programs(), logs)
def test_random_programs_answer_or_raise_a_dsl_error(text, log):
    program = parse(text)
    canonical = pretty_print(program)
    assert pretty_print(parse(canonical)) == canonical
    with pytest.MonkeyPatch.context() as patch:
        for name, spec in CHECKED_REGISTRY.items():
            patch.setitem(REGISTRY, name, spec)
        try:
            result = interpret(program, log)
        except DslError:
            return
    assert isinstance(result, ScenarioSet)
