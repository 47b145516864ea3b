import json
import os
import re
import sys

import pytest

from scenemine import dsl, orchestrator
from scenemine.dsl import DslError
from scenemine.errors import EmptyResponse, InconsistentInput, InvalidParameter
from scenemine.orchestrator import (
    EMPTY_RESPONSE,
    MISSING_CODE_PLACEHOLDER,
    STATUS_FAILED,
    STATUS_SUCCEEDED,
    TRANSPORT_ERROR,
    LogSet,
    MiningConfig,
    extract_code,
    mine_scenario,
    run_batch,
)
from scenemine.predicates import REGISTRY, FunctionSpec
from scenemine.providers import ScriptedProvider, make_fixture
from scenemine.scenario_set import ScenarioSet

from util import FlakyProvider, make_log, sset, stamps, static_obj

QUERY = "trucks on the move"

GOOD_CODE = 'x = get_objects_of_category(category="TRUCK")\noutput(x)'
BAD_FUNCTION = "x = summon_ghosts()\noutput(x)"
BAD_CATEGORY = 'x = get_objects_of_category(category="DOG")\noutput(x)'

FEEDBACK_RE = re.compile(
    r"This is the code generated last time: .*, with the error message: .*\."
    r" Please avoid code runtime errors\.",
    re.DOTALL,
)


def fenced(code):
    return f"Here is the program:\n```\n{code}\n```\nhope that helps"


def fixture_config(replies, query=QUERY, **kwargs):
    fixture = make_fixture({query: list(replies)})
    return MiningConfig(provider=ScriptedProvider(fixture), **kwargs)


@pytest.fixture
def log():
    return make_log([static_obj("t1", "TRUCK", 0.0, 0.0), static_obj("p1", "PEDESTRIAN", 30.0, 0.0)])


# ---------------------------------------------------------------------------
# Code extraction


def test_extract_code_from_fenced_block():
    assert extract_code(fenced(GOOD_CODE)) == GOOD_CODE


def test_extract_code_ignores_language_tag():
    assert extract_code("```python\nx = f()\n```") == "x = f()"


def test_extract_code_first_fence_wins():
    response = "```\nfirst\n```\ntext\n```\nsecond\n```"
    assert extract_code(response) == "first"


def test_extract_code_unterminated_fence_runs_to_end():
    assert extract_code("```\nx = f()\noutput(x)") == "x = f()\noutput(x)"


def test_extract_code_indented_fence():
    assert extract_code("  ```\nx = f()\n  ```") == "x = f()"


def test_extract_code_without_fence_uses_whole_reply():
    assert extract_code("  x = f()\noutput(x)\n") == "x = f()\noutput(x)"


def test_extract_code_empty_fence_yields_empty_string():
    assert extract_code("```\n```") == ""


def test_extract_code_blank_response_raises():
    with pytest.raises(EmptyResponse):
        extract_code("   \n\t")


# ---------------------------------------------------------------------------
# The repair loop


def test_clean_first_round(log):
    outcome = mine_scenario(QUERY, [log], fixture_config([fenced(GOOD_CODE)]))
    assert outcome.status == STATUS_SUCCEEDED
    assert outcome.succeeded
    assert outcome.code == GOOD_CODE
    assert outcome.predictions[log.log_id] == sset({"t1": stamps(2)})
    assert len(outcome.iterations) == 1
    record = outcome.iterations[0]
    assert record.error_kind is None and record.error_message is None
    assert "iteration_feedback" not in record.prompt_text
    assert QUERY in record.prompt_text


def test_two_failures_then_success(log):
    config = fixture_config([fenced(BAD_FUNCTION), fenced(BAD_CATEGORY), fenced(GOOD_CODE)])
    outcome = mine_scenario(QUERY, [log], config)
    assert outcome.status == STATUS_SUCCEEDED
    assert len(outcome.iterations) == 3

    first, second, third = outcome.iterations
    assert (first.index, second.index, third.index) == (1, 2, 3)
    assert first.error_kind == "UnknownFunction"
    assert second.error_kind == "PredicateRuntime"
    assert third.error_kind is None

    # round 1 prompt carries no feedback; later rounds embed the previous
    # program and diagnostic verbatim in the fixed repair sentence
    assert not FEEDBACK_RE.search(first.prompt_text)
    for record, prior in ((second, first), (third, second)):
        match = FEEDBACK_RE.search(record.prompt_text)
        assert match is not None
        assert prior.code in match.group(0)
        assert prior.error_message in match.group(0)


def test_all_rounds_fail(log):
    config = fixture_config([fenced(BAD_FUNCTION)])
    outcome = mine_scenario(QUERY, [log], config)
    assert config.provider.calls == 5
    assert outcome.status == STATUS_FAILED
    assert outcome.code is None
    assert outcome.predictions[log.log_id] == ScenarioSet.empty()
    assert outcome.predictions[log.log_id].is_empty
    assert len(outcome.iterations) == 5
    assert all(r.error_kind == "UnknownFunction" for r in outcome.iterations)


def test_iteration_cap_is_configurable(log):
    config = fixture_config([fenced(BAD_FUNCTION)], max_iterations=2)
    outcome = mine_scenario(QUERY, [log], config)
    assert outcome.status == STATUS_FAILED
    assert len(outcome.iterations) == 2


def test_parse_errors_are_repairable(log):
    nested = "x = has_velocity(get_objects_of_category())\noutput(x)"
    config = fixture_config([fenced(nested), fenced(GOOD_CODE)])
    outcome = mine_scenario(QUERY, [log], config)
    assert outcome.status == STATUS_SUCCEEDED
    assert outcome.iterations[0].error_kind == "ParseError"
    assert outcome.iterations[0].error_span is not None


def test_transport_failure_retries_within_round(log):
    sleeps = []
    fixture = make_fixture({QUERY: [fenced(GOOD_CODE)]})
    provider = FlakyProvider(ScriptedProvider(fixture), fail_on=(1,))
    config = MiningConfig(provider=provider, sleeper=sleeps.append)
    outcome = mine_scenario(QUERY, [log], config)
    assert outcome.status == STATUS_SUCCEEDED
    assert len(outcome.iterations) == 1  # the retry happens inside the round
    assert provider.calls == 2
    assert sleeps == [2.0]


def test_transport_failure_twice_burns_the_round(log):
    sleeps = []
    fixture = make_fixture({QUERY: [fenced(GOOD_CODE)]})
    provider = FlakyProvider(ScriptedProvider(fixture), fail_on=(1, 2))
    config = MiningConfig(provider=provider, sleeper=sleeps.append)
    outcome = mine_scenario(QUERY, [log], config)
    assert outcome.status == STATUS_SUCCEEDED
    assert len(outcome.iterations) == 2
    assert sleeps == [2.0]

    burned = outcome.iterations[0]
    assert burned.error_kind == TRANSPORT_ERROR
    assert burned.response_text is None and burned.code is None
    # with no code to quote, the next prompt uses the placeholder
    assert MISSING_CODE_PLACEHOLDER in outcome.iterations[1].prompt_text
    assert "injected transport failure" in outcome.iterations[1].prompt_text


def test_empty_reply_burns_the_round(log):
    config = fixture_config(["   ", fenced(GOOD_CODE)])
    outcome = mine_scenario(QUERY, [log], config)
    assert outcome.status == STATUS_SUCCEEDED
    assert outcome.iterations[0].error_kind == EMPTY_RESPONSE
    assert MISSING_CODE_PLACEHOLDER in outcome.iterations[1].prompt_text


def test_empty_fenced_block_counts_as_empty(log):
    config = fixture_config(["```\n```", fenced(GOOD_CODE)])
    outcome = mine_scenario(QUERY, [log], config)
    assert outcome.iterations[0].error_kind == EMPTY_RESPONSE
    assert outcome.iterations[0].response_text == "```\n```"


def test_epsrf_toggle_reaches_prompts(log):
    from scenemine.promptgen import EPSRF_GUIDANCE

    on = mine_scenario(QUERY, [log], fixture_config([fenced(GOOD_CODE)], epsrf=True))
    off = mine_scenario(QUERY, [log], fixture_config([fenced(GOOD_CODE)], epsrf=False))
    assert EPSRF_GUIDANCE in on.iterations[0].prompt_text
    assert EPSRF_GUIDANCE not in off.iterations[0].prompt_text


def test_outcome_json_shape(log):
    outcome = mine_scenario(QUERY, [log], fixture_config([fenced(GOOD_CODE)]))
    blob = outcome.to_json_dict(log.log_id)
    assert blob["query"] == QUERY
    assert blob["log_id"] == log.log_id
    assert blob["status"] == STATUS_SUCCEEDED
    assert blob["prediction"] == {"t1": list(stamps(2))}
    assert blob["iterations"][0]["index"] == 1
    json.dumps(blob)  # serializable as-is


# ---------------------------------------------------------------------------
# An outcome cut to its first rounds


def test_a_success_on_round_two_cut_to_one_round_fails(log):
    other = make_log([static_obj("p2", "PEDESTRIAN", 0.0, 0.0)], log_id="log-b")
    replies = [fenced(BAD_FUNCTION), fenced(GOOD_CODE)]
    outcome = mine_scenario(QUERY, [log, other], fixture_config(replies))
    assert outcome.succeeded and len(outcome.iterations) == 2
    cut = outcome.first_rounds(1)
    assert cut.status == STATUS_FAILED and cut.code is None
    assert cut.iterations == outcome.iterations[:1]
    assert cut.predictions == {log.log_id: ScenarioSet.empty(), "log-b": ScenarioSet.empty()}
    assert cut == mine_scenario(QUERY, [log, other], fixture_config(replies, max_iterations=1))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_cut_to_at_least_the_rounds_taken_is_the_outcome_itself(log, k):
    outcome = mine_scenario(QUERY, [log], fixture_config([fenced(BAD_FUNCTION), fenced(GOOD_CODE)]))
    assert outcome.first_rounds(k) is outcome
    failed = mine_scenario(QUERY, [log], fixture_config([fenced(BAD_FUNCTION)], max_iterations=2))
    assert failed.first_rounds(k) is failed


def test_a_success_on_round_one_survives_a_cut_to_one(log):
    outcome = mine_scenario(QUERY, [log], fixture_config([fenced(GOOD_CODE)]))
    cut = outcome.first_rounds(1)
    assert cut is outcome and cut.succeeded and cut.code == GOOD_CODE
    assert cut.predictions[log.log_id] == sset({"t1": stamps(2)})


def test_a_transport_error_first_round_is_kept_as_recorded(log):
    def mine(max_iterations):
        provider = FlakyProvider(ScriptedProvider(make_fixture({QUERY: [fenced(GOOD_CODE)]})), fail_on=(1, 2))
        config = MiningConfig(provider=provider, max_iterations=max_iterations, sleeper=[].append)
        return mine_scenario(QUERY, [log], config)

    outcome = mine(5)
    assert outcome.succeeded and outcome.iterations[0].error_kind == TRANSPORT_ERROR
    cut = outcome.first_rounds(1)
    assert cut.status == STATUS_FAILED and cut.code is None
    assert cut.iterations == outcome.iterations[:1] and cut.iterations[0] is outcome.iterations[0]
    assert cut.predictions == {log.log_id: ScenarioSet.empty()}
    assert cut == mine(1)


# ---------------------------------------------------------------------------
# Batch runs


def _two_logs():
    a = make_log([static_obj("t1", "TRUCK", 0.0, 0.0)], log_id="log-a")
    b = make_log([static_obj("p1", "PEDESTRIAN", 0.0, 0.0)], log_id="log-b")
    return [a, b]


def _batch_fixture():
    return make_fixture(
        {
            "trucks": [fenced(GOOD_CODE)],
            "walkers": [fenced('x = get_objects_of_category(category="PEDESTRIAN")\noutput(x)')],
            "doomed": [fenced(BAD_FUNCTION)],
        }
    )


def _batch_config(**kwargs):
    return MiningConfig(provider=ScriptedProvider(_batch_fixture()), **kwargs)


def test_run_batch_covers_the_grid():
    batch = run_batch(["trucks", "walkers", "doomed"], _two_logs(), _batch_config())
    assert set(batch.outcomes) == {"trucks", "walkers", "doomed"}
    assert set(batch.outcomes["trucks"]) == {"log-a", "log-b"}
    assert batch.outcomes["trucks"]["log-a"].predictions["log-a"] == sset({"t1": stamps(2)})
    assert batch.outcomes["trucks"]["log-b"].predictions["log-b"].is_empty
    assert batch.outcomes["walkers"]["log-b"].predictions["log-b"] == sset({"p1": stamps(2)})
    assert sorted(batch.failed_runs()) == [("doomed", "log-a"), ("doomed", "log-b")]


def test_run_batch_translates_each_query_once():
    config = _batch_config()
    batch = run_batch(["trucks", "walkers", "doomed"], _two_logs(), config)
    assert config.provider.calls == 1 + 1 + 5  # one loop per query, not per (query, log)
    per_log = batch.outcomes["doomed"]
    assert per_log["log-a"] is per_log["log-b"]


class _Raising:
    """A third-party provider that raises ``error`` on its first ``times`` calls for prompts holding ``query``."""

    def __init__(self, inner, query, error, times=None):
        self.inner, self.query, self.error, self.times = inner, query, error, times
        self.raised = 0

    def generate(self, prompt):
        if self.query in prompt and (self.times is None or self.raised < self.times):
            self.raised += 1
            raise self.error
        return self.inner.generate(prompt)


def test_any_provider_exception_is_retried_within_the_round():
    sleeps = []
    provider = _Raising(ScriptedProvider(_batch_fixture()), "trucks", RuntimeError("socket reset"), times=1)
    outcome = mine_scenario("trucks", _two_logs(), MiningConfig(provider=provider, sleeper=sleeps.append))
    assert outcome.status == STATUS_SUCCEEDED
    assert len(outcome.iterations) == 1 and sleeps == [2.0]


def test_a_provider_that_always_raises_fails_only_its_query():
    sleeps = []
    provider = _Raising(ScriptedProvider(_batch_fixture()), "walkers", KeyError("choices"))
    batch = run_batch(["trucks", "walkers"], _two_logs(), MiningConfig(provider=provider, sleeper=sleeps.append))
    assert sorted(batch.failed_runs()) == [("walkers", "log-a"), ("walkers", "log-b")]
    assert batch.outcomes["trucks"]["log-a"].succeeded
    rounds = batch.outcomes["walkers"]["log-a"].iterations
    assert [r.error_kind for r in rounds] == [TRANSPORT_ERROR] * 5
    assert rounds[0].error_message == "KeyError: 'choices'"
    assert provider.raised == 10 and sleeps == [2.0] * 5  # each round retries once


class _Returning:
    """A third-party provider that returns ``reply`` on its first ``times`` calls for prompts holding ``query``."""

    def __init__(self, inner, query, reply, times=None):
        self.inner, self.query, self.reply, self.times = inner, query, reply, times
        self.returned = 0

    def generate(self, prompt):
        if self.query in prompt and (self.times is None or self.returned < self.times):
            self.returned += 1
            return self.reply
        return self.inner.generate(prompt)


@pytest.mark.parametrize("reply, kind", [(None, "NoneType"), (fenced(GOOD_CODE).encode(), "bytes"), ({"text": GOOD_CODE}, "dict")])
def test_a_reply_that_is_not_a_string_fails_only_its_query(reply, kind):
    sleeps = []
    provider = _Returning(ScriptedProvider(_batch_fixture()), "walkers", reply)
    batch = run_batch(["trucks", "walkers", "doomed"], _two_logs(), MiningConfig(provider=provider, sleeper=sleeps.append))
    assert sorted(batch.failed_runs()) == [("doomed", "log-a"), ("doomed", "log-b"), ("walkers", "log-a"), ("walkers", "log-b")]
    assert batch.outcomes["trucks"]["log-a"].predictions["log-a"] == sset({"t1": stamps(2)})
    rounds = batch.outcomes["walkers"]["log-a"].iterations
    assert [r.error_kind for r in rounds] == [TRANSPORT_ERROR] * 5
    assert all(r.error_message == f"provider returned {kind}, not a string" and r.response_text is None for r in rounds)
    assert provider.returned == 10 and sleeps == [2.0] * 5  # each round retries once


def test_a_reply_that_is_not_a_string_is_retried_within_the_round():
    sleeps = []
    provider = _Returning(ScriptedProvider(_batch_fixture()), "trucks", None, times=1)
    outcome = mine_scenario("trucks", _two_logs(), MiningConfig(provider=provider, sleeper=sleeps.append))
    assert outcome.status == STATUS_SUCCEEDED and outcome.code == GOOD_CODE
    assert len(outcome.iterations) == 1 and sleeps == [2.0]


def _wide_log():
    """A two-track log with pedestrians only: a pack of its own beside _two_logs()'s one-track logs."""
    return make_log([static_obj("p2", "PEDESTRIAN", 0.0, 0.0), static_obj("p3", "PEDESTRIAN", 9.0, 0.0)], log_id="log-w")


def test_runtime_error_on_any_log_is_repair_feedback(monkeypatch):
    ran = []

    def fails_on_the_wide_log(log):
        ran.append(log.log_id)
        if len(log.track_ids) == 2:
            raise InvalidParameter("no data for two tracks")
        return ScenarioSet.empty()

    spec = FunctionSpec("one_track_only", "Fails on two-track logs.", (), fails_on_the_wide_log)
    monkeypatch.setitem(REGISTRY, "one_track_only", spec)
    fixture = make_fixture({"trucks": [fenced("x = one_track_only()\noutput(x)"), fenced(GOOD_CODE)]})
    config = MiningConfig(provider=ScriptedProvider(fixture))
    logs = LogSet(_two_logs() + [_wide_log()])
    outcome = mine_scenario("trucks", logs, config)
    assert ran == ["log-a+log-b", "log-w"]  # the first pack ran cleanly; the error came from the second
    assert outcome.status == STATUS_SUCCEEDED
    first, second = outcome.iterations
    assert first.error_kind == "PredicateRuntime" and "no data for two tracks" in first.error_message
    assert "no data for two tracks" in second.prompt_text
    assert outcome.code == GOOD_CODE
    assert outcome.predictions == {"log-a": sset({"t1": stamps(2)}), "log-b": ScenarioSet.empty(), "log-w": ScenarioSet.empty()}
    # Neither program is parsed or run again: the failing one, which ran cleanly on the first pack, keeps
    # no predictions and raises its first error afresh; the accepted one returns its predictions.
    parses = _counting(monkeypatch, "parse")
    with pytest.raises(DslError) as again:
        logs.run("x = one_track_only()\noutput(x)")
    assert (again.value.kind, str(again.value)) == (first.error_kind, first.error_message)
    assert (again.value.span.line, again.value.span.col) == first.error_span
    assert logs.run(GOOD_CODE) == outcome.predictions
    assert ran == ["log-a+log-b", "log-w"] and parses == []


def _counting(monkeypatch, name, module=orchestrator):
    """Replace <module>.<name> with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_round_checks_its_program_once(monkeypatch):
    walks = _counting(monkeypatch, "_walk", dsl)
    executes = _counting(monkeypatch, "execute")
    logs = _two_logs() + [_wide_log(), make_log([static_obj("t2", "TRUCK", 5.0, 0.0)], log_id="log-c")]
    config = fixture_config([fenced(BAD_FUNCTION), fenced(BAD_CATEGORY), fenced(GOOD_CODE)])
    outcome = mine_scenario(QUERY, logs, config)
    assert [r.error_kind for r in outcome.iterations] == ["UnknownFunction", "PredicateRuntime", None]
    assert len(walks) == 3  # one per round, however many logs
    # Rounds 1 and 2 stop at their first pack, round 1 before any registry call; round 3 runs once on
    # each of the two packs.
    assert [log.log_id for _, log in executes] == ["log-a+log-b+log-c"] * 3 + ["log-w"]
    assert outcome.predictions == {
        "log-a": sset({"t1": stamps(2)}), "log-b": ScenarioSet.empty(),
        "log-c": sset({"t2": stamps(2)}), "log-w": ScenarioSet.empty(),
    }


def test_a_stored_program_is_not_parsed_checked_or_run_again(monkeypatch, log):
    logs = LogSet([log])
    stored = logs.run(GOOD_CODE)
    assert stored == {log.log_id: sset({"t1": stamps(2)})}
    calls = [_counting(monkeypatch, "parse"), _counting(monkeypatch, "_walk", dsl), _counting(monkeypatch, "execute")]
    outcome = mine_scenario(QUERY, logs, fixture_config([fenced(GOOD_CODE)]))
    assert calls == [[], [], []]
    assert outcome.status == STATUS_SUCCEEDED and outcome.code == GOOD_CODE
    assert [r.error_kind for r in outcome.iterations] == [None]
    assert outcome.predictions == stored and outcome.predictions is not stored
    # Each caller gets its own copy, so changing one changes nothing stored.
    stored.clear()
    outcome.predictions.clear()
    assert logs.run(GOOD_CODE) == {log.log_id: sset({"t1": stamps(2)})}
    assert calls == [[], [], []]


def test_only_programs_that_run_on_every_log_are_stored(monkeypatch, log):
    logs = LogSet(_two_logs() + [log])  # two packs: the one-track logs, and the two-track fixture log
    replies = [fenced(BAD_FUNCTION), fenced(BAD_CATEGORY), fenced(GOOD_CODE)]
    first = mine_scenario(QUERY, logs, fixture_config(replies))
    assert set(first.predictions) == {"log-a", "log-b", log.log_id}
    parses = _counting(monkeypatch, "parse")
    executes = _counting(monkeypatch, "execute")
    again = mine_scenario(QUERY, logs, fixture_config(replies))
    # Rounds 1 and 2 fail again with their stored errors, and round 3 returns its stored predictions:
    # nothing is parsed or run.
    assert parses == [] and executes == []
    assert again == first
    assert logs.run(GOOD_CODE) == first.predictions and logs.run(GOOD_CODE) is not first.predictions


def test_each_log_set_keeps_its_own_logs_predictions():
    a, b = _two_logs()
    on_a, on_b = LogSet([a]), LogSet([b])
    first = mine_scenario(QUERY, on_a, fixture_config([fenced(GOOD_CODE)]))
    second = mine_scenario(QUERY, on_b, fixture_config([fenced(GOOD_CODE)]))
    assert first.predictions == {"log-a": sset({"t1": stamps(2)})}
    assert second.predictions == {"log-b": ScenarioSet.empty()}
    assert on_a.run(GOOD_CODE) == first.predictions and on_b.run(GOOD_CODE) == second.predictions


def test_mining_a_list_or_a_log_set_of_it_gives_equal_outcomes():
    queries = ["trucks", "walkers", "doomed"]
    logs = _two_logs() + [_wide_log()]
    listed = run_batch(queries, logs, _batch_config())
    shared = LogSet(logs)
    assert shared.logs == tuple(logs)
    assert run_batch(queries, shared, _batch_config()).outcomes == listed.outcomes
    assert mine_scenario("doomed", shared, _batch_config()) == mine_scenario("doomed", logs, _batch_config())
    assert mine_scenario("trucks", shared, _batch_config()) == listed.outcomes["trucks"]["log-w"]


def test_run_batch_runs_a_program_two_queries_share_once_per_log(monkeypatch):
    executes = _counting(monkeypatch, "execute")
    fixture = make_fixture({"trucks": [fenced(GOOD_CODE)], "lorries": [fenced(GOOD_CODE)]})
    logs = _two_logs() + [_wide_log()]
    batch = run_batch(["trucks", "lorries"], logs, MiningConfig(provider=ScriptedProvider(fixture)))
    # Once per pack, so each log's share of it runs once, for both queries.
    assert [pack.log_id for _, pack in executes] == ["log-a+log-b", "log-w"]
    assert batch.outcomes["trucks"]["log-a"].predictions == batch.outcomes["lorries"]["log-a"].predictions
    assert set(batch.outcomes["lorries"]["log-w"].predictions) == {"log-a", "log-b", "log-w"}


def test_run_batch_starts_from_a_fresh_table_by_default(monkeypatch):
    executes = _counting(monkeypatch, "execute")
    for _ in range(2):
        run_batch(["trucks"], _two_logs() + [_wide_log()], _batch_config())
    assert [pack.log_id for _, pack in executes] == ["log-a+log-b", "log-w"] * 2


@pytest.mark.parametrize("mine", [
    lambda logs, config: mine_scenario("trucks", logs, config),
    lambda logs, config: run_batch(["trucks", "walkers"], logs, config),
    lambda logs, config: LogSet(logs),
])
def test_a_log_id_two_logs_share_is_refused_before_any_provider_call(mine):
    a, b = _two_logs()
    twin = make_log([static_obj("t9", "TRUCK", 0.0, 0.0), static_obj("t8", "TRUCK", 9.0, 0.0)], log_id="log-b")
    config = _batch_config()
    with pytest.raises(InconsistentInput, match="duplicate log id 'log-b'"):
        mine([a, b, twin], config)
    assert config.provider.calls == 0


@pytest.mark.parametrize("mine", [
    lambda logs, config: mine_scenario("trucks", logs, config),
    lambda logs, config: run_batch(["trucks", "walkers"], logs, config),
    lambda logs, config: LogSet(logs),
])
def test_no_logs_are_refused_before_any_provider_call(mine):
    # A program is checked on its first run, so on no logs a reply would be accepted unchecked.
    config = _batch_config()
    with pytest.raises(InvalidParameter, match="no logs to mine"):
        mine([], config)
    assert config.provider.calls == 0


def test_catalog_text_is_built_once_per_batch(monkeypatch):
    described = _counting(monkeypatch, "describe_functions")
    config = _batch_config()
    batch = run_batch(["trucks", "walkers", "doomed"], _two_logs(), config)
    assert len(described) == 1
    prompts = [r.prompt_text for per_log in batch.outcomes.values() for r in per_log["log-a"].iterations]
    assert len(prompts) == 7 and all(config.catalog in p for p in prompts)


def test_overflowing_window_fails_only_its_query():
    endless = (
        'a = get_objects_of_category(category="TRUCK")\n'
        "x = followed_by(first=a, second=a, within_seconds=1e999)\n"
        "output(x)"
    )
    fixture = make_fixture({"trucks": [fenced(GOOD_CODE)], "endless": [fenced(endless)]})
    batch = run_batch(["trucks", "endless"], _two_logs(), MiningConfig(provider=ScriptedProvider(fixture)))
    assert batch.outcomes["trucks"]["log-a"].succeeded
    assert batch.failed_runs() == [("endless", "log-a"), ("endless", "log-b")]
    assert {r.error_kind for r in batch.outcomes["endless"]["log-a"].iterations} == {"PredicateRuntime"}


def test_run_batch_worker_count_does_not_change_bytes():
    serial = run_batch(["trucks", "walkers", "doomed"], _two_logs(), _batch_config(workers=1))
    threaded = run_batch(["trucks", "walkers", "doomed"], _two_logs(), _batch_config(workers=4))
    assert serial.predictions_json() == threaded.predictions_json()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_iterations": 0}, "max_iterations must be >= 1"),
        ({"max_iterations": -3}, "max_iterations must be >= 1"),
        ({"workers": 0}, "workers must be between 1"),
        ({"workers": -2}, "workers must be between 1"),
        # rejected while the config is built, before any pool exists
        ({"workers": orchestrator.MAX_WORKERS + 1}, "workers must be between 1"),
    ],
)
def test_mining_config_rejects_out_of_range_rounds_and_workers(kwargs, message):
    provider = ScriptedProvider(make_fixture({}))
    with pytest.raises(InvalidParameter, match=message):
        MiningConfig(provider=provider, **kwargs)
    assert provider.calls == 0


def test_mining_config_accepts_the_bounds():
    provider = ScriptedProvider(make_fixture({}))
    assert MiningConfig(provider=provider, max_iterations=1, workers=1).workers == 1
    assert MiningConfig(provider=provider, workers=orchestrator.MAX_WORKERS).workers == orchestrator.MAX_WORKERS


def test_threads_share_one_provider_without_lost_updates():
    # every query needs two rounds; a lost cursor or call-count update shows
    # up as a third round or a wrong total
    queries = [f"query number {i:02d}" for i in range(40)]
    fixture = make_fixture({q: [fenced(BAD_FUNCTION), fenced(GOOD_CODE)] for q in queries})
    config = MiningConfig(provider=ScriptedProvider(fixture), workers=min(2 * (os.cpu_count() or 1), orchestrator.MAX_WORKERS))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        batch = run_batch(queries, _two_logs(), config)
    finally:
        sys.setswitchinterval(interval)
    assert config.provider.calls == 2 * len(queries)
    assert all(len(batch.outcomes[q]["log-a"].iterations) == 2 for q in queries)
    assert not batch.failed_runs()


def test_run_batch_writes_result_files(tmp_path):
    out = tmp_path / "results"
    batch = run_batch(["trucks", "doomed"], _two_logs(), _batch_config(), out_dir=str(out))

    predictions = json.loads((out / "predictions.json").read_text())
    assert predictions == batch.predictions()
    assert predictions["trucks"]["log-a"] == {"t1": list(stamps(2))}
    assert predictions["doomed"]["log-a"] == {}

    transcripts = sorted(p.name for p in (out / "transcripts").iterdir())
    assert len(transcripts) == 4
    assert all(re.fullmatch(r"[0-9a-f]{12}__log-[ab]\.json", name) for name in transcripts)
    blob = json.loads((out / "transcripts" / transcripts[0]).read_text())
    assert {"query", "log_id", "status", "code", "prediction", "iterations"} <= set(blob)


def test_transcript_names_sanitize_log_ids(tmp_path):
    fixture = make_fixture({"trucks": [fenced(GOOD_CODE)]})
    weird = make_log([static_obj("t1", "TRUCK", 0.0, 0.0)], log_id="log/1 bad:id")
    run_batch(["trucks"], [weird], MiningConfig(provider=ScriptedProvider(fixture)), out_dir=str(tmp_path))
    (name,) = [p.name for p in (tmp_path / "transcripts").iterdir()]
    assert name.endswith("__log_1_bad_id.json")


def test_log_ids_that_share_a_transcript_name_are_refused_before_any_call(tmp_path):
    logs = [make_log([static_obj("t1", "TRUCK", 0.0, 0.0)], log_id=log_id) for log_id in ("log.1", "log-a", "log_1")]
    config = MiningConfig(provider=ScriptedProvider(make_fixture({"trucks": [fenced(GOOD_CODE)]})))
    out = tmp_path / "results"
    with pytest.raises(InconsistentInput, match=r"log ids 'log\.1' and 'log_1' would share the transcript file name '[0-9a-f]{12}__log_1\.json'"):
        run_batch(["trucks"], logs, config, out_dir=str(out))
    assert config.provider.calls == 0
    assert not out.exists()
    # Without result files there is nothing to overwrite.
    assert not run_batch(["trucks"], logs, config).failed_runs()


def test_an_out_dir_that_cannot_be_made_is_refused_before_any_call(tmp_path):
    config = MiningConfig(provider=ScriptedProvider(make_fixture({"trucks": [fenced(GOOD_CODE)]})))
    taken = tmp_path / "results"
    taken.write_text("a file\n")
    with pytest.raises(FileExistsError):
        run_batch(["trucks"], _two_logs(), config, out_dir=str(taken))
    assert config.provider.calls == 0
    assert taken.read_text() == "a file\n"
