import json
import os
import re
import sys

import pytest

from scenemine import orchestrator
from scenemine.errors import EmptyResponse, InvalidParameter
from scenemine.orchestrator import (
    EMPTY_RESPONSE,
    MISSING_CODE_PLACEHOLDER,
    STATUS_FAILED,
    STATUS_SUCCEEDED,
    TRANSPORT_ERROR,
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
    config = MiningConfig(provider=provider, transport_backoff=2.0, sleeper=sleeps.append)
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


def test_runtime_error_on_any_log_is_repair_feedback():
    def fails_on_log_b(ctx):
        if ctx.log.log_id == "log-b":
            raise InvalidParameter("no data for log-b")
        return ScenarioSet.empty()

    registry = dict(REGISTRY, only_log_a=FunctionSpec("only_log_a", "Fails on log-b.", (), fails_on_log_b))
    fixture = make_fixture({"trucks": [fenced("x = only_log_a()\noutput(x)"), fenced(GOOD_CODE)]})
    config = MiningConfig(provider=ScriptedProvider(fixture), registry=registry)
    outcome = mine_scenario("trucks", _two_logs(), config)
    assert outcome.status == STATUS_SUCCEEDED
    first, second = outcome.iterations
    assert first.error_kind == "PredicateRuntime" and "no data for log-b" in first.error_message
    assert "no data for log-b" in second.prompt_text
    assert outcome.code == GOOD_CODE
    assert outcome.predictions == {"log-a": sset({"t1": stamps(2)}), "log-b": ScenarioSet.empty()}


def _counting(monkeypatch, name):
    """Replace orchestrator.<name> with a wrapper that counts its calls."""
    calls = []
    original = getattr(orchestrator, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(orchestrator, name, counted)
    return calls


def test_each_round_checks_its_program_once(monkeypatch):
    checks = _counting(monkeypatch, "check")
    executes = _counting(monkeypatch, "execute")
    logs = _two_logs() + [make_log([static_obj("t2", "TRUCK", 5.0, 0.0)], log_id="log-c")]
    config = fixture_config([fenced(BAD_FUNCTION), fenced(BAD_CATEGORY), fenced(GOOD_CODE)])
    outcome = mine_scenario(QUERY, logs, config)
    assert [r.error_kind for r in outcome.iterations] == ["UnknownFunction", "PredicateRuntime", None]
    assert len(checks) == 3  # one per round, however many logs
    assert len(executes) == 1 + 3  # round 2 stops at its first log; round 3 runs on all three


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


def test_threads_share_one_provider_without_lost_updates():
    # every query needs two rounds; a lost cursor or call-count update shows
    # up as a third round or a wrong total
    queries = [f"query number {i:02d}" for i in range(40)]
    fixture = make_fixture({q: [fenced(BAD_FUNCTION), fenced(GOOD_CODE)] for q in queries})
    config = MiningConfig(provider=ScriptedProvider(fixture), workers=2 * (os.cpu_count() or 1))
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
