import dataclasses
import functools
import importlib.util
import json
import os
import pathlib
import re
import sys
import time

import pytest

from scenemine import ablation, dsl, metrics, orchestrator, synth
from scenemine.ablation import (
    ARMS,
    FAULT_CLEAN,
    FAULT_SWAP,
    FAULT_SYNTAX,
    AblationOutcome,
    AblationQuery,
    build_fixture,
    build_suite,
    role_swapped,
    run_ablation,
    scripted_replies,
    syntax_broken,
)
from scenemine.dsl import DslError, interpret, parse, pretty_print
from scenemine.errors import InfeasibleSpec
from scenemine.metrics import evaluate
from scenemine.orchestrator import MiningConfig, extract_code, run_batch
from scenemine.providers import ScriptedProvider, query_key

ROOT = pathlib.Path(__file__).resolve().parent.parent

CANONICAL = (
    'peds = get_objects_of_category(category="PEDESTRIAN")\n'
    'cars = get_objects_of_category(category="REGULAR_VEHICLE")\n'
    'ahead = has_objects_in_relative_direction(track_candidates=peds, related_candidates=cars, direction="forward")\n'
    "output(ahead)\n"
)


# ---------------------------------------------------------------------------
# Program transforms


def test_role_swapped_exchanges_subject_and_reference():
    swapped = role_swapped(CANONICAL)
    assert "track_candidates=cars" in swapped
    assert "related_candidates=peds" in swapped
    assert swapped != CANONICAL
    # still a valid program
    assert parse(swapped) is not None


def test_role_swapped_is_an_involution():
    assert role_swapped(role_swapped(CANONICAL)) == pretty_print(parse(CANONICAL))


def test_role_swapped_touches_only_the_first_relational_call():
    program = CANONICAL.replace(
        "output(ahead)\n",
        'near = near_objects(track_candidates=peds, related_candidates=cars)\noutput(near)\n',
    )
    swapped = role_swapped(program)
    assert "near_objects(track_candidates=peds, related_candidates=cars)" in swapped
    assert "has_objects_in_relative_direction(track_candidates=cars" in swapped


def test_role_swapped_needs_a_relational_call():
    with pytest.raises(InfeasibleSpec, match="no relational call"):
        role_swapped('x = get_objects_of_category(category="BUS")\noutput(x)\n')


def test_role_swapped_needs_keyword_roles():
    positional = (
        'peds = get_objects_of_category(category="PEDESTRIAN")\n'
        "near = near_objects(peds, peds)\n"
        "output(near)\n"
    )
    with pytest.raises(InfeasibleSpec):
        role_swapped(positional)


def test_syntax_broken_no_longer_parses():
    broken = syntax_broken(CANONICAL)
    assert broken.count(")") == CANONICAL.count(")") - 1
    with pytest.raises(DslError):
        parse(broken)


def test_syntax_broken_needs_a_call():
    with pytest.raises(InfeasibleSpec):
        syntax_broken("just words\n")


# ---------------------------------------------------------------------------
# Scripted reply populations


def _query(fault):
    return AblationQuery("relative_direction", 0, fault, "some query", CANONICAL, "log-x")


def test_syntax_fault_heals_on_the_second_round():
    replies = scripted_replies(_query(FAULT_SYNTAX), epsrf=False)
    assert len(replies) == 2
    with pytest.raises(DslError):
        parse(replies[0].split("```")[1])
    assert CANONICAL in replies[1]


def test_swap_fault_depends_on_guidance():
    without = scripted_replies(_query(FAULT_SWAP), epsrf=False)
    with_guidance = scripted_replies(_query(FAULT_SWAP), epsrf=True)
    assert len(without) == 1 and role_swapped(CANONICAL) in without[0]
    assert with_guidance == [scripted_replies(_query(FAULT_CLEAN), epsrf=True)[0]]


def test_clean_fault_is_always_right():
    for epsrf in (False, True):
        (reply,) = scripted_replies(_query(FAULT_CLEAN), epsrf)
        assert CANONICAL in reply


def test_build_fixture_covers_every_query():
    queries = [
        AblationQuery("near", i, fault, f"query number {i}", CANONICAL, "log-x")
        for i, fault in enumerate((FAULT_SYNTAX, FAULT_SWAP, FAULT_CLEAN))
    ]
    fixture = build_fixture(queries, epsrf=False)
    assert set(fixture) == {query_key(q.query_text) for q in queries}


def test_arm_specs():
    assert [(a.name, a.max_iterations, a.epsrf) for a in ARMS] == [
        ("baseline", 1, False),
        ("repair", 5, False),
        ("repair+guidance", 5, True),
    ]


# ---------------------------------------------------------------------------
# The suite and the full three-arm run (shared, they are expensive)


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    return run_ablation(out_dir=str(tmp_path_factory.mktemp("ablation")))


def test_suite_shape(suite):
    assert len(suite.queries) == 30
    assert len(suite.logs) == 30
    assert len(suite.ground_truth) == 30 * 30
    by_fault = {fault: 0 for fault in (FAULT_SYNTAX, FAULT_SWAP, FAULT_CLEAN)}
    for q in suite.queries:
        by_fault[q.fault_class] += 1
    assert by_fault == {FAULT_SYNTAX: 10, FAULT_SWAP: 10, FAULT_CLEAN: 10}
    assert len({q.query_text for q in suite.queries}) == 30


def test_suite_ground_truth_is_certified(suite):
    gt = {(g.query_text, g.log_id): g.relevant for g in suite.ground_truth}
    for q in suite.queries:
        own = gt[(q.query_text, q.log_id)]
        assert not own.is_empty
        assert interpret(parse(q.program), suite.logs[q.log_id]) == own


def _count_calls(monkeypatch, original):
    """The arguments of each call to ``original`` made through any scenemine module that binds it."""
    calls = []

    @functools.wraps(original)
    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.split(".")[0] == "scenemine":
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return calls


def test_building_the_suite_parses_each_reference_once_and_runs_it_only_on_the_packs(monkeypatch):
    parsed = _count_calls(monkeypatch, dsl.parse)
    interpreted = _count_calls(monkeypatch, dsl.interpret)
    executed = _count_calls(monkeypatch, dsl.execute)
    built = build_suite()
    references = _reference_codes(built.queries)
    assert len(references) == 30
    assert sorted(code for code, in parsed) == sorted(references)
    assert interpreted == []
    # Each reference program runs once on each of the LogSet's 3 packs, which between them hold every log once.
    runs = {(pretty_print(program), log.log_id) for program, log in executed}
    packs = {pack for _, pack in runs}
    assert len(packs) == 3
    assert sorted(log_id for pack in packs for log_id in pack.split("+")) == sorted(built.logs)
    assert len(executed) == len(runs) == 30 * 3


def test_a_pass_parses_60_texts_and_executes_120_programs(monkeypatch):
    parsed = _count_calls(monkeypatch, dsl.parse)
    interpreted = _count_calls(monkeypatch, dsl.interpret)
    executed = _count_calls(monkeypatch, dsl.execute)
    run_ablation()
    # The suite parses the 30 reference texts, role_swapped the 10 it swaps, and the repair arm its
    # 10 syntax-broken and 10 role-swapped first replies. The 30 reference programs and the 10
    # role-swapped ones each run once per pack.
    assert len(parsed) == 30 + 10 + 20
    assert interpreted == []
    assert len(executed) == (30 + 10) * 3


def _recorded_specs(monkeypatch):
    """The spec of each log the suite builds, in order."""
    specs = []
    build = ablation.build_scenario_log

    def recorded(spec):
        specs.append(spec)
        return build(spec)

    monkeypatch.setattr(ablation, "build_scenario_log", recorded)
    return specs


def _drop_a_declared_frame(layout):
    expected = dict(layout.expected)
    track = next(iter(expected))
    expected[track] = list(expected[track])[1:]
    return dataclasses.replace(layout, expected=expected)


# Layouts wrapped so that the declared set is not what the program mines, or is empty for a positive spec.
_LAYOUT_FAULTS = {
    "declared": lambda builder, params, n, negative: _drop_a_declared_frame(builder(params, n, negative)),
    "negative": lambda builder, params, n, negative: builder(params, n, True),
}


@pytest.mark.parametrize("family", ablation._FAMILIES)
@pytest.mark.parametrize("mismatch", list(_LAYOUT_FAULTS))
def test_the_suite_certifies_each_log_as_generating_it_alone_does(monkeypatch, family, mismatch):
    # The suite fails with the error generate_scenario_log gives for the first spec of that family.
    monkeypatch.setitem(synth._BUILDERS, family, functools.partial(_LAYOUT_FAULTS[mismatch], synth._BUILDERS[family]))
    specs = _recorded_specs(monkeypatch)
    with pytest.raises(InfeasibleSpec) as in_suite:
        build_suite()
    spec = next(spec for spec in specs if spec.template == family)
    with pytest.raises(InfeasibleSpec) as alone:
        synth.generate_scenario_log(spec)
    assert str(in_suite.value) == str(alone.value)
    prefix = f"certification failed for {spec.log_id}: "
    if mismatch == "declared":
        assert re.fullmatch(re.escape(prefix) + r"program mined \{.*\} but the layout declares \{.*\}", str(alone.value))
    else:
        assert str(alone.value) == prefix + "negative=False but ground truth is empty"


def test_swapped_programs_really_retrieve_the_wrong_tracks(suite):
    gt = {(g.query_text, g.log_id): g.relevant for g in suite.ground_truth}
    for q in suite.queries:
        if q.fault_class != FAULT_SWAP:
            continue
        mined = interpret(parse(role_swapped(q.program)), suite.logs[q.log_id])
        assert mined != gt[(q.query_text, q.log_id)]


def test_arms_order_strictly(outcome):
    baseline = outcome.reports["baseline"]
    repair = outcome.reports["repair"]
    guided = outcome.reports["repair+guidance"]
    for metric in ("hota_temporal", "hota", "timestamp_f1"):
        a, b, c = (getattr(r, metric) for r in (baseline, repair, guided))
        assert a < b < c, metric
    assert baseline.log_f1 <= repair.log_f1 <= guided.log_f1


def test_guided_arm_is_exact(outcome):
    guided = outcome.reports["repair+guidance"]
    assert guided.hota_temporal == 1.0
    assert guided.hota == 1.0
    assert guided.timestamp_f1 == 1.0
    assert guided.log_f1 == 1.0


def test_baseline_loses_the_syntax_population(outcome):
    failed = set(outcome.batches["baseline"].failed_runs())
    syntax_queries = {q.query_text for q in outcome.suite.queries if q.fault_class == FAULT_SYNTAX}
    assert {query for query, _ in failed} == syntax_queries
    assert not outcome.batches["repair"].failed_runs()
    assert not outcome.batches["repair+guidance"].failed_runs()


def test_summary_table_lists_all_arms(outcome):
    table = outcome.summary_table()
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["arm", "HOTA-T", "HOTA", "TS-F1", "Log-F1"]
    assert [line.split()[0] for line in lines[1:]] == ["baseline", "repair", "repair+guidance"]
    assert lines[3].split()[1:] == ["100.00", "100.00", "100.00", "100.00"]


def test_report_files_written(outcome, tmp_path_factory):
    # run_ablation wrote into the module fixture's directory
    out_dir = None
    for candidate in tmp_path_factory.getbasetemp().iterdir():
        if candidate.name.startswith("ablation"):
            out_dir = candidate
    assert out_dir is not None
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "report_baseline.json",
        "report_repair.json",
        "report_repair_guidance.json",
        "summary.txt",
    ]
    blob = json.loads((out_dir / "report_repair_guidance.json").read_text())
    assert blob["hota_temporal"] == 1.0
    assert (out_dir / "summary.txt").read_text() == outcome.summary_table()


# ---------------------------------------------------------------------------
# One LogSet across the arms


def _reference_codes(queries):
    """The code a mining round extracts from each query's reference program: the last guided reply."""
    return {extract_code(scripted_replies(q, epsrf=True)[-1]) for q in queries}


def test_each_accepted_program_runs_once_per_log_across_the_arms(monkeypatch, outcome):
    runs = []
    execute = orchestrator.execute

    def counted(program, log):
        runs.append((pretty_print(program), log.log_id))
        return execute(program, log)

    monkeypatch.setattr(orchestrator, "execute", counted)
    built = build_suite()
    suite_runs = runs[:]
    del runs[:]
    monkeypatch.setattr(ablation, "build_suite", lambda: built)
    rerun = run_ablation()
    accepted = {
        outcome.code
        for batch in rerun.batches.values()
        for per_log in batch.outcomes.values()
        for outcome in per_log.values()
        if outcome.succeeded
    }
    assert len(accepted) == 40
    # The 30 logs have 7, 8 or 10 tracks: three packs, which between them hold every log once.
    packs = {pack for _, pack in runs}
    assert len(packs) == 3
    assert sorted(log_id for pack in packs for log_id in pack.split("+")) == sorted(rerun.suite.logs)
    # Building the suite runs the 30 reference programs, and the arms start from their results, so of
    # the 40 accepted programs the arms run only the 10 role-swapped ones: 300 (program, log) runs,
    # where the three arms mined alone make 2,400.
    references = _reference_codes(rerun.suite.queries)
    assert references < accepted
    assert {program for program, _ in suite_runs} == {pretty_print(parse(code)) for code in references}
    ran = {pretty_print(parse(code)) for code in accepted - references}
    assert {program for program, _ in runs} == ran
    assert len(set(runs)) == len(runs) == len(ran) * len(packs) == 30
    assert len(set(suite_runs + runs)) == len(suite_runs + runs) == len(accepted) * len(packs)
    assert rerun.summary_table() == outcome.summary_table()


def test_reference_programs_are_not_parsed_checked_or_run_by_the_arms(monkeypatch, outcome):
    parsed, checked, executed = [], [], []
    parse_, walk, execute = orchestrator.parse, dsl._walk, orchestrator.execute

    def counted_parse(code):
        parsed.append(code)
        return parse_(code)

    def counted_walk(program):
        checked.append(pretty_print(program))
        return walk(program)

    def counted_execute(program, log):
        executed.append(pretty_print(program))
        return execute(program, log)

    built = build_suite()
    monkeypatch.setattr(ablation, "build_suite", lambda: built)
    monkeypatch.setattr(orchestrator, "parse", counted_parse)
    monkeypatch.setattr(dsl, "_walk", counted_walk)
    monkeypatch.setattr(orchestrator, "execute", counted_execute)
    rerun = run_ablation()
    queries = rerun.suite.queries
    references = _reference_codes(queries)
    assert not references & set(parsed)
    assert not {pretty_print(parse(code)) for code in references} & set(checked + executed)
    # The repair arm parses the 10 syntax-broken replies and the 10 role-swapped ones; the guided arm
    # meets neither, and the baseline is the repair arm's outcomes cut to their first round.
    first = {q.fault_class: [] for q in queries}
    for q in queries:
        first[q.fault_class].append(extract_code(scripted_replies(q, epsrf=False)[0]))
    assert sorted(parsed) == sorted(first[FAULT_SYNTAX] + first[FAULT_SWAP])
    assert len(parsed) == 20
    assert sorted(checked) == sorted(pretty_print(parse(code)) for code in first[FAULT_SWAP])
    assert len(executed) == 30
    assert rerun.summary_table() == outcome.summary_table()


def test_reference_results_are_what_mining_the_reference_programs_gives(monkeypatch, suite):
    logs = [suite.logs[log_id] for log_id in sorted(suite.logs)]
    assert suite.log_set.logs == tuple(logs)
    truth = {}
    for g in suite.ground_truth:
        truth.setdefault(g.query_text, {})[g.log_id] = g.relevant
    # With guidance and repair rounds every query ends on its reference program.
    config = MiningConfig(provider=ScriptedProvider(build_fixture(suite.queries, epsrf=True)))
    mined = run_batch([q.query_text for q in suite.queries], logs, config)
    parsed = []
    parse_ = orchestrator.parse

    def counted_parse(code):
        parsed.append(code)
        return parse_(code)

    monkeypatch.setattr(orchestrator, "parse", counted_parse)
    codes = set()
    for query, per_log in mined.outcomes.items():
        outcome = per_log[logs[0].log_id]
        assert outcome.succeeded
        stored = suite.log_set.run(outcome.code)
        assert stored == outcome.predictions == truth[query] and stored is not outcome.predictions
        assert list(stored) == sorted(suite.logs)
        codes.add(outcome.code)
    assert codes == _reference_codes(suite.queries) and len(codes) == 30
    assert parsed == []  # building the suite stored every reference program under the code a round extracts


def test_the_logs_are_packed_once_per_pass(monkeypatch):
    packed = []
    pack_logs = orchestrator.pack_logs

    def counted(logs):
        packed.append([log.log_id for log in logs])
        return pack_logs(logs)

    monkeypatch.setattr(orchestrator, "pack_logs", counted)
    rerun = run_ablation()
    assert packed == [sorted(rerun.suite.logs)]


def _count_provider_calls(monkeypatch):
    calls = []
    generate = ScriptedProvider.generate

    def counted(provider, prompt):
        calls.append(prompt)
        return generate(provider, prompt)

    monkeypatch.setattr(ScriptedProvider, "generate", counted)
    return calls


def test_an_unusable_out_dir_fails_before_any_provider_call(monkeypatch, tmp_path):
    calls = _count_provider_calls(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    with pytest.raises(FileExistsError):
        run_ablation(out_dir=str(taken))
    with pytest.raises(NotADirectoryError):
        run_ablation(out_dir=str(taken / "reports"))
    assert calls == []
    assert taken.read_text() == "not a directory\n"


def _script():
    spec = importlib.util.spec_from_file_location("run_ablation_script", ROOT / "scripts" / "run_ablation.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("args, message", [
    (["--out", "{taken}"], "File exists"),
    (["--out", "{taken}/reports"], "Not a directory"),
    (["--workers", "0"], "workers must be between 1"),
])
def test_the_script_reports_an_error_and_exits_2(monkeypatch, capsys, tmp_path, args, message):
    calls = _count_provider_calls(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(sys, "argv", ["run_ablation.py", *(arg.format(taken=taken) for arg in args)])
    assert _script().main() == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err and "Traceback" not in err
    assert calls == []


def test_run_ablation_leaves_the_ground_truth_unchanged(monkeypatch):
    built = build_suite()
    truth = built.ground_truth
    before = [(g.query_text, g.log_id, g.relevant.to_json_dict()) for g in truth]
    monkeypatch.setattr(ablation, "build_suite", lambda: built)
    rerun = run_ablation()
    assert rerun.suite is built and rerun.suite.ground_truth is truth
    assert [(g.query_text, g.log_id, g.relevant.to_json_dict()) for g in truth] == before
    monkeypatch.undo()
    assert truth == build_suite().ground_truth


def test_one_fixture_and_one_provider_per_guidance_setting(monkeypatch):
    swaps, providers = [], []
    swap, provider = ablation.role_swapped, ablation.ScriptedProvider

    def counted_swap(program_text):
        swaps.append(program_text)
        return swap(program_text)

    def counted_provider(fixture):
        providers.append(provider(fixture))
        return providers[-1]

    monkeypatch.setattr(ablation, "role_swapped", counted_swap)
    monkeypatch.setattr(ablation, "ScriptedProvider", counted_provider)
    run_ablation()
    # Only the fixture without guidance holds role-swapped replies. The baseline is not mined: its
    # outcomes are the repair arm's cut to one round, so the provider without guidance serves only it.
    assert len(swaps) == 10
    assert len({id(p) for p in providers}) == len({arm.epsrf for arm in ARMS}) == 2
    assert [p.calls for p in providers] == [40, 40]


def test_a_pass_makes_80_provider_calls(monkeypatch):
    calls = _count_provider_calls(monkeypatch)
    run_ablation()
    # 10 syntax-faulted queries take 2 rounds in each five-round arm, the other 20 one round each.
    assert len(calls) == 80


def test_each_distinct_pair_is_scored_once_across_the_arms(monkeypatch, outcome):
    calls = []
    for name in ("hota_temporal", "hota_full"):
        def counted(pred, gt, log, name=name, score=getattr(metrics, name)):
            calls.append(name)
            return score(pred, gt, log)

        monkeypatch.setattr(metrics, name, counted)
    rerun = run_ablation()
    # 3 arms x 30 queries x 30 logs = 2,700 pairs, but only 177 distinct (log, prediction, ground truth) keys
    assert calls.count("hota_temporal") == calls.count("hota_full") == 177
    monkeypatch.undo()
    alone = {}
    for arm in ARMS:
        predictions = {
            query: {log_id: mined.predictions[log_id] for log_id, mined in per_log.items()}
            for query, per_log in rerun.batches[arm.name].outcomes.items()
        }
        alone[arm.name] = evaluate(predictions, rerun.suite.ground_truth, rerun.suite.logs, scores={})
        assert rerun.reports[arm.name].to_json() == alone[arm.name].to_json(), arm.name
    assert rerun.summary_table() == AblationOutcome(rerun.suite, alone, rerun.batches).summary_table()
    assert rerun.summary_table() == outcome.summary_table()


def test_each_arm_matches_that_arm_mined_alone(outcome, suite):
    logs = [suite.logs[log_id] for log_id in sorted(suite.logs)]
    queries = [q.query_text for q in suite.queries]
    for arm in ARMS:
        config = MiningConfig(
            provider=ScriptedProvider(build_fixture(suite.queries, arm.epsrf)),
            max_iterations=arm.max_iterations,
            epsrf=arm.epsrf,
        )
        alone = run_batch(queries, logs, config)
        assert outcome.batches[arm.name].outcomes == alone.outcomes, arm.name


def test_threaded_arms_share_the_table_without_changing_results(outcome):
    # A short switch interval makes the workers interleave between bytecodes
    # while they read and add to the table the arms share.
    interval = sys.getswitchinterval()
    deadline = time.perf_counter() + 20.0
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            threaded = run_ablation(workers=4)
            assert threaded.summary_table() == outcome.summary_table()
            for arm in ARMS:
                assert threaded.batches[arm.name].outcomes == outcome.batches[arm.name].outcomes, arm.name
                assert threaded.batches[arm.name].predictions_json() == outcome.batches[arm.name].predictions_json()
            if time.perf_counter() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)
