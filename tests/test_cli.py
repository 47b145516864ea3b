import json
import os

import pytest

from scenemine.cli import _load_predictions, main
from scenemine.dsl import parse
from scenemine.providers import ScriptedProvider, make_fixture
from scenemine.scenario_set import ScenarioSet
from scenemine.synth import ScenarioSpec, generate_scenario_log, write_bundle
from scenemine.tracklog import dump_log_text, load_log

from util import make_log, static_obj

GOOD_CODE = 'x = get_objects_of_category(category="TRUCK")\noutput(x)'
BAD_CODE = "x = summon_ghosts()\noutput(x)"


def fenced(code):
    return f"```\n{code}\n```"


@pytest.fixture
def bundle_dir(tmp_path):
    """A directory holding one certified positive and one negative log."""
    out = tmp_path / "data"
    for negative in (False, True):
        write_bundle(generate_scenario_log(ScenarioSpec("near", 7, negative=negative)), str(out))
    return out


def _write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# describe


def test_describe_prints_catalog(capsys):
    assert main(["describe"]) == 0
    out = capsys.readouterr().out
    assert "get_objects_of_category(category)" in out
    assert "followed_by(" in out


def test_describe_json(capsys):
    assert main(["describe", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    names = [entry["name"] for entry in catalog]
    assert "has_objects_in_relative_direction" in names


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_bundles(tmp_path, capsys):
    out = tmp_path / "logs"
    code = main(["synth", "--template", "near", "--seed", "3", "--count", "2", "--out", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "near-0003.gt.json",
        "near-0003.json",
        "near-0003.manifest.json",
        "near-0004.gt.json",
        "near-0004.json",
        "near-0004.manifest.json",
    ]
    stdout = capsys.readouterr().out
    assert "near-0003.json" in stdout and "near-0004.json" in stdout


def test_synth_rejects_unknown_template(capsys):
    with pytest.raises(SystemExit) as info:
        main(["synth", "--template", "wormhole", "--seed", "1", "--out", "x"])
    assert info.value.code == 2


@pytest.mark.parametrize("count", ["0", "-2"])
def test_synth_rejects_a_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "logs"
    assert main(["synth", "--template", "near", "--seed", "3", "--count", count, "--out", str(out)]) == 2
    assert f"--count must be >= 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_infeasible_spec_is_exit_two(tmp_path, capsys):
    code = main(["synth", "--template", "near", "--seed", "1", "--frames", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "between 4 and 40" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_good_files(bundle_dir, capsys):
    gt = str(bundle_dir / "near-0007.gt.json")
    assert main(["validate", "--logs", str(bundle_dir), "--gt", gt]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 3  # two logs plus the ground truth file
    assert "1 checked against logs" in out


def test_validate_reports_broken_log(tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", "{not json")
    assert main(["validate", "--logs", bad]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_validate_reports_a_second_copy_of_a_log_id(bundle_dir, tmp_path, capsys):
    first, copy = bundle_dir / "near-0007.json", tmp_path / "copy.json"
    raw = json.loads(first.read_text())
    raw["objects"] = raw["objects"][:1]  # a different log under the same id
    copy.write_text(json.dumps(raw))
    gt = str(bundle_dir / "near-0007.gt.json")
    assert main(["validate", "--logs", str(first), str(copy), "--gt", gt]) == 1
    captured = capsys.readouterr()
    log_id = raw["log_id"]
    assert f"duplicate log id '{log_id}' (second copy in {copy})" in captured.err
    assert f"{gt}: ok (1 entries, 1 checked against logs)" in captured.out  # against the first copy


def test_validate_needs_something(capsys):
    assert main(["validate"]) == 2
    assert "nothing to validate" in capsys.readouterr().err


def test_validate_missing_path(capsys):
    assert main(["validate", "--logs", "/definitely/not/here"]) == 2
    assert "no such file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mine


def _mine_setup(tmp_path, bundle_dir, replies, queries="trucks in the scene\n"):
    queries_path = _write(tmp_path / "queries.txt", "# header comment\n\n" + queries)
    fixture = make_fixture(
        {line: replies for line in queries.strip().splitlines() if line and not line.startswith("#")}
    )
    fixture_path = _write(tmp_path / "fixture.json", json.dumps(fixture))
    out = tmp_path / "results"
    return queries_path, fixture_path, str(out)


def test_mine_scripted_end_to_end(tmp_path, bundle_dir, capsys):
    queries_path, fixture_path, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    code = main(
        ["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
         "--fixture", fixture_path]
    )
    assert code == 0
    assert "mined 2/2 runs" in capsys.readouterr().out

    predictions = json.loads(open(os.path.join(out, "predictions.json")).read())
    assert set(predictions) == {"trucks in the scene"}
    assert set(predictions["trucks in the scene"]) == {"near-0007", "near-0007-neg"}
    transcripts = os.listdir(os.path.join(out, "transcripts"))
    assert len(transcripts) == 2


def test_mine_reports_exhausted_runs(tmp_path, bundle_dir, capsys):
    queries_path, fixture_path, out = _mine_setup(tmp_path, bundle_dir, [fenced(BAD_CODE)])
    code = main(
        ["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
         "--fixture", fixture_path]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "mined 0/2 runs" in captured.out
    assert "failed after all rounds" in captured.err


def test_mine_flag_overrides_config(tmp_path, bundle_dir, capsys):
    # the config caps the loop at one round; the flag re-enables repair
    queries_path, fixture_path, out = _mine_setup(
        tmp_path, bundle_dir, [fenced(BAD_CODE), fenced(GOOD_CODE)]
    )
    config_path = _write(
        tmp_path / "config.json",
        json.dumps({"max_iterations": 1, "fixture": fixture_path}),
    )
    base = ["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
            "--config", config_path]
    assert main(base) == 1
    assert main(base + ["-K", "3"]) == 0
    capsys.readouterr()


def test_mine_refuses_log_ids_that_share_a_transcript_name(tmp_path, bundle_dir, capsys):
    queries_path, fixture_path, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    logs = tmp_path / "clashing"
    logs.mkdir()
    for name, log_id in (("a.json", "log.1"), ("b.json", "log_1")):
        _write(logs / name, dump_log_text(make_log([static_obj("t1", "TRUCK", 0.0, 0.0)], log_id=log_id)))
    code = main(["mine", "--queries", queries_path, "--logs", str(logs), "--out", out, "--fixture", fixture_path])
    assert code == 2
    assert "log ids 'log.1' and 'log_1' would share the transcript file name" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_mine_refuses_an_out_path_that_is_a_file_before_any_provider_call(tmp_path, bundle_dir, capsys, monkeypatch):
    queries_path, fixture_path, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    _write(tmp_path / "taken", "a file\n")
    calls = []
    monkeypatch.setattr(ScriptedProvider, "generate", lambda self, prompt: calls.append(prompt))
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", str(tmp_path / "taken"),
                 "--fixture", fixture_path])
    assert code == 2 and calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err and "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "a file\n"


def test_mine_scripted_requires_fixture(tmp_path, bundle_dir, capsys):
    queries_path, _, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out])
    assert code == 2
    assert "needs --fixture" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fault, message",
    [
        ("top-level array", "must be a JSON object keyed by query hash"),
        ("entry not an object", "must be an object"),
        ("hash mismatch", "does not match the hash of its query text"),
    ],
)
def test_misshapen_fixture_is_an_exit_naming_the_file(tmp_path, bundle_dir, capsys, fault, message):
    queries_path, fixture_path, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    fixture = json.loads(open(fixture_path, encoding="utf-8").read())
    key, entry = next(iter(fixture.items()))
    shape = {
        "top-level array": [entry],
        "entry not an object": {key: entry["replies"]},
        "hash mismatch": {"0" * 64: entry},
    }[fault]
    bad = _write(tmp_path / "misshapen-fixture.json", json.dumps(shape))
    capsys.readouterr()
    assert main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out, "--fixture", bad]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and message in err and "Traceback" not in err


def test_mine_unknown_provider_in_config(tmp_path, bundle_dir, capsys):
    queries_path, _, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    config_path = _write(tmp_path / "config.json", json.dumps({"provider": "telepathy"}))
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
                 "--config", config_path])
    assert code == 2
    assert "unknown provider" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_iterations", "abc"),
        ("max_iterations", 2.0),
        ("max_iterations", True),
        ("workers", "2"),
        ("workers", False),
        ("epsrf", "false"),
        ("epsrf", 0),
        ("fixture", 9),
    ],
)
def test_mine_config_values_are_type_checked(tmp_path, bundle_dir, capsys, key, value):
    queries_path, fixture_path, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    config_path = _write(tmp_path / "config.json", json.dumps({"fixture": fixture_path, key: value}))
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
                 "--config", config_path])
    assert code == 2
    assert f"'{key}' must be a JSON" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("max_iterations", 0, "max_iterations must be >= 1"),
        ("max_iterations", -3, "max_iterations must be >= 1"),
        ("workers", 0, "workers must be between 1"),
        ("workers", -2, "workers must be between 1"),
    ],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_mine_rejects_out_of_range_rounds_and_workers(tmp_path, bundle_dir, capsys, key, value, message, source):
    queries_path, fixture_path, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    args = ["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out]
    if source == "flag":
        flag = "-K" if key == "max_iterations" else "--workers"
        args += ["--fixture", fixture_path, flag, str(value)]
    else:
        config_path = _write(tmp_path / "config.json", json.dumps({"fixture": fixture_path, key: value}))
        args += ["--config", config_path]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_mine_rejects_duplicate_queries(tmp_path, bundle_dir, capsys):
    queries_path = _write(tmp_path / "queries.txt", "same query\nsame query\n")
    fixture_path = _write(
        tmp_path / "fixture.json", json.dumps(make_fixture({"same query": [fenced(GOOD_CODE)]}))
    )
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out",
                 str(tmp_path / "out"), "--fixture", fixture_path])
    assert code == 2
    assert "duplicate query" in capsys.readouterr().err


def test_mine_accepts_json_query_array(tmp_path, bundle_dir, capsys):
    queries_path = _write(tmp_path / "queries.json", json.dumps(["trucks in the scene"]))
    fixture_path = _write(
        tmp_path / "fixture.json",
        json.dumps(make_fixture({"trucks in the scene": [fenced(GOOD_CODE)]})),
    )
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out",
                 str(tmp_path / "out"), "--fixture", fixture_path])
    assert code == 0
    capsys.readouterr()


def _mine_refused_before_any_call(tmp_path, bundle_dir, capsys, monkeypatch, queries_path, *provider_args):
    """Run `mine` on the files; assert exit 2 before any provider call or file write, and return stderr."""
    calls = []
    monkeypatch.setattr(ScriptedProvider, "generate", lambda self, prompt: calls.append(prompt))
    out = tmp_path / "out"
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", str(out), *provider_args])
    assert code == 2 and calls == [] and not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_mine_refuses_a_query_holding_a_lone_surrogate_naming_the_file(tmp_path, bundle_dir, capsys, monkeypatch):
    queries_path = _write(tmp_path / "queries.json", '["trucks in the scene", "trucks \\ud800"]')
    fixture_path = _write(
        tmp_path / "fixture.json", json.dumps(make_fixture({"trucks in the scene": [fenced(GOOD_CODE)]}))
    )
    err = _mine_refused_before_any_call(tmp_path, bundle_dir, capsys, monkeypatch, queries_path, "--fixture", fixture_path)
    assert err == f"error: {queries_path}: query 'trucks \\ud800' is not Unicode text\n"


def test_mine_refuses_a_fixture_query_holding_a_lone_surrogate_naming_the_file(
    tmp_path, bundle_dir, capsys, monkeypatch
):
    queries_path = _write(tmp_path / "queries.json", json.dumps(["trucks in the scene"]))
    fixture = make_fixture({"trucks in the scene": [fenced(GOOD_CODE)]})
    text = json.dumps(fixture)[:-1] + ', "%s": {"query": "\\ud800", "replies": ["x"]}}' % ("0" * 64)
    fixture_path = _write(tmp_path / "fixture.json", text)
    err = _mine_refused_before_any_call(tmp_path, bundle_dir, capsys, monkeypatch, queries_path, "--fixture", fixture_path)
    assert err == f"error: {fixture_path}: fixture entry '{'0' * 64}' has a query that is not Unicode text: '\\ud800'\n"


@pytest.mark.parametrize("key", ["provider", "fixture", "endpoint", "model", "api_key"])
def test_mine_refuses_a_config_string_holding_a_lone_surrogate_naming_the_file(
    tmp_path, bundle_dir, capsys, monkeypatch, key
):
    queries_path = _write(tmp_path / "queries.json", json.dumps(["trucks in the scene"]))
    config_path = _write(tmp_path / "config.json", '{"%s": "\\ud800"}' % key)
    err = _mine_refused_before_any_call(tmp_path, bundle_dir, capsys, monkeypatch, queries_path, "--config", config_path)
    assert err == f"error: {config_path}: '{key}' must be Unicode text, got \"\\ud800\"\n"


class _Response:
    def __init__(self, body):
        self._body = body

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_mine_http_provider_key_from_env(tmp_path, bundle_dir, capsys, monkeypatch):
    requests = []

    def fake_urlopen(request, timeout=None):
        requests.append(request)
        return _Response(json.dumps({"text": fenced(GOOD_CODE)}).encode())

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setenv("SCENEMINE_API_KEY", "key-from-env")

    queries_path, _, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
                 "--provider", "http", "--endpoint", "http://api.test/v1", "--model", "m-1"])
    assert code == 0
    headers = {k.lower(): v for k, v in requests[0].header_items()}
    assert headers["authorization"] == "Bearer key-from-env"
    capsys.readouterr()


def test_mine_http_flag_beats_env(tmp_path, bundle_dir, capsys, monkeypatch):
    requests = []

    def fake_urlopen(request, timeout=None):
        requests.append(request)
        return _Response(json.dumps({"text": fenced(GOOD_CODE)}).encode())

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setenv("SCENEMINE_API_KEY", "key-from-env")

    queries_path, _, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
                 "--provider", "http", "--endpoint", "http://api.test/v1", "--model", "m-1",
                 "--api-key", "key-from-flag"])
    assert code == 0
    headers = {k.lower(): v for k, v in requests[0].header_items()}
    assert headers["authorization"] == "Bearer key-from-flag"
    capsys.readouterr()


def test_mine_http_needs_endpoint_and_model(tmp_path, bundle_dir, capsys):
    queries_path, _, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
                 "--provider", "http"])
    assert code == 2
    assert "--endpoint and --model" in capsys.readouterr().err


@pytest.mark.parametrize("endpoint", ["localhost:8000/v1", "ftp://api.test/v1", "api.test/v1"])
def test_mine_http_rejects_an_endpoint_without_an_http_scheme(tmp_path, bundle_dir, capsys, monkeypatch, endpoint):
    def fake_urlopen(request, timeout=None):
        raise AssertionError("no request may be sent")

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    queries_path, _, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
                 "--provider", "http", "--endpoint", endpoint, "--model", "m-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert endpoint in err and "http://" in err


# ---------------------------------------------------------------------------
# eval


def _eval_setup(tmp_path, bundle_dir):
    """Mine the positive/negative pair, then return eval arguments."""
    queries_path, fixture_path, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    assert main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
                 "--fixture", fixture_path]) == 0
    predictions = os.path.join(out, "predictions.json")

    # ground truth for the same query on both logs: what the program mines
    from scenemine.dsl import interpret
    from scenemine.tracklog import GroundTruthScenario, save_ground_truth

    entries = []
    for name in sorted(os.listdir(bundle_dir)):
        if name.endswith(".json") and not name.endswith((".gt.json", ".manifest.json")):
            log = load_log(str(bundle_dir / name))
            relevant = interpret(parse(GOOD_CODE), log)
            entries.append(GroundTruthScenario("trucks in the scene", log.log_id, relevant))
    gt_path = str(tmp_path / "gt.json")
    save_ground_truth(entries, gt_path)
    return predictions, gt_path


def test_eval_prints_summary_and_writes_report(tmp_path, bundle_dir, capsys):
    predictions, gt_path = _eval_setup(tmp_path, bundle_dir)
    capsys.readouterr()
    report_dir = tmp_path / "report"
    code = main(["eval", "--predictions", predictions, "--gt", gt_path,
                 "--logs", str(bundle_dir), "--out", str(report_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "HOTA-T" in out and "Log-F1" in out
    assert "100.00" in out  # predictions came from the ground-truth program
    blob = json.loads((report_dir / "report.json").read_text())
    assert blob["hota_temporal"] == 1.0


def test_eval_rejects_malformed_predictions(tmp_path, bundle_dir, capsys):
    predictions, gt_path = _eval_setup(tmp_path, bundle_dir)
    capsys.readouterr()
    bad = _write(tmp_path / "bad_predictions.json", json.dumps(["not", "a", "mapping"]))
    code = main(["eval", "--predictions", bad, "--gt", gt_path, "--logs", str(bundle_dir)])
    assert code == 2
    assert "predictions must map query text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "per_log",
    [
        {"t": ["x"]},  # a string where a timestamp belongs
        [["t", [1]]],  # a list in place of the track map
        {"t": 5},  # an int in place of the timestamp list
        {"t": [1, True]},  # a JSON boolean is not a timestamp
        {"t": [1.0]},  # nor is a float, even a whole one
    ],
)
def test_eval_rejects_malformed_prediction_sets(tmp_path, bundle_dir, capsys, per_log):
    predictions, gt_path = _eval_setup(tmp_path, bundle_dir)
    capsys.readouterr()
    bad = _write(tmp_path / "bad_predictions.json", json.dumps({"trucks in the scene": {"near-0007": per_log}}))
    code = main(["eval", "--predictions", bad, "--gt", gt_path, "--logs", str(bundle_dir)])
    assert code == 2
    assert "predictions['trucks in the scene']['near-0007']" in capsys.readouterr().err


def test_predictions_drop_tracks_without_timestamps(tmp_path):
    path = _write(tmp_path / "predictions.json", json.dumps({"q": {"log": {"a": [], "b": [3, 1, 3]}}}))
    loaded = _load_predictions(path)
    assert loaded == {"q": {"log": ScenarioSet({"b": [1, 3]})}}
    assert loaded["q"]["log"].tracks() == ("b",) and len(loaded["q"]["log"]) == 2


def test_eval_missing_log_is_exit_two(tmp_path, bundle_dir, capsys):
    predictions, gt_path = _eval_setup(tmp_path, bundle_dir)
    capsys.readouterr()
    only_neg = tmp_path / "only-neg"
    only_neg.mkdir()
    source = bundle_dir / "near-0007-neg.json"
    (only_neg / "near-0007-neg.json").write_text(source.read_text())
    code = main(["eval", "--predictions", predictions, "--gt", gt_path, "--logs", str(only_neg)])
    assert code == 2
    assert "but it was not provided" in capsys.readouterr().err


def test_eval_ground_truth_faults_name_the_file(tmp_path, bundle_dir, capsys):
    predictions, gt_path = _eval_setup(tmp_path, bundle_dir)
    with open(gt_path, encoding="utf-8") as fh:
        entries = json.load(fh)
    empty = _write(tmp_path / "empty.gt.json", "[]")
    stray = _write(tmp_path / "stray.gt.json", json.dumps(entries + [dict(entries[0], log_id="missing-log")]))
    capsys.readouterr()
    assert main(["eval", "--predictions", predictions, "--gt", empty, "--logs", str(bundle_dir)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: ground truth is empty; nothing to evaluate\n"
    assert main(["eval", "--predictions", predictions, "--gt", stray, "--logs", str(bundle_dir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {stray}: ground truth references log 'missing-log' but it was not provided\n"
    )
    # a fault in the predictions is never put on the ground-truth file
    bad = _write(tmp_path / "bad_predictions.json", json.dumps({entries[0]["query_text"]: {
        entries[0]["log_id"]: {"no-such-track": [0]}}}))
    assert main(["eval", "--predictions", bad, "--gt", gt_path, "--logs", str(bundle_dir)]) == 2
    err = capsys.readouterr().err
    assert "'no-such-track'" in err and gt_path not in err


def test_eval_scenario_faults_name_the_file_at_fault(tmp_path, bundle_dir, capsys):
    predictions, gt_path = _eval_setup(tmp_path, bundle_dir)
    with open(gt_path, encoding="utf-8") as fh:
        entries = json.load(fh)
    query, log_id = entries[0]["query_text"], entries[0]["log_id"]
    log = load_log(str(bundle_dir / f"{log_id}.json"))
    track, between = log.track_ids[0], log.timestamps[0] + 1
    faults = [
        ({"no-such-track": [log.timestamps[0]]}, f"scenario references track 'no-such-track' absent from log '{log_id}'"),
        ({track: [between]}, f"scenario flags track '{track}' at {between} but the track has no state there"),
    ]
    capsys.readouterr()
    for k, (scenario, message) in enumerate(faults):
        bad = _write(tmp_path / f"bad{k}.json", json.dumps({query: {log_id: scenario}}))
        assert main(["eval", "--predictions", bad, "--gt", gt_path, "--logs", str(bundle_dir)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        bad = _write(tmp_path / f"bad{k}.gt.json", json.dumps([dict(entries[0], relevant=scenario)] + entries[1:]))
        assert main(["eval", "--predictions", predictions, "--gt", bad, "--logs", str(bundle_dir)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


# ---------------------------------------------------------------------------
# input files the CLI cannot read: bytes that are not UTF-8, JSON nested too deeply

_INPUT_ROLES = [
    ("validate --logs", 1),
    ("validate --gt", 1),
    ("eval --predictions", 2),
    ("eval --gt", 2),
    ("mine --queries (text)", 2),
    ("mine --queries (JSON)", 2),
    ("mine --fixture", 2),
    ("mine --config", 2),
]


def _argv_reading(role, bad, tmp_path, bundle_dir):
    """A command line whose other files are valid and whose file in ``role`` is ``bad``."""
    predictions, gt_path = _eval_setup(tmp_path, bundle_dir)
    queries_path, fixture_path, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    return {
        "validate --logs": ["validate", "--logs", bad],
        "validate --gt": ["validate", "--gt", bad],
        "eval --predictions": ["eval", "--predictions", bad, "--gt", gt_path, "--logs", str(bundle_dir)],
        "eval --gt": ["eval", "--predictions", predictions, "--gt", bad, "--logs", str(bundle_dir)],
        "mine --queries (text)": ["mine", "--queries", bad, "--logs", str(bundle_dir), "--out", out,
                                  "--fixture", fixture_path],
        "mine --queries (JSON)": ["mine", "--queries", bad, "--logs", str(bundle_dir), "--out", out,
                                  "--fixture", fixture_path],
        "mine --fixture": ["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
                           "--fixture", bad],
        "mine --config": ["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
                          "--config", bad],
    }[role]


@pytest.mark.parametrize("role, expected_code", _INPUT_ROLES)
def test_undecodable_input_file_is_a_documented_exit(tmp_path, bundle_dir, capsys, role, expected_code):
    bad = tmp_path / ("bad.json" if role != "mine --queries (text)" else "bad.txt")
    bad.write_bytes(b"\xff\xfe")
    argv = _argv_reading(role, str(bad), tmp_path, bundle_dir)
    capsys.readouterr()
    assert main(argv) == expected_code
    err = capsys.readouterr().err
    assert str(bad) in err and "not UTF-8" in err


@pytest.mark.parametrize("role, expected_code", [r for r in _INPUT_ROLES if r[0] != "mine --queries (text)"])
def test_too_deeply_nested_json_is_a_documented_exit(tmp_path, bundle_dir, capsys, role, expected_code):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    argv = _argv_reading(role, str(bad), tmp_path, bundle_dir)
    capsys.readouterr()
    assert main(argv) == expected_code
    err = capsys.readouterr().err
    assert str(bad) in err and "nested too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("fault", ["number too large for a float", "over-long integer literal", "non-canonical key"])
@pytest.mark.parametrize("command, expected_code", [("validate", 1), ("mine", 2), ("eval", 2)])
def test_unreadable_log_values_are_a_documented_exit(tmp_path, bundle_dir, capsys, fault, command, expected_code):
    predictions, gt_path = _eval_setup(tmp_path, bundle_dir)
    queries_path, fixture_path, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    raw = json.loads((bundle_dir / "near-0007.json").read_text())
    states = raw["objects"][0]["states"]
    key = next(iter(states))
    if fault == "non-canonical key":
        states["0" + key] = states.pop(key)
    else:
        states[key]["heading"] = "@number@"
    digits = "1" * (400 if fault == "number too large for a float" else 5000)
    logs = tmp_path / "bad-logs"
    logs.mkdir()
    (logs / "near-0007.json").write_text(json.dumps(raw).replace('"@number@"', digits))
    capsys.readouterr()
    argv = {
        "validate": ["validate", "--logs", str(logs)],
        "mine": ["mine", "--queries", queries_path, "--logs", str(logs), "--out", out, "--fixture", fixture_path],
        "eval": ["eval", "--predictions", predictions, "--gt", gt_path, "--logs", str(logs)],
    }[command]
    assert main(argv) == expected_code
    assert "near-0007.json" in capsys.readouterr().err
