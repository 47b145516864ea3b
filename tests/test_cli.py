import json
import os

import pytest

from scenemine.cli import main
from scenemine.dsl import parse
from scenemine.providers import make_fixture
from scenemine.synth import ScenarioSpec, generate_scenario_log, write_bundle
from scenemine.tracklog import dump_log_text, load_log

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


def test_mine_scripted_requires_fixture(tmp_path, bundle_dir, capsys):
    queries_path, _, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out])
    assert code == 2
    assert "needs --fixture" in capsys.readouterr().err


def test_mine_unknown_provider_in_config(tmp_path, bundle_dir, capsys):
    queries_path, _, out = _mine_setup(tmp_path, bundle_dir, [fenced(GOOD_CODE)])
    config_path = _write(tmp_path / "config.json", json.dumps({"provider": "telepathy"}))
    code = main(["mine", "--queries", queries_path, "--logs", str(bundle_dir), "--out", out,
                 "--config", config_path])
    assert code == 2
    assert "unknown provider" in capsys.readouterr().err


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
    ],
)
def test_eval_rejects_malformed_prediction_sets(tmp_path, bundle_dir, capsys, per_log):
    predictions, gt_path = _eval_setup(tmp_path, bundle_dir)
    capsys.readouterr()
    bad = _write(tmp_path / "bad_predictions.json", json.dumps({"trucks in the scene": {"near-0007": per_log}}))
    code = main(["eval", "--predictions", bad, "--gt", gt_path, "--logs", str(bundle_dir)])
    assert code == 2
    assert "predictions['trucks in the scene']['near-0007']" in capsys.readouterr().err


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
