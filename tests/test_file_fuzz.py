"""Mutated input files through the command line.

Each example takes one valid file the CLI reads -- a track log, ground
truth, predictions, a reply fixture, a --config file or a JSON queries
file -- applies one mutation to one of its JSON values (drop it, give it a
wrong type, wrap it in a list, or replace it with the NaN or Infinity token
``json.loads`` accepts or with the lone surrogate ``"\\ud800"``, which is no
Unicode text) and runs the subcommand that reads it through
``cli.main``. Whatever the file holds, the command ends in a documented exit
code (0, 1 or 2) with no traceback, and every MalformedFile it raises names
the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scenemine import cli, orchestrator
from scenemine.errors import MalformedFile, ScenarioMiningError
from scenemine.providers import make_fixture
from scenemine.synth import ScenarioSpec, generate_scenario_log, write_bundle

WRONG_TYPES = (0, 2.5, "x", True, None, [], {})
MUTATIONS = ("drop", "retype", "nest", "NaN", "Infinity", "-Infinity", "surrogate")
KINDS = ("log", "ground truth", "predictions", "fixture", "config", "queries")


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Valid inputs of every kind, as parsed JSON, plus the command line that reads each."""
    base = tmp_path_factory.mktemp("valid")
    logs = str(base / "logs")
    results = [generate_scenario_log(ScenarioSpec("near", 7, negative=negative)) for negative in (False, True)]
    paths = [write_bundle(result, logs) for result in results]
    query, program = results[0].query, results[0].program
    files = {
        "log": json.loads(Path(paths[0]["log"]).read_text()),
        "ground truth": json.loads(Path(paths[0]["ground_truth"]).read_text()),
        "fixture": make_fixture({query: [f"```\n{program}\n```"]}),
        "config": {"provider": "scripted", "max_iterations": 2, "epsrf": False, "workers": 1, "model": "m"},
        "queries": [query],
    }
    for name in ("fixture", "queries"):
        (base / f"{name}.json").write_text(json.dumps(files[name]))
    mined = str(base / "mined")
    argv = ["mine", "--queries", str(base / "queries.json"), "--logs", logs, "--out", mined,
            "--fixture", str(base / "fixture.json")]
    assert _run(argv)[0] == 0
    files["predictions"] = json.loads(Path(mined, "predictions.json").read_text())

    def argv_reading(kind: str, path: str, out: str) -> list[str]:
        """The command line that reads ``path`` as a file of ``kind``, with valid files in every other role."""
        mine = ["mine", "--queries", str(base / "queries.json"), "--logs", logs, "--out", out,
                "--fixture", str(base / "fixture.json")]
        evaluate = ["eval", "--predictions", os.path.join(mined, "predictions.json"),
                    "--gt", paths[0]["ground_truth"], "--logs", logs]
        return {
            "log": ["validate", "--logs", path],
            "ground truth": evaluate[:3] + ["--gt", path] + evaluate[5:],
            "predictions": evaluate[:1] + ["--predictions", path] + evaluate[3:],
            "fixture": mine[:-1] + [path],
            "config": mine + ["--config", path],
            "queries": mine[:1] + ["--queries", path] + mine[3:],
        }[kind]

    return files, argv_reading


def _run(argv: list[str]) -> tuple[int, str, list[ScenarioMiningError]]:
    """main(argv)'s exit code, its stderr, and the domain errors its subcommand let out."""
    raised: list[ScenarioMiningError] = []

    def recorded(func):
        def run(args):
            try:
                return func(args)
            except ScenarioMiningError as exc:
                raised.append(exc)
                raise

        return run

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("cmd_mine", "cmd_eval", "cmd_validate"):
            mp.setattr(cli, name, recorded(getattr(cli, name)))
        mp.setattr(orchestrator, "TRANSPORT_BACKOFF_S", 0.0)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue(), raised


def _paths(value, path=()):
    """The path to every value inside a parsed JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


_DROP = object()


def _replace(value, path, new):
    """A copy of ``value`` with the value at ``path`` replaced by ``new``, or removed when ``new`` is _DROP."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    head, rest = path[0], path[1:]
    if rest or new is not _DROP:
        copy[head] = _replace(value[head], rest, new)
    else:
        del copy[head]
    return copy


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutations_of(draw, value):
    """The JSON text of ``value`` with one mutation applied."""
    mutation = draw(st.sampled_from(MUTATIONS))
    paths = list(_paths(value))
    path = draw(st.sampled_from(paths[1:] if mutation == "drop" else paths))
    old = _at(value, path)
    if mutation == "retype":
        new = draw(st.sampled_from([v for v in WRONG_TYPES if type(v) is not type(old)]))
    else:
        new = {
            "drop": _DROP, "nest": [old], "NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf,
            "surrogate": "\ud800",
        }[mutation]
    return json.dumps(_replace(value, path, new))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_mutated_input_file_is_a_documented_exit_naming_the_file(valid_files, kind, data):
    valid, argv_reading = valid_files
    text = data.draw(mutations_of(valid[kind]))
    work = tempfile.mkdtemp(prefix="fuzz-")
    try:
        path = os.path.join(work, "mutated.json")
        Path(path).write_text(text, encoding="utf-8")
        code, err, raised = _run(argv_reading(kind, path, os.path.join(work, "out")))
    finally:
        shutil.rmtree(work)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    for exc in raised:
        if isinstance(exc, MalformedFile):
            assert "mutated.json" in str(exc), str(exc)
