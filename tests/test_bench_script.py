"""scripts/bench.py's scale sweep at a tiny size, its build_suite and parse rows and its traced repeats: shapes, never timings."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import types

from scenemine.predicates import REGISTRY

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_row_times_each_layer(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "scenebench"))
    row = _bench_module().sweep_row(6, num_frames=4, repeats=1)
    assert (row["objects"], row["frames"]) == (6, 4)
    timed = (
        "save_log_s", "load_log_s", "parse_s", "derived_s", "hota_table_s", "interpret_s", "hota_temporal_s",
        "hota_full_s", "hota_exact_s",
    )
    assert set(row) == {"objects", "frames", "log_mb", "log_sha256", "host_scale", "predicate_s", *timed}
    assert len(row["log_sha256"]) == 64 and int(row["log_sha256"], 16) >= 0
    assert all(row[key] >= 0.0 for key in timed)
    assert set(row["predicate_s"]) == set(REGISTRY)
    assert all(seconds >= 0.0 for seconds in row["predicate_s"].values())
    assert row["log_mb"] > 0.0 and row["host_scale"] > 0.0


def test_end_to_end_row_runs_validate_mine_and_eval_and_repeats_its_figures(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scenebench"))
    row = _bench_module().end_to_end_row(sizes=(6, 5), num_frames=4, repeats=2)
    timed = ("validate_s", "mine_s", "eval_s")
    figures = ("validate_exit", "mine_exit", "eval_exit", "provider_calls", "predictions_sha256", "report_sha256")
    assert set(row) == {"objects", "frames", "mismatches", "peak_rss_mb", "host_scale", *timed, *figures}
    assert (row["objects"], row["frames"], row["mismatches"]) == ([6, 5], 4, [])
    assert all(row[key] > 0.0 for key in timed) and row["peak_rss_mb"] > 0.0 and row["host_scale"] > 0.0
    assert (row["validate_exit"], row["eval_exit"]) == (0, 0) and row["mine_exit"] in (0, 1)
    assert row["provider_calls"] >= 14  # a round at least per argo_files query
    assert all(len(row[key]) == 64 and int(row[key], 16) >= 0 for key in ("predictions_sha256", "report_sha256"))


def test_build_suite_row_times_the_ablation_suite(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scenebench"))
    row = _bench_module().build_suite_row(repeats=1)
    assert set(row) == {"build_suite_s", "host_scale"}
    assert row["build_suite_s"] > 0.0 and row["host_scale"] > 0.0


def test_parse_row_times_the_ablation_texts(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scenebench"))
    row = _bench_module().parse_row(repeats=1)
    assert set(row) == {"parse_s", "texts", "host_scale"}
    assert row["texts"] == 60 and row["parse_s"] > 0.0 and row["host_scale"] > 0.0


def _traced_run(seconds, calls, exit=0):
    metrics = {
        "dsl.parse.s": {"value": seconds, "unit": "s"},
        "dsl.parse.calls": {"value": calls, "unit": "count"},
        "tracklog.load_log.mb": {"value": 3.9, "unit": "MB"},
    }
    return {
        "workload": "argo_files", "seed": 7, "seconds": 50, "trace": 1, "exit": exit, "machine": None,
        "result": {"correct": exit == 0, "attempted": 3, "failed": 0, "metrics": metrics}, "stderr": "",
    }


def test_traced_runs_report_median_seconds_and_their_common_counts():
    runs = [_traced_run(0.5, 40), _traced_run(0.2, 40), _traced_run(0.3, 40)]
    entry = _bench_module().combine_traced(runs)
    assert (entry["workload"], entry["seed"], entry["trace"], entry["exit"]) == ("argo_files", 7, 1, 0)
    assert entry["repeats"] == runs and entry["mismatches"] == []
    assert entry["result"]["correct"] is True and entry["result"]["attempted"] == 9
    metrics = entry["result"]["metrics"]
    assert metrics["dsl.parse.s"] == {"value": 0.3, "unit": "s"}
    assert metrics["dsl.parse.calls"] == {"value": 40, "unit": "count"}
    assert metrics["tracklog.load_log.mb"] == {"value": 3.9, "unit": "MB"}


def test_traced_runs_name_each_figure_they_disagree_on():
    runs = [_traced_run(0.5, 40), _traced_run(0.2, 41), _traced_run(0.3, 40, exit=1)]
    entry = _bench_module().combine_traced(runs)
    assert entry["mismatches"] == ["dsl.parse.calls"]
    assert entry["exit"] == 1 and entry["result"]["correct"] is False


def test_a_count_that_differs_between_traced_runs_fails_the_run(tmp_path, monkeypatch, capsys):
    bench = _bench_module()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 50, "workloads": [{"name": "argo_files"}]}))
    calls = iter([40, 40, 41])

    def fake_run(checkout, workload, seed, seconds, trace):
        return dict(_traced_run(0.1, next(calls) if trace and seed == 7 else 40), seed=seed, trace=trace)

    end_to_end = {
        "objects": [200, 150], "frames": 150, "validate_s": 0.2, "mine_s": 0.5, "eval_s": 0.3, "provider_calls": 22,
        "peak_rss_mb": 200.0, "host_scale": 1.0, "mismatches": [],
    }
    sweep = {
        "machine": {}, "end_to_end": end_to_end, "rows": [], "build_suite": {"build_suite_s": 0.1, "host_scale": 1.0},
        "parse": {"parse_s": 0.01, "texts": 60, "host_scale": 1.0},
    }
    monkeypatch.setattr(bench, "benchmark_run", fake_run)
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: types.SimpleNamespace(stdout=json.dumps(sweep)))
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    assert bench.main(["--label", "test", "--checkout", str(tmp_path)]) == 1
    assert "argo_files seed 7: traced runs differ in dsl.parse.calls" in capsys.readouterr().out
    written = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert [(run["seed"], run["trace"], len(run.get("repeats", []))) for run in written["runs"]] == [
        (0, 0, 0), (0, 1, 3), (7, 0, 0), (7, 1, 3)
    ]
