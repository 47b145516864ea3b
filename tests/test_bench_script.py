"""scripts/bench.py's scale sweep, at a tiny size, and its build_suite row: their shape, never their timings."""

from __future__ import annotations

import importlib.util
import pathlib

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
    timed = ("save_log_s", "load_log_s", "hota_table_s", "interpret_s", "hota_temporal_s", "hota_full_s")
    assert set(row) == {"objects", "frames", "log_mb", "log_sha256", "host_scale", "predicate_s", *timed}
    assert len(row["log_sha256"]) == 64 and int(row["log_sha256"], 16) >= 0
    assert all(row[key] >= 0.0 for key in timed)
    assert set(row["predicate_s"]) == set(REGISTRY)
    assert all(seconds >= 0.0 for seconds in row["predicate_s"].values())
    assert row["log_mb"] > 0.0 and row["host_scale"] > 0.0


def test_build_suite_row_times_the_ablation_suite(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scenebench"))
    row = _bench_module().build_suite_row(repeats=1)
    assert set(row) == {"build_suite_s", "host_scale"}
    assert row["build_suite_s"] > 0.0 and row["host_scale"] > 0.0
