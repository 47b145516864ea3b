"""Smoke test of the benchmark at tiny size: metric names and correctness gates, never timings.

    python -m pytest -q scenebench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from instrument import Meters, Patches, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_lists_what_the_runner_prints():
    assert sorted(BENCHMARK) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == layers.PER_LAYER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_references_cover_every_variant():
    with open(run.REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    assert sorted(refs["argo_files"], key=int) == [str(v) for v in range(workloads.VARIANTS)]
    assert "100.00  100.00  100.00  100.00" in refs["ablation_grid"]["table"]


def test_tiny_argo_files_passes_its_gates_and_reports_every_metric(tmp_path):
    workload = workloads.ArgoFiles(sizes=(8, 12), synth=(("near", 1),))
    patches = Patches()
    meters = Meters(patches)
    try:
        state = workload.setup(3, str(tmp_path))
        workload.prepare(state)
        first = workload.iterate(state)
        assert record.check_files(workload, state, first, exhaustive_hota=True) == []
        reference = workload.outputs(first)

        sample, mismatches = run.run_pass(workload, state, meters, reference)
        assert mismatches == []
        assert sample["provider_calls"] > 0 and 0 < sample["runs_failed"] < sample["runs"]
        metrics = run.end_to_end(workload, [0.5], [dict(sample, scale=1.0)])
        assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
        assert all(v["value"] > 0 for v in metrics.values())

        tracer = Tracer()
        trace_patches = Patches()
        tracer.install(trace_patches)
        try:
            traced, mismatches = run.run_pass(workload, state, meters, reference, tracer)
        finally:
            trace_patches.restore()
        assert mismatches == []
        values = layers.per_layer(tracer, sample["wall_s"], traced["wall_s"])
        assert {k: v["unit"] for k, v in values.items()} == _units("per_layer")
        assert values["providers.generate.calls"]["value"] == traced["provider_calls"]
        assert values["orchestrator.rounds"]["value"] == traced["provider_calls"]
        assert values["orchestrator.errors.EmptyResponse"]["value"] > 0

        tampered = dict(reference, **{key: "0" * 64 for key in reference if key.endswith(("sha256", ".json"))})
        _, mismatches = run.run_pass(workload, state, meters, tampered)
        assert mismatches
    finally:
        patches.restore()


def test_ablation_gate_matches_the_seed_table():
    workload = workloads.AblationGrid()
    reference = run.load_reference(workload, None)
    outputs = workload.outputs(workload.iterate({}))
    assert run.mismatches(reference, outputs) == []
    assert run.mismatches(dict(reference, table="arm\n"), outputs) != []


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "scenebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "scenebench/run.py", "--workload", "argo_files", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_runner_exits_nonzero_when_a_pass_fails_its_gate(monkeypatch, capsys):
    monkeypatch.setattr(run, "load_reference", lambda workload, variant: {"table": "arm\n"})
    assert run.main(["--workload", "ablation_grid", "--seconds", "0", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
