#!/usr/bin/env python3
"""Record the references the benchmark checks its outputs against.

    python3 scenebench/record.py

Run from the root of a checkout; it re-records both workloads. For
``ablation_grid`` it records the three-arm table and the failed-run counts of
one pass. For every input variant of ``argo_files`` it runs one pipeline pass
and cross-checks it against the brute-force oracles in ``tests/oracles.py``
before writing anything: every accepted program's prediction and every
ground-truth set must equal the oracle's answer on the same log, failed runs
must predict nothing, the pooled timestamp and log F1 must equal
independently counted values, and a prediction equal to its ground truth must
score HOTA 1. Only then are the digests and scores written to
``scenebench/references.json``.

The oracle's HOTA enumerates every matching, which is only feasible on tiny
logs, so the HOTA of inexact predictions is compared with it only when
``check_files`` is asked to (the smoke test does, at tiny size).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import oracles  # noqa: E402
from scenemine.dsl import VarRef, parse  # noqa: E402
from scenemine.metrics import DEFAULT_ALPHAS  # noqa: E402
from scenemine.scenario_set import ScenarioSet  # noqa: E402
from scenemine.tracklog import load_ground_truth, load_log  # noqa: E402

import run  # noqa: E402
import scenes  # noqa: E402
import workloads  # noqa: E402
from instrument import Meters, Patches  # noqa: E402

_ORACLE_PARAM = {"track_candidates": "track", "related_candidates": "related", "category": "name"}
_SET_OPS = {"scenario_and", "scenario_or", "scenario_not"}


def oracle_run(program_text: str, log) -> dict[str, list[int]]:
    """A program's answer computed with the oracle predicates instead of the package's."""
    env: dict[str, dict] = {}
    program = parse(program_text)
    for stmt in program.assignments:
        kwargs = {}
        for kw in stmt.call.kwargs:
            value = env[kw.value.name] if isinstance(kw.value, VarRef) else kw.value.value
            if kw.name == "cross_track":
                value = value == "true"
            kwargs[_ORACLE_PARAM.get(kw.name, kw.name)] = value
        fn = oracles.ORACLE_PREDICATES[stmt.call.function]
        env[stmt.name] = fn(**kwargs) if stmt.call.function in _SET_OPS else fn(log, **kwargs)
    return {track: sorted(stamps) for track, stamps in sorted(env[program.output.name].items()) if stamps}


def fragments(log, entries: dict[str, list[int]], full_lifespan: bool) -> dict:
    """Positions of the flagged tracks, at the flagged timestamps or over their whole lifespans."""
    out = {}
    for track, stamps in entries.items():
        states = log.objects[track].states
        out[track] = {ts: states[ts].position for ts in (states if full_lifespan else stamps)}
    return out


def cross_check(entries, logs, predictions, ground_truth, report_json: dict, codes, exhaustive_hota=False) -> list[str]:
    """Compare a pass's predictions and scores with the oracles; returns the disagreements.

    With ``exhaustive_hota`` the per-log HOTA-temporal and HOTA of every
    inexact prediction is compared with ``oracles.hota`` too.
    """
    problems = []
    programs = {query: program for query, program, _ in entries}
    tp = fp = fn = log_tp = log_fp = log_fn = 0
    for query, per_log in predictions.items():
        for log in logs:
            pred = per_log[log.log_id].to_json_dict()
            gt = ground_truth[(query, log.log_id)].to_json_dict()
            if oracle_run(programs[query], log) != gt:
                problems.append(f"ground truth of {query!r} on {log.log_id} differs from the oracle")
            code = codes.get((query, log.log_id))
            if code is None:
                if query != scenes.NEVER_ANSWERED or pred:
                    problems.append(f"{query!r} on {log.log_id}: unexpected failed run")
            elif oracle_run(code, log) != pred:
                problems.append(f"prediction of {query!r} on {log.log_id} differs from the oracle")
            p = oracles.pairs({t: set(s) for t, s in pred.items()})
            g = oracles.pairs({t: set(s) for t, s in gt.items()})
            tp, fp, fn = tp + len(p & g), fp + len(p - g), fn + len(g - p)
            log_tp += bool(p) and bool(g)
            log_fp += bool(p) and not g
            log_fn += bool(g) and not p
            scores = report_json["per_query"][query]["per_log"][log.log_id]
            if pred == gt:
                if scores != [1.0, 1.0]:
                    problems.append(f"{query!r} on {log.log_id}: exact prediction scored {scores}")
            elif exhaustive_hota:
                expected = [
                    oracles.hota(fragments(log, pred, full), fragments(log, gt, full), DEFAULT_ALPHAS)[0]
                    for full in (False, True)
                ]
                if any(abs(a - b) > 1e-9 for a, b in zip(scores, expected)):
                    problems.append(f"{query!r} on {log.log_id}: HOTA {scores} != oracle {expected}")
    if report_json["timestamp_f1"] != oracles.f1(tp, fp, fn):
        problems.append(f"timestamp F1 {report_json['timestamp_f1']} != oracle {oracles.f1(tp, fp, fn)}")
    if report_json["log_f1"] != oracles.f1(log_tp, log_fp, log_fn):
        problems.append(f"log F1 {report_json['log_f1']} != oracle {oracles.f1(log_tp, log_fp, log_fn)}")
    return problems


def check_files(workload, state, result, exhaustive_hota=False) -> list[str]:
    paths = state["paths"]
    logs = [load_log(os.path.join(paths["logs"], name)) for name in sorted(os.listdir(paths["logs"]))]
    with open(result["files"]["predictions.json"], encoding="utf-8") as fh:
        raw = json.load(fh)
    predictions = {q: {lid: ScenarioSet.from_json_dict(s) for lid, s in per_log.items()} for q, per_log in raw.items()}
    gt = {(g.query_text, g.log_id): g.relevant for g in load_ground_truth(paths["gt"])}
    with open(result["files"]["report.json"], encoding="utf-8") as fh:
        report = json.load(fh)
    codes = {}
    transcripts = os.path.join(os.path.dirname(result["files"]["predictions.json"]), "transcripts")
    for name in os.listdir(transcripts):
        with open(os.path.join(transcripts, name), encoding="utf-8") as fh:
            t = json.load(fh)
        if t["status"] == "Succeeded":
            codes[(t["query"], t["log_id"])] = t["code"]
    return cross_check(workload.entries, logs, predictions, gt, report, codes, exhaustive_hota)


def record(workload, variants, workdir) -> dict:
    """Reference outputs per variant, each cross-checked first."""
    patches = Patches()
    Meters(patches)
    refs = {}
    try:
        for variant in variants:
            start = time.perf_counter()
            state = workload.setup(variant, workdir)
            workload.prepare(state)
            result = workload.iterate(state)
            problems = check_files(workload, state, result) if isinstance(workload, workloads.ArgoFiles) else []
            if problems:
                raise SystemExit(f"{workload.name} variant {variant}: " + "; ".join(problems[:5]))
            key = "fixed" if variant is None else str(variant)
            refs[key] = workload.outputs(result)
            print(f"{workload.name} variant {key}: ok in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    finally:
        patches.restore()
    return refs


def main() -> int:
    workdir = os.path.join(run.OUT, f"record-{os.getpid()}")
    try:
        refs = {
            "ablation_grid": record(workloads.AblationGrid(), [None], workdir)["fixed"],
            "argo_files": record(workloads.ArgoFiles(), range(workloads.VARIANTS), workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
