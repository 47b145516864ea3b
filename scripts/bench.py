#!/usr/bin/env python3
"""Write BENCH_<label>.json: the benchmark's runs plus an ungated scale sweep.

    python scripts/bench.py --label head
    python scripts/bench.py --label parent --checkout DIR

For each workload in the checkout's BENCHMARK.json and seeds 0 and 7, runs
the checkout's ``scenebench/run.py`` in a fresh process once with ``--trace 0``
and TRACE_REPEATS times with ``--trace 1``, for BENCHMARK.json's run length,
and keeps the JSON result line each prints last, with the machine line, the
seed and ``--seconds``. The traced runs of one (workload, seed) are kept as one
entry: each run's result under ``repeats``, and as its result their per-layer
metrics, each time in seconds the runs' median and every other figure (a
count, pair count, ratio or size) as they all give it. Then, in one more
fresh process, runs an end-to-end row first: ``validate``, ``mine`` and
``eval`` through ``cli.main`` over ``scenes.argo_log`` logs of 200 and 150
objects x 150 frames and the ``argo_files`` queries, SWEEP_REPEATS times,
keeping each command's median time, scaled as ``run.py`` scales a pass (each
repeat's times by the host scale of the calibrations on either side of it),
its exit code, the provider calls, the process's peak RSS and the SHA-256s of
``predictions.json`` and ``report.json``. Next it sweeps ``scenes.argo_log``
at 50, 70 and 200 objects x 150 frames, timing ``save_log`` then
``load_log`` of the log, the read and ``json.loads`` of its file with the
collector paused, as ``load_log`` parses it (``parse_s``), the first read of ``speed`` on a
freshly loaded log (``derived_s``), the build of the log's neighbour table
on a freshly loaded log (``hota_table_s``),
each of the 13 scenario functions called as the benchmark's ``argo_files``
queries call it, ``dsl.interpret`` of one
multi-statement ``argo_files`` program (``INTERPRET_QUERY``'s, parsed once)
with its output read through ``to_json_dict`` (``interpret_s``), and
``hota_temporal`` and ``hota_full`` scoring every other track (all of its
frames) against all tracks, and the two of them together scoring all tracks
against themselves (``hota_exact_s``), where every frame agrees. The HOTA rows
reuse one log whose table is built before they are timed, so only
``hota_table_s`` shows what building it costs.
Every timed repeat starts after a ``gc.collect()``, so no repeat pays for a
collection the garbage of earlier ones made due. Sweep times
are unscaled seconds, the median of SWEEP_REPEATS, given and printed with the
host scale ``run.py`` would apply to a time measured between the row's
calibrations; the host drifts between rows and runs, so two rows' times
compare only at similar scales. Each row also holds the SHA-256 of
the file ``save_log`` wrote, so two checkouts' rows show whether they write
the same bytes. The same process then times ``ablation.build_suite()``, the
ablation's 30 certified logs and their ground truth, the median of
BUILD_SUITE_REPEATS runs with its host scale (``build_suite_s``), and
``dsl.parse`` of the ablation's 30 reference programs and their 30
syntax-broken versions, the median of PARSE_REPEATS passes over all 60 with
its host scale (``parse_s``). Nothing gates the sweep or these rows.

``--checkout`` (default: the checkout holding this script) is the tree whose
``scenebench/`` and ``src/`` are measured; the BENCH file is written next to
this script's checkout, so one script measures any commit's copy. The run
exits with code 1 when any benchmark run fails its gate, or when the traced
runs of one (workload, seed), or the end-to-end row's runs, differ in a
figure other than a time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDS = (0, 7)  # the benchmark's default seed and its held-out one
SWEEP_OBJECTS = (50, 70, 200)
SWEEP_FRAMES = 150
SWEEP_REPEATS = 3
END_TO_END_OBJECTS = (200, 150)  # two widths, so each log runs in a pack of its own
BUILD_SUITE_REPEATS = 9
PARSE_REPEATS = 51
TRACE_REPEATS = 3  # traced runs per (workload, seed); their per-layer seconds are medians
INTERPRET_QUERY = "fast vehicles within 5 meters of a pedestrian"


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def benchmark_run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, "scenebench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, env=_env(), capture_output=True, text=True)
    lines = done.stdout.splitlines()
    machine = next((json.loads(line.split("machine: ", 1)[1]) for line in lines if "; machine: " in line), None)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "exit": done.returncode,
        "machine": machine,
        "result": json.loads(lines[-1]) if lines else None,
        "stderr": done.stderr[-2000:],
    }


def combine_traced(runs: list[dict]) -> dict:
    """One entry for the traced runs of one (workload, seed), as ``benchmark_run`` returns them.

    Its result's metrics are each time in seconds the runs' median and each
    other figure the first run's; ``mismatches`` names every other figure
    the runs do not all give alike. A run with no result line fails the
    entry and leaves its metrics to the runs that have one.
    """
    results = [run["result"] for run in runs if run["result"]]
    metrics, mismatches = {}, []
    for name, metric in (results[0]["metrics"] if results else {}).items():
        values = [result["metrics"].get(name, {}).get("value") for result in results]
        if metric["unit"] == "s" and None not in values:
            metric = dict(metric, value=statistics.median(values))
        elif len(set(values)) > 1:
            mismatches.append(name)
        metrics[name] = metric
    first = runs[0]
    return {
        "workload": first["workload"],
        "seed": first["seed"],
        "seconds": first["seconds"],
        "trace": 1,
        "exit": max(run["exit"] for run in runs),
        "machine": first["machine"],
        "result": {
            "correct": len(results) == len(runs) and all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics,
        },
        "mismatches": mismatches,
        "repeats": runs,
    }


def _median_time(action, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _first_use_time(path: str, repeats: int, use) -> float:
    """Median time of ``use(log)``, each time on a freshly loaded log."""
    from scenemine.tracklog import load_log

    times = []
    for _ in range(repeats):
        log = load_log(path)
        gc.collect()
        start = time.perf_counter()
        use(log)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _parse(path: str) -> None:
    """Read and ``json.loads`` a file with the collector paused, as ``load_log`` parses one."""
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            json.loads(fh.read())
    finally:
        gc.enable()


def predicate_calls(log) -> dict:
    """Each scenario function, called with the arguments an ``argo_files`` query gives it.

    The set operations are called through ``REGISTRY``, whose entries take
    the log first in checkouts where the functions themselves do not.
    """
    from scenemine import predicates as p

    vehicles, peds, buses, trucks = (
        p.get_objects_of_category(log, category) for category in ("REGULAR_VEHICLE", "PEDESTRIAN", "BUS", "TRUCK")
    )
    near = p.near_objects(log, vehicles, peds, distance_thresh=5)
    fast = p.has_velocity(log, vehicles, min_velocity=5)
    close = p.near_objects(log, peds, vehicles, distance_thresh=5)
    braking = p.decelerating(log, vehicles, min_decel=4)
    still = p.has_velocity(log, vehicles, max_velocity=0.5)
    return {
        "get_objects_of_category": lambda: p.get_objects_of_category(log, "REGULAR_VEHICLE"),
        "has_objects_in_relative_direction": lambda: p.has_objects_in_relative_direction(
            log, vehicles, vehicles, "forward", within_distance=12, lateral_thresh=1.5
        ),
        "being_crossed_by": lambda: p.being_crossed_by(log, peds, buses, forward_extent=10),
        "heading_in_relative_direction_to": lambda: p.heading_in_relative_direction_to(log, peds, vehicles, "perpendicular"),
        "facing_toward": lambda: p.facing_toward(log, peds, buses, within_angle=0.5, max_distance=30),
        "heading_toward": lambda: p.heading_toward(log, vehicles, peds, max_distance=8),
        "near_objects": lambda: p.near_objects(log, vehicles, vehicles, distance_thresh=4, min_objects=2),
        "has_velocity": lambda: p.has_velocity(log, vehicles, max_velocity=0.5),
        "decelerating": lambda: p.decelerating(log, vehicles, min_decel=4),
        "scenario_and": lambda: p.REGISTRY["scenario_and"].impl(log, near, fast),
        "scenario_or": lambda: p.REGISTRY["scenario_or"].impl(log, buses, trucks),
        "scenario_not": lambda: p.REGISTRY["scenario_not"].impl(log, peds, close),
        "followed_by": lambda: p.followed_by(log, braking, still, within_seconds=3),
    }


def sweep_row(num_objects: int, num_frames: int = SWEEP_FRAMES, repeats: int = SWEEP_REPEATS) -> dict:
    """Times for one argo_log size; needs the checkout's src/ and scenebench/ on sys.path."""
    import run
    import scenes
    from scenemine.dsl import interpret, parse
    from scenemine.metrics import hota_full, hota_temporal
    from scenemine.scenario_set import ScenarioSet
    from scenemine.tracklog import load_log, save_log

    log = scenes.argo_log(0, 0, num_objects, num_frames)
    alternate = log.present.copy()
    alternate[:, 1::2] = False  # the columns of every other track, in id order
    everything, every_other = ScenarioSet.from_mask(log, log.present), ScenarioSet.from_mask(log, alternate)
    before = run.calibration_times()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.json")
        row = {
            "objects": num_objects,
            "frames": num_frames,
            "save_log_s": _median_time(lambda: save_log(log, path), repeats),
            "load_log_s": _median_time(lambda: load_log(path), repeats),
            "parse_s": _median_time(lambda: _parse(path), repeats),
            "derived_s": _first_use_time(path, repeats, lambda log: log.speed),
            "log_mb": os.path.getsize(path) / 1e6,
        }
        with open(path, "rb") as fh:
            row["log_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        row["hota_table_s"] = _first_use_time(path, repeats, lambda log: log.neighbours)
    row["predicate_s"] = {name: _median_time(call, repeats) for name, call in predicate_calls(log).items()}
    program = parse(next(code for query, code, _ in scenes.ARGO_QUERIES if query == INTERPRET_QUERY))
    row["interpret_s"] = _median_time(lambda: interpret(program, log).to_json_dict(), repeats)
    log.neighbours  # built here, so the HOTA rows time scoring alone
    row["hota_temporal_s"] = _median_time(lambda: hota_temporal(every_other, everything, log), repeats)
    row["hota_full_s"] = _median_time(lambda: hota_full(every_other, everything, log), repeats)
    row["hota_exact_s"] = _median_time(
        lambda: (hota_temporal(everything, everything, log), hota_full(everything, everything, log)), repeats
    )
    row["host_scale"] = run.host_scale(before + run.calibration_times())
    return row


def end_to_end_row(sizes=END_TO_END_OBJECTS, num_frames: int = SWEEP_FRAMES, repeats: int = SWEEP_REPEATS) -> dict:
    """``validate``, ``mine`` and ``eval`` through ``cli.main`` in process, as ``argo_files`` runs them.

    The logs are ``scenes.argo_log`` logs of ``sizes`` objects x ``num_frames``
    frames, saved to files, with their ground truth; the queries and replies
    are ``argo_files``'. Each run's times are scaled by the host scale of the
    calibrations on either side of it, and a command's time is the median of
    its ``repeats`` scaled times; ``host_scale`` is the runs' median scale.
    The exit codes, provider calls and output hashes are the first run's, and
    ``mismatches`` names each of them that a later run does not repeat.
    ``peak_rss_mb`` is the process's peak after the last run. Needs the
    checkout's src/ and scenebench/ on sys.path.
    """
    import run
    import scenes
    import workloads
    from scenemine import cli, providers
    from scenemine.tracklog import save_ground_truth, save_log

    logs = [scenes.argo_log(0, slot, n, num_frames) for slot, n in enumerate(sizes)]
    calls = []
    generate = providers.ScriptedProvider.generate

    def counted(provider, prompt):
        calls.append(None)
        return generate(provider, prompt)

    with tempfile.TemporaryDirectory() as tmp:
        data, queries, fixture, gt = (os.path.join(tmp, name) for name in ("logs", "queries.json", "fixture.json", "gt.json"))
        outputs = {
            "predictions": os.path.join(tmp, "run", "predictions.json"),
            "report": os.path.join(tmp, "report", "report.json"),
        }
        os.makedirs(data)
        for log in logs:
            save_log(log, os.path.join(data, f"{log.log_id}.json"))
        save_ground_truth(workloads.ground_truth(scenes.ARGO_QUERIES, logs), gt)
        with open(queries, "w", encoding="utf-8") as fh:
            json.dump([query for query, _, _ in scenes.ARGO_QUERIES], fh)
        with open(fixture, "w", encoding="utf-8") as fh:
            json.dump(scenes.fixture_for(scenes.ARGO_QUERIES), fh)
        commands = {
            "validate": ["validate", "--logs", data, "--gt", gt],
            "mine": [
                "mine", "--queries", queries, "--logs", data, "--out", os.path.join(tmp, "run"), "--fixture", fixture,
                "-K", str(workloads.MAX_ROUNDS), "--workers", "1",
            ],
            "eval": [
                "eval", "--predictions", outputs["predictions"], "--gt", gt, "--logs", data,
                "--out", os.path.dirname(outputs["report"]),
            ],
        }
        runs = []
        providers.ScriptedProvider.generate = counted
        before = run.calibration_times()
        try:
            for _ in range(repeats):
                calls.clear()
                times, figures = {}, {}
                for name, argv in commands.items():
                    gc.collect()
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        start = time.perf_counter()
                        figures[f"{name}_exit"] = cli.main(argv)
                        times[f"{name}_s"] = time.perf_counter() - start
                figures["provider_calls"] = len(calls)
                for name, path in outputs.items():
                    with open(path, "rb") as fh:
                        figures[f"{name}_sha256"] = hashlib.sha256(fh.read()).hexdigest()
                after = run.calibration_times()
                scale = run.host_scale(before + after)
                before = after
                runs.append(({name: t * scale for name, t in times.items()}, figures, scale))
        finally:
            providers.ScriptedProvider.generate = generate
    row = {"objects": list(sizes), "frames": num_frames}
    row.update({name: statistics.median(t[name] for t, _, _ in runs) for name in runs[0][0]})
    row.update(runs[0][1])
    row["mismatches"] = [name for name in runs[0][1] if any(f[name] != runs[0][1][name] for _, f, _ in runs)]
    row["peak_rss_mb"] = run.peak_rss_mb()
    row["host_scale"] = statistics.median(scale for _, _, scale in runs)
    return row


def build_suite_row(repeats: int = BUILD_SUITE_REPEATS) -> dict:
    """The median time of ``ablation.build_suite()``; needs the checkout's src/ and scenebench/ on sys.path."""
    import run
    from scenemine import ablation

    before = run.calibration_times()
    seconds = _median_time(ablation.build_suite, repeats)
    return {"build_suite_s": seconds, "host_scale": run.host_scale(before + run.calibration_times())}


def parse_row(repeats: int = PARSE_REPEATS) -> dict:
    """The median time to parse the ablation's reference and syntax-broken texts; needs src/ and scenebench/ on sys.path."""
    import run
    from scenemine import ablation
    from scenemine.dsl import DslError, parse

    programs = [query.program for query in ablation.build_suite().queries]
    texts = programs + [ablation.syntax_broken(program) for program in programs]

    def parse_all():
        for text in texts:
            try:
                parse(text)
            except DslError:
                pass

    before = run.calibration_times()
    seconds = _median_time(parse_all, repeats)
    return {"parse_s": seconds, "texts": len(texts), "host_scale": run.host_scale(before + run.calibration_times())}


def _sweep_main(checkout: str) -> int:
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "scenebench")]
    import run

    end_to_end = end_to_end_row()  # first, so the process's peak RSS is this row's
    rows = [sweep_row(n) for n in SWEEP_OBJECTS]
    print(json.dumps({
        "machine": run.machine(), "end_to_end": end_to_end, "rows": rows, "build_suite": build_suite_row(),
        "parse": parse_row(),
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--checkout", default=ROOT, help="root of the checkout to measure")
    parser.add_argument("--sweep-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if args.sweep_only:
        return _sweep_main(checkout)
    if not args.label:
        parser.error("--label is required")

    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            runs.append(benchmark_run(checkout, workload, seed, spec["run_seconds"], 0))
            traced = [benchmark_run(checkout, workload, seed, spec["run_seconds"], 1) for _ in range(TRACE_REPEATS)]
            runs.append(combine_traced(traced))
            for run in runs[-2:]:
                correct = (run["result"] or {}).get("correct")
                print(f"{workload} seed {seed} trace {run['trace']}: exit {run['exit']}, correct {correct}")
            if runs[-1]["mismatches"]:
                print(f"{workload} seed {seed}: traced runs differ in {', '.join(runs[-1]['mismatches'])}")

    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--sweep-only", "--checkout", checkout],
        env=_env(), capture_output=True, text=True, check=True,
    )
    sweep = json.loads(done.stdout.splitlines()[-1])
    end_to_end = sweep["end_to_end"]
    print(
        f"end to end {end_to_end['objects']} objects: validate {end_to_end['validate_s']:.3f} s, "
        f"mine {end_to_end['mine_s']:.3f} s, eval {end_to_end['eval_s']:.3f} s, "
        f"{end_to_end['provider_calls']} provider calls, peak RSS {end_to_end['peak_rss_mb']:.1f} MB, "
        f"median host scale {end_to_end['host_scale']:.2f}"
    )
    if end_to_end["mismatches"]:
        print(f"end to end: runs differ in {', '.join(end_to_end['mismatches'])}")
    for row in sweep["rows"]:
        print(
            f"sweep {row['objects']} objects: load_log {row['load_log_s']:.3f} s "
            f"(parse {row['parse_s']:.3f} s, first speed read {row['derived_s']:.3f} s), "
            f"hota_table {row['hota_table_s']:.3f} s, predicates {sum(row['predicate_s'].values()):.3f} s, interpret {row['interpret_s']:.3f} s, "
            f"hota_temporal {row['hota_temporal_s']:.3f} s, hota_full {row['hota_full_s']:.3f} s, "
            f"hota_exact {row['hota_exact_s']:.3f} s, "
            f"host scale {row['host_scale']:.2f}"
        )
    suite = sweep["build_suite"]
    print(f"build_suite {suite['build_suite_s']:.3f} s, host scale {suite['host_scale']:.2f}")
    parsing = sweep["parse"]
    print(f"parse {parsing['texts']} texts {parsing['parse_s'] * 1e3:.2f} ms, host scale {parsing['host_scale']:.2f}")

    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(
            {"label": args.label, "machine": sweep["machine"], "runs": runs, "end_to_end": end_to_end,
             "sweep": sweep["rows"], "build_suite": suite, "parse": parsing},
            fh, indent=2,
        )
        fh.write("\n")
    print(f"wrote {os.path.relpath(out, ROOT)}")
    passed = all(r["exit"] == 0 and not r.get("mismatches") for r in runs) and not end_to_end["mismatches"]
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
