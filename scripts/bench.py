#!/usr/bin/env python3
"""Write BENCH_<label>.json: the benchmark's runs plus an ungated scale sweep.

    python scripts/bench.py --label head
    python scripts/bench.py --label parent --checkout DIR

For each workload in the checkout's BENCHMARK.json, seeds 0 and 7, and each
of ``--trace 0`` and ``--trace 1``, runs the checkout's ``scenebench/run.py``
for BENCHMARK.json's run length in a fresh process, and keeps the JSON result
line it prints last, with the machine line, the seed and ``--seconds``. Then,
in one more fresh process, sweeps ``scenes.argo_log`` at 50, 70 and 200
objects x 150 frames, timing ``save_log`` then ``load_log`` of the log (up to
its columnar view, which some versions build on first use), the build of the
log's neighbour table on a freshly loaded log (``hota_table_s``; null where the
checkout has none), each of the 13 scenario functions called as the
benchmark's ``argo_files`` queries call it, and ``hota_temporal`` and
``hota_full`` scoring every other track (all of its frames) against all
tracks. The HOTA rows reuse one log, so after their first repeat its table is
built, and only ``hota_table_s`` shows what building it costs. Sweep times
are unscaled seconds, the median of SWEEP_REPEATS, given with the host scale
``run.py`` would apply to a time measured between the row's calibrations. Each row also holds the SHA-256 of
the file ``save_log`` wrote, so two checkouts' rows show whether they write
the same bytes. Nothing gates the sweep.

``--checkout`` (default: the checkout holding this script) is the tree whose
``scenebench/`` and ``src/`` are measured; the BENCH file is written next to
this script's checkout, so one script measures any commit's copy. The run
exits with code 1 when any benchmark run fails its gate.
"""

from __future__ import annotations

import argparse
import hashlib
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


def _median_time(action, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _arrays(log):
    """What holds a log's arrays: the log itself, or in older checkouts ``log.columns``, built there on first use."""
    return getattr(log, "columns", log)


def _table_time(path: str, repeats: int) -> float | None:
    """Median time to build the neighbour table HOTA scores from, each time on a freshly loaded log.

    None for a checkout whose logs have no such table.
    """
    from scenemine.tracklog import load_log

    times = []
    for _ in range(repeats):
        view = _arrays(load_log(path))
        if not hasattr(type(view), "neighbours"):
            return None
        start = time.perf_counter()
        view.neighbours
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def predicate_calls(log) -> dict:
    """Each scenario function, called with the arguments an ``argo_files`` query gives it."""
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
        "scenario_and": lambda: p.scenario_and(near, fast),
        "scenario_or": lambda: p.scenario_or(buses, trucks),
        "scenario_not": lambda: p.scenario_not(peds, close),
        "followed_by": lambda: p.followed_by(log, braking, still, within_seconds=3),
    }


def sweep_row(num_objects: int, num_frames: int = SWEEP_FRAMES, repeats: int = SWEEP_REPEATS) -> dict:
    """Times for one argo_log size; needs the checkout's src/ and scenebench/ on sys.path."""
    import run
    import scenes
    from scenemine.metrics import hota_full, hota_temporal
    from scenemine.scenario_set import ScenarioSet
    from scenemine.tracklog import load_log, save_log

    log = scenes.argo_log(0, 0, num_objects, num_frames)
    tracks = sorted(log.objects)
    everything = ScenarioSet({t: list(log.objects[t].states) for t in tracks})
    every_other = ScenarioSet({t: list(log.objects[t].states) for t in tracks[::2]})
    before = run.calibration_times()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.json")
        row = {
            "objects": num_objects,
            "frames": num_frames,
            "save_log_s": _median_time(lambda: save_log(log, path), repeats),
            "load_log_s": _median_time(lambda: _arrays(load_log(path)), repeats),
            "log_mb": os.path.getsize(path) / 1e6,
        }
        with open(path, "rb") as fh:
            row["log_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        row["hota_table_s"] = _table_time(path, repeats)
    row["predicate_s"] = {name: _median_time(call, repeats) for name, call in predicate_calls(log).items()}
    row["hota_temporal_s"] = _median_time(lambda: hota_temporal(every_other, everything, log), repeats)
    row["hota_full_s"] = _median_time(lambda: hota_full(every_other, everything, log), repeats)
    row["host_scale"] = run.host_scale(before + run.calibration_times())
    return row


def _sweep_main(checkout: str) -> int:
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "scenebench")]
    import run

    rows = [sweep_row(n) for n in SWEEP_OBJECTS]
    print(json.dumps({"machine": run.machine(), "rows": rows}))
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
            for trace in (0, 1):
                runs.append(benchmark_run(checkout, workload, seed, spec["run_seconds"], trace))
                result = runs[-1]["result"] or {}
                print(f"{workload} seed {seed} trace {trace}: exit {runs[-1]['exit']}, correct {result.get('correct')}")

    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--sweep-only", "--checkout", checkout],
        env=_env(), capture_output=True, text=True, check=True,
    )
    sweep = json.loads(done.stdout.splitlines()[-1])
    for row in sweep["rows"]:
        table = "none" if row["hota_table_s"] is None else f"{row['hota_table_s']:.3f} s"
        print(
            f"sweep {row['objects']} objects: load_log {row['load_log_s']:.3f} s, hota_table {table}, "
            f"predicates {sum(row['predicate_s'].values()):.3f} s, "
            f"hota_temporal {row['hota_temporal_s']:.3f} s, hota_full {row['hota_full_s']:.3f} s"
        )

    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"label": args.label, "machine": sweep["machine"], "runs": runs, "sweep": sweep["rows"]}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(out, ROOT)}")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
