#!/usr/bin/env python3
"""Write BENCH_<label>.json: the benchmark's runs plus an ungated scale sweep.

    python scripts/bench.py --label head
    python scripts/bench.py --label parent --checkout DIR

For each workload in the checkout's BENCHMARK.json, seeds 0 and 7, and each
of ``--trace 0`` and ``--trace 1``, runs the checkout's ``scenebench/run.py``
for BENCHMARK.json's run length in a fresh process, and keeps the JSON result
line it prints last, with the machine line, the seed and ``--seconds``. Then,
in one more fresh process, sweeps ``scenes.argo_log`` at 50, 70 and 200
objects x 150 frames, timing ``save_log`` then ``load_log`` of the log, and
``hota_temporal`` and ``hota_full`` scoring every other track (all of its
frames) against all tracks. Sweep times are unscaled seconds, the median of
SWEEP_REPEATS, given with the host scale ``run.py`` would apply to a time
measured between the row's calibrations. Nothing gates the sweep.

``--checkout`` (default: the checkout holding this script) is the tree whose
``scenebench/`` and ``src/`` are measured; the BENCH file is written next to
this script's checkout, so one script measures any commit's copy. The run
exits with code 1 when any benchmark run fails its gate.
"""

from __future__ import annotations

import argparse
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
            "load_log_s": _median_time(lambda: load_log(path), repeats),
            "log_mb": os.path.getsize(path) / 1e6,
        }
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
        print(
            f"sweep {row['objects']} objects: load_log {row['load_log_s']:.3f} s, "
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
