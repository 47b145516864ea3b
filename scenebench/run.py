#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 scenebench/run.py --workload argo_files --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
run builds the workload's inputs from the seed (several times, to time the
set-up), then repeats the workload's pipeline pass until ``--seconds`` have
passed, checking every pass's outputs against the committed references. The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": <passes>, "failed": <passes whose outputs
     did not match>, "metrics": {name: {"value": ..., "unit": ...}}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
passes, with every time scaled to a fixed host speed (see ``host_scale``).
With ``--trace 1`` the run makes a warm-up pass, an untraced pass and a
traced pass, writes every span to ``.scenebench-out/`` and reports the
per-layer metrics of the traced pass, including the tracing overhead. The
run exits with code 1 when any pass fails its gate.
"""

from __future__ import annotations

import os

# One thread for every numeric library, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".scenebench-out")
REFERENCES = os.path.join(HERE, "references.json")

SETUP_REPEATS = 5

# The host's speed is measured by timing a fixed pure-Python loop between
# the timed set-ups and passes. On a shared VM it drifts by up to a factor of
# two over seconds to minutes (see NOTES.md), more than the changes the
# benchmark must resolve, and the package's hot paths are pure Python like
# the loop.
CALIBRATION_N = 30000
CALIBRATION_REPS = 9
# The loop's median time on the machine described in NOTES.md: reported
# times are seconds at that machine's usual speed.
CALIBRATION_REF_S = 0.0104

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "mine_s": "s",
    "eval_s": "s",
    "provider_calls": "count",
    "prompt_mchars": "Mchars",
    "runs_failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def machine() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _spin(n: int) -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(n):
        key = i & 255
        table[key] = table.get(key, 0.0) + math.hypot(i, key)
        total += table[key]
    return total


def calibration_times() -> list[float]:
    """Times of a few runs of the calibration loop: the host's current slowness."""
    times = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        _spin(CALIBRATION_N)
        times.append(time.perf_counter() - start)
    return times


def host_scale(calibrations: list[float]) -> float:
    """Factor that turns a time measured between these calibrations into seconds at the reference speed."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(workload, variant) -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)[workload.name]
    return refs if variant is None else refs[str(variant)]


def run_pass(workload, state, meters, reference, tracer=None) -> tuple[dict, list[str]]:
    # Every pass starts from a collected heap, as a fresh process with its
    # inputs loaded would; otherwise when the collector's full passes land
    # depends on what earlier passes allocated.
    gc.collect()
    meters.reset()
    result = workload.iterate(state, tracer)
    sample = {
        "wall_s": result["wall_s"],
        "mine_s": result.get("mine_s", meters.mine_s),
        "eval_s": result.get("eval_s", meters.eval_s),
        "provider_calls": meters.provider_calls,
        "prompt_chars": meters.prompt_chars,
        "runs": meters.runs,
        "runs_failed": meters.runs_failed,
    }
    return sample, mismatches(reference, workload.outputs(result))


def mismatches(expected: dict, actual: dict) -> list[str]:
    return [
        f"{key}: expected {expected.get(key)!r}, got {actual.get(key)!r}"
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    ]


def end_to_end(workload, setup_times, samples) -> dict:
    """Medians over the passes, with each pass's times multiplied by its ``scale``."""

    def median(key):
        return statistics.median(s[key] for s in samples)

    def scaled(key):
        return statistics.median(s[key] * s["scale"] for s in samples)

    values = {
        "setup_s": statistics.median(setup_times),
        "pairs_per_s": statistics.median(workload.pairs / (s["wall_s"] * s["scale"]) for s in samples),
        "mine_s": scaled("mine_s"),
        "eval_s": scaled("eval_s"),
        "provider_calls": median("provider_calls"),
        "prompt_mchars": median("prompt_chars") / 1e6,
        "runs_failed_frac": statistics.median(s["runs_failed"] / s["runs"] for s in samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def measure(workload, seed: int, seconds: float, workdir: str):
    from instrument import Meters, Patches

    patches = Patches()
    meters = Meters(patches)
    try:
        # Each timed stretch is scaled by the calibrations on either side of it.
        before = calibration_times()
        raw_setup_times, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(seed, workdir)
            raw_setup_times.append(time.perf_counter() - start)
            after = calibration_times()
            setup_times.append(raw_setup_times[-1] * host_scale(before + after))
            before = after
        workload.prepare(state)
        reference = load_reference(workload, state.get("variant"))

        samples, failures = [], []
        before = calibration_times()
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            sample, mismatches = run_pass(workload, state, meters, reference)
            after = calibration_times()
            sample["scale"] = host_scale(before + after)
            before = after
            samples.append(sample)
            failures.append(mismatches)
    finally:
        patches.restore()
    return end_to_end(workload, setup_times, samples), samples, raw_setup_times, failures


def trace(workload, seed: int, workdir: str):
    from instrument import Meters, Patches, Tracer
    import layers

    patches = Patches()
    meters = Meters(patches)
    try:
        state = workload.setup(seed, workdir)
        workload.prepare(state)
        reference = load_reference(workload, state.get("variant"))
        # The first pass warms lazy imports and the file cache; the second is
        # the untraced baseline the traced pass is compared with.
        warm, warm_failures = run_pass(workload, state, meters, reference)
        untraced, untraced_failures = run_pass(workload, state, meters, reference)
        tracer = Tracer()
        trace_patches = Patches()
        tracer.install(trace_patches)
        try:
            traced, traced_failures = run_pass(workload, state, meters, reference, tracer)
        finally:
            trace_patches.restore()
    finally:
        patches.restore()
    values = layers.per_layer(tracer, untraced["wall_s"], traced["wall_s"])
    return values, tracer, [warm, untraced, traced], [warm_failures, untraced_failures, traced_failures]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "scenemine", "__init__.py")):
        print(f"error: no scenemine package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            values, tracer, samples, failures = trace(workload, args.seed, workdir)
        else:
            values, samples, raw_setup_times, failures = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for number, mismatches in enumerate(failures):
        for line in mismatches:
            print(f"pass {number}: mismatch: {line}", file=sys.stderr)
    failed = sum(1 for mismatches in failures if mismatches)

    if args.trace:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "machine": machine(),
                    "metrics": values,
                    "passes": samples,
                    "spans_fields": ["name", "start", "end", "parent", "run"],
                    "spans": tracer.spans,
                },
                fh,
            )
        for name, metric in values.items():
            print(f"{name:58s} {metric['value']:>16.6g} {metric['unit']}")
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        for name, metric in values.items():
            print(f"{name:18s} {metric['value']:>14.6g} {metric['unit']}")
        unscaled = end_to_end(workload, raw_setup_times, [dict(s, scale=1.0) for s in samples])
        print(
            f"median host scale {statistics.median(s['scale'] for s in samples):.4f}; unscaled: "
            + ", ".join(f"{k} {unscaled[k]['value']:.6g}" for k in ("setup_s", "pairs_per_s", "mine_s", "eval_s"))
        )
        print(f"passes: {len(samples)}; machine: {json.dumps(machine())}")

    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": values}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
