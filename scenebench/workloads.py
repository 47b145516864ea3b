"""The benchmark's two workloads.

Each workload builds its inputs in ``setup()`` (timed as set-up), computes
the ground truth once in ``prepare()``, runs one pipeline pass -- query to
score -- in ``iterate()``, and reduces the pass to the digests and scores
that ``outputs()`` returns and the committed references hold. Stage times
and counts come from the meters in ``instrument``; the package is driven
only through its public functions, looked up on their modules at call time
so the meters see them.

* ``ablation_grid`` -- the shipped three-arm ``ablation.run_ablation()``:
  per-pair orchestration overhead over tiny certified logs.
* ``argo_files`` -- the ``scenemine`` CLI in process over dense
  Argoverse-shaped logs saved to disk: log load and validation, predicate
  and interpreter cost, output files and full-lifespan HOTA.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time

from scenemine import ablation, cli, dsl
from scenemine.tracklog import GroundTruthScenario, save_ground_truth, save_log

import scenes

# Input variants with committed references; the seed picks one (seed mod VARIANTS).
VARIANTS = 10

ARGO_SIZES = (50, 70)
SYNTH = (("near", 2), ("braking_sequence", 2), ("crossing", 2))
MAX_ROUNDS = 5


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ground_truth(entries, logs) -> list[GroundTruthScenario]:
    """Each query's correct program run on every log."""
    return [
        GroundTruthScenario(query, log.log_id, dsl.interpret(dsl.parse(program), log))
        for query, program, _ in entries
        for log in logs
    ]


class AblationGrid:
    name = "ablation_grid"
    pairs = 3 * 30 * 30

    def setup(self, seed: int, workdir: str):
        # run_ablation() is seedless: its suite is fixed by the package, so
        # the seed does not change this workload's inputs. It also builds the
        # suite and the fixtures itself, in every pass; set-up times one such
        # build and keeps nothing of it.
        suite = ablation.build_suite()
        for arm in ablation.ARMS:
            ablation.build_fixture(suite.queries, arm.epsrf)
        return {}

    def prepare(self, state) -> None:
        """The suite's ground truth is built by build_suite() itself."""

    def iterate(self, state, tracer=None) -> dict:
        start = time.perf_counter()
        outcome = ablation.run_ablation(workers=1)
        return {"wall_s": time.perf_counter() - start, "outcome": outcome}

    def outputs(self, result) -> dict:
        outcome = result["outcome"]
        failed = {name: len(batch.failed_runs()) for name, batch in outcome.batches.items()}
        return {"table": outcome.summary_table(), "failed_runs": failed}


class ArgoFiles:
    name = "argo_files"

    def __init__(self, sizes=ARGO_SIZES, synth=SYNTH):
        self.sizes = sizes
        self.entries = scenes.ARGO_QUERIES
        self.synth = synth
        self.pairs = len(self.entries) * len(sizes)

    def setup(self, seed: int, workdir: str):
        variant = seed % VARIANTS
        inputs = os.path.join(workdir, "inputs")
        shutil.rmtree(inputs, ignore_errors=True)
        logs_dir = os.path.join(inputs, "logs")
        os.makedirs(logs_dir)
        logs = [scenes.argo_log(variant, slot, n) for slot, n in enumerate(self.sizes)]
        for log in logs:
            save_log(log, os.path.join(logs_dir, f"{log.log_id}.json"))
        paths = {
            "logs": logs_dir,
            "queries": os.path.join(inputs, "queries.json"),
            "fixture": os.path.join(inputs, "fixture.json"),
            "gt": os.path.join(inputs, "gt.json"),
            "work": os.path.join(workdir, "work"),
        }
        with open(paths["queries"], "w", encoding="utf-8") as fh:
            json.dump([query for query, _, _ in self.entries], fh, indent=2)
        with open(paths["fixture"], "w", encoding="utf-8") as fh:
            json.dump(scenes.fixture_for(self.entries), fh, indent=2, sort_keys=True)
        return {"variant": variant, "paths": paths, "logs": logs}

    def prepare(self, state) -> None:
        save_ground_truth(ground_truth(self.entries, state["logs"]), state["paths"]["gt"])

    def _cli(self, tracer, subcommand: str, *args: str) -> tuple[int, float]:
        index = tracer.open(f"cli.{subcommand}") if tracer else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([subcommand, *args])
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.close(index)
        return code, elapsed

    def iterate(self, state, tracer=None) -> dict:
        paths = state["paths"]
        work = paths["work"]
        shutil.rmtree(work, ignore_errors=True)
        synth_dir = os.path.join(work, "synth")
        run_dir = os.path.join(work, "run")
        report_dir = os.path.join(work, "report")
        seed = 100 * state["variant"]
        codes, times = {}, {}
        start = time.perf_counter()
        for template, count in self.synth:
            code, _ = self._cli(tracer, "synth", "--template", template, "--seed", str(seed), "--count", str(count), "--out", synth_dir)
            codes[f"synth {template}"] = code
        codes["validate"], _ = self._cli(tracer, "validate", "--logs", paths["logs"], synth_dir, "--gt", paths["gt"])
        codes["mine"], times["mine_s"] = self._cli(
            tracer, "mine", "--queries", paths["queries"], "--logs", paths["logs"], "--out", run_dir,
            "--fixture", paths["fixture"], "-K", str(MAX_ROUNDS), "--workers", "1",
        )
        predictions = os.path.join(run_dir, "predictions.json")
        codes["eval"], times["eval_s"] = self._cli(
            tracer, "eval", "--predictions", predictions, "--gt", paths["gt"], "--logs", paths["logs"], "--out", report_dir,
        )
        return {
            "wall_s": time.perf_counter() - start,
            "codes": codes,
            "files": {
                "predictions.json": predictions,
                "report.json": os.path.join(report_dir, "report.json"),
                "synth bundles": synth_dir,
            },
            **times,
        }

    def outputs(self, result) -> dict:
        files = result["files"]
        out = {f"exit {name}": code for name, code in result["codes"].items()}
        for name in ("predictions.json", "report.json"):
            with open(files[name], encoding="utf-8") as fh:
                out[name] = sha256(fh.read())
        out["synth bundles"] = len(os.listdir(files["synth bundles"]))
        return out


WORKLOADS = {w.name: w for w in (AblationGrid, ArgoFiles)}
