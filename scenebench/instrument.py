"""Meters and spans recorded around calls into the package's layers.

Everything here wraps the package's public functions from the outside: a
wrapper replaces a function wherever a ``scenemine`` module has bound it, and
``restore()`` puts the originals back. No file of the package changes.

Two levels:

* ``Meters`` are always on. They time the mining and scoring stages and
  count provider calls, prompt characters and failed runs, at a cost of one
  extra Python call per wrapped call.
* ``Tracer`` (traced runs only) records a span -- name, start, end, parent,
  run id -- around each call into a layer, plus per-call counts. Spans stay
  in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
from collections import Counter, defaultdict

from scenemine import dsl, metrics, orchestrator, predicates, promptgen, providers, synth, tracklog
from scenemine.scenario_set import ScenarioSet

RUN_SPAN = "orchestrator.mine_scenario"

# Error kinds a mining round can end with: the DSL's own plus the two the
# orchestrator adds for provider failures.
ERROR_KINDS = tuple(dsl.ERROR_KINDS) + (orchestrator.TRANSPORT_ERROR, orchestrator.EMPTY_RESPONSE)


class Patches:
    """Replaced attributes, restored in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def set_item(self, mapping: dict, key: str, value) -> None:
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def everywhere(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every loaded scenemine module."""
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("scenemine"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


class Meters:
    """Stage wall times, provider calls, prompt characters and run outcomes."""

    def __init__(self, patches: Patches):
        self.reset()
        meter = self
        generate = providers.ScriptedProvider.generate
        run_batch = orchestrator.run_batch
        evaluate = metrics.evaluate

        @functools.wraps(generate)
        def counted_generate(provider, prompt):
            meter.provider_calls += 1
            meter.prompt_chars += len(prompt)
            return generate(provider, prompt)

        @functools.wraps(run_batch)
        def timed_run_batch(*args, **kwargs):
            start = time.perf_counter()
            batch = run_batch(*args, **kwargs)
            meter.mine_s += time.perf_counter() - start
            meter.runs += sum(len(per_log) for per_log in batch.outcomes.values())
            meter.runs_failed += len(batch.failed_runs())
            return batch

        @functools.wraps(evaluate)
        def timed_evaluate(*args, **kwargs):
            start = time.perf_counter()
            report = evaluate(*args, **kwargs)
            meter.eval_s += time.perf_counter() - start
            return report

        # Patched on the class, so providers that run_ablation() or the CLI
        # build for themselves are counted too.
        patches.set(providers.ScriptedProvider, "generate", counted_generate)
        patches.everywhere(run_batch, timed_run_batch)
        patches.everywhere(evaluate, timed_evaluate)

    def reset(self) -> None:
        self.provider_calls = 0
        self.prompt_chars = 0
        self.mine_s = 0.0
        self.eval_s = 0.0
        self.runs = 0
        self.runs_failed = 0


class Tracer:
    """In-memory spans and counts for one traced iteration."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        run = index if parent < 0 or name == RUN_SPAN else self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, run])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self, patches: Patches) -> None:
        counts = self.counts

        def count_rounds(args, kwargs, outcome):
            for record in outcome.iterations:
                if record.error_kind is None:
                    counts["orchestrator.accepted"] += 1
                else:
                    counts[f"orchestrator.errors.{record.error_kind}"] += 1
                counts["orchestrator.rounds"] += 1

        def count_load(args, kwargs, log):
            counts["tracklog.load_log.bytes"] += os.path.getsize(args[0])

        for original, name, after in (
            (orchestrator.mine_scenario, RUN_SPAN, count_rounds),
            (dsl.describe_functions, "dsl.describe_functions", None),
            (dsl.parse, "dsl.parse", None),
            (dsl.interpret, "dsl.interpret", None),
            (promptgen.compose_initial, "promptgen.compose", None),
            (promptgen.compose_iteration, "promptgen.compose", None),
            (metrics.evaluate, "metrics.evaluate", None),
            (metrics.hota_temporal, "metrics.hota_temporal", None),
            (metrics.hota_full, "metrics.hota_full", None),
            (tracklog.load_log, "tracklog.load_log", count_load),
            (tracklog.save_log, "tracklog.save_log", None),
            (synth.generate_scenario_log, "synth.generate_scenario_log", None),
        ):
            patches.everywhere(original, self.span(name, original, after))

        lsa = metrics.linear_sum_assignment

        @functools.wraps(lsa)
        def counted_lsa(*args, **kwargs):
            counts["metrics.lsa_calls"] += 1
            return lsa(*args, **kwargs)

        patches.everywhere(lsa, counted_lsa)

        cls = providers.ScriptedProvider
        patches.set(cls, "generate", self.span("providers.generate", cls.generate))
        patches.set(cls, "__init__", self.span("providers.init", cls.__init__))

        for fname, spec in list(predicates.REGISTRY.items()):
            patches.set_item(predicates.REGISTRY, fname, self._traced_spec(spec))

    def _traced_spec(self, spec):
        counts = self.counts
        prefix = f"predicates.{spec.name}"

        def after(args, kwargs, result):
            counts[f"{prefix}.pairs_in"] += sum(
                len(value) for value in kwargs.values() if isinstance(value, ScenarioSet)
            )
            counts[f"{prefix}.pairs_out"] += len(result)

        return dataclasses.replace(spec, impl=self.span(prefix, spec.impl, after))

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (total minus child spans)."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _parent, _run) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

