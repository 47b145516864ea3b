"""Per-layer metrics of a traced pass, computed from its spans and counts."""

from __future__ import annotations

from scenemine.predicates import REGISTRY

from instrument import ERROR_KINDS, RUN_SPAN


def _names() -> dict[str, str]:
    """Every per-layer metric name -> unit, in the order BENCHMARK.json lists them."""
    names = {
        f"{RUN_SPAN}.calls": "count",
        f"{RUN_SPAN}.self_s": "s",
        "orchestrator.rounds": "count",
        "orchestrator.accepted_ratio": "ratio",
    }
    names.update({f"orchestrator.errors.{kind}": "count" for kind in ERROR_KINDS})
    for layer in ("providers.generate", "providers.init", "promptgen.compose", "dsl.describe_functions", "dsl.parse"):
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.s"] = "s"
    names.update({"dsl.interpret.calls": "count", "dsl.interpret.s": "s", "dsl.interpret.self_s": "s"})
    for fname in REGISTRY:
        prefix = f"predicates.{fname}"
        names.update({f"{prefix}.calls": "count", f"{prefix}.s": "s", f"{prefix}.pairs_in": "pairs", f"{prefix}.pairs_out": "pairs"})
    names.update(
        {
            "metrics.evaluate.s": "s",
            "metrics.hota_temporal.calls": "count",
            "metrics.hota_temporal.s": "s",
            "metrics.hota_full.calls": "count",
            "metrics.hota_full.s": "s",
            "metrics.lsa_calls": "count",
            "tracklog.load_log.calls": "count",
            "tracklog.load_log.s": "s",
            "tracklog.load_log.mb": "MB",
            "tracklog.save_log.calls": "count",
            "tracklog.save_log.s": "s",
        }
    )
    names.update({f"cli.{sub}.s": "s" for sub in ("synth", "validate", "mine", "eval")})
    names.update(
        {
            "synth.generate_scenario_log.calls": "count",
            "synth.generate_scenario_log.s": "s",
            "trace.spans": "count",
            "trace.untraced_s": "s",
            "trace.traced_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return names


PER_LAYER = _names()


def per_layer(tracer, untraced_s: float, traced_s: float) -> dict:
    times = tracer.layer_times()
    counts = tracer.counts
    values: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and not layer.startswith("trace"):
            values[name] = times[layer][field] if layer in times else 0
        else:
            values[name] = counts.get(name, 0)
    calls = values["providers.generate.calls"]
    values["orchestrator.accepted_ratio"] = counts.get("orchestrator.accepted", 0) / calls if calls else 0.0
    values["tracklog.load_log.mb"] = counts.get("tracklog.load_log.bytes", 0) / 1e6
    values["trace.spans"] = len(tracer.spans)
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
