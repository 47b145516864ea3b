"""Scenario mining over driving track logs.

Natural-language queries are translated into small relational programs,
executed fault-tolerantly against track logs, and the retrieved scenarios
are scored with identity-aware retrieval metrics.
"""

from .categories import DEFAULT_REGISTRY
from .dsl import DslError, Span, describe_functions, execute, interpret, parse, pretty_print
from .errors import (
    InfeasibleSpec,
    InvariantViolation,
    MalformedFile,
    ProviderError,
    ScenarioMiningError,
)
from .geometry import center_distance_similarity
from .metrics import (
    DEFAULT_ALPHAS,
    EvalReport,
    HotaResult,
    evaluate,
    hota_full,
    hota_temporal,
    timestamp_f1,
)
from .orchestrator import (
    BatchResult,
    IterationRecord,
    LogSet,
    MiningConfig,
    MiningOutcome,
    extract_code,
    mine_scenario,
    run_batch,
)
from .predicates import REGISTRY, FunctionSpec, ParamSpec, registry_catalog
from .promptgen import compose_initial, compose_iteration
from .providers import HttpProvider, LlmProvider, ScriptedProvider, make_fixture, query_key
from .scenario_set import ScenarioSet
from .synth import ScenarioSpec, SynthResult, generate_scenario_log, write_bundle
from .tracklog import (
    GroundTruthScenario,
    ObjectState,
    TrackedObject,
    TrackLog,
    load_ground_truth,
    load_log,
    save_ground_truth,
    save_log,
)

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "DEFAULT_ALPHAS",
    "DEFAULT_REGISTRY",
    "DslError",
    "EvalReport",
    "FunctionSpec",
    "GroundTruthScenario",
    "HotaResult",
    "HttpProvider",
    "InfeasibleSpec",
    "InvariantViolation",
    "IterationRecord",
    "LlmProvider",
    "LogSet",
    "MalformedFile",
    "MiningConfig",
    "MiningOutcome",
    "ObjectState",
    "ParamSpec",
    "ProviderError",
    "REGISTRY",
    "ScenarioMiningError",
    "ScenarioSet",
    "ScenarioSpec",
    "ScriptedProvider",
    "Span",
    "SynthResult",
    "TrackLog",
    "TrackedObject",
    "center_distance_similarity",
    "compose_initial",
    "compose_iteration",
    "describe_functions",
    "evaluate",
    "execute",
    "extract_code",
    "generate_scenario_log",
    "hota_full",
    "hota_temporal",
    "interpret",
    "load_ground_truth",
    "load_log",
    "make_fixture",
    "mine_scenario",
    "parse",
    "pretty_print",
    "query_key",
    "registry_catalog",
    "run_batch",
    "save_ground_truth",
    "save_log",
    "timestamp_f1",
    "write_bundle",
]
