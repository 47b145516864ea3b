"""Query-to-scenario mining: translate once, repair on failure, execute.

Each query is translated into one program that runs on every log. A round
composes a prompt (the first plain, later ones carrying the previous program
and its diagnostic), asks the provider for code, parses and checks it, and
executes it on each log in turn; the first diagnostic is the next round's
feedback. If every round up to the cap fails, the query reports Failed with
empty predictions rather than raising -- a batch must survive any single bad
query.
"""

from __future__ import annotations

import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .dsl import DslError, check, describe_functions, execute, parse
from .errors import EmptyResponse, InvalidParameter, ProviderError
from .promptgen import compose_initial, compose_iteration
from .providers import LlmProvider, query_key
from .scenario_set import ScenarioSet
from .tracklog import TrackLog, write_text_atomic

STATUS_SUCCEEDED = "Succeeded"
STATUS_FAILED = "Failed"

TRANSPORT_ERROR = "TransportError"
EMPTY_RESPONSE = "EmptyResponse"

MISSING_CODE_PLACEHOLDER = "<no code returned>"

TRANSPORT_BACKOFF_S = 2.0  # wait before the one retry of a failed provider call

# Most mining threads one batch may ask for. Each thread waits on one provider
# request at a time, so a larger value asks a model endpoint for more requests
# in flight than any serves; it is a mistyped option, not a speed-up.
MAX_WORKERS = 256

_FENCE = re.compile(r"^\s*```")


def extract_code(response: str) -> str:
    """Pull program text out of a completion.

    The first fenced block wins (any language tag on the fence is ignored);
    an unterminated fence runs to the end of the response. Without a fence
    the whole trimmed response is treated as code.
    """
    if not response.strip():
        raise EmptyResponse("provider returned an empty response")
    lines = response.splitlines()
    for i, line in enumerate(lines):
        if _FENCE.match(line):
            body = []
            for j in range(i + 1, len(lines)):
                if _FENCE.match(lines[j]):
                    break
                body.append(lines[j])
            return "\n".join(body).strip()
    return response.strip()


@dataclass
class MiningConfig:
    """Knobs for mining a batch of queries.

    One provider serves every query. Each query is translated once, so a
    scripted provider, which keeps a reply cursor per query, replays every
    query's replies from the first whatever the batch order or worker count.
    """

    provider: LlmProvider
    max_iterations: int = 5
    epsrf: bool = True
    sleeper: Callable[[float], None] = time.sleep
    workers: int = 1
    catalog: str = field(init=False, repr=False)  # the registry's catalog text, for every prompt

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise InvalidParameter(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise InvalidParameter(f"workers must be between 1 and {MAX_WORKERS}, got {self.workers!r}")
        self.catalog = describe_functions()


@dataclass(frozen=True)
class IterationRecord:
    """What one round saw and how it failed (all error fields None on success)."""

    index: int
    prompt_text: str
    response_text: str | None
    code: str | None
    error_kind: str | None
    error_message: str | None
    error_span: tuple[int, int] | None

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "prompt": self.prompt_text,
            "response": self.response_text,
            "code": self.code,
            "error_kind": self.error_kind,
            "error_message": self.error_message,
            "error_span": list(self.error_span) if self.error_span else None,
        }


@dataclass(frozen=True)
class MiningOutcome:
    """One query's rounds, its accepted program, and that program's result on each log."""

    query_text: str
    status: str
    iterations: tuple[IterationRecord, ...]
    code: str | None
    predictions: Mapping[str, ScenarioSet]  # log id -> prediction, empty sets on failure

    @property
    def succeeded(self) -> bool:
        return self.status == STATUS_SUCCEEDED

    def to_json_dict(self, log_id: str) -> dict:
        """The transcript of this query on one log."""
        return {
            "query": self.query_text,
            "log_id": log_id,
            "status": self.status,
            "code": self.code,
            "prediction": self.predictions[log_id].to_json_dict(),
            "iterations": [rec.to_json_dict() for rec in self.iterations],
        }


def _generate_once(prompt: str, config: MiningConfig) -> str:
    """One provider call with a single retry after a failure.

    A provider may be third-party code, so any exception it raises counts as
    a transport failure, not just ProviderError.
    """
    try:
        return config.provider.generate(prompt)
    except Exception:
        config.sleeper(TRANSPORT_BACKOFF_S)
        return config.provider.generate(prompt)


def mine_scenario(query_text: str, logs: Sequence[TrackLog], config: MiningConfig) -> MiningOutcome:
    """Run the generate/execute/repair loop for one query over every log."""
    records: list[IterationRecord] = []
    prior_code: str | None = None
    prior_error: str | None = None

    for index in range(1, config.max_iterations + 1):
        if prior_error is None:
            prompt = compose_initial(query_text, config.catalog, config.epsrf)
        else:
            prompt = compose_iteration(
                query_text, config.catalog, config.epsrf, prior_code or MISSING_CODE_PLACEHOLDER, prior_error
            )

        try:
            response = _generate_once(prompt, config)
        except Exception as exc:
            message = str(exc) if isinstance(exc, ProviderError) else f"{type(exc).__name__}: {exc}"
            records.append(IterationRecord(index, prompt, None, None, TRANSPORT_ERROR, message, None))
            prior_code, prior_error = None, message
            continue

        try:
            code = extract_code(response)
            if not code:
                raise EmptyResponse("completion contained no program text")
        except EmptyResponse as exc:
            records.append(
                IterationRecord(index, prompt, response, None, EMPTY_RESPONSE, str(exc), None)
            )
            prior_code, prior_error = None, str(exc)
            continue

        try:
            program = parse(code)
            problems = check(program)
            if problems:
                raise problems[0]
            predictions = {log.log_id: execute(program, log) for log in logs}
        except DslError as exc:
            span = (exc.span.line, exc.span.col) if exc.span else None
            records.append(
                IterationRecord(index, prompt, response, code, exc.kind, str(exc), span)
            )
            prior_code, prior_error = code, str(exc)
            continue

        records.append(IterationRecord(index, prompt, response, code, None, None, None))
        return MiningOutcome(query_text, STATUS_SUCCEEDED, tuple(records), code, predictions)

    empty = {log.log_id: ScenarioSet.empty() for log in logs}
    return MiningOutcome(query_text, STATUS_FAILED, tuple(records), None, empty)


# ---------------------------------------------------------------------------
# Batch running and result files


@dataclass(frozen=True)
class BatchResult:
    """Outcomes keyed query text -> log id; every log of a query shares that query's outcome."""

    outcomes: Mapping[str, Mapping[str, MiningOutcome]]

    def predictions(self) -> dict:
        return {
            query: {
                log_id: outcome.predictions[log_id].to_json_dict() for log_id, outcome in per_log.items()
            }
            for query, per_log in self.outcomes.items()
        }

    def predictions_json(self) -> str:
        return json.dumps(self.predictions(), indent=2, sort_keys=True) + "\n"

    def failed_runs(self) -> list[tuple[str, str]]:
        return [
            (query, log_id)
            for query, per_log in self.outcomes.items()
            for log_id, outcome in per_log.items()
            if not outcome.succeeded
        ]


def _transcript_name(query_text: str, log_id: str) -> str:
    safe_log = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in log_id)
    return f"{query_key(query_text)[:12]}__{safe_log}.json"


def run_batch(
    queries: Sequence[str],
    logs: Sequence[TrackLog],
    config: MiningConfig,
    out_dir: str | None = None,
) -> BatchResult:
    """Mine every query over every log; optionally write prediction/transcript files.

    Worker threads mine queries side by side and only affect wall time:
    results are keyed by query and log id, and files are written after every
    query is done, so output bytes do not depend on scheduling order.
    """
    unique = list(dict.fromkeys(queries))
    mine = lambda query: mine_scenario(query, logs, config)  # noqa: E731
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            mined = list(pool.map(mine, unique))
    else:
        mined = [mine(query) for query in unique]
    batch = BatchResult({outcome.query_text: {log.log_id: outcome for log in logs} for outcome in mined})

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        transcripts = os.path.join(out_dir, "transcripts")
        os.makedirs(transcripts, exist_ok=True)
        write_text_atomic(os.path.join(out_dir, "predictions.json"), batch.predictions_json())
        for query, per_log in batch.outcomes.items():
            for log_id, outcome in per_log.items():
                text = json.dumps(outcome.to_json_dict(log_id), indent=2, sort_keys=True) + "\n"
                write_text_atomic(os.path.join(transcripts, _transcript_name(query, log_id)), text)
    return batch
