"""Query-to-scenario mining: translate once, repair on failure, execute.

Each query is translated into one program that runs on every log. A round
composes a prompt (the first plain, later ones carrying the previous program
and its diagnostic), asks the provider for code, parses and checks it, and
runs it on a ``LogSet``; the first diagnostic is the next round's feedback.
If every round up to the cap fails, the query reports Failed with empty
predictions rather than raising -- a batch must survive any single bad query.
A ``LogSet`` packs its logs once, each group of logs with the same track count
into one log (``tracklog.pack_logs``), runs a program once per pack and cuts
each log's predictions back out; it keeps the predictions of every program
that ran cleanly and the first diagnostic of every one that did not, so
calls that share it parse and run no program twice.
"""

from __future__ import annotations

import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .dsl import DslError, describe_functions, execute, parse
from .errors import EmptyResponse, InconsistentInput, InvalidParameter, ProviderError
from .promptgen import compose_initial, compose_iteration
from .providers import LlmProvider, query_key
from .scenario_set import ScenarioSet
from .tracklog import TrackLog, pack_logs, write_text_atomic

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

    def first_rounds(self, k: int) -> "MiningOutcome":
        """This outcome as a cap of ``k`` rounds leaves it: itself if it took at most ``k``, else Failed after ``k``.

        A round's prompt depends only on the rounds before it, so the first
        ``k`` rounds of a longer run are the rounds a run capped at ``k`` makes.
        """
        if len(self.iterations) <= k:
            return self
        empty = {log_id: ScenarioSet.empty() for log_id in self.predictions}
        return MiningOutcome(self.query_text, STATUS_FAILED, self.iterations[:k], None, empty)

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


class LogSet:
    """Logs packed once, with what each program text run on them gave: its predictions, or its first DslError.

    Calls that pass the same ``LogSet`` parse and run no text twice; two
    threads that miss the same text both run it, which repeats work but not
    results. Building one raises InvalidParameter for no logs, on which no
    program would run and so none would be checked, and InconsistentInput
    naming a log id two logs share.
    """

    def __init__(self, logs: Sequence[TrackLog]):
        self.logs = tuple(logs)
        if not self.logs:
            raise InvalidParameter("no logs to mine")
        self._packs = pack_logs(self.logs)
        self._results: dict[str, dict[str, ScenarioSet] | tuple] = {}  # predictions, or (kind, message, span)

    def run(self, code: str) -> dict[str, ScenarioSet]:
        """Parse ``code`` and run it once per pack, unless it ran before; raises its first DslError.

        Returns a fresh dict, log id -> set, in the logs' order. A text that
        failed raises a fresh DslError equal to its first one, and a text
        that fails on any pack keeps no predictions.
        """
        found = self._results.get(code)
        if found is None:
            try:
                program = parse(code)
                found = dict.fromkeys(log.log_id for log in self.logs)
                for pack in self._packs:
                    found.update(pack.split(execute(program, pack.log)))
            except DslError as exc:
                self._results[code] = (exc.kind, exc.message, exc.span)
                raise
            self._results[code] = found
        if isinstance(found, tuple):
            raise DslError(*found)
        return dict(found)


def _generate_once(prompt: str, config: MiningConfig) -> str:
    """One provider call with a single retry after a failure.

    A provider may be third-party code, so any exception it raises counts as
    a transport failure, not just ProviderError, and so does a reply that is
    not a string.
    """
    try:
        return _text(config.provider.generate(prompt))
    except Exception:
        config.sleeper(TRANSPORT_BACKOFF_S)
        return _text(config.provider.generate(prompt))


def _text(reply: object) -> str:
    if not isinstance(reply, str):
        raise ProviderError(f"provider returned {type(reply).__name__}, not a string")
    return reply


def mine_scenario(query_text: str, logs: LogSet | Sequence[TrackLog], config: MiningConfig) -> MiningOutcome:
    """Run the generate/execute/repair loop for one query over every log.

    ``logs`` is a ``LogSet``, or a sequence of logs put in a fresh one. A
    round whose code already ran on that ``LogSet`` succeeds with a copy of
    its predictions, or fails with its first diagnostic. InconsistentInput
    names a log id that two logs share, before any provider call.
    """
    log_set = logs if isinstance(logs, LogSet) else LogSet(logs)
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
            predictions = log_set.run(code)
        except DslError as exc:
            span = (exc.span.line, exc.span.col) if exc.span else None
            records.append(IterationRecord(index, prompt, response, code, exc.kind, str(exc), span))
            prior_code, prior_error = code, str(exc)
            continue

        records.append(IterationRecord(index, prompt, response, code, None, None, None))
        return MiningOutcome(query_text, STATUS_SUCCEEDED, tuple(records), code, predictions)

    empty = {log.log_id: ScenarioSet.empty() for log in log_set.logs}
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


def _check_transcript_names(query_text: str, logs: Sequence[TrackLog]) -> None:
    """Raise InconsistentInput naming two log ids whose transcripts would share one file name."""
    owners: dict[str, str] = {}
    for log in logs:
        name = _transcript_name(query_text, log.log_id)
        other = owners.setdefault(name, log.log_id)
        if other != log.log_id:
            raise InconsistentInput(
                f"log ids '{other}' and '{log.log_id}' would share the transcript file name '{name}'"
            )


def run_batch(
    queries: Sequence[str],
    logs: LogSet | Sequence[TrackLog],
    config: MiningConfig,
    out_dir: str | None = None,
) -> BatchResult:
    """Mine every query over every log; optionally write prediction/transcript files.

    Worker threads mine queries side by side and only affect wall time:
    results are keyed by query and log id, and files are written after every
    query is done, so output bytes do not depend on scheduling order.

    ``logs`` is a ``LogSet``, or a sequence of logs put in a fresh one that
    is dropped when the call returns; every query runs its programs on it
    (see ``mine_scenario``). InconsistentInput names a log id that two logs
    share, before any provider call; with ``out_dir``, it also names two log
    ids whose transcripts would share one file name, before any provider call
    or file write. Then ``out_dir`` and its ``transcripts`` folder are made,
    also before any provider call, so an OSError there costs no model call.
    """
    log_set = logs if isinstance(logs, LogSet) else LogSet(logs)
    unique = list(dict.fromkeys(queries))
    if out_dir is not None:
        if unique:
            _check_transcript_names(unique[0], log_set.logs)
        os.makedirs(out_dir, exist_ok=True)  # apart from transcripts/, so a file at out_dir is the path an error names
        transcripts = os.path.join(out_dir, "transcripts")
        os.makedirs(transcripts, exist_ok=True)
    mine = lambda query: mine_scenario(query, log_set, config)  # noqa: E731
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            mined = list(pool.map(mine, unique))
    else:
        mined = [mine(query) for query in unique]
    batch = BatchResult({outcome.query_text: {log.log_id: outcome for log in log_set.logs} for outcome in mined})

    if out_dir is not None:
        write_text_atomic(os.path.join(out_dir, "predictions.json"), batch.predictions_json())
        for query, per_log in batch.outcomes.items():
            for log_id, outcome in per_log.items():
                text = json.dumps(outcome.to_json_dict(log_id), indent=2, sort_keys=True) + "\n"
                write_text_atomic(os.path.join(transcripts, _transcript_name(query, log_id)), text)
    return batch
