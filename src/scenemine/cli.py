"""Command-line entry points: mine, eval, synth, describe, validate.

Option precedence everywhere is flags, then the --config JSON file, then
environment (only the API key), then built-in defaults. Exit codes: 0 on
success, 1 when the work itself ran but something failed (mining runs that
exhausted their rounds, files that failed validation), 2 for unusable
inputs or options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Mapping, Sequence

from .dsl import describe_functions
from .errors import MalformedFile, InconsistentInput, ScenarioMiningError
from .metrics import evaluate
from .orchestrator import MiningConfig, run_batch
from .predicates import registry_catalog
from .providers import HttpProvider, ScriptedProvider
from .scenario_set import ScenarioSet
from .synth import ScenarioSpec, TEMPLATES, generate_scenario_log, write_bundle
from .tracklog import TrackLog, load_ground_truth, load_log, read_json, read_text, write_text_atomic

API_KEY_ENV = "SCENEMINE_API_KEY"


# ---------------------------------------------------------------------------
# Shared loading helpers


# The JSON type each --config key must hold (a JSON boolean is not an integer here).
_CONFIG_TYPES = {
    **dict.fromkeys(("provider", "fixture", "endpoint", "model", "api_key"), (str, "string")),
    "max_iterations": (int, "integer"),
    "workers": (int, "integer"),
    "epsrf": (bool, "boolean"),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    config = read_json(path, "config")
    if not isinstance(config, dict):
        raise MalformedFile(f"{path}: config must be a JSON object")
    for key, (kind, json_name) in _CONFIG_TYPES.items():
        if key in config and type(config[key]) is not kind:
            raise MalformedFile(f"{path}: '{key}' must be a JSON {json_name}, got {json.dumps(config[key])}")
    return config


def _pick(flag_value, config: Mapping, key: str, env_var: str | None = None, default=None):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    if env_var and os.environ.get(env_var):
        return os.environ[env_var]
    return default


def _collect_log_paths(paths: Sequence[str]) -> list[str]:
    collected: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".json") and not name.endswith((".gt.json", ".manifest.json")):
                    collected.append(os.path.join(path, name))
        elif os.path.isfile(path):
            collected.append(path)
        else:
            raise MalformedFile(f"{path}: no such file or directory")
    if not collected:
        raise MalformedFile("no track log files found")
    return collected


def _load_logs(paths: Sequence[str]) -> dict[str, TrackLog]:
    logs: dict[str, TrackLog] = {}
    for path in _collect_log_paths(paths):
        log = load_log(path)
        if log.log_id in logs:
            raise InconsistentInput(f"duplicate log id '{log.log_id}' (second copy in {path})")
        logs[log.log_id] = log
    return logs


def _load_queries(path: str) -> list[str]:
    if path.endswith(".json"):
        data = read_json(path, "queries file")
        if not isinstance(data, list) or not all(isinstance(q, str) and q.strip() for q in data):
            raise MalformedFile(f"{path}: expected a JSON array of non-empty query strings")
        queries = [q for q in data]
    else:
        lines = read_text(path, "queries file").split("\n")
        queries = [line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")]
    if not queries:
        raise MalformedFile(f"{path}: no queries found")
    if len(set(queries)) != len(queries):
        raise InconsistentInput(f"{path}: duplicate query text")
    return queries


def _load_predictions(path: str) -> dict[str, dict[str, ScenarioSet]]:
    data = read_json(path, "predictions file")
    if not isinstance(data, dict):
        raise MalformedFile(f"{path}: predictions must map query text to per-log scenario sets")
    predictions: dict[str, dict[str, ScenarioSet]] = {}
    for query, per_log in data.items():
        if not isinstance(per_log, dict):
            raise MalformedFile(f"{path}: predictions for {query!r} must be an object keyed by log id")
        predictions[query] = {}
        for log_id, entries in per_log.items():
            if not isinstance(entries, dict) or not all(
                isinstance(stamps, list) and all(isinstance(t, int) and not isinstance(t, bool) for t in stamps)
                for stamps in entries.values()
            ):
                raise MalformedFile(
                    f"{path}: predictions[{query!r}][{log_id!r}] must map track ids to lists of integer timestamps"
                )
            predictions[query][log_id] = ScenarioSet.from_json_dict(entries)
    return predictions


# ---------------------------------------------------------------------------
# Subcommands


def cmd_mine(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    provider_kind = _pick(args.provider, config, "provider", default="scripted")
    max_iterations = _pick(args.max_iterations, config, "max_iterations", default=5)
    epsrf = _pick(args.epsrf, config, "epsrf", default=True)
    workers = _pick(args.workers, config, "workers", default=1)

    if provider_kind == "scripted":
        fixture_path = _pick(args.fixture, config, "fixture")
        if not fixture_path:
            raise MalformedFile("the scripted provider needs --fixture (or 'fixture' in --config)")
        provider = ScriptedProvider.from_file(fixture_path)
    elif provider_kind == "http":
        endpoint = _pick(args.endpoint, config, "endpoint")
        model = _pick(args.model, config, "model")
        api_key = _pick(args.api_key, config, "api_key", env_var=API_KEY_ENV)
        if not endpoint or not model:
            raise MalformedFile("the http provider needs --endpoint and --model")
        provider = HttpProvider(endpoint, model, api_key)
    else:
        raise MalformedFile(f"unknown provider '{provider_kind}' (expected 'scripted' or 'http')")

    queries = _load_queries(args.queries)
    logs = _load_logs(args.logs)
    ordered_logs = [logs[log_id] for log_id in sorted(logs)]
    mining = MiningConfig(
        provider=provider, max_iterations=max_iterations, epsrf=epsrf, workers=workers
    )
    batch = run_batch(queries, ordered_logs, mining, out_dir=args.out)

    total = len(queries) * len(ordered_logs)
    failed = batch.failed_runs()
    print(f"mined {total - len(failed)}/{total} runs; output in {args.out}")
    for query, log_id in failed:
        print(f"failed after all rounds: {query!r} on log '{log_id}'", file=sys.stderr)
    return 1 if failed else 0


def cmd_eval(args: argparse.Namespace) -> int:
    predictions = _load_predictions(args.predictions)
    ground_truth = load_ground_truth(args.gt)
    logs = _load_logs(args.logs)
    # evaluate() rejects these too; checked here, the message can name the file at fault
    if not ground_truth:
        raise InconsistentInput(f"{args.gt}: ground truth is empty; nothing to evaluate")
    missing = min(((gt.query_text, gt.log_id) for gt in ground_truth if gt.log_id not in logs), default=None)
    if missing:
        raise InconsistentInput(f"{args.gt}: ground truth references log '{missing[1]}' but it was not provided")
    report = evaluate(predictions, ground_truth, logs)
    sys.stdout.write(report.summary_table())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "report.json")
        write_text_atomic(path, report.to_json())
        print(f"report written to {path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    for offset in range(args.count):
        spec = ScenarioSpec(
            template=args.template,
            seed=args.seed + offset,
            num_frames=args.frames,
            negative=args.negative,
            num_distractors=args.distractors,
        )
        result = generate_scenario_log(spec)
        paths = write_bundle(result, args.out)
        print(f"wrote {paths['log']}")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(registry_catalog(), indent=2))
    else:
        sys.stdout.write(describe_functions())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    logs: dict[str, TrackLog] = {}
    for path in _collect_log_paths(args.logs) if args.logs else []:
        try:
            log = load_log(path)
            logs[log.log_id] = log
            print(f"{path}: ok ({len(log.track_ids)} objects, {len(log.timestamps)} frames)")
        except ScenarioMiningError as exc:
            failures += 1
            print(f"{path}: {exc}", file=sys.stderr)
    if args.gt:
        try:
            entries = load_ground_truth(args.gt)
            checked = 0
            for entry in entries:
                log = logs.get(entry.log_id)
                if log is not None:
                    entry.validate_against(log)
                    checked += 1
            print(f"{args.gt}: ok ({len(entries)} entries, {checked} checked against logs)")
        except ScenarioMiningError as exc:
            failures += 1
            print(f"{args.gt}: {exc}", file=sys.stderr)
    if not args.logs and not args.gt:
        raise MalformedFile("nothing to validate: pass --logs and/or --gt")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenemine",
        description="Mine driving scenarios from track logs with language queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="translate queries to programs and run them over logs")
    mine.add_argument("--queries", required=True, help="query file (text, one per line, or JSON array)")
    mine.add_argument("--logs", required=True, nargs="+", help="track log files or directories")
    mine.add_argument("--out", required=True, help="output directory for predictions and transcripts")
    mine.add_argument("--provider", choices=("scripted", "http"), default=None)
    mine.add_argument("--fixture", default=None, help="scripted provider reply fixture (JSON)")
    mine.add_argument("--endpoint", default=None, help="http provider completion URL")
    mine.add_argument("--model", default=None, help="http provider model name")
    mine.add_argument("--api-key", default=None, help=f"http provider key (or ${API_KEY_ENV})")
    mine.add_argument("-K", "--max-iterations", type=int, default=None, help="generation rounds per run")
    mine.add_argument("--epsrf", action=argparse.BooleanOptionalAction, default=None,
                      help="include the relation-direction guidance paragraph in prompts")
    mine.add_argument("--workers", type=int, default=None)
    mine.add_argument("--config", default=None, help="JSON file with defaults for these options")
    mine.set_defaults(func=cmd_mine)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--gt", required=True, help="ground truth scenario file")
    ev.add_argument("--logs", required=True, nargs="+")
    ev.add_argument("--out", default=None, help="directory for the full JSON report")
    ev.set_defaults(func=cmd_eval)

    sy = sub.add_parser("synth", help="generate certified synthetic logs")
    sy.add_argument("--template", required=True, choices=TEMPLATES)
    sy.add_argument("--seed", type=int, required=True)
    sy.add_argument("--out", required=True)
    sy.add_argument("--frames", type=int, default=10)
    sy.add_argument("--count", type=int, default=1, help="how many consecutive seeds to generate")
    sy.add_argument("--distractors", type=int, default=3)
    sy.add_argument("--negative", action="store_true", help="generate the scenario-absent variant")
    sy.set_defaults(func=cmd_synth)

    de = sub.add_parser("describe", help="print the scenario function catalog")
    de.add_argument("--json", action="store_true", help="machine-readable registry dump")
    de.set_defaults(func=cmd_describe)

    va = sub.add_parser("validate", help="check log and ground truth files")
    va.add_argument("--logs", nargs="*", default=None)
    va.add_argument("--gt", default=None)
    va.set_defaults(func=cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioMiningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
