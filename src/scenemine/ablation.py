"""Controlled comparison of the mining loop's two levers.

Thirty queries over thirty certified logs, scored under three arms with
scripted completions: a baseline capped at one generation round without the
relation guidance, the same prompt with up to five repair rounds, and finally
repair rounds plus the guidance paragraph. Only the two five-round arms are
mined, 80 provider calls in all; the baseline is the repair arm's outcome cut
to its first round. With a real model the comparison is therefore paired: the
baseline sees the repair arm's own first reply, not a fresh sample.

The scripted replies encode three failure populations. Every third query is
answered first with syntactically broken code and only repaired on the
second round, so it is lost to the one-round baseline. The next third is
answered with a program whose subject and reference arguments are swapped
whenever the guidance paragraph is absent -- code that runs fine but
retrieves the wrong tracks, which repair rounds cannot fix because nothing
errors. The rest is answered correctly everywhere. Scores must therefore
order strictly: baseline < repair < repair + guidance, with the last arm
exact because its mined programs coincide with the ground-truth programs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dsl import Assignment, Call, KwArg, Program, parse, pretty_print
from .errors import InfeasibleSpec
from .metrics import EvalReport, evaluate
from .orchestrator import BatchResult, LogSet, MiningConfig, extract_code, run_batch
from .predicates import REGISTRY, ROLE_RELATED, ROLE_TRACK
from .providers import ScriptedProvider, make_fixture
from .synth import ScenarioSpec, build_scenario_log, certify
from .tracklog import GroundTruthScenario, TrackLog, write_text_atomic

FAULT_SYNTAX = "syntax"
FAULT_SWAP = "swap"
FAULT_CLEAN = "clean"

_FAMILIES = ("relative_direction", "crossing", "facing", "heading_toward", "near", "compound")
_FRAMES = (10, 8, 12, 9, 11)
_VARIANTS: Mapping[str, Sequence[Mapping[str, object]]] = {
    "relative_direction": (
        {"direction": "left", "within_distance": 20},
        {"direction": "right", "within_distance": 16},
        {"direction": "forward", "within_distance": 24},
        {"direction": "backward", "within_distance": 18},
        {"direction": "left", "within_distance": 22},
    ),
    "crossing": (
        {"forward_extent": 10},
        {"forward_extent": 8},
        {"forward_extent": 12},
        {"forward_extent": 9},
        {"forward_extent": 11},
    ),
    "facing": (
        {"within_angle": 0.4, "max_distance": 30},
        {"within_angle": 0.35, "max_distance": 25},
        {"within_angle": 0.45, "max_distance": 35},
        {"within_angle": 0.38, "max_distance": 28},
        {"within_angle": 0.5, "max_distance": 32},
    ),
    "heading_toward": (
        {"max_distance": 40},
        {"max_distance": 35},
        {"max_distance": 45},
        {"max_distance": 38},
        {"max_distance": 42},
    ),
    "near": (
        {"distance_thresh": 10},
        {"distance_thresh": 8},
        {"distance_thresh": 12},
        {"distance_thresh": 9},
        {"distance_thresh": 11},
    ),
    "compound": (
        {"within_distance": 20, "distance_thresh": 10},
        {"within_distance": 16, "distance_thresh": 8},
        {"within_distance": 24, "distance_thresh": 12},
        {"within_distance": 18, "distance_thresh": 9},
        {"within_distance": 22, "distance_thresh": 11},
    ),
}


@dataclass(frozen=True)
class ArmSpec:
    name: str
    max_iterations: int
    epsrf: bool


ARMS = (
    ArmSpec("baseline", 1, False),
    ArmSpec("repair", 5, False),
    ArmSpec("repair+guidance", 5, True),
)


@dataclass(frozen=True)
class AblationQuery:
    family: str
    instance: int
    fault_class: str
    query_text: str
    program: str
    log_id: str


@dataclass(frozen=True)
class AblationSuite:
    queries: tuple[AblationQuery, ...]
    logs: Mapping[str, TrackLog]
    ground_truth: tuple[GroundTruthScenario, ...]
    log_set: LogSet  # the sorted logs, holding the reference programs' predictions


@dataclass(frozen=True)
class AblationOutcome:
    suite: AblationSuite
    reports: Mapping[str, EvalReport]
    batches: Mapping[str, BatchResult]

    def summary_table(self) -> str:
        headers = ("arm", "HOTA-T", "HOTA", "TS-F1", "Log-F1")
        rows = []
        for arm in ARMS:
            report = self.reports[arm.name]
            rows.append(
                (
                    arm.name,
                    f"{100.0 * report.hota_temporal:.2f}",
                    f"{100.0 * report.hota:.2f}",
                    f"{100.0 * report.timestamp_f1:.2f}",
                    f"{100.0 * report.log_f1:.2f}",
                )
            )
        widths = [max(len(headers[c]), *(len(r[c]) for r in rows)) for c in range(5)]
        lines = ["  ".join(h.ljust(w) if i == 0 else h.rjust(w) for i, (h, w) in enumerate(zip(headers, widths)))]
        for row in rows:
            lines.append("  ".join(c.ljust(w) if i == 0 else c.rjust(w) for i, (c, w) in enumerate(zip(row, widths))))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Program variants fed to the scripted provider


def role_swapped(program_text: str) -> str:
    """Swap the subject/reference arguments of the first relational call."""
    program = parse(program_text)
    new_assignments = []
    swapped = False
    for stmt in program.assignments:
        call = stmt.call
        spec = REGISTRY.get(call.function)
        roles = {p.role for p in spec.params} if spec else set()
        if not swapped and spec and {ROLE_TRACK, ROLE_RELATED} <= roles:
            kwargs = list(call.kwargs)
            names = [kw.name for kw in kwargs]
            if ROLE_TRACK in names and ROLE_RELATED in names:
                i, j = names.index(ROLE_TRACK), names.index(ROLE_RELATED)
                track_value, related_value = call.kwargs[i].value, call.kwargs[j].value
                kwargs[i] = KwArg(ROLE_TRACK, related_value, kwargs[i].span)
                kwargs[j] = KwArg(ROLE_RELATED, track_value, kwargs[j].span)
                call = Call(call.function, call.args, tuple(kwargs), call.span)
                swapped = True
        new_assignments.append(Assignment(stmt.name, call, stmt.span))
    if not swapped:
        raise InfeasibleSpec("program has no relational call whose roles can be swapped")
    return pretty_print(Program(tuple(new_assignments), program.output))


def syntax_broken(program_text: str) -> str:
    """Drop the first closing parenthesis: guaranteed to fail parsing."""
    if ")" not in program_text:
        raise InfeasibleSpec("program has no call to break")
    return program_text.replace(")", "", 1)


def _reply(code: str) -> str:
    return f"Here is the program:\n```\n{code}```\n"


def scripted_replies(query: AblationQuery, epsrf: bool) -> list[str]:
    good = _reply(query.program)
    if query.fault_class == FAULT_SYNTAX:
        return [_reply(syntax_broken(query.program)), good]
    if query.fault_class == FAULT_SWAP:
        return [good] if epsrf else [_reply(role_swapped(query.program))]
    return [good]


def build_fixture(queries: Sequence[AblationQuery], epsrf: bool) -> dict:
    return make_fixture({q.query_text: scripted_replies(q, epsrf) for q in queries})


# ---------------------------------------------------------------------------
# Suite construction


def build_suite() -> AblationSuite:
    """Thirty (query, log) seeds: six families, five parameter variants each.

    Ground truth covers the full query x log grid -- a query can
    legitimately match scenes from another family's log, and negatives
    matter for log F1. It is each reference program run on the ``LogSet`` of
    the sorted logs, under the text a mining round extracts from the
    program's scripted reply, so a round that returns a reference program on
    that ``LogSet`` runs nothing. Each log is certified against its own
    query's entry of that run, so a reference program is parsed once and
    run once per pack, never on a log alone.
    """
    queries: list[AblationQuery] = []
    logs: dict[str, TrackLog] = {}
    results = []
    index = 0
    for family in _FAMILIES:
        for instance, params in enumerate(_VARIANTS[family]):
            spec = ScenarioSpec(
                template=family,
                seed=1000 + 37 * index,
                num_frames=_FRAMES[instance],
                params=params,
            )
            result = build_scenario_log(spec)
            fault = (FAULT_SYNTAX, FAULT_SWAP, FAULT_CLEAN)[index % 3]
            queries.append(
                AblationQuery(family, instance, fault, result.query, result.program, spec.log_id)
            )
            logs[spec.log_id] = result.log
            results.append(result)
            index += 1

    log_set = LogSet([logs[log_id] for log_id in sorted(logs)])
    ground_truth = []
    for query, result in zip(queries, results):
        code = extract_code(_reply(query.program))
        found = log_set.run(code)
        certify(result, found[query.log_id])
        ground_truth += [GroundTruthScenario(query.query_text, log_id, found[log_id]) for log_id in found]
    return AblationSuite(tuple(queries), logs, tuple(ground_truth), log_set)


def run_ablation(out_dir: str | None = None, workers: int = 1) -> AblationOutcome:
    """Mine and score all three arms; optionally write reports to out_dir.

    ``out_dir`` is made before any arm runs. For each guidance setting only
    the arm with the most rounds is mined, with one provider; an arm with
    fewer rounds keeps the first rounds of each of those outcomes
    (``MiningOutcome.first_rounds``), so the baseline is the repair arm cut
    to its first round, and with a real model the comparison is paired:
    it shows what repair adds to the same first attempt. A pass makes 80
    provider calls. The mined arms use the suite's ``LogSet``, which already
    holds the reference programs' predictions, so a round that returns a
    reference program runs nothing; only programs outside the suite, the
    role-swapped ones, are parsed and run. The arms also share one table of
    scores.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    suite = build_suite()
    scores: dict = {}  # (log id, prediction, ground truth) -> that pair's scores, shared by every arm
    query_texts = [q.query_text for q in suite.queries]
    mined: dict[bool, BatchResult] = {}
    for epsrf in dict.fromkeys(arm.epsrf for arm in ARMS):
        config = MiningConfig(
            provider=ScriptedProvider(build_fixture(suite.queries, epsrf)),
            max_iterations=max(arm.max_iterations for arm in ARMS if arm.epsrf == epsrf),
            epsrf=epsrf,
            workers=workers,
        )
        mined[epsrf] = run_batch(query_texts, suite.log_set, config)

    reports: dict[str, EvalReport] = {}
    batches: dict[str, BatchResult] = {}
    for arm in ARMS:
        outcomes, predictions = {}, {}
        for query, per_log in mined[arm.epsrf].outcomes.items():
            cut = next(iter(per_log.values())).first_rounds(arm.max_iterations)  # every log shares one outcome
            outcomes[query] = dict.fromkeys(per_log, cut)
            predictions[query] = cut.predictions
        reports[arm.name] = evaluate(predictions, suite.ground_truth, suite.logs, scores=scores)
        batches[arm.name] = BatchResult(outcomes)

    outcome = AblationOutcome(suite, reports, batches)
    if out_dir is not None:
        for arm in ARMS:
            name = arm.name.replace("+", "_")
            write_text_atomic(os.path.join(out_dir, f"report_{name}.json"), reports[arm.name].to_json())
        write_text_atomic(os.path.join(out_dir, "summary.txt"), outcome.summary_table())
    return outcome
