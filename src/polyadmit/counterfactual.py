"""The six counterfactual scenarios: original/extended application lists
crossed with the three score rules. This module alone decides which score
transforms a scenario applies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import matching, metrics, scoring
from .errors import UnknownScenario
from .model import ApplicationBlock, Assignment, Panel

SCORES_ORIGINAL = "original"
SCORES_NO_FIRST_CHOICE = "no_first_choice"
SCORES_EXAM_PROPAGATED = "exam_propagated"


@dataclass(frozen=True)
class Scenario:
    id: str
    extended: bool
    scores: str


SCENARIOS: dict[str, Scenario] = {
    "S1": Scenario("S1", False, SCORES_ORIGINAL),
    "S2": Scenario("S2", True, SCORES_ORIGINAL),
    "S3": Scenario("S3", False, SCORES_NO_FIRST_CHOICE),
    "S4": Scenario("S4", True, SCORES_NO_FIRST_CHOICE),
    "S5": Scenario("S5", False, SCORES_EXAM_PROPAGATED),
    "S6": Scenario("S6", True, SCORES_EXAM_PROPAGATED),
}

SCENARIO_IDS = tuple(sorted(SCENARIOS))


def extend_application_lists(panel: Panel) -> ApplicationBlock:
    """Append each applicant's later-year applications to their base-year
    list, skipping programs already listed, and renumber ranks 1..k.

    Only applicants with a base-year list take part in the base-year
    match, so applicants first observed in a later year are skipped. All
    appended entries keep their own exam and other-points data but are
    re-dated to the base year; the first-choice bonus stays tied to the
    original base-year first choice because that entry remains rank 1.
    Rows come in applicant id order, each list in rank order.
    """
    apps = panel.applications
    in_base = np.zeros(len(apps.applicant_ids), dtype=bool)
    in_base[apps.applicant[apps.year == panel.base_year]] = True
    rows = np.flatnonzero(in_base[apps.applicant])
    rows = rows[np.lexsort((apps.listed_rank[rows], apps.year[rows], apps.applicant[rows]))]
    pair = apps.applicant[rows] * len(apps.program_keys) + apps.program[rows]
    rows = rows[np.sort(np.unique(pair, return_index=True)[1])]  # first listing of each program
    applicant = apps.applicant[rows]
    new_list = np.ones(len(rows), dtype=bool)
    new_list[1:] = applicant[1:] != applicant[:-1]
    position = np.arange(len(rows))
    rank = position - np.maximum.accumulate(np.where(new_list, position, 0)) + 1
    return apps.take(rows, year=np.full(len(rows), panel.base_year), listed_rank=rank)


def _scenario(scenario_id: str) -> Scenario:
    if scenario_id not in SCENARIOS:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}, expected one of {SCENARIO_IDS}")
    return SCENARIOS[scenario_id]


def _scenario_inputs(panel: Panel, scenarios: Sequence[Scenario]) -> dict[str, scoring.ScoreTable]:
    """The score table of each scenario, by id; each table holds the
    application block it scores.

    Each list variant is built and scored once. The no-bonus table is
    derived from that score table, and the exam-propagated one from the
    no-bonus table, only when a scenario on the list needs them.
    """
    inputs = {}
    for extended in sorted({s.extended for s in scenarios}):
        on_list = [s for s in scenarios if s.extended == extended]
        needed = {s.scores for s in on_list}
        applications = extend_application_lists(panel) if extended else panel.base_applications
        tables = {SCORES_ORIGINAL: scoring.compute_score_table(panel, applications)}
        if needed - {SCORES_ORIGINAL}:
            tables[SCORES_NO_FIRST_CHOICE] = scoring.remove_first_choice_points(
                tables[SCORES_ORIGINAL]
            )
        if SCORES_EXAM_PROPAGATED in needed:
            tables[SCORES_EXAM_PROPAGATED] = scoring.propagate_entrance_exams(
                panel, tables[SCORES_NO_FIRST_CHOICE]
            )
        for s in on_list:
            inputs[s.id] = tables[s.scores]
    return inputs


@dataclass(frozen=True)
class ScenarioResult:
    scenario_id: str
    assignment: Assignment
    applications_per_applicant: float
    diff_vs_baseline: matching.AssignmentDiff
    rank_improvement: float
    table: scoring.ScoreTable  # the one it was matched on; S1's is the base-year table


def _match(table: scoring.ScoreTable, quotas: Mapping[str, int]) -> Assignment:
    instance = matching.build_instance(table.applications, table, quotas)
    return matching.deferred_acceptance(instance, matching.PROPOSING_PROGRAMS)


def run_scenario_suite(
    panel: Panel,
    rank_table: metrics.RankTable,
    scenario_ids: Sequence[str] = SCENARIO_IDS,
) -> list[ScenarioResult]:
    """Run program-proposing deferred acceptance on each scenario and
    compare every assignment to the baseline S1.

    Each application list is built once and scored once; the scenarios
    on it share that table through the score transforms. Every program
    admits up to its own quota. ``rank_table`` is
    ``metrics.field_gpa_percentile_ranks(panel)``.
    """
    quotas = {p: prog.quota for p, prog in panel.programs.items()}
    wanted = [_scenario(s) for s in sorted(set(scenario_ids) | {"S1"})]
    tables = _scenario_inputs(panel, wanted)
    program_field = {p: prog.field for p, prog in panel.programs.items()}
    assignments = {s.id: _match(tables[s.id], quotas) for s in wanted}
    universe = tables["S1"].applications.distinct_applicants()
    baseline = assignments["S1"]

    results = []
    for scenario_id in sorted(scenario_ids):
        assignment = assignments[scenario_id]
        diff = matching.compare_assignments(baseline, assignment, universe)
        if len(baseline.holders) and len(assignment.holders):
            improvement = metrics.mean_rank_improvement(
                rank_table, baseline, assignment, program_field
            )
        else:
            improvement = 0.0
        results.append(
            ScenarioResult(
                scenario_id=scenario_id,
                assignment=assignment,
                applications_per_applicant=(
                    len(tables[scenario_id].applications) / len(universe) if universe else 0.0
                ),
                diff_vs_baseline=diff,
                rank_improvement=improvement,
                table=tables[scenario_id],
            )
        )
    return results
