"""The six counterfactual scenarios: original/extended application lists
crossed with the three score rules. This module alone decides which score
transforms a scenario applies."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from . import matching, metrics, scoring
from .errors import UnknownScenario
from .model import Application, Assignment, Panel

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


def extend_application_lists(panel: Panel) -> list[Application]:
    """Append each applicant's later-year applications to their base-year
    list, skipping programs already listed, and renumber ranks 1..k.

    Only applicants with a base-year list take part in the base-year
    match, so applicants first observed in a later year are skipped. All
    appended entries keep their own exam and other-points data but are
    re-dated to the base year; the first-choice bonus stays tied to the
    original base-year first choice because that entry remains rank 1.
    """
    by_year: dict[int, dict[str, list[Application]]] = {y: {} for y in panel.years}
    for app in panel.applications:
        by_year[app.year].setdefault(app.applicant_id, []).append(app)

    extended: list[Application] = []
    for applicant_id in sorted(by_year[panel.base_year]):
        listed: set[str] = set()
        rank = 0
        for year in panel.years:
            apps = by_year[year].get(applicant_id, [])
            for app in sorted(apps, key=lambda x: x.listed_rank):
                if app.program_key in listed:
                    continue
                listed.add(app.program_key)
                rank += 1
                if app.year != panel.base_year or app.listed_rank != rank:
                    app = replace(app, year=panel.base_year, listed_rank=rank)
                extended.append(app)
    return extended


def _scenario(scenario_id: str) -> Scenario:
    if scenario_id not in SCENARIOS:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}, expected one of {SCENARIO_IDS}")
    return SCENARIOS[scenario_id]


def _scenario_inputs(
    panel: Panel, scenarios: Sequence[Scenario]
) -> dict[str, tuple[list[Application], scoring.ScoreTable]]:
    """The application list and score table of each scenario, by id.

    Each list variant is built and scored once. The no-bonus table is
    derived from that score table, and the exam-propagated one from the
    no-bonus table, only when a scenario on the list needs them.
    """
    inputs = {}
    for extended in sorted({s.extended for s in scenarios}):
        on_list = [s for s in scenarios if s.extended == extended]
        needed = {s.scores for s in on_list}
        applications = (
            extend_application_lists(panel) if extended else list(panel.base_applications)
        )
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
            inputs[s.id] = (applications, tables[s.scores])
    return inputs


def build_scenario(
    panel: Panel, scenario_id: str
) -> tuple[list[Application], scoring.ScoreTable]:
    return _scenario_inputs(panel, [_scenario(scenario_id)])[scenario_id]


@dataclass(frozen=True)
class ScenarioResult:
    scenario_id: str
    assignment: Assignment
    applications_per_applicant: float
    diff_vs_baseline: matching.AssignmentDiff
    rank_improvement: float


def _match(
    applications: Sequence[Application], table: scoring.ScoreTable, quotas: Mapping[str, int]
) -> Assignment:
    instance = matching.build_instance(applications, table, quotas)
    return matching.deferred_acceptance(instance, matching.PROPOSING_PROGRAMS)


def run_scenario(
    panel: Panel, scenario_id: str, quotas: Mapping[str, int]
) -> tuple[list[Application], Assignment]:
    applications, table = build_scenario(panel, scenario_id)
    return applications, _match(applications, table, quotas)


def run_scenario_suite(
    panel: Panel,
    quotas: Optional[Mapping[str, int]] = None,
    scenario_ids: Sequence[str] = SCENARIO_IDS,
) -> list[ScenarioResult]:
    """Run program-proposing deferred acceptance on each scenario and
    compare every assignment to the baseline S1.

    Each application list is built once and scored once; the scenarios
    on it share that table through the score transforms.
    """
    if quotas is None:
        quotas = {p: prog.quota for p, prog in panel.programs.items()}
    wanted = [_scenario(s) for s in sorted(set(scenario_ids) | {"S1"})]
    inputs = _scenario_inputs(panel, wanted)
    base_applications = inputs["S1"][0]

    universe = sorted({a.applicant_id for a in base_applications})
    rank_table = metrics.field_gpa_percentile_ranks(panel)
    program_field = {p: prog.field for p, prog in panel.programs.items()}
    assignments = {s.id: _match(*inputs[s.id], quotas) for s in wanted}
    baseline = assignments["S1"]

    results = []
    for scenario_id in sorted(scenario_ids):
        assignment = assignments[scenario_id]
        diff = matching.compare_assignments(baseline, assignment, universe)
        if baseline.seat_of and assignment.seat_of:
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
                    len(inputs[scenario_id][0]) / len(universe) if universe else 0.0
                ),
                diff_vs_baseline=diff,
                rank_improvement=improvement,
            )
        )
    return results
