"""The six counterfactual scenarios: original/extended application lists
crossed with the three score table variants."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

from . import matching, metrics, scoring
from .errors import UnknownScenario
from .model import Application, Assignment, Panel

APPLICATIONS_ORIGINAL = "original"
APPLICATIONS_EXTENDED = "extended"

SCORES_ORIGINAL = scoring.PROVENANCE_ORIGINAL
SCORES_NO_FIRST_CHOICE = scoring.PROVENANCE_NO_FIRST_CHOICE
SCORES_EXAM_PROPAGATED = scoring.PROVENANCE_EXAM_PROPAGATED


@dataclass(frozen=True)
class Scenario:
    id: str
    applications: str
    scores: str


SCENARIOS: dict[str, Scenario] = {
    "S1": Scenario("S1", APPLICATIONS_ORIGINAL, SCORES_ORIGINAL),
    "S2": Scenario("S2", APPLICATIONS_EXTENDED, SCORES_ORIGINAL),
    "S3": Scenario("S3", APPLICATIONS_ORIGINAL, SCORES_NO_FIRST_CHOICE),
    "S4": Scenario("S4", APPLICATIONS_EXTENDED, SCORES_NO_FIRST_CHOICE),
    "S5": Scenario("S5", APPLICATIONS_ORIGINAL, SCORES_EXAM_PROPAGATED),
    "S6": Scenario("S6", APPLICATIONS_EXTENDED, SCORES_EXAM_PROPAGATED),
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


def _score_tables(
    panel: Panel, applications: Sequence[Application], scores: Iterable[str]
) -> dict[str, scoring.ScoreTable]:
    """The requested score variants of one application list, all derived
    from a single scoring pass."""
    scores = set(scores)
    tables = {SCORES_ORIGINAL: scoring.compute_score_table(panel, applications)}
    if scores & {SCORES_NO_FIRST_CHOICE, SCORES_EXAM_PROPAGATED}:
        tables[SCORES_NO_FIRST_CHOICE] = scoring.remove_first_choice_points(
            tables[SCORES_ORIGINAL]
        )
    if SCORES_EXAM_PROPAGATED in scores:
        tables[SCORES_EXAM_PROPAGATED] = scoring.propagate_entrance_exams(
            panel, tables[SCORES_NO_FIRST_CHOICE]
        )
    return tables


def _scenario(scenario_id: str) -> Scenario:
    if scenario_id not in SCENARIOS:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}, expected one of {SCENARIO_IDS}")
    return SCENARIOS[scenario_id]


def build_scenario(
    panel: Panel, scenario_id: str
) -> tuple[list[Application], scoring.ScoreTable]:
    scenario = _scenario(scenario_id)
    if scenario.applications == APPLICATIONS_EXTENDED:
        applications = extend_application_lists(panel)
    else:
        applications = list(panel.base_applications)
    table = _score_tables(panel, applications, [scenario.scores])[scenario.scores]
    return applications, table


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
    base_applications = list(panel.base_applications)
    lists = {APPLICATIONS_ORIGINAL: base_applications}
    if any(s.applications == APPLICATIONS_EXTENDED for s in wanted):
        lists[APPLICATIONS_EXTENDED] = extend_application_lists(panel)
    tables = {
        kind: _score_tables(panel, applications, [s.scores for s in wanted if s.applications == kind])
        for kind, applications in lists.items()
    }

    universe = sorted({a.applicant_id for a in base_applications})
    rank_table = metrics.field_gpa_percentile_ranks(panel)
    program_field = {p: prog.field for p, prog in panel.programs.items()}
    assignments = {
        s.id: _match(lists[s.applications], tables[s.applications][s.scores], quotas)
        for s in wanted
    }
    baseline = assignments["S1"]

    results = []
    for scenario_id in sorted(scenario_ids):
        scenario = SCENARIOS[scenario_id]
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
                    len(lists[scenario.applications]) / len(universe) if universe else 0.0
                ),
                diff_vs_baseline=diff,
                rank_improvement=improvement,
            )
        )
    return results
