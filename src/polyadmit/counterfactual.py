"""The six counterfactual scenarios: original/extended application lists
crossed with the three score rules. This module alone decides which score
transforms a scenario applies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import matching, scoring
from .errors import EmptySample, UnknownScenario
from .model import ApplicationBlock, Assignment, Panel, code_key, narrowest

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
    pair = code_key(apps.applicant[rows], len(apps.program_keys), apps.program[rows])
    rows = rows[np.sort(np.unique(pair, return_index=True)[1])]  # first listing of each program
    applicant = apps.applicant[rows]
    new_list = np.ones(len(rows), dtype=bool)
    new_list[1:] = applicant[1:] != applicant[:-1]
    position = np.arange(len(rows))
    rank = position - np.maximum.accumulate(np.where(new_list, position, 0)) + 1
    # one read-only value for every row, already in its narrowest type
    year = np.broadcast_to(narrowest(np.array([panel.base_year])), len(rows))
    return apps.take(rows, year=year, listed_rank=rank)


def _scenario(scenario_id: str) -> Scenario:
    if scenario_id not in SCENARIOS:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}, expected one of {SCENARIO_IDS}")
    return SCENARIOS[scenario_id]


SCORE_RULES = (SCORES_ORIGINAL, SCORES_NO_FIRST_CHOICE, SCORES_EXAM_PROPAGATED)


def scenario_tables(
    panel: Panel, scenario_ids: Sequence[str]
) -> Iterator[tuple[str, scoring.ScoreTable]]:
    """Each listed scenario's id and score table, one list variant at a
    time: the extended lists' S2, S4, S6, then the original lists' S1, S3,
    S5. Each table holds the application block it scores.

    Each list variant is built and scored once. The no-bonus table is
    derived from that score table, and the exam-propagated one from the
    no-bonus table, only when a listed scenario needs them. The generator
    drops its references to a variant's block and tables before it builds
    the next variant; the larger, extended variant comes first, so nothing
    of the original lists is alive while it is built.
    """
    wanted = [_scenario(s) for s in sorted(set(scenario_ids))]
    for extended in (True, False):
        scenario_of = {s.scores: s.id for s in wanted if s.extended == extended}
        if not scenario_of:
            continue
        last = max(map(SCORE_RULES.index, scenario_of))
        table = scoring.compute_score_table(
            panel, extend_application_lists(panel) if extended else panel.base_applications
        )
        for rule in SCORE_RULES[: last + 1]:
            if rule == SCORES_NO_FIRST_CHOICE:
                table = scoring.remove_first_choice_points(table)
            elif rule == SCORES_EXAM_PROPAGATED:
                table = scoring.propagate_entrance_exams(panel, table)
            if rule in scenario_of:
                yield scenario_of[rule], table
        del table


def run_scenario_suite(
    panel: Panel, scenario_ids: Sequence[str] = SCENARIO_IDS
) -> tuple[dict[str, Assignment], dict[str, int], scoring.ScoreTable]:
    """Run program-proposing deferred acceptance on exactly the listed
    scenarios; returns their assignments and numbers of applications, by
    scenario id, and S1's table (the base-year score table), listed or not.

    Each scenario is matched as soon as its table exists (see
    ``scenario_tables``: the extended lists first), so only one list
    variant's block and tables are held at a time, and S1's table, built
    last, is the only one kept. Every program admits up to its own quota.
    A base year without applications raises ``EmptySample``: no scenario
    has an applicant to compare, and no report an applicant to describe.
    """
    assignments, listed = {}, {}
    for scenario_id, table in scenario_tables(panel, set(scenario_ids) | {"S1"}):
        if scenario_id == "S1":
            if not len(table.applications):
                raise EmptySample("the base year has no applications")
            base_table = table
        if scenario_id not in scenario_ids:
            continue  # S1's table, kept unmatched
        instance = matching.build_instance(table.applications, table, panel.quota)
        assignments[scenario_id] = matching.deferred_acceptance(
            instance, matching.PROPOSING_PROGRAMS
        )
        listed[scenario_id] = len(table.applications)
        del table, instance  # else they live on while the next list variant is built
    return assignments, listed, base_table
