"""The column-backed score tables and lexsort priorities against
straight-line loop versions, bit for bit, on every scenario of the
default synthetic panel and of its CSV round trip."""

import pytest

from polyadmit import counterfactual, io_csv
from polyadmit.counterfactual import SCENARIO_IDS, SCENARIOS, build_scenario
from polyadmit.matching import build_instance


@pytest.fixture(scope="module", params=["synth", "csv_round_trip"])
def panel(request, default_panel, tmp_path_factory):
    if request.param == "synth":
        return default_panel
    directory = tmp_path_factory.mktemp("panel")
    io_csv.save_panel(default_panel, directory)
    return io_csv.load_panel(directory)


def loop_totals(panel, applications, scores):
    """Total score of each application, one Panel.weighted_gpa call per
    record, following the scenario's scoring rule."""
    first_exam = {}
    for app in sorted(panel.applications, key=lambda x: (x.year, x.listed_rank, x.program_key)):
        if app.exam_taken:
            first_exam.setdefault((app.applicant_id, panel.field_of(app.program_key)), app.exam_score)
    totals = []
    for app in applications:
        field = panel.field_of(app.program_key)
        gpa = panel.weighted_gpa(app.applicant_id, field)
        exam = app.exam_score if app.exam_taken else 0.0
        if scores == counterfactual.SCORES_EXAM_PROPAGATED and not app.exam_taken:
            exam = first_exam.get((app.applicant_id, field), 0.0)
        bonus = 0.0
        if scores == counterfactual.SCORES_ORIGINAL and app.listed_rank == 1:
            bonus = panel.bonus_points[field]
        totals.append(gpa + exam + bonus + app.other_points)
    return totals


def loop_priorities(applications, totals):
    by_program = {}
    score = {}
    for app, total in zip(applications, totals):
        by_program.setdefault(app.program_key, []).append(app.applicant_id)
        score[(app.applicant_id, app.program_key)] = total
    return {
        p: tuple(sorted(applicants, key=lambda a: (-score[(a, p)], a)))
        for p, applicants in sorted(by_program.items())
    }


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_columns_and_priorities_match_loop_reference(panel, scenario_id):
    applications, table = build_scenario(panel, scenario_id)
    expected = loop_totals(panel, applications, SCENARIOS[scenario_id].scores)
    assert table.keys == tuple((a.applicant_id, a.program_key, a.year) for a in applications)
    assert table.totals.tolist() == expected
    assert [table.entries[k].total for k in table.keys] == expected

    quotas = {p: prog.quota for p, prog in panel.programs.items()}
    instance = build_instance(applications, table, quotas)
    assert instance.priorities == loop_priorities(applications, expected)
