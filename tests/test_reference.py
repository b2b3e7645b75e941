"""Vectorised code against straight-line loop versions, bit for bit: the
column-backed score tables and lexsort priorities on every scenario of
the default synthetic panel and of its CSV round trip, the extended
application lists, the regression design, thresholds and tercile
unassignment on the same panels, and the midpoint percentiles on random
values with ties."""

from dataclasses import replace

import numpy as np
import pytest

from polyadmit import counterfactual, econometrics, io_csv
from polyadmit.errors import ValidationError
from polyadmit.model import Applicant, Panel, validate_panel
from conftest import build_scenario, mk_app, mk_program
from oracle import adjusted_score, block_of, build_design_matrix, priorities, records
from polyadmit.counterfactual import SCENARIO_IDS, SCENARIOS
from polyadmit.econometrics import REPORT_SPECS, lpm_report, ols
from polyadmit.matching import build_instance, program_thresholds
from polyadmit.metrics import (
    CRITERION_ADMISSION_SCORE,
    CRITERION_MATRICULATION,
    TercileReport,
    _midpoint_percentiles,
    tercile_unassignment,
)
from polyadmit.scoring import compute_score_table


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
    rows = records(panel.applications)
    for app in sorted(rows, key=lambda x: (x.year, x.listed_rank, x.program_key)):
        if app.exam_taken:
            first_exam.setdefault((app.applicant_id, panel.field_of(app.program_key)), app.exam_score)
    totals = []
    for app in records(applications):
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
    for app, total in zip(records(applications), totals):
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
    rows = records(applications)
    assert table.keys == tuple((a.applicant_id, a.program_key, a.year) for a in rows)
    assert table.totals.tolist() == expected
    assert [table.entries[k].total for k in table.keys] == expected

    quotas = {p: prog.quota for p, prog in panel.programs.items()}
    instance = build_instance(applications, table, quotas)
    assert priorities(instance) == loop_priorities(applications, expected)


def loop_extend_application_lists(panel):
    """Each base-year applicant's lists of all three years, in year then
    listed-rank order, first listing of each program kept, re-dated to the
    base year and renumbered 1..k, one record at a time."""
    by_year = {y: {} for y in panel.years}
    for app in records(panel.applications):
        by_year[app.year].setdefault(app.applicant_id, []).append(app)
    extended = []
    for applicant_id in sorted(by_year[panel.base_year]):
        listed = set()
        rank = 0
        for year in panel.years:
            for app in sorted(by_year[year].get(applicant_id, []), key=lambda x: x.listed_rank):
                if app.program_key in listed:
                    continue
                listed.add(app.program_key)
                rank += 1
                extended.append(replace(app, year=panel.base_year, listed_rank=rank))
    return extended


def test_extended_lists_match_loop_reference(panel):
    extended = counterfactual.extend_application_lists(panel)
    expected = loop_extend_application_lists(panel)
    assert len(extended) == len(expected)
    for got, want in zip(records(extended), expected):
        assert got == want


def loop_midpoint_percentiles(values):
    """100 * (mean rank - 0.5) / N per value, ties sharing their mean rank,
    walking a stable sort of the values."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1  # 1-based mean rank of the tie group
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return [100.0 * (r - 0.5) / n for r in ranks]


def test_midpoint_percentiles_match_loop_reference():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(0, 60))
        # few distinct values, so most inputs have ties; signed zeros tie too
        values = rng.choice([-2.5, -0.0, 0.0, 0.1, 1.0, 3.75, 40.0], size=n)
        if trial % 3 == 0:
            values = values + rng.standard_normal(n)
        values = values.tolist()
        assert _midpoint_percentiles(values) == loop_midpoint_percentiles(values)


def loop_design_matrix(panel, assignment, thresholds, spec):
    """One row list per admitted applicant, from the table's entries."""
    base_app = {(a.applicant_id, a.program_key): a for a in records(panel.base_applications)}
    entries = compute_score_table(panel, panel.base_applications).entries
    later = {a.applicant_id for a in records(panel.applications) if a.year > panel.base_year}
    dummy_fields = sorted(panel.field_weights)[1:]
    terms = ["intercept", "rank2", "rank3", "rank4", "exam_taken"]
    if spec.controls:
        terms += ["adjusted_score", "threshold"]
    if spec.field_interactions:
        terms += [f"field_{f}" for f in dummy_fields]
        terms += [f"adjusted_score_x_{f}" for f in dummy_fields]
        terms += [f"threshold_x_{f}" for f in dummy_fields]
    rows, y = [], []
    for a in sorted(assignment.seat_of):
        p = assignment.seat_of[a]
        app = base_app[(a, p)]
        adj = adjusted_score(entries[(a, p, panel.base_year)])
        row = [1.0] + [1.0 if app.listed_rank == r else 0.0 for r in (2, 3, 4)]
        row.append(1.0 if app.exam_taken else 0.0)
        if spec.controls:
            row += [adj, thresholds[p]]
        if spec.field_interactions:
            dummies = [1.0 if panel.field_of(p) == f else 0.0 for f in dummy_fields]
            row += dummies + [adj * d for d in dummies] + [thresholds[p] * d for d in dummies]
        rows.append(row)
        if spec.outcome == econometrics.OUTCOME_ACCEPTED:
            y.append(1.0 if assignment.accepted.get(a, False) else 0.0)
        else:
            y.append(1.0 if a in later else 0.0)
    return np.array(rows), np.array(y), tuple(terms)


def loop_thresholds(panel, assignment):
    """Lowest base-year total among each program's admits, from entries."""
    entries = compute_score_table(panel, panel.base_applications).entries
    thresholds = {}
    for a, p in sorted(assignment.seat_of.items()):
        total = entries[(a, p, panel.base_year)].total
        thresholds[p] = min(thresholds.get(p, total), total)
    return thresholds


def test_design_and_lpm_report_match_loop_reference(panel):
    assignment = panel.observed_assignment
    table = compute_score_table(panel, panel.base_applications)
    thresholds = program_thresholds(table, assignment)
    assert thresholds == loop_thresholds(panel, assignment)
    expected = []
    for spec in REPORT_SPECS:
        X, y, terms = build_design_matrix(panel, assignment, thresholds, spec)
        X_ref, y_ref, terms_ref = loop_design_matrix(panel, assignment, thresholds, spec)
        assert terms == terms_ref
        assert X.tolist() == X_ref.tolist()
        assert y.tolist() == y_ref.tolist()
        expected.append(ols(X_ref, y_ref, terms_ref))
    assert lpm_report(panel, assignment, table) == expected


def loop_tercile_unassignment(panel, assignment, criterion):
    """Tercile report with each base-year application valued by
    Panel.weighted_gpa (matriculation) or by the entries of a freshly
    computed score table (admission score), pool by pool."""
    block = panel.base_applications
    base = records(block)
    if criterion == CRITERION_MATRICULATION:
        value = [panel.weighted_gpa(a.applicant_id, panel.field_of(a.program_key)) for a in base]
    else:
        entries = compute_score_table(panel, block).entries
        value = [entries[(a.applicant_id, a.program_key, a.year)].total for a in base]
    pools = {}
    for app, v in zip(base, value):
        pools.setdefault(app.program_key, []).append((app.applicant_id, v))
    ranks = {}
    for pool in pools.values():
        pool.sort()
        for (a, _), pct in zip(pool, loop_midpoint_percentiles([v for _, v in pool])):
            ranks.setdefault(a, []).append(pct)
    mean = {a: sum(r) / len(r) for a, r in ranks.items()}
    ordered = sorted(mean, key=lambda a: (-mean[a], a))
    n = len(ordered)
    sizes = tuple(n // 3 + (1 if i < n % 3 else 0) for i in range(3))
    groups = [ordered[sum(sizes[:i]) : sum(sizes[: i + 1])] for i in range(3)]
    fractions = tuple(
        sum(a not in assignment.seat_of for a in g) / len(g) if g else 0.0 for g in groups
    )
    return TercileReport(criterion, fractions, sizes)


@pytest.mark.parametrize("criterion", [CRITERION_MATRICULATION, CRITERION_ADMISSION_SCORE])
def test_tercile_unassignment_matches_loop_reference(panel, criterion):
    assignment = panel.observed_assignment
    table = compute_score_table(panel, panel.base_applications)
    expected = loop_tercile_unassignment(panel, assignment, criterion)
    assert tercile_unassignment(table, assignment, criterion) == expected


def loop_violations(panel):
    """validate_panel's messages, one record at a time."""
    problems = []
    for applicant_id, applicant in panel.applicants.items():
        if applicant_id != applicant.applicant_id:
            problems.append(f"DuplicateId: applicant map key {applicant_id!r} != record id")
        for subject, grade in applicant.matriculation_grades.items():
            if grade < 0:
                problems.append(f"NegativeGrade: applicant {applicant_id!r} subject {subject!r}")
    for program_key, program in panel.programs.items():
        if program.quota < 0:
            problems.append(f"QuotaNegative: program {program_key!r} quota {program.quota}")
        if program.field not in panel.field_weights:
            problems.append(f"MissingFieldWeights: field {program.field!r} of {program_key!r}")
        if program.field not in panel.bonus_points:
            problems.append(f"MissingBonusPoints: field {program.field!r} of {program_key!r}")
    by_list = {}
    for i, app in enumerate(records(panel.applications)):
        where = f"application #{i} ({app.applicant_id!r}, {app.program_key!r}, {app.year})"
        if app.applicant_id not in panel.applicants:
            problems.append(f"DanglingForeignKey: {where}: unknown applicant")
        if app.program_key not in panel.programs:
            problems.append(f"DanglingForeignKey: {where}: unknown program")
        if app.year not in panel.years:
            problems.append(f"YearOutOfRange: {where}: panel years are {panel.years}")
        if app.exam_score < 0 or app.other_points < 0:
            problems.append(f"NegativePoints: {where}")
        if app.exam_score != 0.0 and not app.exam_taken:
            problems.append(f"ExamScoreWithoutExam: {where}")
        by_list.setdefault((app.applicant_id, app.year), []).append(app)
    for (applicant_id, year), apps in by_list.items():
        ranks = sorted(a.listed_rank for a in apps)
        if ranks != list(range(1, len(ranks) + 1)) or len(ranks) > 4:
            problems.append(
                f"RankGap: applicant {applicant_id!r} year {year}: ranks {ranks} "
                f"are not a prefix 1..k with k <= 4"
            )
        if len({a.program_key for a in apps}) != len(apps):
            problems.append(
                f"DuplicateProgram: applicant {applicant_id!r} year {year} lists a program twice"
            )
    return problems


def test_validation_matches_loop_reference():
    rng = np.random.default_rng(6)
    programs = [
        mk_program(("P", name), field=f"field{i % 3}", quota=i - 2) for i, name in enumerate("abcd")
    ]
    seen = set()
    for _ in range(300):
        apps = [
            mk_app(
                f"a{rng.integers(6)}",
                programs[rng.integers(4)].program_key if rng.random() < 0.9 else "ghost::p",
                int(rng.integers(0, 6)),
                year=2011 + int(rng.integers(0, 4)) if rng.random() < 0.9 else 2011,
                exam=bool(rng.random() < 0.5),
                exam_score=float(rng.choice([-1.0, 0.0, 5.0])),
                other=float(rng.choice([-1.0, 0.0, 0.0, 2.0])),
            )
            for _ in range(int(rng.integers(0, 14)))
        ]
        listed = programs[: int(rng.integers(1, 5))]
        panel = Panel(
            applicants={  # some applicants are missing
                f"a{i}": Applicant(f"a{i}", {"math": float(rng.choice([-1.0, 3.0]))}, 2011)
                for i in range(int(rng.integers(6)))
            },
            programs={p.program_key: p for p in listed},
            applications=block_of(apps),
            base_year=2011,
            field_weights={"field0": {"math": 1.0}, "field1": {"math": 1.0}},
            bonus_points={"field0": 0.0, "field2": 0.0},
        )
        try:
            validate_panel(panel)
            problems = []
        except ValidationError as exc:
            problems = exc.violations
        assert problems == loop_violations(panel)
        seen.update(p.split(":")[0] for p in problems)
    assert len(seen) == 10  # every class above occurred
