"""Vectorised code against straight-line loop versions, bit for bit: the
column-backed score tables and lexsort priorities on every scenario of
the default synthetic panel and of its CSV round trip, the extended
application lists, the regression design, thresholds, tercile
unassignment, the GPA rank matrix and the scenarios' rank improvements
on the same panels, the effective weights under a compensated ``sum``,
the midpoint percentiles on random values with ties, the chunked CSV
reader against a rows-then-transpose reader and ``load_panel`` against
the whole-file loader of ``reference_io`` on corrupted panels, the
seat-code readers of an assignment against the id-keyed readers it had
before, and the instances' position columns and program-proposing DA
against their ``np.repeat`` and Python-list forms."""

import csv
import itertools
import math
import random
from types import SimpleNamespace
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io
from polyadmit import counterfactual, econometrics, io_csv, metrics, model, scoring, synth
from polyadmit.errors import MissingScore, ParseError, UniverseMismatch, ValidationError
from polyadmit.model import Panel, seat_rows, validate_panel
from conftest import build_scenario, mk_app, mk_program
from oracle import (
    Applicant, accepted_of, adjusted_score, applicant_columns, applicants_of, assignment_of,
    block_of, build_design_matrix, priorities, program_columns, programs_of, random_instance,
    rank_of, records, row_of, same_panel,
)
from polyadmit.counterfactual import SCENARIO_IDS, SCENARIOS
from polyadmit.econometrics import REPORT_SPECS, lpm_report, ols
from polyadmit.matching import (
    PROPOSING_PROGRAMS, AssignmentDiff, build_instance, compare_assignments,
    deferred_acceptance, program_thresholds,
)
from polyadmit.metrics import (
    CRITERION_ADMISSION_SCORE,
    CRITERION_MATRICULATION,
    TercileReport,
    _midpoint_percentiles,
    tercile_unassignment,
)
from polyadmit.scoring import compute_score_table, weighted_gpa_matrix


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
    field_of = {key: program.field for key, program in programs_of(panel).items()}
    rows = records(panel.applications)
    for app in sorted(rows, key=lambda x: (x.year, x.listed_rank, x.program_key)):
        if app.exam_taken:
            first_exam.setdefault((app.applicant_id, field_of[app.program_key]), app.exam_score)
    totals = []
    for app in records(applications):
        field = field_of[app.program_key]
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

    instance = build_instance(applications, table, panel.quota)
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
    """One row list per admitted applicant, from the table's entries; the
    spec's width says whether the controls and the field interactions
    join the base block."""
    outcome, width = spec
    n_base = len(econometrics.BASE_TERMS)
    controls = width is None or width >= n_base + len(econometrics.CONTROL_TERMS)
    field_interactions = width is None
    base_app = {(a.applicant_id, a.program_key): a for a in records(panel.base_applications)}
    entries = compute_score_table(panel, panel.base_applications).entries
    later = {a.applicant_id for a in records(panel.applications) if a.year > panel.base_year}
    dummy_fields = sorted(panel.field_weights)[1:]
    programs = programs_of(panel)
    terms = ["intercept", "rank2", "rank3", "rank4", "exam_taken"]
    if controls:
        terms += ["adjusted_score", "threshold"]
    if field_interactions:
        terms += [f"field_{f}" for f in dummy_fields]
        terms += [f"adjusted_score_x_{f}" for f in dummy_fields]
        terms += [f"threshold_x_{f}" for f in dummy_fields]
    rows, y, accepted = [], [], accepted_of(assignment)
    for a in sorted(assignment.seat_of):
        p = assignment.seat_of[a]
        app = base_app[(a, p)]
        adj = adjusted_score(entries[(a, p, panel.base_year)])
        row = [1.0] + [1.0 if app.listed_rank == r else 0.0 for r in (2, 3, 4)]
        row.append(1.0 if app.exam_taken else 0.0)
        if controls:
            row += [adj, thresholds[p]]
        if field_interactions:
            dummies = [1.0 if programs[p].field == f else 0.0 for f in dummy_fields]
            row += dummies + [adj * d for d in dummies] + [thresholds[p] * d for d in dummies]
        rows.append(row)
        if outcome == econometrics.OUTCOME_ACCEPTED:
            y.append(1.0 if accepted.get(a, False) else 0.0)
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
        programs = programs_of(panel)
        value = [panel.weighted_gpa(a.applicant_id, programs[a.program_key].field) for a in base]
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
    applicants = applicants_of(panel)
    for applicant_id, applicant in applicants.items():
        for subject, grade in applicant.matriculation_grades.items():
            if grade < 0:
                problems.append(f"NegativeGrade: applicant {applicant_id!r} subject {subject!r}")
    for program_key, program in programs_of(panel).items():
        if program.quota < 0:
            problems.append(f"QuotaNegative: program {program_key!r} quota {program.quota}")
        if program.field not in panel.field_weights:
            problems.append(f"MissingFieldWeights: field {program.field!r} of {program_key!r}")
        if program.field not in panel.bonus_points:
            problems.append(f"MissingBonusPoints: field {program.field!r} of {program_key!r}")
    by_list = {}
    for i, app in enumerate(records(panel.applications)):
        where = f"application #{i} ({app.applicant_id!r}, {app.program_key!r}, {app.year})"
        if app.applicant_id not in applicants:
            problems.append(f"DanglingForeignKey: {where}: unknown applicant")
        if app.program_key not in panel.program_keys:
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
        columns = applicant_columns(  # some applicants are missing
            Applicant(f"a{i}", {"math": float(rng.choice([-1.0, 3.0]))}, 2011)
            for i in range(int(rng.integers(6)))
        )
        columns.update(program_columns(listed))
        panel = Panel(
            **columns,
            applications=block_of(apps, over=SimpleNamespace(**columns)),
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


def dict_rank_table(panel):
    """The rank table as the (applicant_id, field) -> rank dict it was
    before it became a matrix."""
    fields = sorted(panel.field_weights)
    gpa = weighted_gpa_matrix(panel)
    table = {}
    for j, field_label in enumerate(fields):
        keys = zip(panel.applicant_ids, itertools.repeat(field_label))
        table.update(zip(keys, _midpoint_percentiles(gpa[:, j])))
    return table


@pytest.mark.parametrize("which", ["small_panel", "default_panel"])
def test_rank_matrix_matches_dict_reference(request, which):
    panel = request.getfixturevalue(which)
    table = metrics.field_gpa_percentile_ranks(panel)
    expected = dict_rank_table(panel)
    fields = tuple(sorted(panel.field_weights))
    assert (table.applicant_ids, table.fields) == (panel.applicant_ids, fields)
    assert table.ranks.shape == (len(table.applicant_ids), len(table.fields))
    got = {(a, f): rank_of(table, a, f) for a in table.applicant_ids for f in table.fields}
    assert got == expected


def loop_mean_rank(ranks, assignment, program_field):
    """Mean rank of the admits at their programs' fields, added left to
    right in seat order."""
    total = 0.0
    for applicant_id, program_key in assignment.seat_of.items():
        total += ranks[(applicant_id, program_field[program_key])]
    return total / len(assignment.seat_of)


def test_rank_improvement_adds_ranks_in_seat_order(panel, monkeypatch):
    """CPython 3.12 made the builtin ``sum`` of floats compensated, so a
    mean taken with it depends on the interpreter. With ``math.fsum``
    standing in for ``sum``, every unrounded improvement still equals the
    left-to-right loop."""
    monkeypatch.setattr(metrics, "sum", math.fsum, raising=False)
    ranks = dict_rank_table(panel)
    program_field = {p: prog.field for p, prog in programs_of(panel).items()}
    suite, _, _ = counterfactual.run_scenario_suite(panel)
    base = loop_mean_rank(ranks, suite[0].assignment, program_field)
    assert suite[0].scenario_id == "S1"
    for result in suite:
        expected = loop_mean_rank(ranks, result.assignment, program_field) - base
        assert (result.scenario_id, result.rank_improvement) == (result.scenario_id, expected)


def rows_then_transpose(directory, name):
    """A file's header and columns, read as every row first and then
    transposed, with the reader's errors."""
    path = directory / name
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            for column in io_csv.REQUIRED_COLUMNS[name]:
                if column not in header:
                    raise ParseError(f"{path}: missing required header {column!r}")
            rows = [row for row in reader if row]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        lines = [reader.line_num for row in reader if row]
    for row, line in zip(rows, lines):
        if len(row) > len(header):
            raise ParseError(f"{path} row {line}: more cells than header columns")
        if len(row) < len(header):
            raise ParseError(f"{path} row {line}: no cell for column {header[len(row)]!r}")
    return header, [[row[j] for row in rows] for j in range(len(header))]


def read_text_columns(directory, name):
    """A file's header and columns as the chunked reader reads them, every
    column coded as text and spelled out again."""
    header = []

    def checks(names):
        header.extend(names)
        return [(io_csv._text, c) for c in dict.fromkeys(names)]

    columns = io_csv._read(directory, name, checks)
    read = dict(zip(dict.fromkeys(header), columns))
    return header, [[read[c].texts[i] for i in read[c].codes.tolist()] for c in header]


def read_or_error(read, directory, name):
    try:
        return read(directory, name)
    except ParseError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def saved_rows(small_panel, tmp_path_factory):
    """The rows of each CSV file of the saved 400-applicant panel."""
    directory = tmp_path_factory.mktemp("saved")
    io_csv.save_panel(small_panel, directory)
    rows = {}
    for path in sorted(directory.iterdir()):
        with open(path, newline="", encoding="utf-8") as handle:
            rows[path.name] = list(csv.reader(handle))
    return rows


def write_rows(directory, rows, style):
    """Each file's rows in one of the CSV spellings the reader accepts."""
    directory.mkdir()
    for name, file_rows in rows.items():
        with open(directory / name, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(
                handle,
                lineterminator="\r\n" if style == "crlf" else "\n",
                quoting=csv.QUOTE_ALL if style == "quoted" else csv.QUOTE_MINIMAL,
            )
            for i, row in enumerate(file_rows):
                writer.writerow(row)
                if style == "blank_lines" and i % 3 == 1:
                    handle.write("\n" * (i % 2 + 1))


@pytest.mark.parametrize("chunk_rows", [7, None])  # None: the reader's own chunk size
@pytest.mark.parametrize("style", ["saved", "quoted", "crlf", "blank_lines"])
def test_reader_matches_rows_then_transpose(saved_rows, tmp_path, monkeypatch, style, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(io_csv, "CHUNK_ROWS", chunk_rows)
    write_rows(tmp_path / "panel", saved_rows, style)
    for name in saved_rows:
        got = read_text_columns(tmp_path / "panel", name)
        assert got == rows_then_transpose(tmp_path / "panel", name)
    loaded = io_csv.load_panel(tmp_path / "panel")
    assert same_panel(loaded, reference_io.load_panel(tmp_path / "panel"))


def test_reader_errors_match_rows_then_transpose(saved_rows, tmp_path, monkeypatch):
    """Width errors in the first and in later chunks, an encoding error
    after a width error, a missing header and an empty file."""
    monkeypatch.setattr(io_csv, "CHUNK_ROWS", 7)
    rows = saved_rows[io_csv.APPLICATIONS_CSV]
    cases = {
        "long_row_late": {len(rows) - 2: rows[-2] + ["x"]},
        "short_row_early": {3: rows[3][:4]},
        "empty_row_cell_late": {20: [""]},
        "two_bad_rows": {40: rows[40][:-1], 9: rows[9] + ["", ""]},
    }
    for i, (case, edits) in enumerate(cases.items()):
        edited = {io_csv.APPLICATIONS_CSV: [edits.get(j, row) for j, row in enumerate(rows)]}
        write_rows(tmp_path / case, edited, "blank_lines" if i % 2 else "saved")
        expected = read_or_error(rows_then_transpose, tmp_path / case, io_csv.APPLICATIONS_CSV)
        assert isinstance(expected, str)
        got = read_or_error(read_text_columns, tmp_path / case, io_csv.APPLICATIONS_CSV)
        assert got == expected

    path = tmp_path / "short_row_early" / io_csv.APPLICATIONS_CSV
    path.write_bytes(path.read_bytes() + b"2011,a1,\xff\n")  # not UTF-8, after the short row
    path.parent.joinpath(io_csv.BONUS_POINTS_CSV).write_text("field,weight\nf,1\n")
    path.parent.joinpath(io_csv.FIELD_WEIGHTS_CSV).write_text("")
    for name in (io_csv.APPLICATIONS_CSV, io_csv.BONUS_POINTS_CSV, io_csv.FIELD_WEIGHTS_CSV):
        expected = read_or_error(rows_then_transpose, path.parent, name)
        assert isinstance(expected, str)
        assert read_or_error(read_text_columns, path.parent, name) == expected
    assert "not UTF-8" in read_or_error(read_text_columns, path.parent, io_csv.APPLICATIONS_CSV)


def test_coded_vocabulary_holds_each_text_once(saved_rows, tmp_path, monkeypatch):
    """Each coded column's vocabulary lists every distinct text of the
    column once, in order of first appearance, across chunks."""
    monkeypatch.setattr(io_csv, "CHUNK_ROWS", 7)
    write_rows(tmp_path / "panel", saved_rows, "saved")
    for name, (header, *rows) in saved_rows.items():
        columns = io_csv._read(tmp_path / "panel", name, lambda h: [(io_csv._text, c) for c in h])
        for j, column in enumerate(columns):
            assert column.texts == list(dict.fromkeys(row[j] for row in rows)), (name, j)


def test_bad_cell_early_and_bad_utf8_late_is_a_utf8_error(small_panel, tmp_path):
    """A bad cell in the first rows is raised only once the whole file has
    been read, so invalid UTF-8 near the file's end comes first."""
    io_csv.save_panel(small_panel, tmp_path)
    path = tmp_path / io_csv.APPLICATIONS_CSV
    lines = path.read_bytes().split(b"\n")
    cells = lines[2].split(b",")
    cells[6] = b"x"  # exam_score
    lines[2] = b",".join(cells)
    lines[-3] = lines[-3].replace(b",", b"\xff,", 1)
    path.write_bytes(b"\n".join(lines))
    assert len(b"\n".join(lines[:-3])) > 8 * 8192  # well past the first decoded block
    with pytest.raises(ParseError, match=r"applications\.csv: not UTF-8"):
        io_csv.load_panel(tmp_path)


@pytest.mark.parametrize(
    "filename, early, late, message",
    [
        (
            io_csv.APPLICATIONS_CSV, {"other_points": "nan"}, {"applicant_id": " "},
            "row 3: non-finite value for 'other_points': 'nan'",
        ),
        (
            io_csv.APPLICANTS_CSV, {"cohort_year": "y"}, {"grade_arts": "x"},
            "row 3: bad value for 'cohort_year': 'y'",
        ),
    ],
    ids=["applications", "applicants"],
)
def test_later_check_in_an_earlier_chunk_comes_first(
    small_panel, tmp_path, monkeypatch, filename, early, late, message
):
    """A bad cell of a later check in row 2 beats a bad cell of an earlier
    check in row 30, four chunks later."""
    monkeypatch.setattr(io_csv, "CHUNK_ROWS", 7)
    io_csv.save_panel(small_panel, tmp_path)
    path = tmp_path / filename
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    for row, edits in ((2, early), (30, late)):
        cells = lines[row].split(",")
        for column, value in edits.items():
            cells[header.index(column)] = value
        lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        io_csv.load_panel(tmp_path)
    assert str(info.value) == f"{path} {message}"


# Replacement cells: bad, edge and rule-breaking values of every column kind.
CORRUPT_CELLS = st.sampled_from(
    ["", " ", "x", "nan", "inf", "-1", "0", "1.5", "2010", "2014", str(2**64), "true", "maybe",
     "a00001", "a99999", " a00003", "Polytechnic 0", "program 1", "field0", "field9", "math"]
) | st.text(max_size=3)


def spread(data, start, stop):
    """An integer in ``start..stop - 1`` drawn through Hypothesis: two
    bytes scaled to the range, which land evenly where ``st.integers``
    leans towards ``start``. It shrinks towards ``start``."""
    value = int.from_bytes(data.draw(st.binary(min_size=2, max_size=2)), "big")
    return start + value * (stop - start) // 65536


def corrupt(rows, data):
    """A copy of each file's rows with 1-3 edits drawn: a cell rewritten,
    a row cut short, made long, repeated or followed by a blank line; and
    the bytes of a row, when drawn, made invalid UTF-8. An edit hits the
    header on 1 draw in 16, else a row spread evenly over the file. Every
    choice is drawn through Hypothesis, so a failure shrinks and replays."""
    files = {name: [list(row) for row in file_rows] for name, file_rows in rows.items()}
    broken_bytes = []
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(files)))
        file_rows = files[name]
        header = data.draw(st.integers(0, 15)) == 15  # not 0, which Hypothesis draws often
        i = 0 if header else spread(data, 1, len(file_rows))
        edits = ["cell"] * 6 + ["short", "long", "repeat", "blank", "bytes"]
        edit = data.draw(st.sampled_from(edits))
        if edit == "cell":
            if file_rows[i]:  # a row an earlier edit blanked has no cell to rewrite
                file_rows[i][spread(data, 0, len(file_rows[i]))] = data.draw(CORRUPT_CELLS)
        elif edit == "short":
            file_rows[i] = file_rows[i][:-1]
        elif edit == "long":
            file_rows[i] = file_rows[i] + [""]
        elif edit == "repeat":
            file_rows.insert(spread(data, i, len(file_rows)) + 1, list(file_rows[i]))
        elif edit == "blank":
            file_rows.insert(i + 1, [])
        else:
            broken_bytes.append((name, i))
    return files, broken_bytes


def write_corrupted(directory, files, broken_bytes):
    directory.mkdir()
    for name, file_rows in files.items():
        with open(directory / name, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(file_rows)
    for name, i in broken_bytes:
        path = directory / name
        lines = path.read_bytes().split(b"\n")
        lines[i] = lines[i] + b"\xe9"
        path.write_bytes(b"\n".join(lines))


def load_or_error(load, directory):
    try:
        return load(directory)
    except Exception as exc:  # any error, so that a crash shows as a mismatch
        return type(exc), str(exc)


@pytest.mark.parametrize("chunk_rows", [1, 7, None])  # None: the reader's own chunk size
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_load_panel_matches_whole_file_reference(saved_rows, tmp_path_factory, chunk_rows, data):
    """A corrupted copy of the saved 400-applicant panel loads to the same
    panel as the whole-file reference loader, or fails with the same error
    class and message."""
    files, broken_bytes = corrupt(saved_rows, data)
    directory = tmp_path_factory.mktemp("corrupted") / "panel"
    write_corrupted(directory, files, broken_bytes)
    expected = load_or_error(reference_io.load_panel, directory)
    chunk = io_csv.CHUNK_ROWS if chunk_rows is None else chunk_rows
    with mock.patch.object(io_csv, "CHUNK_ROWS", chunk):
        got = load_or_error(io_csv.load_panel, directory)
    if isinstance(expected, tuple) or isinstance(got, tuple):
        assert got == expected
    else:
        assert same_panel(got, expected)


def loop_effective_weights(table):
    """Each component's population SD over the sum of the four, every
    sum taken left to right and every square with ``** 2``."""
    sds = {}
    for name, column in (
        ("gpa", table.gpa), ("exam", table.exam),
        ("first_choice_bonus", table.bonus), ("residual", table.other),
    ):
        values = column.tolist()
        total = 0.0
        for v in values:
            total += v
        mean = total / len(values)
        squares = 0.0
        for v in values:
            squares += (v - mean) ** 2
        sds[name] = math.sqrt(squares / len(values))
    total_sd = 0.0
    for sd in sds.values():
        total_sd += sd
    return {name: sd / total_sd for name, sd in sds.items()}


def test_effective_weights_add_left_to_right(panel, monkeypatch):
    """With ``math.fsum`` standing in for the builtin ``sum`` (compensated,
    as ``sum`` of floats is from CPython 3.12), the unrounded weights
    still equal the left-to-right loop."""
    monkeypatch.setattr(scoring, "sum", math.fsum, raising=False)
    table = compute_score_table(panel, panel.base_applications)
    assert scoring.effective_weights(table) == loop_effective_weights(table)


def test_weighted_gpa_adds_left_to_right(panel, monkeypatch):
    """``Panel.weighted_gpa``, the reference for the GPA matrix, adds in
    ``field_weights`` order whatever ``sum`` does: with ``math.fsum``
    standing in for the builtin ``sum`` (compensated, as ``sum`` of floats
    is from CPython 3.12), every value still equals the matrix's."""
    monkeypatch.setattr(model, "sum", math.fsum, raising=False)
    fields = tuple(sorted(panel.field_weights))
    gpa = weighted_gpa_matrix(panel)
    loop = [[panel.weighted_gpa(a, f) for f in fields] for a in panel.applicant_ids]
    assert gpa.tolist() == loop


# The id-keyed readers an assignment had before it became seat-code
# columns, each reading ``seat_of`` as the dict it then was.


def dict_holds_seat(block, assignment):
    index = {p: i for i, p in enumerate(block.program_keys)}
    seat = np.array(
        [index.get(assignment.seat_of.get(a), -1) for a in block.applicant_ids], dtype=np.intp
    )
    return seat[block.applicant] == block.program


def dict_compare_assignments(base, other, universe):
    for assignment in (base, other):
        extra = assignment.seat_of.keys() - universe
        if extra:
            raise UniverseMismatch(f"assigned applicants outside universe: {sorted(extra)[:5]}")
    count = len({a for a, _ in base.seat_of.items() ^ other.seat_of.items()})
    return AssignmentDiff(count, count / len(universe) if universe else 0.0)


def dict_admit_ranks(rank_table, assignment, program_field):
    seat_of, n = assignment.seat_of, len(assignment.seat_of)
    column = {f: j for j, f in enumerate(rank_table.fields)}
    rows = np.fromiter(map(row_of(rank_table).__getitem__, seat_of), dtype=np.intp, count=n)
    fields = map(program_field.__getitem__, seat_of.values())
    columns = np.fromiter(map(column.__getitem__, fields), dtype=np.intp, count=n)
    return rank_table.ranks[rows, columns]


def dict_write_assignment_csv(path, panel, assignment, universe):
    names = {key: (p.polytechnic_name, p.program_name) for key, p in programs_of(panel).items()}
    flag = {None: "", True: "true", False: "false"}
    seat_of, accepted = assignment.seat_of, accepted_of(assignment)
    io_csv._write_csv(
        path,
        io_csv.REQUIRED_COLUMNS[io_csv.OBSERVED_ASSIGNMENT_CSV],
        (
            (a, *names[p], flag[accepted.get(a)]) if (p := seat_of.get(a)) else (a, "", "", "")
            for a in universe
        ),
    )


def dict_admit_outcomes(panel, assignment):
    admitted = sorted(assignment.seat_of)
    later = panel.applications.take(np.flatnonzero(panel.applications.year > panel.base_year))
    later_appliers = {later.applicant_ids[c] for c in later.listed_applicants().tolist()}
    accepted = accepted_of(assignment)
    return {
        econometrics.OUTCOME_ACCEPTED: [1.0 if accepted.get(a, False) else 0.0 for a in admitted],
        econometrics.OUTCOME_REAPPLIED: [1.0 if a in later_appliers else 0.0 for a in admitted],
    }


PAPER_MATCH = dict(n_applicants=6362, n_programs=55, seats_total=2082, seed=42)


@pytest.fixture(scope="module", params=["small_panel", "default_panel", "paper_match"])
def assignments(request, tmp_path_factory):
    """A panel and the assignments its readers see: the observed one and
    the six scenarios'. The paper-match panel (the benchmark's input, an
    eighth of the paper's counts) is read back from CSV, so its observed
    assignment carries the file's codes."""
    if request.param == "paper_match":
        directory = tmp_path_factory.mktemp("paper_match")
        io_csv.save_panel(synth.generate_panel(synth.SynthConfig(**PAPER_MATCH)), directory)
        panel = io_csv.load_panel(directory)
    else:
        panel = request.getfixturevalue(request.param)
    suite, _, ranks = counterfactual.run_scenario_suite(panel)
    return panel, ranks, panel.observed_assignment, [r.assignment for r in suite]


def shuffled(assignment, seed, outsider=True):
    """The same seats built by hand in a shuffled order with every third
    accept flag unknown, and with ``outsider`` one more holder, outside the
    panel and at a program outside it, coded after the panel's, so that
    the readers' vocabularies are not the assignment's."""
    seat_of = list(assignment.seat_of.items())
    np.random.default_rng(seed).shuffle(seat_of)
    accepted = {a: flag for i, (a, flag) in enumerate(accepted_of(assignment).items()) if i % 3}
    if outsider:
        seat_of.append(("zz", "ghost::program"))
        accepted["zz"] = True
    return assignment_of(dict(seat_of), accepted, over=assignment)


def test_holds_seat_and_unassigned_mask_match_dict_readers(assignments):
    """The rows ``seat_rows`` finds for the holders are the rows whose
    program is the applicant's seat."""
    panel, _, observed, suite = assignments
    block = panel.base_applications
    for assignment in [observed, *suite, shuffled(suite[1], 0, outsider=False)]:
        rows = seat_rows(assignment, block)[assignment.holders]
        holds_seat = np.zeros(len(block), dtype=bool)
        holds_seat[rows[rows >= 0]] = True
        assert holds_seat.tolist() == dict_holds_seat(block, assignment).tolist()
        unassigned = assignment.seat < 0
        assert unassigned.tolist() == [a not in assignment.seat_of for a in block.applicant_ids]
    with pytest.raises(KeyError, match="zz"):  # readers never translate
        seat_rows(shuffled(suite[1], 0), block)


def test_compare_assignments_matches_dict_reader(assignments):
    panel, _, observed, suite = assignments
    universe = panel.base_applications.listed_applicants()
    ids = {panel.applicant_ids[c] for c in universe.tolist()}
    others = [observed, *suite, shuffled(suite[0], 1, outsider=False)]
    for base, other in itertools.product([suite[0], others[-1]], others):
        assert compare_assignments(base, other, universe) == dict_compare_assignments(
            base, other, ids
        )
        left_out = other.holders[0]  # a holder outside the universe
        with pytest.raises(UniverseMismatch):
            dict_compare_assignments(base, other, ids - {panel.applicant_ids[left_out]})
        with pytest.raises(UniverseMismatch):
            compare_assignments(base, other, universe[universe != left_out])
    with pytest.raises(KeyError, match="zz"):  # readers never translate
        compare_assignments(suite[0], shuffled(suite[0], 1), universe)


def test_admit_ranks_match_dict_reader_value_for_value(assignments):
    panel, ranks, observed, suite = assignments
    program_field = {p: prog.field for p, prog in programs_of(panel).items()}
    for assignment in [observed, *suite]:
        got = metrics._admit_ranks(ranks, assignment)
        assert got.tolist() == dict_admit_ranks(ranks, assignment, program_field).tolist()


def test_assignment_files_match_dict_writer(assignments, tmp_path):
    panel, _, observed, suite = assignments
    universe = panel.base_applications.listed_applicants()
    ids = [panel.applicant_ids[c] for c in universe.tolist()]
    for i, assignment in enumerate([observed, *suite, shuffled(observed, 3, outsider=False)]):
        io_csv.write_assignment_csv(tmp_path / f"{i}.csv", panel, assignment, universe)
        dict_write_assignment_csv(tmp_path / f"{i}.dict.csv", panel, assignment, ids)
        assert (tmp_path / f"{i}.csv").read_bytes() == (tmp_path / f"{i}.dict.csv").read_bytes()


def test_admit_outcomes_match_dict_reader(assignments):
    panel, _, observed, _ = assignments
    table = compute_score_table(panel, panel.base_applications)
    for assignment in (observed, shuffled(observed, 2, outsider=False)):
        thresholds = program_thresholds(table, assignment)
        *_, outcomes = econometrics._admit_columns(panel, assignment, thresholds, table)
        assert {name: y.tolist() for name, y in outcomes.items()} == dict_admit_outcomes(
            panel, assignment
        )
    block = panel.base_applications
    others = block.take(np.flatnonzero(block.applicant != observed.holders[0]))
    partial = compute_score_table(panel, others)
    with pytest.raises(MissingScore):  # a holder without a score row
        econometrics._admit_columns(panel, observed, {}, partial)
    with pytest.raises(KeyError, match="zz"):  # a holder outside the panel: readers never translate
        econometrics._admit_columns(panel, shuffled(observed, 2), {}, table)


def repeat_positions(order, offsets):
    """Each row's place in ``order`` less the start of its range, the
    starts repeated over the range sizes: the positions as they were
    computed before ``MatchInstance`` subtracted each row's own start."""
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order)) - np.repeat(offsets[:-1], np.diff(offsets))
    return position


def list_program_proposing(instance):
    """Program-proposing DA over Python lists copied from the instance's
    columns, as it ran before it read them in place."""
    members = instance.applicant[instance.prio_order].tolist()
    pref_position = repeat_positions(instance.pref_order, instance.pref_offsets)
    position = pref_position[instance.prio_order].tolist()
    next_offer = instance.prio_offsets[:-1].tolist()
    stops = instance.prio_offsets[1:].tolist()
    quota = instance.quota.tolist()
    fill = [0] * len(quota)
    seat = [-1] * len(instance.applicant_ids)
    seat_position = [len(members)] * len(seat)
    pending = list(range(len(quota)))
    is_pending = [True] * len(quota)
    while pending:
        p = pending.pop()
        is_pending[p] = False
        i, stop, room = next_offer[p], stops[p], quota[p] - fill[p]
        while room > 0 and i < stop:
            a, rank = members[i], position[i]
            i += 1
            if rank < seat_position[a]:
                current = seat[a]
                seat[a], seat_position[a] = p, rank
                room -= 1
                if current >= 0:
                    fill[current] -= 1
                    if not is_pending[current]:
                        pending.append(current)
                        is_pending[current] = True
        next_offer[p] = i
        fill[p] = quota[p] - room
    return seat


def random_block(rng):
    """A shuffled block of 1-8 applicants listing 1-5 of 5 programs, each
    row's rank drawn from 1..6, so lists skip ranks and repeat them."""
    rows = [
        mk_app(f"a{i}", f"p{j}", rng.randint(1, 6))
        for i in range(rng.randint(1, 8))
        for j in rng.sample(range(5), rng.randint(1, 5))
    ]
    rng.shuffle(rows)
    return block_of(rows)


def rank_lists(block):
    """Each applicant's listed ranks, in list order."""
    order, offsets = block.lists
    ranks = block.listed_rank[order].tolist()
    return [ranks[start:stop] for start, stop in itertools.pairwise(offsets.tolist())]


@pytest.fixture(scope="module")
def da_corpus(small_panel):
    """Instances of the oracle's random profiles, of random blocks whose
    lists have gaps and ties in listed rank (scores tie too), and of the
    small panel's six scenarios."""
    rng = random.Random(20110901)
    corpus = [random_instance(rng) for _ in range(300)]
    lists = []
    for _ in range(300):
        block = random_block(rng)
        zeros, n = np.zeros(len(block)), len(block)
        gpa = np.array([float(rng.randint(0, 3)) for _ in range(n)])
        table = scoring.ScoreTable(block, gpa, zeros, zeros, zeros, np.zeros(n, dtype=bool))
        quota = [rng.randint(0, 2) for _ in block.program_keys]
        corpus.append(build_instance(block, table, quota))
        lists += rank_lists(block)
    distinct = [ranks for ranks in lists if len(set(ranks)) == len(ranks)]
    assert len(distinct) < len(lists)  # some lists tie
    assert any(ranks != list(range(1, len(ranks) + 1)) for ranks in distinct)  # some skip
    corpus += [
        build_instance(table.applications, table, small_panel.quota)
        for _, table in counterfactual.scenario_tables(small_panel, SCENARIO_IDS)
    ]
    return corpus


def test_positions_match_repeat_reference(da_corpus):
    for instance in da_corpus:
        expected = repeat_positions(instance.pref_order, instance.pref_offsets)
        assert np.array_equal(instance.pref_position, expected)
        expected = repeat_positions(instance.prio_order, instance.prio_offsets)
        assert np.array_equal(instance.prio_position, expected)


def test_program_proposing_matches_list_reference(da_corpus):
    for instance in da_corpus:
        seat = deferred_acceptance(instance, PROPOSING_PROGRAMS).seat
        assert seat.tolist() == list_program_proposing(instance)
