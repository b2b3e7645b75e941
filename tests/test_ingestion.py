"""CSV ingestion: the exact ValidationError text for a panel that breaks
every structural rule at once, file-line numbering across blank lines, the
canonical rule for field labels, and integers beyond 64 bits."""

import csv
import gc
import json
import random
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from polyadmit import cli, io_csv
from polyadmit.errors import EmptyName, ParseError, PolyadmitError, ValidationError
from polyadmit.io_csv import load_panel, save_panel
from polyadmit.model import Panel, assignment_violations, validate_panel

from conftest import mk_app, mk_panel, mk_program
from oracle import (
    Applicant, Program, applicant_columns, applicants_of, assignment_of, block_of,
    program_columns, programs_of, records,
)

# At least one violation of every class validate_panel can see in a CSV
# panel (the loader canonicalizes keys, so key-spelling violations only
# arise in a panel built in code; see below).
BROKEN_PANEL = {
    "applicants.csv": """\
applicant_id,cohort_year,grade_math,grade_english
a1,2011,5.0,4.0
a2,2011,-1.0,3.0
a3,2011,4.0,
a5,2011,-2.0,-3.0
a6,2011,1.0,1.0
""",
    "programs.csv": """\
polytechnic_name,program_name,field,quota
Poly,Alpha,field0,1
Poly,Beta,field1,-1
Poly,Gamma,field2,1
""",
    "field_weights.csv": """\
field,subject,weight
field0,math,1.0
field2,math,1.0
""",
    "bonus_points.csv": """\
field,bonus
field0,2.0
field1,1.0
""",
    "applications.csv": """\
year,applicant_id,polytechnic_name,program_name,listed_rank,exam_taken,exam_score,other_points
2011,a1,Poly,Alpha,1,true,10.0,0.0
2011,a1,Poly,Alpha,2,false,0.0,0.0
2011,a2,Poly,Alpha,1,false,5.0,0.0
2011,a2,Poly,Beta,3,false,0.0,-1.0
2011,a4,Poly,Alpha,1,false,0.0,0.0
2011,a3,Ghost,Program,1,false,0.0,0.0
2015,a3,Poly,Alpha,1,false,0.0,0.0
2012,a1,Poly,Gamma,1,true,3.0,0.0
2012,a1,Poly,Alpha,2,false,0.0,0.0
2012,a1,Poly,Beta,3,false,0.0,0.0
2012,a1,Ghost,Program,4,false,0.0,0.0
2012,a1,Other,Program,5,false,-1.0,0.0
2013,a5,Poly,Gamma,2,true,0.0,0.0
2011,a6,Poly,Gamma,1,false,0.0,0.0
2011,a6,Poly,Gamma,3,false,0.0,0.0
""",
    "observed_assignment.csv": """\
applicant_id,polytechnic_name,program_name,accepted
a1,Poly,Alpha,true
a2,Poly,Gamma,false
a3,Ghost,Program,true
a4,Poly,Alpha,true
a5,,,
""",
}

BROKEN_PANEL_VIOLATIONS = [
    "NegativeGrade: applicant 'a2' subject 'math'",
    "NegativeGrade: applicant 'a5' subject 'math'",
    "NegativeGrade: applicant 'a5' subject 'english'",
    "QuotaNegative: program 'poly::beta' quota -1",
    "MissingFieldWeights: field 'field1' of 'poly::beta'",
    "MissingBonusPoints: field 'field2' of 'poly::gamma'",
    "ExamScoreWithoutExam: application #2 ('a2', 'poly::alpha', 2011)",
    "NegativePoints: application #3 ('a2', 'poly::beta', 2011)",
    "DanglingForeignKey: application #4 ('a4', 'poly::alpha', 2011): unknown applicant",
    "DanglingForeignKey: application #5 ('a3', 'ghost::program', 2011): unknown program",
    "YearOutOfRange: application #6 ('a3', 'poly::alpha', 2015): panel years are (2011, 2012, 2013)",
    "DanglingForeignKey: application #10 ('a1', 'ghost::program', 2012): unknown program",
    "DanglingForeignKey: application #11 ('a1', 'other::program', 2012): unknown program",
    "NegativePoints: application #11 ('a1', 'other::program', 2012)",
    "ExamScoreWithoutExam: application #11 ('a1', 'other::program', 2012)",
    "DuplicateProgram: applicant 'a1' year 2011 lists a program twice",
    "RankGap: applicant 'a2' year 2011: ranks [1, 3] are not a prefix 1..k with k <= 4",
    "RankGap: applicant 'a1' year 2012: ranks [1, 2, 3, 4, 5] are not a prefix 1..k with k <= 4",
    "RankGap: applicant 'a5' year 2013: ranks [2] are not a prefix 1..k with k <= 4",
    "RankGap: applicant 'a6' year 2011: ranks [1, 3] are not a prefix 1..k with k <= 4",
    "DuplicateProgram: applicant 'a6' year 2011 lists a program twice",
    "SeatWithoutApplication: ('a2', 'poly::gamma')",
    "QuotaExceeded: program 'poly::alpha' holds 2 > 1",
    "DanglingForeignKey: assigned program 'ghost::program'",
]


def write_panel(directory: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def test_every_violation_class_listed_in_order(tmp_path):
    with pytest.raises(ValidationError) as info:
        load_panel(write_panel(tmp_path, BROKEN_PANEL))
    assert info.value.violations == BROKEN_PANEL_VIOLATIONS
    assert str(info.value) == "; ".join(BROKEN_PANEL_VIOLATIONS)


PROGRAM_VIOLATIONS = ("QuotaNegative", "MissingFieldWeights", "MissingBonusPoints")


def test_program_violations_come_in_file_order(tmp_path):
    """Programs keep the file's row order, so their violations come in it
    even when the rows are not sorted by key."""
    header, *rows = BROKEN_PANEL["programs.csv"].splitlines()
    unsorted = "\n".join([header, *reversed(rows)]) + "\n"
    with pytest.raises(ValidationError) as info:
        load_panel(write_panel(tmp_path, {**BROKEN_PANEL, "programs.csv": unsorted}))
    by_program = [v for v in info.value.violations if v.startswith(PROGRAM_VIOLATIONS)]
    assert by_program == [
        "MissingBonusPoints: field 'field2' of 'poly::gamma'",
        "QuotaNegative: program 'poly::beta' quota -1",
        "MissingFieldWeights: field 'field1' of 'poly::beta'",
    ]
    rest = [v for v in BROKEN_PANEL_VIOLATIONS if not v.startswith(PROGRAM_VIOLATIONS)]
    assert [v for v in info.value.violations if not v.startswith(PROGRAM_VIOLATIONS)] == rest


def code_built_panel() -> Panel:
    """Violations only a panel built in code can carry: a program key that
    is not the canonical key of its names, and an accept flag for an
    applicant without a seat."""
    program = Program("poly::alpha", "Poly", "Alpha", "field0", 1)
    odd = Program("poly::gamma", "Poly", "Beta", "field0", 1)
    columns = applicant_columns(
        [Applicant("a1", {"math": 1.0}, 2011), Applicant("a9", {"math": 1.0}, 2011)]
    )
    columns.update(program_columns([program, odd]))
    coded = SimpleNamespace(**columns)
    apps = [mk_app("a1", "poly::alpha", 1), mk_app("a9", "poly::alpha", 1)]
    return Panel(
        **columns,
        applications=block_of(apps, over=coded),
        base_year=2011,
        field_weights={"field0": {"math": 1.0}},
        bonus_points={"field0": 0.0},
        observed_assignment=assignment_of({"a1": "poly::alpha"}, {"a9": True}, over=coded),
    )


CODE_BUILT_VIOLATIONS = [
    "NonCanonicalKey: program 'poly::gamma' expected 'poly::beta'",
    "AcceptFlagWithoutSeat: 'a9'",
]


def test_code_built_violations_listed_in_order():
    with pytest.raises(ValidationError) as info:
        validate_panel(code_built_panel())
    assert info.value.violations == CODE_BUILT_VIOLATIONS


def edit_cells(path: Path, row: int, **cells: str) -> list[str]:
    """Set the named cells of data row ``row`` (1-based) and return the
    file's lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    values = lines[row].split(",")
    for column, value in cells.items():
        values[header.index(column)] = value
    lines[row] = ",".join(values)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lines


def test_errors_after_a_blank_line_name_the_file_line(small_panel, tmp_path):
    save_panel(small_panel, tmp_path)
    path = tmp_path / "programs.csv"
    lines = edit_cells(path, 2, quota="many")
    lines.insert(2, "")  # a blank file line 3 pushes the bad row to line 4
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"programs\.csv row 4: bad value for 'quota'"):
        load_panel(tmp_path)


def test_padded_program_field_is_stripped(small_panel, tmp_path):
    save_panel(small_panel, tmp_path)
    edit_cells(tmp_path / "programs.csv", 1, field=" field0 ")
    loaded = load_panel(tmp_path)
    assert sorted(loaded.program_field) == sorted(small_panel.program_field)


@pytest.mark.parametrize("filename", ["field_weights.csv", "bonus_points.csv"])
def test_padded_field_labels_are_stripped(small_panel, tmp_path, filename):
    save_panel(small_panel, tmp_path)
    path = tmp_path / filename
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text(
        "\n".join(lines[:1] + [f" {line}" for line in lines[1:]]) + "\n", encoding="utf-8"
    )
    loaded = load_panel(tmp_path)
    assert loaded.field_weights == small_panel.field_weights
    assert loaded.bonus_points == small_panel.bonus_points


@pytest.mark.parametrize("filename", ["programs.csv", "field_weights.csv", "bonus_points.csv"])
def test_empty_field_label_rejected(small_panel, tmp_path, filename):
    save_panel(small_panel, tmp_path)
    edit_cells(tmp_path / filename, 2, field="  ")
    with pytest.raises(EmptyName, match=rf"{filename} row 3: empty field"):
        load_panel(tmp_path)


def quoted_panel():
    """A panel whose names need CSV quoting: a comma and a double quote."""
    programs = [
        mk_program(("Poly, North", 'Arts "Fine"'), quota=1),
        mk_program(("Poly, North", "Plain"), quota=1),
    ]
    keys = [p.program_key for p in programs]
    apps = [
        mk_app("a1", keys[0], 1, exam=True, exam_score=12.5),
        mk_app("a1", keys[1], 2),
        mk_app("a2", keys[1], 1, other=3.0),
    ]
    return mk_panel(programs, apps, grades={"a1": {"math": 4.0}, "a2": {"math": 5.0}})


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_files_that_need_a_csv_parser_load_the_same(tmp_path, newline):
    panel = quoted_panel()
    save_panel(panel, tmp_path)
    for path in tmp_path.iterdir():
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    loaded = load_panel(tmp_path)
    assert programs_of(loaded) == programs_of(panel)
    assert records(loaded.applications) == records(panel.applications)
    assert applicants_of(loaded) == applicants_of(panel)


HUGE = str(2**64 + 1)


@pytest.mark.parametrize(
    "filename, column, row",
    [
        ("applicants.csv", "cohort_year", 2),
        ("applications.csv", "year", 3),
        ("applications.csv", "listed_rank", 3),
        ("applications.csv", "listed_rank", 1),
        ("programs.csv", "quota", 2),
    ],
)
@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
def test_integer_beyond_64_bits_is_a_parse_error(
    small_panel, tmp_path, capsys, filename, column, row, sign
):
    data, out = tmp_path / "data", tmp_path / "out"
    save_panel(small_panel, data)
    edit_cells(data / filename, row, **{column: sign + HUGE})
    status = cli.main(["--input", str(data), "--out", str(out)])
    assert status == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {
        "error": "ParseError",
        "message": f"{data / filename} row {row + 1}: value out of range for {column!r}: "
        f"{sign + HUGE!r}",
    }


# Bad cells in several rows and columns of one file: the error is the
# first bad cell in reading order, by row and then by the order in which
# a row's cells are checked (which need not be the header order).
FIRST_BAD_CELL = {
    "applicants.csv, later check in an earlier row": (
        "applicants.csv",
        [(3, {"cohort_year": "x"}), (5, {"grade_arts": "oops"}), (7, {"applicant_id": " "})],
        ParseError,
        "{path} row 4: bad value for 'cohort_year': 'x'",
    ),
    "applicants.csv, two in one row": (
        "applicants.csv",
        [(4, {"applicant_id": " ", "grade_science": "inf"})],
        ParseError,
        "{path} row 5: non-finite value for 'grade_science': 'inf'",
    ),
    "programs.csv, later check in an earlier row": (
        "programs.csv",
        [(2, {"quota": "many"}), (4, {"field": " "}), (6, {"polytechnic_name": ""})],
        ParseError,
        "{path} row 3: bad value for 'quota': 'many'",
    ),
    "programs.csv, two in one row": (
        "programs.csv",
        [(2, {"field": " ", "quota": "x"})],
        EmptyName,
        "{path} row 3: empty field",
    ),
    "programs.csv, key before field": (
        "programs.csv",
        [(5, {"field": "", "program_name": " "}), (7, {"quota": "1.5"})],
        EmptyName,
        "{path} row 6: empty program_name",
    ),
    "applications.csv, later check in an earlier row": (
        "applications.csv",
        [(4, {"other_points": "nan"}), (6, {"exam_taken": "maybe"}), (9, {"year": "20x1"})],
        ParseError,
        "{path} row 5: non-finite value for 'other_points': 'nan'",
    ),
    "applications.csv, two in one row": (
        "applications.csv",
        [(3, {"year": "y", "applicant_id": " "})],
        EmptyName,
        "{path} row 4: empty applicant_id",
    ),
    "field_weights.csv, later check in an earlier row": (
        "field_weights.csv",
        [(2, {"weight": "w"}), (5, {"field": " "})],
        ParseError,
        "{path} row 3: bad value for 'weight': 'w'",
    ),
    "field_weights.csv, two in one row": (
        "field_weights.csv",
        [(3, {"weight": "inf", "field": ""})],
        EmptyName,
        "{path} row 4: empty field",
    ),
    "bonus_points.csv, later check in an earlier row": (
        "bonus_points.csv",
        [(2, {"bonus": "-inf"}), (4, {"field": " "})],
        ParseError,
        "{path} row 3: non-finite value for 'bonus': '-inf'",
    ),
    "bonus_points.csv, two in one row": (
        "bonus_points.csv",
        [(1, {"bonus": "b", "field": " "})],
        EmptyName,
        "{path} row 2: empty field",
    ),
    "observed_assignment.csv, later check in an earlier row": (
        "observed_assignment.csv",
        [
            (1, {"accepted": "maybe"}),  # no seat, so the flag is never read
            (3, {"accepted": "perhaps"}),
            (4, {"polytechnic_name": "X"}),
            (6, {"applicant_id": " "}),
        ],
        ParseError,
        "{path} row 4: bad boolean for 'accepted': 'perhaps'",
    ),
    "observed_assignment.csv, two in one row": (
        "observed_assignment.csv",
        [(3, {"accepted": "perhaps", "program_name": " "})],
        EmptyName,
        "{path} row 4: empty program_name",
    ),
    "observed_assignment.csv, id before seat": (
        "observed_assignment.csv",
        [(3, {"accepted": "perhaps", "applicant_id": ""})],
        EmptyName,
        "{path} row 4: empty applicant_id",
    ),
}


@pytest.mark.parametrize(
    "filename, edits, error, message", FIRST_BAD_CELL.values(), ids=FIRST_BAD_CELL
)
def test_first_bad_cell_in_reading_order(small_panel, tmp_path, filename, edits, error, message):
    save_panel(small_panel, tmp_path)
    path = tmp_path / filename
    for row, cells in edits:
        edit_cells(path, row, **cells)
    with pytest.raises(PolyadmitError) as info:
        load_panel(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message.format(path=path)


def test_a_failing_load_peaks_no_higher_than_a_load(default_panel, tmp_path):
    """A bad cell in the last row of the desk panel's applications is
    found by a walk that holds one row at a time, so the failing load's
    traced heap peak is no higher than a successful load's."""
    for case in ("good", "bad"):
        save_panel(default_panel, tmp_path / case)
    edit_cells(tmp_path / "bad" / "applications.csv", -1, other_points="x")
    try:
        tracemalloc.start()
        load_panel(tmp_path / "good")
        good = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracemalloc.start()
        with pytest.raises(ParseError, match=r"row \d+: bad value for 'other_points': 'x'$"):
            load_panel(tmp_path / "bad")
        bad = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bad <= good


def test_a_load_sets_off_fewer_collections_than_it_reads_chunks(default_panel, tmp_path):
    """Each chunk of rows the reader holds stays below the collector's
    generation-0 threshold, so loading the desk panel sets off fewer
    collections, of any generation, than it reads chunks; at 1 024 rows
    a chunk it set off about two a chunk. The reason holds for CPython's
    generational collector with its threshold above a chunk's rows, which
    the test asserts first, so a collector that is off or counts otherwise
    fails it rather than passing it trivially."""
    assert gc.isenabled()
    assert io_csv.CHUNK_ROWS < gc.get_threshold()[0]
    save_panel(default_panel, tmp_path)
    chunks = 0
    for path in tmp_path.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as handle:
            rows = sum(1 for row in csv.reader(handle) if row) - 1
        chunks += -(-rows // io_csv.CHUNK_ROWS)
    load_panel(tmp_path)  # once first, so that no first-call work is counted
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        load_panel(tmp_path)
    finally:
        gc.callbacks.remove(count)
    assert len(collections) < chunks


@pytest.mark.parametrize(
    "cells", [{"other_points": "x"}, {"exam_taken": "maybe"}, {"year": "2011,extra"}],
    ids=["float", "coded", "width"],
)
def test_a_file_fixed_before_the_error_walk_changed_while_read(
    small_panel, tmp_path, monkeypatch, cells
):
    """The error walk reads the file again; when it finds no error there,
    the file changed while it was read, whatever failed the first read."""
    for case in ("fixed", "bad"):
        save_panel(small_panel, tmp_path / case)
    path = tmp_path / "bad" / "applications.csv"
    edit_cells(path, 5, **cells)
    rows = io_csv._rows
    monkeypatch.setattr(io_csv, "_rows", lambda read: rows(tmp_path / "fixed" / read.name))
    with pytest.raises(ParseError) as info:
        load_panel(tmp_path / "bad")
    assert str(info.value) == f"{path}: changed while it was read"


# A panel whose observed rows are not in id order: the seat-without-
# application lines follow the file, not the ids.
UNSORTED_OBSERVED = {
    "applicants.csv": """\
applicant_id,cohort_year,grade_math
a1,2011,5.0
a2,2011,4.0
a3,2011,3.0
a4,2011,2.0
a5,2011,1.0
""",
    "programs.csv": """\
polytechnic_name,program_name,field,quota
Poly,Alpha,field0,1
Poly,Beta,field0,2
""",
    "field_weights.csv": "field,subject,weight\nfield0,math,1.0\n",
    "bonus_points.csv": "field,bonus\nfield0,0.0\n",
    "applications.csv": """\
year,applicant_id,polytechnic_name,program_name,listed_rank,exam_taken,exam_score,other_points
2011,a1,Poly,Alpha,1,false,0.0,0.0
2011,a2,Poly,Alpha,1,false,0.0,0.0
2011,a3,Poly,Beta,1,false,0.0,0.0
2011,a4,Poly,Beta,1,false,0.0,0.0
2011,a5,Poly,Alpha,1,false,0.0,0.0
""",
    "observed_assignment.csv": """\
applicant_id,polytechnic_name,program_name,accepted
a5,Poly,Beta,true
a4,,,
a2,Poly,Alpha,false
a3,Poly,Alpha,
a1,Poly,Alpha,true
""",
}

UNSORTED_OBSERVED_VIOLATIONS = [
    "SeatWithoutApplication: ('a5', 'poly::beta')",
    "SeatWithoutApplication: ('a3', 'poly::alpha')",
    "QuotaExceeded: program 'poly::alpha' holds 3 > 1",
]


def test_readers_are_gone_when_the_panel_is_validated(small_panel, tmp_path, monkeypatch):
    """Every file's ``_Coded`` and ``_Floats`` readers are freed before
    ``validate_panel`` allocates."""
    save_panel(small_panel, tmp_path)
    readers, kinds, alive_at_validation = [], set(), []
    read = io_csv._read

    def recorded_read(*args):
        columns = read(*args)
        readers.extend(map(weakref.ref, columns))
        kinds.update(map(type, columns))
        return columns

    def validate(*args, **kwargs):
        alive_at_validation.append(sum(ref() is not None for ref in readers))
        return validate_panel(*args, **kwargs)

    monkeypatch.setattr(io_csv, "_read", recorded_read)
    monkeypatch.setattr(io_csv, "validate_panel", validate)
    load_panel(tmp_path)
    assert kinds == {io_csv._Coded, io_csv._Floats}
    assert alive_at_validation == [0]


def test_observed_columns_own_their_memory(small_panel, tmp_path):
    """Neither the observed seat and accept columns nor the file order of
    the observed rows views a larger array that would live on with them."""
    save_panel(small_panel, tmp_path)
    panel, _, observed_order = io_csv._load(tmp_path)
    observed = panel.observed_assignment
    n = len(observed.applicant_ids)
    assert (observed.seat.shape, observed.accept.shape) == ((n,), (n,))
    assert [c.base is None for c in (observed.seat, observed.accept, observed_order)] == [True] * 3


def test_observed_rows_keep_file_order_in_violations(tmp_path):
    with pytest.raises(ValidationError) as info:
        load_panel(write_panel(tmp_path, UNSORTED_OBSERVED))
    assert info.value.violations == UNSORTED_OBSERVED_VIOLATIONS


def test_code_built_assignment_keeps_its_order_in_violations(tmp_path):
    files = dict(UNSORTED_OBSERVED)
    files["observed_assignment.csv"] = "applicant_id,polytechnic_name,program_name,accepted\n"
    panel = load_panel(write_panel(tmp_path, files))
    assignment = assignment_of(
        {"a5": "poly::beta", "a2": "poly::alpha", "a3": "poly::alpha", "a1": "poly::alpha"},
        {"a5": True, "a4": True, "a2": False, "a1": True},
        over=panel,
    )
    order = np.array([panel.applicant_ids.index(a) for a in ("a5", "a2", "a3", "a1", "a4")])
    assert assignment_violations(panel, panel.base_applications, assignment, order) == (
        UNSORTED_OBSERVED_VIOLATIONS + ["AcceptFlagWithoutSeat: 'a4'"]
    )


def test_shuffled_observed_rows_give_the_same_reports(small_panel, tmp_path):
    sorted_dir, shuffled_dir = tmp_path / "sorted", tmp_path / "shuffled"
    save_panel(small_panel, sorted_dir)
    save_panel(small_panel, shuffled_dir)
    path = shuffled_dir / "observed_assignment.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    random.Random(0).shuffle(rows)
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    wanted = {"table2", "table3", "table5", "calibration"}
    for directory in (sorted_dir, shuffled_dir):
        config = cli.RunConfig(out_dir=directory / "out", input_dir=directory)
        (directory / "out").mkdir()
        cli._write_reports(config, load_panel(directory), wanted, directory / "out")
    for name in sorted(f"{w}.csv" for w in wanted):
        expected = (sorted_dir / "out" / name).read_bytes()
        assert (shuffled_dir / "out" / name).read_bytes() == expected


def test_negative_grades_follow_the_file(tmp_path):
    """NegativeGrade lines list applicants in file order, which here is
    not id order, and subjects in header order, which is not sorted."""
    files = dict(UNSORTED_OBSERVED)
    del files["observed_assignment.csv"]
    files["applicants.csv"] = """\
applicant_id,cohort_year,grade_math,grade_english
a4,2011,-1.0,-2.0
a2,2011,3.0,4.0
a5,2011,1.0,-1.0
a1,2011,-3.0,
a3,2011,2.0,1.0
"""
    with pytest.raises(ValidationError) as info:
        load_panel(write_panel(tmp_path, files))
    assert info.value.violations == [
        "NegativeGrade: applicant 'a4' subject 'math'",
        "NegativeGrade: applicant 'a4' subject 'english'",
        "NegativeGrade: applicant 'a5' subject 'english'",
        "NegativeGrade: applicant 'a1' subject 'math'",
    ]
