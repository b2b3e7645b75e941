"""CSV ingestion and serialization for panels and assignments.

All files are UTF-8, comma-delimited, with a mandatory header row; floats
are written with six decimal digits so outputs diff cleanly.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NoReturn, Optional, Sequence

import numpy as np

from .errors import EmptyName, ParseError, PolyadmitError, ValidationError
from .model import (
    Applicant,
    ApplicationBlock,
    Assignment,
    Panel,
    Program,
    encode,
    canonical_program_key,
    validate_panel,
)

APPLICANTS_CSV = "applicants.csv"
PROGRAMS_CSV = "programs.csv"
APPLICATIONS_CSV = "applications.csv"
OBSERVED_ASSIGNMENT_CSV = "observed_assignment.csv"
FIELD_WEIGHTS_CSV = "field_weights.csv"
BONUS_POINTS_CSV = "bonus_points.csv"

GRADE_PREFIX = "grade_"


def fmt(value: float) -> str:
    return f"{value:.6f}"


@dataclass(frozen=True)
class _Table:
    """The data of one CSV file, blank lines skipped, as one list of cells
    per header column."""

    path: Path
    header: list[str]
    columns: list[list[str]]

    def column(self, name: str) -> list[str]:
        last = len(self.header) - 1 - self.header[::-1].index(name)  # as in a dict of the row
        return self.columns[last]

    @functools.cached_property
    def lines(self) -> list[int]:
        """The file line each row ends on; only errors name one, so the
        file is read again to count them."""
        with open(self.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            return [reader.line_num for row in reader if row]

    def cells(self):
        """(file line, cells by column) of every row."""
        return zip(self.lines, (dict(zip(self.header, row)) for row in zip(*self.columns)))

    def first_error(self, *checks) -> NoReturn:
        """Run the per-cell ``checks`` row by row, in the order a row is
        read, so the first bad cell of the file raises its own error."""
        for line, cells in self.cells():
            for check in checks:
                check(self.path, line, cells)
        raise AssertionError(f"{self.path}: a column failed but no cell did")


def _read_table(path: Path, required: Sequence[str]) -> _Table:
    """Read a UTF-8 CSV file whose header names every ``required`` column."""
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            for column in required:
                if column not in header:
                    raise ParseError(f"{path}: missing required header {column!r}")
            rows = [row for row in reader if row]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    if set(map(len, rows)) - {len(header)}:
        for row, line in zip(rows, _Table(path, header, []).lines):
            if len(row) > len(header):
                raise ParseError(f"{path} row {line}: more cells than header columns")
            if len(row) < len(header):
                raise ParseError(f"{path} row {line}: no cell for column {header[len(row)]!r}")
    return _Table(path, header, [[row[j] for row in rows] for j in range(len(header))])


def _cell(parse, column: str):
    """A per-cell check: ``parse`` applied to one row's ``column``."""
    return lambda path, line, cells: parse(path, line, column, cells[column])


def _applicant_id(path: Path, row_number: int, column: str, raw: str) -> str:
    if not raw.strip():
        raise EmptyName(f"{path} row {row_number}: empty {column}")
    return raw


def _field_label(path: Path, row_number: int, column: str, raw: str) -> str:
    """A field label: stripped, and never empty."""
    label = raw.strip()
    if not label:
        raise EmptyName(f"{path} row {row_number}: empty {column}")
    return label


def _program_key(path: Path, row_number: int, cells: dict[str, str]) -> str:
    return canonical_program_key(cells["polytechnic_name"], cells["program_name"])


def _parse_float(path: Path, row_number: int, column: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"{path} row {row_number}: bad value for {column!r}: {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path} row {row_number}: non-finite value for {column!r}: {raw!r}")
    return value


def _grade(path: Path, row_number: int, column: str, raw: str) -> Optional[float]:
    """A grade cell; empty when the applicant has no grade in the subject."""
    return None if raw == "" else _parse_float(path, row_number, column, raw)


def _seat(path: Path, row_number: int, cells: dict[str, str]) -> None:
    """An observed-assignment row: unassigned when both names are empty."""
    if cells["polytechnic_name"] or cells["program_name"]:
        _program_key(path, row_number, cells)
        _parse_bool(path, row_number, "accepted", cells["accepted"])


INT64 = np.iinfo(np.int64)


def _parse_int(path: Path, row_number: int, column: str, raw: str) -> int:
    """An integer cell; the columns hold 64-bit integers."""
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"{path} row {row_number}: bad value for {column!r}: {raw!r}") from None
    if not INT64.min <= value <= INT64.max:
        raise ParseError(f"{path} row {row_number}: value out of range for {column!r}: {raw!r}")
    return value


BOOLEANS = {"true": True, "1": True, "yes": True}
BOOLEANS.update(dict.fromkeys(("false", "0", "no", ""), False))


def _parse_bool(path: Path, row_number: int, column: str, raw: str) -> bool:
    value = BOOLEANS.get(raw.strip().lower())
    if value is None:
        raise ParseError(f"{path} row {row_number}: bad boolean for {column!r}: {raw!r}")
    return value


def _floats(cells: list[str], grades: bool = False) -> Optional[list]:
    """Every cell as a finite float, or None if any is not one; with
    ``grades``, empty cells are allowed and read as None."""
    present = [raw for raw in cells if raw != ""] if grades else cells
    try:
        values = list(map(float, present))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    if len(present) == len(cells):
        return values
    found = iter(values)
    return [None if raw == "" else next(found) for raw in cells]


def _keys(polytechnics: list[str], programs: list[str]) -> Optional[list[str]]:
    """The canonical program key of every (polytechnic, program) pair, or
    None if a name is empty; each distinct pair is canonicalized once."""
    polytechnic_ids, polytechnic = encode(polytechnics)
    program_ids, program = encode(programs)
    n = len(program_ids)
    pairs, pair = np.unique(polytechnic * n + program, return_inverse=True)
    try:
        keys = [
            canonical_program_key(polytechnic_ids[c // n], program_ids[c % n])
            for c in pairs.tolist()
        ]
    except EmptyName:
        return None
    return list(map(keys.__getitem__, pair.tolist()))


def _each(table: _Table, column: str, parse, cells: Optional[list[str]] = None) -> Optional[list]:
    """The per-cell parser ``parse`` run once per distinct cell of
    ``column`` (or of ``cells``), or None when a cell fails."""
    cells = table.column(column) if cells is None else cells
    try:
        value = {raw: parse(table.path, 0, column, raw) for raw in set(cells)}
    except PolyadmitError:
        return None
    return list(map(value.__getitem__, cells))


def load_panel(directory: str | Path) -> Panel:
    """Load, canonicalize, and validate a panel from its CSV directory.

    Each file is parsed a column at a time; when a column fails, its rows
    are re-read cell by cell, so the error names the same first bad cell
    (file, file line and column) a row-by-row reader would. A row that
    repeats an earlier row's id in the same file is rejected; all such
    rows are listed in one ``ValidationError``.
    """
    directory = Path(directory)
    duplicates: list[str] = []

    def unique(table: _Table, what: str, values: Sequence[object]) -> None:
        if len(set(values)) == len(values):
            return
        first_line: dict[object, int] = {}
        for line, value in zip(table.lines, values):
            first = first_line.setdefault(value, line)
            if first != line:
                duplicates.append(
                    f"DuplicateId: {table.path} row {line}: {what} {value!r} repeats row {first}"
                )

    table = _read_table(directory / APPLICANTS_CSV, ["applicant_id", "cohort_year"])
    grade_columns = list(dict.fromkeys(c for c in table.header if c.startswith(GRADE_PREFIX)))
    subjects = [c[len(GRADE_PREFIX):] for c in grade_columns]
    grades = [_floats(table.column(c), grades=True) for c in grade_columns]
    applicant_ids = _each(table, "applicant_id", _applicant_id)
    cohort_years = _each(table, "cohort_year", _parse_int)
    if applicant_ids is None or cohort_years is None or None in grades:
        table.first_error(
            *(_cell(_grade, c) for c in grade_columns),
            _cell(_applicant_id, "applicant_id"),
            _cell(_parse_int, "cohort_year"),
        )
    unique(table, "applicant_id", applicant_ids)
    grade_dicts = [
        {s: v for s, v in zip(subjects, values) if v is not None} for values in zip(*grades)
    ] if grades else [{} for _ in applicant_ids]
    applicants = dict(
        zip(applicant_ids, map(Applicant, applicant_ids, grade_dicts, cohort_years))
    )

    programs: dict[str, Program] = {}
    table = _read_table(
        directory / PROGRAMS_CSV, ["polytechnic_name", "program_name", "field", "quota"]
    )
    keys = []
    for line, cells in table.cells():
        keys.append(_program_key(table.path, line, cells))
        programs[keys[-1]] = Program(
            program_key=keys[-1],
            polytechnic_name=cells["polytechnic_name"].strip(),
            program_name=cells["program_name"].strip(),
            field=_field_label(table.path, line, "field", cells["field"]),
            quota=_parse_int(table.path, line, "quota", cells["quota"]),
        )
    unique(table, "program", keys)

    table = _read_table(
        directory / APPLICATIONS_CSV,
        [
            "year", "applicant_id", "polytechnic_name", "program_name",
            "listed_rank", "exam_taken", "exam_score", "other_points",
        ],
    )
    columns = (
        _each(table, "applicant_id", _applicant_id),
        _keys(table.column("polytechnic_name"), table.column("program_name")),
        _each(table, "year", _parse_int),
        _each(table, "listed_rank", _parse_int),
        _each(table, "exam_taken", _parse_bool),
        _floats(table.column("exam_score")),
        _floats(table.column("other_points")),
    )
    if None in columns:
        table.first_error(
            _cell(_applicant_id, "applicant_id"), _program_key, _cell(_parse_int, "year"),
            _cell(_parse_int, "listed_rank"), _cell(_parse_bool, "exam_taken"),
            _cell(_parse_float, "exam_score"), _cell(_parse_float, "other_points"),
        )
    applications = ApplicationBlock.from_columns(*columns)

    field_weights: dict[str, dict[str, float]] = {}
    table = _read_table(directory / FIELD_WEIGHTS_CSV, ["field", "subject", "weight"])
    pairs = []
    for line, cells in table.cells():
        pairs.append((_field_label(table.path, line, "field", cells["field"]), cells["subject"]))
        field_weights.setdefault(pairs[-1][0], {})[cells["subject"]] = _parse_float(
            table.path, line, "weight", cells["weight"]
        )
    unique(table, "(field, subject)", pairs)

    bonus_points: dict[str, float] = {}
    table = _read_table(directory / BONUS_POINTS_CSV, ["field", "bonus"])
    labels = []
    for line, cells in table.cells():
        labels.append(_field_label(table.path, line, "field", cells["field"]))
        bonus_points[labels[-1]] = _parse_float(table.path, line, "bonus", cells["bonus"])
    unique(table, "field", labels)

    observed: Optional[Assignment] = None
    path = directory / OBSERVED_ASSIGNMENT_CSV
    if path.exists():
        table = _read_table(
            path, ["applicant_id", "polytechnic_name", "program_name", "accepted"]
        )
        ids = _each(table, "applicant_id", _applicant_id)
        polytechnics, names, flags = map(
            table.column, ("polytechnic_name", "program_name", "accepted")
        )
        seated = [i for i, pair in enumerate(zip(polytechnics, names)) if any(pair)]
        keys = _keys([polytechnics[i] for i in seated], [names[i] for i in seated])
        accepted = _each(table, "accepted", _parse_bool, [flags[i] for i in seated])
        if ids is None or keys is None or accepted is None:
            table.first_error(_cell(_applicant_id, "applicant_id"), _seat)
        unique(table, "applicant_id", ids)
        seated_ids = [ids[i] for i in seated]
        observed = Assignment(
            seat_of=dict(zip(seated_ids, keys)), accepted=dict(zip(seated_ids, accepted))
        )
    if duplicates:
        raise ValidationError(duplicates)

    base_year = int(applications.year.min()) if len(applications) else min(
        (a.cohort_year for a in applicants.values()), default=0
    )
    panel = Panel(
        applicants=applicants,
        programs=programs,
        applications=applications,
        base_year=base_year,
        field_weights=field_weights,
        bonus_points=bonus_points,
        observed_assignment=observed,
    )
    return validate_panel(panel)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_panel(panel: Panel, directory: str | Path) -> None:
    """Write a panel back to the same CSV schemas ``load_panel`` reads."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    subjects = sorted({s for a in panel.applicants.values() for s in a.matriculation_grades})
    _write_csv(
        directory / APPLICANTS_CSV,
        ["applicant_id", "cohort_year"] + [GRADE_PREFIX + s for s in subjects],
        (
            [a.applicant_id, str(a.cohort_year)]
            + [fmt(a.matriculation_grades.get(s, 0.0)) for s in subjects]
            for a in (panel.applicants[k] for k in sorted(panel.applicants))
        ),
    )
    _write_csv(
        directory / PROGRAMS_CSV,
        ["polytechnic_name", "program_name", "field", "quota"],
        (
            [p.polytechnic_name, p.program_name, p.field, str(p.quota)]
            for p in (panel.programs[k] for k in sorted(panel.programs))
        ),
    )
    _write_csv(
        directory / APPLICATIONS_CSV,
        [
            "year", "applicant_id", "polytechnic_name", "program_name",
            "listed_rank", "exam_taken", "exam_score", "other_points",
        ],
        (
            [
                str(a.year),
                a.applicant_id,
                panel.programs[a.program_key].polytechnic_name,
                panel.programs[a.program_key].program_name,
                str(a.listed_rank),
                "true" if a.exam_taken else "false",
                fmt(a.exam_score),
                fmt(a.other_points),
            ]
            for a in sorted(
                panel.applications, key=lambda x: (x.year, x.applicant_id, x.listed_rank)
            )
        ),
    )
    _write_csv(
        directory / FIELD_WEIGHTS_CSV,
        ["field", "subject", "weight"],
        (
            [field_label, subject, fmt(weight)]
            for field_label in sorted(panel.field_weights)
            for subject, weight in sorted(panel.field_weights[field_label].items())
        ),
    )
    _write_csv(
        directory / BONUS_POINTS_CSV,
        ["field", "bonus"],
        (
            [field_label, fmt(bonus)]
            for field_label, bonus in sorted(panel.bonus_points.items())
        ),
    )
    if panel.observed_assignment is not None:
        write_assignment_csv(
            directory / OBSERVED_ASSIGNMENT_CSV,
            panel,
            panel.observed_assignment,
            universe=sorted({a.applicant_id for a in panel.base_applications}),
        )


def write_assignment_csv(
    path: str | Path,
    panel: Panel,
    assignment: Assignment,
    universe: Sequence[str],
) -> None:
    """One row per applicant in the universe; program columns empty for the
    unassigned, accepted flag empty when unknown."""

    names = {key: (p.polytechnic_name, p.program_name) for key, p in panel.programs.items()}
    flag = {None: "", True: "true", False: "false"}
    seat_of, accepted = assignment.seat_of, assignment.accepted
    _write_csv(
        Path(path),
        ["applicant_id", "polytechnic_name", "program_name", "accepted"],
        (
            (a, *names[p], flag[accepted.get(a)]) if (p := seat_of.get(a)) else (a, "", "", "")
            for a in sorted(universe)
        ),
    )
