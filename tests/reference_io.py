"""The whole-file CSV loader, kept as the reference for ``load_panel``:
every file read into columns of ``str``, each check then parsed over a
whole column, and the first bad cell found by reading order after the
whole file was read; applicants and programs are built as records, then
turned into the panel's columns. Its errors are the ones ``load_panel`` must raise,
and its panels the ones it must return."""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn, Optional, Sequence

import numpy as np

from polyadmit.errors import ParseError, PolyadmitError, ValidationError
from polyadmit.io_csv import (
    APPLICANTS_CSV, APPLICATIONS_CSV, BONUS_POINTS_CSV, FIELD_WEIGHTS_CSV, GRADE_PREFIX,
    OBSERVED_ASSIGNMENT_CSV, PROGRAM_NAMES, PROGRAMS_CSV, REQUIRED_COLUMNS, _applicant_id,
    _field_label, _grade, _observed_seat, _parse_bool, _parse_float, _parse_int, _program_key,
)
from oracle import (
    Applicant, Program, assignment_of, block_from_columns, coding, encode, program_columns,
)
from polyadmit.model import Panel, validate_panel


@dataclass(frozen=True)
class Table:
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
        with open(self.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            return [reader.line_num for row in reader if row]

    def cell(self, names, row: int):
        if isinstance(names, str):
            return self.column(names)[row]
        return tuple(self.column(n)[row] for n in names)

    def parse(self, *checks) -> list[list]:
        """Each check's cells parsed; if a cell fails, the first bad cell
        in reading order (by row, then by check) raises its own error."""
        parsed = [self._parse(*check) for check in checks]
        bad = [(row, k) for k, (_, row) in enumerate(parsed) if row is not None]
        if bad:
            row, k = min(bad)
            parse, names = checks[k]
            parse(self.path, self.lines[row], names, self.cell(names, row))
            raise AssertionError(f"{self.path}: a value failed but its cell did not")
        return [values for values, _ in parsed]

    def _parse(self, parse, names) -> tuple[Optional[list], Optional[int]]:
        if isinstance(names, str):
            keys = self.column(names)
            if parse in BULK and (values := BULK[parse](keys)) is not None:
                return values, None
            distinct = ((raw, raw) for raw in set(keys))
        else:
            code = encode(self.column(names[0]))[1]
            for ids, column_code in map(encode, map(self.column, names[1:])):
                _, first, code = np.unique(
                    code * len(ids) + column_code, return_index=True, return_inverse=True
                )
            keys = code.tolist()
            distinct = ((k, self.cell(names, i)) for k, i in enumerate(first.tolist()))
        value, bad = {}, set()
        for key, raw in distinct:
            try:
                value[key] = parse(self.path, 0, names, raw)
            except PolyadmitError:
                bad.add(key)
        if bad:
            return None, next(i for i, key in enumerate(keys) if key in bad)
        return list(map(value.__getitem__, keys)), None

    def repeats(self, what: str, values: Sequence[object]) -> list[str]:
        if len(set(values)) == len(values):
            return []
        first_line: dict[object, int] = {}
        return [
            f"DuplicateId: {self.path} row {line}: {what} {value!r} repeats row {first}"
            for line, value in zip(self.lines, values)
            if (first := first_line.setdefault(value, line)) != line
        ]


def read_table(directory: Path, name: str) -> Table:
    path = directory / name
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            for column in REQUIRED_COLUMNS[name]:
                if column not in header:
                    raise ParseError(f"{path}: missing required header {column!r}")
            rows = filter(None, reader)
            columns: list[list[str]] = [[] for _ in header]
            while chunk := list(itertools.islice(rows, 4096)):
                if any(len(row) != len(header) for row in chunk):
                    _raise_width_error(path, header)
                for column, values in zip(columns, zip(*chunk)):
                    column.extend(values)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return Table(path, header, columns)


def _raise_width_error(path: Path, header: list[str]) -> NoReturn:
    """Raise the error of the first row whose cell count is not the
    header's, reading the whole file first so that an encoding error
    anywhere in it still comes first."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        rows = [(row, reader.line_num) for row in reader if row]
    for row, line in rows:
        if len(row) > len(header):
            raise ParseError(f"{path} row {line}: more cells than header columns")
        if len(row) < len(header):
            raise ParseError(f"{path} row {line}: no cell for column {header[len(row)]!r}")
    raise ParseError(f"{path}: changed while it was read")


def floats(cells: list[str], grades: bool = False) -> Optional[list]:
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


BULK = {_parse_float: floats, _grade: functools.partial(floats, grades=True)}


def load_panel(directory: str | Path) -> Panel:
    directory = Path(directory)
    duplicates: list[str] = []

    table = read_table(directory, APPLICANTS_CSV)
    grade_columns = list(dict.fromkeys(c for c in table.header if c.startswith(GRADE_PREFIX)))
    *grades, applicant_ids, cohort_years = table.parse(
        *((_grade, c) for c in grade_columns),
        (_applicant_id, "applicant_id"),
        (_parse_int, "cohort_year"),
    )
    duplicates += table.repeats("applicant_id", applicant_ids)
    subjects = [c[len(GRADE_PREFIX):] for c in grade_columns]
    applicants = {
        a: Applicant(a, {s: g for s, g in zip(subjects, row) if g is not None}, year)
        for a, year, *row in zip(applicant_ids, cohort_years, *grades)
    }

    table = read_table(directory, PROGRAMS_CSV)
    keys, fields, quotas = table.parse(
        (_program_key, PROGRAM_NAMES), (_field_label, "field"), (_parse_int, "quota")
    )
    duplicates += table.repeats("program", keys)
    programs = [
        Program(key, polytechnic.strip(), program.strip(), field_label, quota)
        for key, polytechnic, program, field_label, quota in zip(
            keys, *map(table.column, PROGRAM_NAMES), fields, quotas
        )
    ]

    table = read_table(directory, APPLICATIONS_CSV)
    columns = table.parse(
        (_applicant_id, "applicant_id"), (_program_key, PROGRAM_NAMES),
        (_parse_int, "year"), (_parse_int, "listed_rank"), (_parse_bool, "exam_taken"),
        (_parse_float, "exam_score"), (_parse_float, "other_points"),
    )

    table = read_table(directory, FIELD_WEIGHTS_CSV)
    fields, weights = table.parse((_field_label, "field"), (_parse_float, "weight"))
    pairs = list(zip(fields, table.column("subject")))
    duplicates += table.repeats("(field, subject)", pairs)
    field_weights: dict[str, dict[str, float]] = {}
    for (field_label, subject), weight in zip(pairs, weights):
        field_weights.setdefault(field_label, {})[subject] = weight

    table = read_table(directory, BONUS_POINTS_CSV)
    labels, bonuses = table.parse((_field_label, "field"), (_parse_float, "bonus"))
    duplicates += table.repeats("field", labels)
    bonus_points = dict(zip(labels, bonuses))

    observed_ids, seats = [], []
    if (directory / OBSERVED_ASSIGNMENT_CSV).exists():
        table = read_table(directory, OBSERVED_ASSIGNMENT_CSV)
        observed_ids, seats = table.parse(
            (_applicant_id, "applicant_id"), (_observed_seat, PROGRAM_NAMES + ("accepted",))
        )
        duplicates += table.repeats("applicant_id", observed_ids)
    if duplicates:
        raise ValidationError(duplicates)

    # The panel's ids and keys, then those the files name but it lacks.
    seat_of = {a: key for a, (key, _) in zip(observed_ids, seats) if key}
    ids, program_fields = tuple(sorted(applicants)), program_columns(programs)
    applicant_ids, program_keys = coding(
        SimpleNamespace(applicant_ids=ids, program_keys=program_fields["program_keys"]),
        [*columns[0], *seat_of], [*columns[1], *seat_of.values()],
    )
    applications = block_from_columns(
        *columns, over=SimpleNamespace(applicant_ids=applicant_ids, program_keys=program_keys)
    )
    observed, observed_order = None, None
    if (directory / OBSERVED_ASSIGNMENT_CSV).exists():
        accepted = {a: bool(flag) for a, (_, flag) in zip(observed_ids, seats) if flag >= 0}
        observed = assignment_of(seat_of, accepted, over=applications)
        code = {a: i for i, a in enumerate(applicant_ids)}
        observed_order = np.array([code[a] for a in observed_ids if a in code], dtype=np.intp)

    base_year = int(applications.year.min()) if len(applications) else min(
        (a.cohort_year for a in applicants.values()), default=0
    )
    row = {a: i for i, a in enumerate(ids)}
    grades = [[applicants[a].matriculation_grades.get(s, np.nan) for s in subjects] for a in ids]
    panel = Panel(
        ids,
        np.array([applicants[a].cohort_year for a in ids], dtype=np.int64),
        tuple(subjects),
        np.array(grades, dtype=float).reshape(len(ids), len(subjects)),
        *program_fields.values(), applications, base_year, field_weights,
        bonus_points, observed,
    )
    return validate_panel(
        panel,
        applicant_order=np.array([row[a] for a in applicants], dtype=int),
        observed_order=observed_order,
    )
