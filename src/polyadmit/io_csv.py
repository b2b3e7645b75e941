"""CSV ingestion and serialization for panels and assignments.

All files are UTF-8, comma-delimited, with a mandatory header row; floats
are written with six decimal digits so outputs diff cleanly. Every file is
read by one column pass, ``_Table.parse``.
"""

from __future__ import annotations

import csv
import functools
import itertools
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
    recode,
    validate_panel,
)

APPLICANTS_CSV = "applicants.csv"
PROGRAMS_CSV = "programs.csv"
APPLICATIONS_CSV = "applications.csv"
OBSERVED_ASSIGNMENT_CSV = "observed_assignment.csv"
FIELD_WEIGHTS_CSV = "field_weights.csv"
BONUS_POINTS_CSV = "bonus_points.csv"

# The columns each file must have, in the order they are written.
REQUIRED_COLUMNS = {
    APPLICANTS_CSV: ("applicant_id", "cohort_year"),
    PROGRAMS_CSV: ("polytechnic_name", "program_name", "field", "quota"),
    APPLICATIONS_CSV: (
        "year", "applicant_id", "polytechnic_name", "program_name",
        "listed_rank", "exam_taken", "exam_score", "other_points",
    ),
    OBSERVED_ASSIGNMENT_CSV: ("applicant_id", "polytechnic_name", "program_name", "accepted"),
    FIELD_WEIGHTS_CSV: ("field", "subject", "weight"),
    BONUS_POINTS_CSV: ("field", "bonus"),
}

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

    def cell(self, names, row: int):
        """The cell of column ``names`` in ``row``; for a tuple of column
        names, the tuple of their cells."""
        if isinstance(names, str):
            return self.column(names)[row]
        return tuple(self.column(n)[row] for n in names)

    def parse(self, *checks) -> list[list]:
        """Each check's cells parsed, a check being a per-cell parser and
        a column name or a tuple of them.

        A parser runs once per distinct value; float and grade columns are
        read in bulk. If a cell fails, the first bad cell in reading order
        (by row, then by check) is parsed again with its file line, so it
        raises its own error.
        """
        parsed = [self._parse(*check) for check in checks]
        bad = [(row, k) for k, (_, row) in enumerate(parsed) if row is not None]
        if bad:
            row, k = min(bad)
            parse, names = checks[k]
            parse(self.path, self.lines[row], names, self.cell(names, row))
            raise AssertionError(f"{self.path}: a value failed but its cell did not")
        return [values for values, _ in parsed]

    def _parse(self, parse, names) -> tuple[Optional[list], Optional[int]]:
        """One check's parsed cells, or None and the first bad row."""
        if isinstance(names, str):
            keys = self.column(names)
            if parse in _BULK and (values := _BULK[parse](keys)) is not None:
                return values, None
            distinct = ((raw, raw) for raw in set(keys))
        else:  # tuples coded by their cells' codes, each read from its first row
            code = encode(self.column(names[0]))[1]
            for ids, column_code in map(encode, map(self.column, names[1:])):
                # recoded at each step, so no code outgrows the row count
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
        """A ``DuplicateId`` line for each row that repeats an earlier
        row's value."""
        if len(set(values)) == len(values):
            return []
        first_line: dict[object, int] = {}
        return [
            f"DuplicateId: {self.path} row {line}: {what} {value!r} repeats row {first}"
            for line, value in zip(self.lines, values)
            if (first := first_line.setdefault(value, line)) != line
        ]


# Rows read and transposed at a time; a smaller chunk costs more calls,
# a larger one holds more row lists at once.
CHUNK_ROWS = 4096


def _read_table(directory: Path, name: str) -> _Table:
    """Read a UTF-8 CSV file whose header names every required column.

    Cells with equal text share one ``str`` object within the file.
    """
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
            rows = filter(None, reader)  # blank lines skipped
            columns: list[list[str]] = [[] for _ in header]
            cells: dict[str, str] = {}
            while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
                if any(len(row) != len(header) for row in chunk):
                    _raise_width_error(path, header)
                for column, values in zip(columns, zip(*chunk)):
                    column.extend(map(cells.setdefault, values, values))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return _Table(path, header, columns)


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


# Per-cell parsers: parse(path, file line, column, cell), or for a tuple
# of columns parse(path, file line, columns, tuple of cells).


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


def _program_key(path: Path, row_number: int, columns, names: tuple[str, str]) -> str:
    return canonical_program_key(*names)


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


def _observed_seat(path: Path, row_number: int, columns, cells) -> tuple[str, int]:
    """An observed seat's program key and its accept flag: 1 accepted, 0
    declined, -1 unknown (an empty cell). An unassigned row, both names
    empty, reads as ("", -1)."""
    polytechnic, program, accepted = cells
    if not (polytechnic or program):
        return "", -1
    key = canonical_program_key(polytechnic, program)
    return key, (int(_parse_bool(path, row_number, columns[2], accepted)) if accepted else -1)


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


# Parsers whose columns are first read in bulk, with the same result.
_BULK = {_parse_float: _floats, _grade: functools.partial(_floats, grades=True)}


PROGRAM_NAMES = ("polytechnic_name", "program_name")


def load_panel(directory: str | Path) -> Panel:
    """Load, canonicalize, and validate a panel from its CSV directory.

    Each file is parsed a column at a time; a bad cell raises the error
    of the first bad cell in reading order, naming its file, file line
    and column. A row that repeats an earlier row's id in the same file
    is rejected; all such rows are listed in one ``ValidationError``.
    """
    directory = Path(directory)
    duplicates: list[str] = []

    table = _read_table(directory, APPLICANTS_CSV)
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

    table = _read_table(directory, PROGRAMS_CSV)
    keys, fields, quotas = table.parse(
        (_program_key, PROGRAM_NAMES), (_field_label, "field"), (_parse_int, "quota")
    )
    duplicates += table.repeats("program", keys)
    programs = {
        key: Program(key, polytechnic.strip(), program.strip(), field_label, quota)
        for key, polytechnic, program, field_label, quota in zip(
            keys, *map(table.column, PROGRAM_NAMES), fields, quotas
        )
    }

    table = _read_table(directory, APPLICATIONS_CSV)
    applications = ApplicationBlock.from_columns(
        *table.parse(
            (_applicant_id, "applicant_id"), (_program_key, PROGRAM_NAMES),
            (_parse_int, "year"), (_parse_int, "listed_rank"), (_parse_bool, "exam_taken"),
            (_parse_float, "exam_score"), (_parse_float, "other_points"),
        )
    )

    table = _read_table(directory, FIELD_WEIGHTS_CSV)
    fields, weights = table.parse((_field_label, "field"), (_parse_float, "weight"))
    pairs = list(zip(fields, table.column("subject")))
    duplicates += table.repeats("(field, subject)", pairs)
    field_weights: dict[str, dict[str, float]] = {}
    for (field_label, subject), weight in zip(pairs, weights):
        field_weights.setdefault(field_label, {})[subject] = weight

    table = _read_table(directory, BONUS_POINTS_CSV)
    labels, bonuses = table.parse((_field_label, "field"), (_parse_float, "bonus"))
    duplicates += table.repeats("field", labels)
    bonus_points = dict(zip(labels, bonuses))

    observed: Optional[Assignment] = None
    if (directory / OBSERVED_ASSIGNMENT_CSV).exists():
        table = _read_table(directory, OBSERVED_ASSIGNMENT_CSV)
        ids, seats = table.parse(
            (_applicant_id, "applicant_id"), (_observed_seat, PROGRAM_NAMES + ("accepted",))
        )
        duplicates += table.repeats("applicant_id", ids)
        keys, flags = zip(*seats) if seats else ((), ())
        program_keys = tuple(sorted(set(keys) - {""}))  # "" marks no seat, and reads as -1
        # the block's ids when equal, as save_panel writes them: one copy, and no recoding
        ids = applications.applicant_ids if tuple(ids) == applications.applicant_ids else tuple(ids)
        observed = Assignment(
            ids, program_keys, recode(keys, program_keys), np.array(flags, dtype=np.int8)
        )
    if duplicates:
        raise ValidationError(duplicates)

    base_year = int(applications.year.min()) if len(applications) else min(
        (a.cohort_year for a in applicants.values()), default=0
    )
    return validate_panel(
        Panel(applicants, programs, applications, base_year, field_weights, bonus_points, observed)
    )


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
        REQUIRED_COLUMNS[APPLICANTS_CSV] + tuple(GRADE_PREFIX + s for s in subjects),
        (
            [a.applicant_id, str(a.cohort_year)]
            + [fmt(g) if (g := a.matriculation_grades.get(s)) is not None else "" for s in subjects]
            for a in (panel.applicants[k] for k in sorted(panel.applicants))
        ),
    )
    _write_csv(
        directory / PROGRAMS_CSV,
        REQUIRED_COLUMNS[PROGRAMS_CSV],
        (
            [p.polytechnic_name, p.program_name, p.field, str(p.quota)]
            for p in (panel.programs[k] for k in sorted(panel.programs))
        ),
    )
    apps = panel.applications
    names = {key: (p.polytechnic_name, p.program_name) for key, p in panel.programs.items()}
    order = np.lexsort((apps.listed_rank, apps.applicant, apps.year))  # codes sort as ids do
    _write_csv(
        directory / APPLICATIONS_CSV,
        REQUIRED_COLUMNS[APPLICATIONS_CSV],
        (
            [str(year), a, *names[p], str(rank), str(taken).lower(), fmt(score), fmt(other)]
            for a, p, year, rank, taken, score, other in zip(*apps.take(order).python_columns())
        ),
    )
    _write_csv(
        directory / FIELD_WEIGHTS_CSV,
        REQUIRED_COLUMNS[FIELD_WEIGHTS_CSV],
        (
            [field_label, subject, fmt(weight)]
            for field_label in sorted(panel.field_weights)
            for subject, weight in sorted(panel.field_weights[field_label].items())
        ),
    )
    _write_csv(
        directory / BONUS_POINTS_CSV,
        REQUIRED_COLUMNS[BONUS_POINTS_CSV],
        ([field_label, fmt(bonus)] for field_label, bonus in sorted(panel.bonus_points.items())),
    )
    if panel.observed_assignment is not None:
        write_assignment_csv(
            directory / OBSERVED_ASSIGNMENT_CSV,
            panel,
            panel.observed_assignment,
            universe=panel.base_applications.distinct_applicants(),
        )


def write_assignment_csv(
    path: str | Path,
    panel: Panel,
    assignment: Assignment,
    universe: Sequence[str],
) -> None:
    """One row per applicant of ``universe``, in the order given (sorted
    ids, as every caller passes them); program columns empty for the
    unassigned, accepted flag empty when unknown."""

    held = assignment.recoded(universe)
    programs = (panel.programs[p] for p in assignment.program_keys)
    names = [(p.polytechnic_name, p.program_name) for p in programs] + [("", "")]  # -1 last
    flag = np.array(["false", "true", ""])[np.where(held.seat >= 0, held.accept, -1)]
    columns = np.array(names, dtype=object)[held.seat].T.tolist() + [flag.tolist()]
    _write_csv(Path(path), REQUIRED_COLUMNS[OBSERVED_ASSIGNMENT_CSV], zip(universe, *columns))
