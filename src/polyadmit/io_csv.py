"""CSV ingestion and serialization for panels and assignments.

All files are UTF-8, comma-delimited, with a mandatory header row; floats
are written with six decimal digits so outputs diff cleanly. Every file is
read by ``_read``, one chunk of rows at a time.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import defaultdict
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import EmptyName, ParseError, PolyadmitError, ValidationError
from .model import (
    ApplicationBlock,
    Assignment,
    Panel,
    canonical_program_key,
    same_coding,
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


def fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"  # None: undefined, an empty cell


# Rows read at a time. Each chunk goes straight into its columns' final
# form, so no column of a whole file is held as text. CPython's
# generational collector runs when the container objects allocated since
# its last run, less those freed, pass its generation-0 threshold (700 by
# default, ``gc.get_threshold()``). A chunk allocates one list per row
# and its transpose one iterator per row, while the previous chunk's
# lists are freed, so a chunk below the threshold never sets it off; at
# 1 024 rows it ran about once a chunk, walking and promoting the live
# row lists.
CHUNK_ROWS = 512


def _rows(path: Path) -> Iterator[tuple[list[str], int]]:
    """Each row and the file line it ends on, one at a time; only errors
    need them, so the file is read again for them."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        yield from ((row, reader.line_num) for row in reader if row)


def _repeats(path: Path, what: str, values: Sequence) -> list[str]:
    """A ``DuplicateId`` line for each row whose value an earlier row has."""
    if len(set(values)) == len(values):
        return []
    lines, first_row = [line for _, line in _rows(path)], {}
    return [
        f"DuplicateId: {path} row {lines[row]}: {what} {value!r} repeats row {lines[first]}"
        for row, value in enumerate(values)
        if (first := first_row.setdefault(value, row)) != row
    ]


# The type of a reader's codes, which number a column's distinct texts:
# only a file of more than 2**31 rows could hold too many for it.
CODE = np.int32


class _Coded:
    """One check's cells coded by first-seen text (a tuple of texts for a
    tuple of columns): row ``i`` holds ``texts[codes[i]]``, parsed as
    ``values[codes[i]]``. The parser runs once per distinct text, after
    the whole file has been read, and ``failed`` is set if one fails.
    ``known`` maps texts the parser returns unchanged to their codes, its
    positions in order; they are coded first and never parsed."""

    def __init__(self, parse, names, at: dict[str, int], known: dict[str, int] = {}) -> None:
        self.parse, self.names, self.failed = parse, names, False
        self.pick = itemgetter(*map(at.__getitem__, [names] if isinstance(names, str) else names))
        self.known = len(known)
        # each text's code; a text first seen numbers on from the last
        self.code = defaultdict(itertools.count(len(known)).__next__, known)
        self.chunks = [np.empty(0, dtype=CODE)]

    def add(self, cells: list[tuple]) -> None:
        texts = self.pick(cells) if isinstance(self.names, str) else zip(*self.pick(cells))
        self.chunks.append(np.fromiter(map(self.code.__getitem__, texts), CODE, len(cells[0])))

    def finish(self, path: Path) -> None:
        self.texts, self.codes = list(self.code), np.concatenate(self.chunks)
        del self.code, self.chunks
        try:
            parsed = [self.parse(path, 0, self.names, text) for text in self.texts[self.known:]]
        except PolyadmitError:
            self.failed = True
        else:
            self.values = self.texts[:self.known] + parsed

    def rows(self) -> list:
        return list(map(self.values.__getitem__, self.codes.tolist()))

    def column(self, dtype) -> np.ndarray:
        return np.array(self.values, dtype=dtype)[self.codes]

    def coded(self, code: dict) -> np.ndarray:
        """Each row's ``code`` of its value, -1 for a value ``code`` lacks.
        ``code`` gives each known text its own position."""
        extra = [code.get(value, -1) for value in self.values[self.known:]]
        return np.array([*range(self.known), *extra], dtype=np.intp)[self.codes]


class _Floats:
    """One check's cells as finite floats, read a chunk at a time until
    one fails (``failed``); an empty cell converts as its ``missing``
    text, from ``FLOAT_MISSING``, and only a non-empty text can be a
    non-finite one."""

    def __init__(self, parse, name: str, at: dict[str, int]) -> None:
        self.parse, self.names, self.failed = parse, name, False
        self.pick, self.missing = itemgetter(at[name]), FLOAT_MISSING[parse]
        self.chunks = [np.empty(0)]

    def add(self, cells: list[tuple]) -> None:
        if not self.failed:
            texts = self.pick(cells)
            filled = [text or self.missing for text in texts] if "" in texts else texts
            try:
                values = np.fromiter(map(float, filled), float, len(texts))
            except ValueError:
                self.failed = True
            else:
                self.failed = any(texts[i] for i in np.flatnonzero(~np.isfinite(values)).tolist())
                self.chunks.append(values)

    def finish(self, path: Path) -> None:
        self.values = np.concatenate(self.chunks)
        del self.chunks

    def column(self, dtype) -> np.ndarray:
        return self.values.astype(dtype, copy=False)


def _read(directory: Path, name: str, checks) -> list:
    """Read a UTF-8 CSV file whose header names every required column,
    one chunk of rows at a time, into a ``_Floats`` or ``_Coded`` column
    per check of ``checks(header)``: a per-cell parser and a column name,
    or a tuple of them, then for a coded check the codes of the texts it
    knows, if any (see ``_Coded``). A repeated name reads its last column.

    Errors come in this order: a missing header; invalid UTF-8 anywhere
    in the file; the first row whose width is not the header's; and the
    first bad cell by row, then by check, raised by its own parser. The
    readers only convert and note that they failed; only a file that
    failed is read again, in one walk over its rows that finds the first
    bad width or, if none was seen, parses only the failed checks' cells.
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
            at = {column: j for j, column in enumerate(header)}
            columns = [
                (_Floats if parse in FLOAT_MISSING else _Coded)(parse, names, at, *known)
                for parse, names, *known in checks(header)
            ]
            rows, wrong = filter(None, reader), False  # blank lines skipped
            # A chunk's row lists are freed as the next chunk replaces them,
            # which the collector counts as no net allocation (see CHUNK_ROWS).
            while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
                wrong = wrong or {*map(len, chunk)} != {len(header)}  # read on, for UTF-8
                if not wrong:
                    cells = list(zip(*chunk))
                    for column in columns:
                        column.add(cells)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    for column in columns:
        column.finish(path)
    failed = [] if wrong else [column for column in columns if column.failed]
    for row, line in _rows(path) if wrong or failed else ():
        if len(row) > len(header):
            raise ParseError(f"{path} row {line}: more cells than header columns")
        if len(row) < len(header):
            raise ParseError(f"{path} row {line}: no cell for column {header[len(row)]!r}")
        for column in failed:
            column.parse(path, line, column.names, column.pick(row))
    if wrong or failed:
        raise ParseError(f"{path}: changed while it was read")
    return columns


# Per-cell parsers: parse(path, file line, column, cell), or for a tuple
# of columns parse(path, file line, columns, tuple of cells).


def _text(path: Path, row_number: int, column: str, raw: str) -> str:
    return raw


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
    """The canonical key of a (polytechnic, program) name pair; an empty
    name raises as an empty field label does, naming its column."""
    for column, name in zip(columns, names):
        _field_label(path, row_number, column, name)
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


# The float checks, which ``_Floats`` reads, and the text their empty
# cell converts as: a grade's is NaN, the missing mark; any other fails.
FLOAT_MISSING = {_parse_float: "", _grade: math.nan}


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
    key = _program_key(path, row_number, columns, (polytechnic, program))
    return key, (int(_parse_bool(path, row_number, columns[2], accepted)) if accepted else -1)


PROGRAM_NAMES = ("polytechnic_name", "program_name")


def _extend(own: tuple, code: dict, named: Iterable) -> tuple:
    """``own`` then, sorted, the ``named`` values it lacks, which ``code``,
    each of ``own``'s position, gains the positions of."""
    extra = sorted(set(named).difference(code))
    code.update(zip(extra, itertools.count(len(own))))
    return own + tuple(extra) if extra else own


def load_panel(directory: str | Path) -> Panel:
    """Load, canonicalize, and validate a panel from its CSV directory.

    Each file is read a chunk of rows at a time; a bad cell raises the
    error of the first bad cell in reading order, naming its file, file
    line and column. A row that repeats an earlier row's id in the same
    file is rejected; all such rows are listed in one ``ValidationError``.
    The panel is validated once ``_load`` has returned, so none of the
    files' readers is alive while ``validate_panel`` allocates.
    """
    return validate_panel(*_load(Path(directory)))


def _load(directory: Path) -> tuple[Panel, np.ndarray, Optional[np.ndarray]]:
    """The panel of ``directory``, not yet validated, with the file orders
    ``validate_panel`` lists applicants and observed seats in. A file's
    readers are dropped once its final columns exist; the applications'
    id and key readers once the block is coded, which needs the observed
    file's seats."""
    duplicates: list[str] = []

    *grade_columns, ids, cohorts = _read(directory, APPLICANTS_CSV, lambda header: (
        *((_grade, c) for c in dict.fromkeys(header) if c.startswith(GRADE_PREFIX)),
        (_applicant_id, "applicant_id"),
        (_parse_int, "cohort_year"),
    ))
    duplicates += _repeats(directory / APPLICANTS_CSV, "applicant_id", ids.rows())
    applicant_ids = tuple(sorted(ids.values))  # one value per distinct cell, so distinct
    applicant_code = dict(zip(applicant_ids, itertools.count()))
    row = ids.coded(applicant_code)  # each file row's, by id
    order = np.argsort(row)  # the file's rows in id order, read only when no id repeats
    cohort_year = cohorts.column(np.int64)[order]
    grades = np.reshape([c.values for c in grade_columns], (len(grade_columns), len(row))).T[order]
    subjects = tuple(c.names[len(GRADE_PREFIX):] for c in grade_columns)
    del grade_columns, ids, cohorts, order

    keys, fields, quotas = _read(directory, PROGRAMS_CSV, lambda header: (
        (_program_key, PROGRAM_NAMES), (_field_label, "field"), (_parse_int, "quota")
    ))
    program_keys = tuple(keys.rows())
    duplicates += _repeats(directory / PROGRAMS_CSV, "program", program_keys)
    names = map(keys.texts.__getitem__, keys.codes.tolist())
    programs = (  # in the file's row order
        program_keys,
        tuple((polytechnic.strip(), program.strip()) for polytechnic, program in names),
        tuple(fields.rows()),
        quotas.column(np.int64),
    )

    listed_ids, listed_keys, *readers = _read(directory, APPLICATIONS_CSV, lambda header: (
        (_applicant_id, "applicant_id", applicant_code), (_program_key, PROGRAM_NAMES),
        (_parse_int, "year"), (_parse_int, "listed_rank"), (_parse_bool, "exam_taken"),
        (_parse_float, "exam_score"), (_parse_float, "other_points"),
    ))
    columns = [r.column(t) for r, t in zip(readers, (np.int64, np.int64, bool, float, float))]
    del readers

    fields, subjects_listed, weights = _read(directory, FIELD_WEIGHTS_CSV, lambda header: (
        (_field_label, "field"), (_text, "subject"), (_parse_float, "weight")
    ))
    pairs = list(zip(fields.rows(), subjects_listed.rows()))
    duplicates += _repeats(directory / FIELD_WEIGHTS_CSV, "(field, subject)", pairs)
    field_weights: dict[str, dict[str, float]] = {}
    for (field_label, subject), weight in zip(pairs, weights.values.tolist()):
        field_weights.setdefault(field_label, {})[subject] = weight

    labels, bonuses = _read(directory, BONUS_POINTS_CSV, lambda header: (
        (_field_label, "field"), (_parse_float, "bonus")
    ))
    duplicates += _repeats(directory / BONUS_POINTS_CSV, "field", labels.rows())
    bonus_points = dict(zip(labels.rows(), bonuses.values.tolist()))

    ids = seats = None
    if (path := directory / OBSERVED_ASSIGNMENT_CSV).exists():
        ids, seats = _read(directory, OBSERVED_ASSIGNMENT_CSV, lambda header: (
            (_applicant_id, "applicant_id", applicant_code),
            (_observed_seat, PROGRAM_NAMES + ("accepted",)),
        ))
        duplicates += _repeats(path, "applicant_id", ids.rows())
    if duplicates:
        raise ValidationError(duplicates)

    # Ids and keys are coded by their position in the panel; those the files
    # name but the panel lacks come after them, sorted, for validate_panel.
    named_ids, named_keys = listed_ids.values[len(applicant_ids):], listed_keys.values
    if seats is not None:
        seat_keys = [key for key, _ in seats.values]  # "" marks no seat
        named_keys = [*named_keys, *filter(None, seat_keys)]
        seated = ids.codes[np.array(list(map(bool, seat_keys)), dtype=bool)[seats.codes]]
        named_ids += map(ids.values.__getitem__, seated[seated >= len(applicant_ids)].tolist())
    program_code = dict(zip(program_keys, itertools.count()))
    block_ids = _extend(applicant_ids, applicant_code, named_ids)
    block_keys = _extend(program_keys, program_code, named_keys)
    applications = ApplicationBlock(
        block_ids, block_keys, listed_ids.coded(applicant_code), listed_keys.coded(program_code),
        *columns,
    )
    del listed_ids, listed_keys
    observed = observed_order = None
    if seats is not None:  # an id the panel lacks, without a seat, says nothing
        applicant = ids.coded(applicant_code)
        kept = applicant >= 0
        observed_order, rows = applicant[kept], seats.codes[kept]
        seat = np.full(len(block_ids), -1)
        accept = np.full(len(block_ids), -1, dtype=np.int8)
        seat_code = [program_code.get(key, -1) for key in seat_keys]
        seat[observed_order] = np.array(seat_code, dtype=np.intp)[rows]
        accept[observed_order] = np.array([flag for _, flag in seats.values], dtype=np.int8)[rows]
        del ids, seats, rows
        observed = Assignment(block_ids, block_keys, seat, accept)

    years = applications.year if len(applications) else cohort_year
    base_year = int(years.min()) if len(years) else 0
    panel = Panel(
        applicant_ids, cohort_year, subjects, grades, *programs, applications, base_year,
        field_weights, bonus_points, observed,
    )
    return panel, row, observed_order


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_panel(panel: Panel, directory: str | Path) -> None:
    """Write a panel back to the same CSV schemas ``load_panel`` reads."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    graded = np.flatnonzero(~np.isnan(panel.grades).all(axis=0)).tolist()
    graded.sort(key=panel.subjects.__getitem__)
    _write_csv(
        directory / APPLICANTS_CSV,
        REQUIRED_COLUMNS[APPLICANTS_CSV] + tuple(GRADE_PREFIX + panel.subjects[j] for j in graded),
        (
            [a, str(year)] + ["" if math.isnan(g) else fmt(g) for g in grades]
            for a, year, grades in zip(
                panel.applicant_ids, panel.cohort_year.tolist(), panel.grades[:, graded].tolist()
            )
        ),
    )
    quota = panel.quota.tolist()
    _write_csv(
        directory / PROGRAMS_CSV,
        REQUIRED_COLUMNS[PROGRAMS_CSV],
        (
            [*panel.program_names[i], panel.program_field[i], str(quota[i])]
            for i in sorted(range(len(quota)), key=panel.program_keys.__getitem__)
        ),
    )
    apps = panel.applications
    names = dict(zip(panel.program_keys, panel.program_names))
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
            universe=panel.base_applications.listed_applicants(),
        )


def write_assignment_csv(
    path: str | Path,
    panel: Panel,
    assignment: Assignment,
    universe: np.ndarray,
) -> None:
    """One row per applicant code of ``universe``, in the order given
    (ascending, so by id, as every caller passes them); program columns
    empty for the unassigned, accepted flag empty when unknown."""
    same_coding(panel, assignment)
    seat = assignment.seat[universe]
    names = np.array([*panel.program_names, ("", "")], dtype=object)  # -1 last
    flag = np.array(["false", "true", ""])[np.where(seat >= 0, assignment.accept[universe], -1)]
    ids = list(map(panel.applicant_ids.__getitem__, universe.tolist()))
    columns = [ids, *names[seat].T.tolist(), flag.tolist()]
    _write_csv(Path(path), REQUIRED_COLUMNS[OBSERVED_ASSIGNMENT_CSV], zip(*columns))
