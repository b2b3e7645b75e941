"""CSV ingestion and serialization for panels and assignments.

All files are UTF-8, comma-delimited, with a mandatory header row; floats
are written with six decimal digits so outputs diff cleanly.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import EmptyName, ParseError, ValidationError
from .model import (
    Applicant,
    Application,
    Assignment,
    Panel,
    Program,
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


def _read_rows(path: Path, required: Sequence[str]) -> list[dict[str, str]]:
    """The data rows of a CSV file; each must have one cell per header
    column, and the file must be UTF-8."""
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            for column in required:
                if column not in header:
                    raise ParseError(f"{path}: missing required header {column!r}")
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    for i, row in enumerate(rows, start=2):
        if None in row:
            raise ParseError(f"{path} row {i}: more cells than header columns")
        if None in row.values():
            missing = next(column for column in header if row[column] is None)
            raise ParseError(f"{path} row {i}: no cell for column {missing!r}")
    return rows


def _applicant_id(path: Path, row_number: int, raw: str) -> str:
    if not raw.strip():
        raise EmptyName(f"{path} row {row_number}: empty applicant_id")
    return raw


def _parse_float(path: Path, row_number: int, column: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"{path} row {row_number}: bad value for {column!r}: {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path} row {row_number}: non-finite value for {column!r}: {raw!r}")
    return value


def _parse_int(path: Path, row_number: int, column: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{path} row {row_number}: bad value for {column!r}: {raw!r}") from None


def _parse_bool(path: Path, row_number: int, column: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no", ""):
        return False
    raise ParseError(f"{path} row {row_number}: bad boolean for {column!r}: {raw!r}")


def load_panel(directory: str | Path) -> Panel:
    """Load, canonicalize, and validate a panel from its CSV directory.

    A row that repeats an earlier row's id in the same file is rejected;
    all such rows are listed in one ``ValidationError``.
    """
    directory = Path(directory)
    duplicates: list[str] = []
    first_row: dict[tuple[Path, object], int] = {}

    def unique(path: Path, row_number: int, what: str, value: object) -> None:
        first = first_row.setdefault((path, value), row_number)
        if first != row_number:
            duplicates.append(
                f"DuplicateId: {path} row {row_number}: {what} {value!r} repeats row {first}"
            )

    applicants: dict[str, Applicant] = {}
    path = directory / APPLICANTS_CSV
    for i, row in enumerate(_read_rows(path, ["applicant_id", "cohort_year"]), start=2):
        grades = {
            column[len(GRADE_PREFIX):]: _parse_float(path, i, column, raw)
            for column, raw in row.items()
            if column.startswith(GRADE_PREFIX) and raw not in (None, "")
        }
        applicant = Applicant(
            applicant_id=_applicant_id(path, i, row["applicant_id"]),
            matriculation_grades=grades,
            cohort_year=_parse_int(path, i, "cohort_year", row["cohort_year"]),
        )
        unique(path, i, "applicant_id", applicant.applicant_id)
        applicants[applicant.applicant_id] = applicant

    programs: dict[str, Program] = {}
    path = directory / PROGRAMS_CSV
    for i, row in enumerate(
        _read_rows(path, ["polytechnic_name", "program_name", "field", "quota"]), start=2
    ):
        key = canonical_program_key(row["polytechnic_name"], row["program_name"])
        unique(path, i, "program", key)
        programs[key] = Program(
            program_key=key,
            polytechnic_name=row["polytechnic_name"].strip(),
            program_name=row["program_name"].strip(),
            field=row["field"],
            quota=_parse_int(path, i, "quota", row["quota"]),
        )

    applications: list[Application] = []
    path = directory / APPLICATIONS_CSV
    for i, row in enumerate(
        _read_rows(
            path,
            [
                "year", "applicant_id", "polytechnic_name", "program_name",
                "listed_rank", "exam_taken", "exam_score", "other_points",
            ],
        ),
        start=2,
    ):
        applications.append(
            Application(
                applicant_id=_applicant_id(path, i, row["applicant_id"]),
                program_key=canonical_program_key(
                    row["polytechnic_name"], row["program_name"]
                ),
                year=_parse_int(path, i, "year", row["year"]),
                listed_rank=_parse_int(path, i, "listed_rank", row["listed_rank"]),
                exam_taken=_parse_bool(path, i, "exam_taken", row["exam_taken"]),
                exam_score=_parse_float(path, i, "exam_score", row["exam_score"]),
                other_points=_parse_float(path, i, "other_points", row["other_points"]),
            )
        )

    field_weights: dict[str, dict[str, float]] = {}
    path = directory / FIELD_WEIGHTS_CSV
    for i, row in enumerate(_read_rows(path, ["field", "subject", "weight"]), start=2):
        unique(path, i, "(field, subject)", (row["field"], row["subject"]))
        field_weights.setdefault(row["field"], {})[row["subject"]] = _parse_float(
            path, i, "weight", row["weight"]
        )

    bonus_points: dict[str, float] = {}
    path = directory / BONUS_POINTS_CSV
    for i, row in enumerate(_read_rows(path, ["field", "bonus"]), start=2):
        unique(path, i, "field", row["field"])
        bonus_points[row["field"]] = _parse_float(path, i, "bonus", row["bonus"])

    observed: Optional[Assignment] = None
    path = directory / OBSERVED_ASSIGNMENT_CSV
    if path.exists():
        seat_of: dict[str, str] = {}
        accepted: dict[str, bool] = {}
        for i, row in enumerate(
            _read_rows(path, ["applicant_id", "polytechnic_name", "program_name", "accepted"]),
            start=2,
        ):
            applicant_id = _applicant_id(path, i, row["applicant_id"])
            unique(path, i, "applicant_id", applicant_id)
            if not row["polytechnic_name"] and not row["program_name"]:
                continue  # unassigned applicant row
            key = canonical_program_key(row["polytechnic_name"], row["program_name"])
            seat_of[applicant_id] = key
            accepted[applicant_id] = _parse_bool(path, i, "accepted", row["accepted"])
        observed = Assignment(seat_of=seat_of, accepted=accepted)
    if duplicates:
        raise ValidationError(duplicates)

    years = sorted({a.year for a in applications})
    base_year = years[0] if years else min(
        (a.cohort_year for a in applicants.values()), default=0
    )
    panel = Panel(
        applicants=applicants,
        programs=programs,
        applications=tuple(applications),
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

    def row(applicant_id: str) -> list[str]:
        program_key = assignment.seat_of.get(applicant_id)
        if program_key is None:
            return [applicant_id, "", "", ""]
        program = panel.programs[program_key]
        accepted = assignment.accepted.get(applicant_id)
        return [
            applicant_id,
            program.polytechnic_name,
            program.program_name,
            "" if accepted is None else ("true" if accepted else "false"),
        ]

    _write_csv(
        Path(path),
        ["applicant_id", "polytechnic_name", "program_name", "accepted"],
        (row(a) for a in sorted(universe)),
    )
