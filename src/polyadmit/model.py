"""Domain types for the admissions panel and the shared validation rules.

A panel covers exactly three consecutive application years: the base year
whose assignment is simulated, plus two later years that feed the
counterfactual application lists and the re-application outcome. An
``ApplicationBlock`` of columns is the only form applications take.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import EmptyName, ValidationError

MAX_LISTED_RANK = 4
PANEL_YEARS = 3


def canonical_program_key(polytechnic_name: str, program_name: str) -> str:
    """Deterministic key for a (polytechnic, program) name pair.

    Trims whitespace, Unicode-casefolds, and joins with "::" so the same
    pair always maps to the same key regardless of input formatting.
    """
    poly = polytechnic_name.strip().casefold()
    prog = program_name.strip().casefold()
    if not poly or not prog:
        raise EmptyName(f"empty name in program key: ({polytechnic_name!r}, {program_name!r})")
    return f"{poly}::{prog}"


def recode(ids: Sequence[str], into: Sequence[str]) -> np.ndarray:
    """Position in ``into`` of each of ``ids``, -1 where absent."""
    if ids is into or tuple(ids) == tuple(into):
        return np.arange(len(ids))
    index = {x: i for i, x in enumerate(into)}
    return np.array([index.get(x, -1) for x in ids], dtype=np.intp)


def positions(ids: Sequence[str], into: Sequence[str]) -> np.ndarray:
    """Position in ``into`` of each of ``ids``; KeyError for one not there."""
    at = recode(ids, into)
    if (at < 0).any():
        raise KeyError(ids[int(np.argmin(at))])
    return at


@dataclass(frozen=True, eq=False)
class Assignment:
    """Who holds which seat, as columns: applicant ``i`` of ``applicant_ids``
    holds seat ``seat[i]`` of ``program_keys`` (-1: none) with the observed
    accept flag ``accept[i]`` (1 accepted, 0 declined, -1 unknown)."""

    applicant_ids: tuple[str, ...]
    program_keys: tuple[str, ...]
    seat: np.ndarray
    accept: np.ndarray

    @functools.cached_property
    def holders(self) -> np.ndarray:
        """The codes of the seat holders, in order."""
        return np.flatnonzero(self.seat >= 0)

    @functools.cached_property
    def seat_of(self) -> Mapping[str, str]:
        """Applicant id -> program key of every holder, built on first read."""
        pairs = zip(self.holders.tolist(), self.seat[self.holders].tolist())
        return {self.applicant_ids[a]: self.program_keys[p] for a, p in pairs}

    def recoded(
        self, applicant_ids: Sequence[str], program_keys: Optional[Sequence[str]] = None
    ) -> "Assignment":
        """The assignment over other vocabularies (``program_keys`` this
        one's when None): an applicant outside it holds no seat and no
        flag, and a seat outside ``program_keys`` reads as none."""
        keys = self.program_keys if program_keys is None else tuple(program_keys)
        seat = np.append(recode(self.program_keys, keys), -1)[self.seat]
        row = recode(applicant_ids, self.applicant_ids)
        return Assignment(
            tuple(applicant_ids), keys, np.append(seat, -1)[row], np.append(self.accept, -1)[row]
        )


def encode(values: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct values, and each value's position among them."""
    ids = tuple(sorted(set(values)))
    code = {x: i for i, x in enumerate(ids)}
    return ids, np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=len(values))


@dataclass(frozen=True, eq=False)
class ApplicationBlock:
    """Applications as columns, row ``i`` being one application.

    ``applicant`` and ``program`` are codes into the sorted vocabularies
    ``applicant_ids`` and ``program_keys``; blocks cut from one another
    with ``take`` share them. Blocks compare by identity: a score table
    scores the very block it was computed from.
    """

    applicant_ids: tuple[str, ...] = field(repr=False)
    program_keys: tuple[str, ...] = field(repr=False)
    applicant: np.ndarray
    program: np.ndarray
    year: np.ndarray
    listed_rank: np.ndarray
    exam_taken: np.ndarray
    exam_score: np.ndarray
    other_points: np.ndarray

    def take(self, rows: np.ndarray, **columns: np.ndarray) -> "ApplicationBlock":
        """The block of ``rows``, with any column replaced by ``columns``."""
        return ApplicationBlock(
            self.applicant_ids,
            self.program_keys,
            **{
                f.name: columns.get(f.name, getattr(self, f.name)[rows])
                for f in dataclasses.fields(self)[2:]
            },
        )

    def distinct_applicants(self) -> list[str]:
        """The ids of the applicants with a row here, sorted."""
        listed = np.bincount(self.applicant, minlength=len(self.applicant_ids))
        return [self.applicant_ids[c] for c in np.flatnonzero(listed).tolist()]

    def holds_seat(self, assignment: "Assignment") -> np.ndarray:
        """Per row: the applicant's seat is this row's program."""
        seat = assignment.recoded(self.applicant_ids, self.program_keys).seat
        return seat[self.applicant] == self.program

    @functools.cached_property
    def lists(self) -> tuple:
        """The rows as the applicants' lists: the applicant ids and the
        program keys the block lists, each row's applicant and program
        coded by position among them, and the rows in list order, with
        applicant ``a``'s list at ``order[offsets[a]:offsets[a + 1]]``.
        Ties in listed rank keep row order."""
        listed_applicants, applicant = np.unique(self.applicant, return_inverse=True)
        listed_programs, program = np.unique(self.program, return_inverse=True)
        order = np.lexsort((self.listed_rank, applicant))
        return (
            tuple(self.applicant_ids[c] for c in listed_applicants.tolist()),
            tuple(self.program_keys[c] for c in listed_programs.tolist()),
            applicant,
            program,
            order,
            np.searchsorted(applicant[order], np.arange(len(listed_applicants) + 1)),
        )

    def python_columns(self) -> list[list]:
        """Each column as Python values, in field order, with ids and keys
        spelled out."""
        return [
            list(map(self.applicant_ids.__getitem__, self.applicant.tolist())),
            list(map(self.program_keys.__getitem__, self.program.tolist())),
        ] + [getattr(self, f.name).tolist() for f in dataclasses.fields(self)[4:]]

    @functools.cached_property
    def keys(self) -> tuple[tuple[str, str, int], ...]:
        """(applicant_id, program_key, year) of every row."""
        return tuple(zip(*self.python_columns()[:3]))

    def __len__(self) -> int:
        return len(self.applicant)


@dataclass(frozen=True, eq=False)
class Panel:
    """One three-year panel. Applicants are columns: the sorted
    ``applicant_ids``, each one's ``cohort_year``, and a ``grades`` matrix
    with one row per id and one column per ``subjects`` entry, NaN where a
    grade is missing. Programs are columns too, in the order given: each
    one's key, (polytechnic, program) names, field label and quota.
    ``applications`` holds the applications of all three years as one
    ``ApplicationBlock``."""

    applicant_ids: tuple[str, ...]
    cohort_year: np.ndarray
    subjects: tuple[str, ...]
    grades: np.ndarray
    program_keys: tuple[str, ...]
    program_names: tuple[tuple[str, str], ...]
    program_field: tuple[str, ...]
    quota: np.ndarray
    applications: ApplicationBlock
    base_year: int
    field_weights: Mapping[str, Mapping[str, float]]
    bonus_points: Mapping[str, float]
    observed_assignment: Optional[Assignment] = None

    @property
    def years(self) -> tuple[int, int, int]:
        return (self.base_year, self.base_year + 1, self.base_year + 2)

    @property
    def base_applications(self) -> ApplicationBlock:
        apps = self.applications
        return apps.take(np.flatnonzero(apps.year == self.base_year))

    @property
    def fields(self) -> tuple[str, ...]:
        """The fields with weights, sorted: a field's code is its position here."""
        return tuple(sorted(self.field_weights))

    def field_codes(self, program_keys: Sequence[str]) -> np.ndarray:
        """The code of the field of each of ``program_keys``; KeyError for a
        key that is not a panel program, or a field without weights."""
        code = {f: j for j, f in enumerate(self.fields)}
        at = positions(program_keys, self.program_keys).tolist()
        return np.array([code[self.program_field[i]] for i in at], dtype=np.intp)

    def weighted_gpa(self, applicant_id: str, field_label: str) -> float:
        """Field-weighted matriculation GPA; missing subjects count as zero.
        Adds left to right in ``field_weights`` order, starting from zero."""
        row = bisect.bisect_left(self.applicant_ids, applicant_id)
        if self.applicant_ids[row : row + 1] != (applicant_id,):
            raise KeyError(applicant_id)
        grades = {s: g for s, g in zip(self.subjects, self.grades[row].tolist()) if not np.isnan(g)}
        total = 0.0
        for subject, weight in self.field_weights[field_label].items():
            total += weight * grades.get(subject, 0.0)
        return total


def validate_panel(panel: Panel, applicant_order: Optional[np.ndarray] = None) -> Panel:
    """Check every structural invariant; raise with all violations at once.

    Negative grades are listed by applicant in ``applicant_order`` (rows of
    ``panel.grades``, the file's order for a loaded panel; row order when
    None), and by subject in ``panel.subjects`` order.
    """
    problems: list[str] = []

    negative = panel.grades < 0  # a missing grade (NaN) is not negative
    order = np.arange(len(negative)) if applicant_order is None else applicant_order
    for i in order[negative[order].any(axis=1)].tolist():
        problems.extend(
            f"NegativeGrade: applicant {panel.applicant_ids[i]!r} subject {panel.subjects[j]!r}"
            for j in np.flatnonzero(negative[i]).tolist()
        )

    for program_key, names, field_label, quota in zip(
        panel.program_keys, panel.program_names, panel.program_field, panel.quota.tolist()
    ):
        if quota < 0:
            problems.append(f"QuotaNegative: program {program_key!r} quota {quota}")
        expected = canonical_program_key(*names)
        if program_key != expected:
            problems.append(f"NonCanonicalKey: program {program_key!r} expected {expected!r}")
        if field_label not in panel.field_weights:
            problems.append(f"MissingFieldWeights: field {field_label!r} of {program_key!r}")
        if field_label not in panel.bonus_points:
            problems.append(f"MissingBonusPoints: field {field_label!r} of {program_key!r}")

    apps = panel.applications
    unknown_applicant = recode(apps.applicant_ids, panel.applicant_ids) < 0
    unknown_program = recode(apps.program_keys, panel.program_keys) < 0
    row_checks = (
        (unknown_applicant[apps.applicant], "DanglingForeignKey: {}: unknown applicant"),
        (unknown_program[apps.program], "DanglingForeignKey: {}: unknown program"),
        (~np.isin(apps.year, panel.years), f"YearOutOfRange: {{}}: panel years are {panel.years}"),
        ((apps.exam_score < 0) | (apps.other_points < 0), "NegativePoints: {}"),
        ((apps.exam_score != 0.0) & ~apps.exam_taken, "ExamScoreWithoutExam: {}"),
    )
    for i in np.flatnonzero(np.logical_or.reduce([bad for bad, _ in row_checks])).tolist():
        where = (
            f"application #{i} ({apps.applicant_ids[apps.applicant[i]]!r}, "
            f"{apps.program_keys[apps.program[i]]!r}, {int(apps.year[i])})"
        )
        problems.extend(message.format(where) for bad, message in row_checks if bad[i])

    # Each (applicant, year) list, in order of its first application.
    years, year = np.unique(apps.year, return_inverse=True)
    lists, first_row, list_of, size = np.unique(
        apps.applicant * len(years) + year,
        return_index=True, return_inverse=True, return_counts=True,
    )
    by_rank = np.lexsort((apps.listed_rank, list_of))
    starts = np.cumsum(size) - size
    rank = apps.listed_rank[by_rank]
    rank_gap = size > MAX_LISTED_RANK
    rank_gap |= np.bincount(
        list_of[by_rank], rank != np.arange(len(apps)) - np.repeat(starts, size) + 1, len(lists)
    ) > 0
    by_program = np.lexsort((apps.program, list_of))
    later, earlier = by_program[1:], by_program[:-1]
    twice = (list_of[later] == list_of[earlier]) & (apps.program[later] == apps.program[earlier])
    listed_twice = np.zeros(len(lists), dtype=bool)
    listed_twice[list_of[later][twice]] = True
    for g in sorted(np.flatnonzero(rank_gap | listed_twice).tolist(), key=first_row.__getitem__):
        i = first_row[g]
        applicant_id, list_year = apps.applicant_ids[apps.applicant[i]], int(apps.year[i])
        if rank_gap[g]:
            problems.append(
                f"RankGap: applicant {applicant_id!r} year {list_year}: "
                f"ranks {rank[starts[g] : starts[g] + size[g]].tolist()} "
                f"are not a prefix 1..k with k <= {MAX_LISTED_RANK}"
            )
        if listed_twice[g]:
            problems.append(
                f"DuplicateProgram: applicant {applicant_id!r} year {list_year} "
                "lists a program twice"
            )

    if panel.observed_assignment is not None:
        problems.extend(
            assignment_violations(panel, panel.base_applications, panel.observed_assignment)
        )

    if problems:
        raise ValidationError(problems)
    return panel


def seat_rows(assignment: Assignment, rows) -> np.ndarray:
    """Per applicant of ``assignment``: the row of ``rows`` (an
    ``ApplicationBlock`` or a ``MatchInstance``) that lists their seat; -1
    when they hold none, -2 when no row lists it."""
    seat = assignment.recoded(rows.applicant_ids, rows.program_keys).seat
    listed = np.flatnonzero(seat[rows.applicant] == rows.program)
    row = np.full(len(rows.applicant_ids) + 1, -2)  # the last entry: applicants not in rows
    row[rows.applicant[listed]] = listed
    found = row[recode(assignment.applicant_ids, rows.applicant_ids)]
    return np.where(assignment.seat < 0, -1, found)


def assignment_violations(
    panel: Panel, applications: ApplicationBlock, assignment: Assignment
) -> list[str]:
    """Structural problems of an assignment against an application set.

    Shared checker: also used in tests to audit every assignment the
    package produces.
    """
    problems: list[str] = []
    ids, keys, seat = assignment.applicant_ids, assignment.program_keys, assignment.seat
    for i in np.flatnonzero(seat_rows(assignment, applications) == -2).tolist():
        problems.append(f"SeatWithoutApplication: ({ids[i]!r}, {keys[seat[i]]!r})")
    fill = np.bincount(seat[assignment.holders], minlength=len(keys)).tolist()
    quotas = panel.quota.tolist()
    quota = [quotas[r] if r >= 0 else None for r in recode(keys, panel.program_keys).tolist()]
    flagged = [j for j, n in enumerate(fill) if n and (quota[j] is None or n > quota[j])]
    # programs in the order of their first holder by id
    first = {j: min(map(ids.__getitem__, np.flatnonzero(seat == j).tolist())) for j in flagged}
    for j in sorted(flagged, key=first.__getitem__):
        if quota[j] is None:
            problems.append(f"DanglingForeignKey: assigned program {keys[j]!r}")
        else:
            problems.append(f"QuotaExceeded: program {keys[j]!r} holds {fill[j]} > {quota[j]}")
    for i in np.flatnonzero((assignment.accept >= 0) & (seat < 0)).tolist():
        problems.append(f"AcceptFlagWithoutSeat: {ids[i]!r}")
    return problems
