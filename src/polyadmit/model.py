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
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import EmptyName, ValidationError

MAX_LISTED_RANK = 4

# The integer types a code column may take, narrowest first.
CODE_TYPES = (np.int8, np.int16, np.int32, np.int64)


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


def same_coding(*coded) -> None:
    """Raise KeyError unless all of ``coded`` (panels, blocks, instances,
    assignments, rank tables) hold the same ``applicant_ids`` and
    ``program_keys``: readers index with codes and never translate them."""
    for other in coded[1:]:
        for name in ("applicant_ids", "program_keys"):
            mine, theirs = getattr(coded[0], name), getattr(other, name)
            if mine is not theirs and mine != theirs:
                raise KeyError(f"not coded alike, {name}: {sorted(set(mine) ^ set(theirs))[:5]}")


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


def narrowest(column: np.ndarray) -> np.ndarray:
    """``column`` in the narrowest of ``CODE_TYPES`` that holds its own
    minimum and maximum (no copy when it already is); an empty column, or
    one that is not of signed integers, as given."""
    if not len(column) or column.dtype.kind != "i":
        return column
    low, high = column.min(), column.max()
    for code_type in CODE_TYPES:
        bounds = np.iinfo(code_type)
        if bounds.min <= low and high <= bounds.max:
            return column.astype(code_type, copy=False)
    return column


def code_key(major: np.ndarray, n_minor: int, minor: np.ndarray) -> np.ndarray:
    """The int64 key ``major * n_minor + minor`` of two code columns. Code
    columns are narrow (see ``ApplicationBlock``), and the product would
    wrap in their own type, so ``major`` is upcast before it multiplies."""
    return major.astype(np.int64) * n_minor + minor


@dataclass(frozen=True, eq=False)
class ApplicationBlock:
    """Applications as columns, row ``i`` being one application.

    ``applicant`` and ``program`` are codes into ``applicant_ids`` and
    ``program_keys``: a panel's own tuples, so every block of one panel
    codes alike. Blocks compare by identity: a score table scores the
    very block it was computed from.

    The code columns ``applicant``, ``program``, ``year`` and
    ``listed_rank`` are narrowed when the block is built, each to the
    narrowest of int8, int16, int32 and int64 that holds its own values
    (see ``narrowest``). Arithmetic on them wraps in that type, so a key
    built from codes is built by ``code_key``.
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

    def __post_init__(self) -> None:
        for name in ("applicant", "program", "year", "listed_rank"):
            object.__setattr__(self, name, narrowest(getattr(self, name)))

    def take(self, rows: np.ndarray | slice, **columns: np.ndarray) -> "ApplicationBlock":
        """The block of ``rows`` (a slice gives views), with any column
        replaced by ``columns``."""
        return ApplicationBlock(
            self.applicant_ids,
            self.program_keys,
            **{
                f.name: columns[f.name] if f.name in columns else getattr(self, f.name)[rows]
                for f in dataclasses.fields(self)[2:]
            },
        )

    def listed_applicants(self) -> np.ndarray:
        """The codes of the applicants with a row here, ascending."""
        return np.flatnonzero(np.bincount(self.applicant, minlength=len(self.applicant_ids)))

    @functools.cached_property
    def lists(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows in list order, with applicant ``a``'s list at
        ``order[offsets[a]:offsets[a + 1]]`` (empty for an applicant
        without a row). Ties in listed rank keep row order."""
        order = np.lexsort((self.listed_rank, self.applicant))
        return order, np.searchsorted(self.applicant[order], np.arange(len(self.applicant_ids) + 1))

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
    ``ApplicationBlock``. Applicants and programs are coded by position in
    these tuples, which every block, instance and assignment holds."""

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
        """The base year's rows; views of the panel's columns when they
        are one run of rows, as loaded and generated panels have them."""
        apps = self.applications
        rows = np.flatnonzero(apps.year == self.base_year)
        if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(rows[0], rows[-1] + 1)
        return apps.take(rows)

    @property
    def fields(self) -> tuple[str, ...]:
        """The fields with weights, sorted: a field's code is its position here."""
        return tuple(sorted(self.field_weights))

    @functools.cached_property
    def field_code(self) -> np.ndarray:
        """The code of each program's field; KeyError for one without weights."""
        code = {f: j for j, f in enumerate(self.fields)}
        return np.array([code[f] for f in self.program_field], dtype=np.intp)

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


def _coding_violations(panel: Panel) -> list[str]:
    """Breaks of the coding that every other check indexes with; a loaded
    or generated panel has none."""
    ids, keys, apps = panel.applicant_ids, panel.program_keys, panel.applications
    coding, none = (apps.applicant_ids, apps.program_keys), np.full(len(apps.applicant_ids), -1)
    observed = panel.observed_assignment or Assignment(*coding, none, none)
    n_observed = len(observed.applicant_ids)
    problems = [
        f"IdOrder: applicant_ids[{i}] {ids[i]!r} does not follow {ids[i - 1]!r}"
        for i in (np.flatnonzero(list(map(operator.ge, ids[:-1], ids[1:]))) + 1).tolist()
    ]
    problems += [f"DuplicateId: program key {k!r}" for k, n in Counter(keys).items() if n > 1]
    shapes = [
        ("cohort_year", panel.cohort_year.shape, (len(ids),)),
        ("grades", panel.grades.shape, (len(ids), len(panel.subjects))),
        ("quota", panel.quota.shape, (len(keys),)),
        ("names, fields", (len(panel.program_names), len(panel.program_field)), (len(keys),) * 2),
        ("observed seat, accept", observed.seat.shape + observed.accept.shape, (n_observed,) * 2),
    ] + [
        (f"applications.{f.name}", getattr(apps, f.name).shape, apps.applicant.shape)
        for f in dataclasses.fields(apps)[3:]
    ]
    problems += [
        f"ShapeMismatch: {name} has shape {shape}, expected {expected}"
        for name, shape, expected in shapes if shape != expected
    ]
    # A loaded panel's blocks code the ids and keys its files name but it
    # lacks after its own, so they extend its tuples; the observed
    # assignment holds the applications' very tuples.
    for name, own, coded in zip(("applicant_ids", "program_keys"), (ids, keys), coding):
        if coded[: len(own)] != own or getattr(observed, name) != coded:
            problems.append(f"CodingMismatch: {name} of the applications or observed assignment")
    for name, codes, low, stop in (
        ("applicant", apps.applicant, 0, len(apps.applicant_ids)),
        ("program", apps.program, 0, len(apps.program_keys)),
        ("seat", observed.seat, -1, len(observed.program_keys)),
    ):
        problems += [
            f"CodeOutOfRange: {name} #{i}: code {codes[i]} not in {low}..{stop - 1}"
            for i in np.flatnonzero((codes < low) | (codes >= stop)).tolist()
        ]
    return problems


def validate_panel(
    panel: Panel,
    applicant_order: Optional[np.ndarray] = None,
    observed_order: Optional[np.ndarray] = None,
) -> Panel:
    """Check every structural invariant; raise with all violations at once
    (breaks of the coding alone, as every other check reads through it).

    Negative grades are listed by applicant in ``applicant_order`` (rows of
    ``panel.grades``, the file's order for a loaded panel; row order when
    None), and by subject in ``panel.subjects`` order; observed seats by
    applicant in ``observed_order``, likewise (applicant codes).
    """
    problems = _coding_violations(panel)
    if problems:
        raise ValidationError(problems)

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
    row_checks = (  # codes past the panel's name ids and keys it lacks
        (apps.applicant >= len(panel.applicant_ids), "DanglingForeignKey: {}: unknown applicant"),
        (apps.program >= len(panel.program_keys), "DanglingForeignKey: {}: unknown program"),
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

    # Each (applicant, year) list, in order of its first application; each
    # transient is dropped before the next one is allocated.
    years, year = np.unique(apps.year, return_inverse=True)
    key = code_key(apps.applicant, len(years), year)
    del year
    lists, first_row, list_of, size = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    del key
    rank = apps.listed_rank[np.lexsort((apps.listed_rank, list_of))]  # list by list
    starts = np.cumsum(size) - size
    expected = np.ones(len(apps), dtype=np.int64)  # 1 at each list's start, then counts up
    expected[starts[1:]] -= size[:-1]
    np.cumsum(expected, out=expected)
    rank_gap = size > MAX_LISTED_RANK
    rank_gap |= np.logical_or.reduceat(rank != expected, starts)
    del expected
    by_program = np.lexsort((apps.program, list_of))
    listed, program = list_of[by_program], apps.program[by_program]  # list by list
    del by_program, list_of
    twice = (listed[1:] == listed[:-1]) & (program[1:] == program[:-1])
    listed_twice = np.zeros(len(lists), dtype=bool)
    listed_twice[listed[1:][twice]] = True
    del listed, program, twice
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
        problems += assignment_violations(
            panel, panel.base_applications, panel.observed_assignment, observed_order
        )

    if problems:
        raise ValidationError(problems)
    return panel


def seat_rows(assignment: Assignment, rows) -> np.ndarray:
    """Per applicant: the row of ``rows`` (a block or instance coded like
    ``assignment``) that lists their seat; -1 for none, -2 when no row does."""
    same_coding(assignment, rows)
    listed = np.flatnonzero(assignment.seat[rows.applicant] == rows.program)
    row = np.full(len(assignment.seat), -2)
    row[rows.applicant[listed]] = listed
    return np.where(assignment.seat < 0, -1, row)


def assignment_violations(
    panel: Panel,
    applications: ApplicationBlock,
    assignment: Assignment,
    order: Optional[np.ndarray] = None,
) -> list[str]:
    """Structural problems of an assignment against an application set
    coded like it, applicants listed in ``order`` (codes; code order when
    None), programs in the order of their first holder by id.

    Shared checker: also used in tests to audit every assignment the
    package produces.
    """
    problems: list[str] = []
    ids, keys, seat = assignment.applicant_ids, assignment.program_keys, assignment.seat
    order = np.arange(len(seat)) if order is None else order
    unlisted = seat_rows(assignment, applications) == -2
    for i in order[unlisted[order]].tolist():
        problems.append(f"SeatWithoutApplication: ({ids[i]!r}, {keys[seat[i]]!r})")
    fill = np.bincount(seat[assignment.holders], minlength=len(keys)).tolist()
    quota = panel.quota.tolist()  # a code past the panel's programs names a key it lacks
    flagged = [j for j, n in enumerate(fill) if n and (j >= len(quota) or n > quota[j])]
    first = {j: min(map(ids.__getitem__, np.flatnonzero(seat == j).tolist())) for j in flagged}
    for j in sorted(flagged, key=first.__getitem__):
        if j >= len(quota):
            problems.append(f"DanglingForeignKey: assigned program {keys[j]!r}")
        else:
            problems.append(f"QuotaExceeded: program {keys[j]!r} holds {fill[j]} > {quota[j]}")
    flag_only = (assignment.accept >= 0) & (seat < 0)
    for i in order[flag_only[order]].tolist():
        problems.append(f"AcceptFlagWithoutSeat: {ids[i]!r}")
    return problems
