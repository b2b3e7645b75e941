"""Domain types for the admissions panel and the shared validation rules.

A panel covers exactly three consecutive application years: the base year
whose assignment is simulated, plus two later years that feed the
counterfactual application lists and the re-application outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

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


@dataclass(frozen=True)
class Applicant:
    applicant_id: str
    matriculation_grades: Mapping[str, float]
    cohort_year: int


@dataclass(frozen=True)
class Program:
    program_key: str
    polytechnic_name: str
    program_name: str
    field: str
    quota: int


@dataclass(frozen=True)
class Application:
    applicant_id: str
    program_key: str
    year: int
    listed_rank: int
    exam_taken: bool
    exam_score: float = 0.0
    other_points: float = 0.0


@dataclass(frozen=True)
class Assignment:
    """A many-to-one matching: each applicant holds at most one seat.

    ``accepted`` carries the observed accept/reject flag and is only
    populated for assigned applicants (and only when the flag is known).
    """

    seat_of: Mapping[str, str]
    accepted: Mapping[str, bool] = field(default_factory=dict)

    def admits_of(self) -> dict[str, list[str]]:
        """Applicants grouped by program, each group sorted by id."""
        by_program: dict[str, list[str]] = {}
        for applicant_id in sorted(self.seat_of):
            by_program.setdefault(self.seat_of[applicant_id], []).append(applicant_id)
        return by_program


@dataclass(frozen=True)
class Panel:
    applicants: Mapping[str, Applicant]
    programs: Mapping[str, Program]
    applications: Sequence[Application]
    base_year: int
    field_weights: Mapping[str, Mapping[str, float]]
    bonus_points: Mapping[str, float]
    observed_assignment: Optional[Assignment] = None

    @property
    def years(self) -> tuple[int, int, int]:
        return (self.base_year, self.base_year + 1, self.base_year + 2)

    def applications_for(self, year: int) -> list[Application]:
        return [a for a in self.applications if a.year == year]

    @property
    def base_applications(self) -> list[Application]:
        return self.applications_for(self.base_year)

    def field_of(self, program_key: str) -> str:
        return self.programs[program_key].field

    def weighted_gpa(self, applicant_id: str, field_label: str) -> float:
        """Field-weighted matriculation GPA; missing subjects count as zero."""
        grades = self.applicants[applicant_id].matriculation_grades
        weights = self.field_weights[field_label]
        return sum(w * grades.get(subject, 0.0) for subject, w in weights.items())


def validate_panel(panel: Panel) -> Panel:
    """Check every structural invariant; raise with all violations at once."""
    problems: list[str] = []

    seen_ids: set[str] = set()
    for applicant_id, applicant in panel.applicants.items():
        if applicant_id != applicant.applicant_id:
            problems.append(f"DuplicateId: applicant map key {applicant_id!r} != record id")
        if applicant_id in seen_ids:
            problems.append(f"DuplicateId: applicant {applicant_id!r}")
        seen_ids.add(applicant_id)
        for subject, grade in applicant.matriculation_grades.items():
            if grade < 0:
                problems.append(f"NegativeGrade: applicant {applicant_id!r} subject {subject!r}")

    for program_key, program in panel.programs.items():
        if program_key != program.program_key:
            problems.append(f"DuplicateId: program map key {program_key!r} != record key")
        if program.quota < 0:
            problems.append(f"QuotaNegative: program {program_key!r} quota {program.quota}")
        expected = canonical_program_key(program.polytechnic_name, program.program_name)
        if program.program_key != expected:
            problems.append(
                f"NonCanonicalKey: program {program_key!r} expected {expected!r}"
            )
        if program.field not in panel.field_weights:
            problems.append(f"MissingFieldWeights: field {program.field!r} of {program_key!r}")
        if program.field not in panel.bonus_points:
            problems.append(f"MissingBonusPoints: field {program.field!r} of {program_key!r}")

    valid_years = set(panel.years)
    by_applicant_year: dict[tuple[str, int], list[Application]] = {}
    for i, app in enumerate(panel.applications):
        where = f"application #{i} ({app.applicant_id!r}, {app.program_key!r}, {app.year})"
        if app.applicant_id not in panel.applicants:
            problems.append(f"DanglingForeignKey: {where}: unknown applicant")
        if app.program_key not in panel.programs:
            problems.append(f"DanglingForeignKey: {where}: unknown program")
        if app.year not in valid_years:
            problems.append(f"YearOutOfRange: {where}: panel years are {panel.years}")
        if app.exam_score < 0 or app.other_points < 0:
            problems.append(f"NegativePoints: {where}")
        if app.exam_score != 0.0 and not app.exam_taken:
            problems.append(f"ExamScoreWithoutExam: {where}")
        by_applicant_year.setdefault((app.applicant_id, app.year), []).append(app)

    for (applicant_id, year), apps in by_applicant_year.items():
        ranks = sorted(a.listed_rank for a in apps)
        if ranks != list(range(1, len(ranks) + 1)) or len(ranks) > MAX_LISTED_RANK:
            problems.append(
                f"RankGap: applicant {applicant_id!r} year {year}: ranks {ranks} "
                f"are not a prefix 1..k with k <= {MAX_LISTED_RANK}"
            )
        keys = [a.program_key for a in apps]
        if len(set(keys)) != len(keys):
            problems.append(
                f"DuplicateProgram: applicant {applicant_id!r} year {year} lists a program twice"
            )

    if panel.observed_assignment is not None:
        problems.extend(
            assignment_violations(panel, panel.base_applications, panel.observed_assignment)
        )

    if problems:
        raise ValidationError(problems)
    return panel


def assignment_violations(
    panel: Panel, applications: Sequence[Application], assignment: Assignment
) -> list[str]:
    """Structural problems of an assignment against an application set.

    Shared checker: also used in tests to audit every assignment the
    package produces.
    """
    problems: list[str] = []
    applied = {(a.applicant_id, a.program_key) for a in applications}
    for applicant_id, program_key in assignment.seat_of.items():
        if (applicant_id, program_key) not in applied:
            problems.append(
                f"SeatWithoutApplication: ({applicant_id!r}, {program_key!r})"
            )
    for program_key, admits in assignment.admits_of().items():
        program = panel.programs.get(program_key)
        if program is None:
            problems.append(f"DanglingForeignKey: assigned program {program_key!r}")
        elif len(admits) > program.quota:
            problems.append(
                f"QuotaExceeded: program {program_key!r} holds {len(admits)} > {program.quota}"
            )
    for applicant_id in assignment.accepted:
        if applicant_id not in assignment.seat_of:
            problems.append(f"AcceptFlagWithoutSeat: {applicant_id!r}")
    return problems
