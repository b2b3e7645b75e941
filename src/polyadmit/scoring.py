"""Admission score computation and its two counterfactual transforms."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateTable, WrongProvenance
from .model import Application, Panel

PROVENANCE_ORIGINAL = "original"
PROVENANCE_NO_FIRST_CHOICE = "no_first_choice"
PROVENANCE_EXAM_PROPAGATED = "no_first_choice_exam_propagated"

# (applicant_id, program_key, year)
ScoreKey = tuple[str, str, int]


@dataclass(frozen=True)
class ScoreComponents:
    gpa_component: float
    exam_component: float
    first_choice_bonus: float
    other_points: float

    @property
    def total(self) -> float:
        return (
            self.gpa_component
            + self.exam_component
            + self.first_choice_bonus
            + self.other_points
        )


def adjusted_score(components: ScoreComponents) -> float:
    """Score with the exam result and the first-choice bonus subtracted."""
    return components.total - components.exam_component - components.first_choice_bonus


class ScoreTable:
    """Per-application score components as numpy columns, plus a
    provenance tag.

    Row ``i`` of ``gpa``, ``exam``, ``bonus``, ``other``, ``exam_taken``
    and ``totals`` belongs to ``keys[i]``, in the order of the application
    list the table was computed from. ``exam_taken`` records which
    applications carried their own valid exam result; exam propagation
    only fills in the others. The transforms share the columns they leave
    unchanged, so columns are read-only.

    ``entries`` (key -> ``ScoreComponents``) and ``own_exam`` are built
    from the columns on first read. Tables compare equal when provenance,
    own exams and entries are equal, whatever their row order.
    """

    def __init__(
        self,
        entries: Mapping[ScoreKey, ScoreComponents],
        provenance: str,
        own_exam: frozenset[ScoreKey],
    ) -> None:
        keys = list(entries)
        components = list(entries.values())
        self._set_columns(
            keys,
            np.array([c.gpa_component for c in components], dtype=float),
            np.array([c.exam_component for c in components], dtype=float),
            np.array([c.first_choice_bonus for c in components], dtype=float),
            np.array([c.other_points for c in components], dtype=float),
            np.array([k in own_exam for k in keys], dtype=bool),
            provenance,
        )

    @classmethod
    def _from_columns(
        cls,
        keys: Sequence[ScoreKey],
        *,
        gpa: np.ndarray,
        exam: np.ndarray,
        bonus: np.ndarray,
        other: np.ndarray,
        exam_taken: np.ndarray,
        provenance: str,
    ) -> "ScoreTable":
        table = cls.__new__(cls)
        table._set_columns(keys, gpa, exam, bonus, other, exam_taken, provenance)
        return table

    def _set_columns(self, keys, gpa, exam, bonus, other, exam_taken, provenance) -> None:
        self.keys = tuple(keys)
        self.gpa, self.exam, self.bonus, self.other = gpa, exam, bonus, other
        self.exam_taken = exam_taken
        self.provenance = provenance
        # Same order as ScoreComponents.total, so every total is equal bit for bit.
        self.totals = gpa + exam + bonus + other
        for column in (gpa, exam, bonus, other, exam_taken, self.totals):
            column.setflags(write=False)

    def _derive(self, provenance: str, **columns: np.ndarray) -> "ScoreTable":
        """A table over the same rows with some columns replaced."""
        shared = dict(
            gpa=self.gpa, exam=self.exam, bonus=self.bonus, other=self.other,
            exam_taken=self.exam_taken,
        )
        return ScoreTable._from_columns(self.keys, provenance=provenance, **{**shared, **columns})

    @functools.cached_property
    def entries(self) -> Mapping[ScoreKey, ScoreComponents]:
        return dict(
            zip(
                self.keys,
                map(
                    ScoreComponents,
                    self.gpa.tolist(),
                    self.exam.tolist(),
                    self.bonus.tolist(),
                    self.other.tolist(),
                ),
            )
        )

    @functools.cached_property
    def own_exam(self) -> frozenset[ScoreKey]:
        return frozenset(itertools.compress(self.keys, self.exam_taken.tolist()))

    def total(self, key: ScoreKey) -> float:
        return self.entries[key].total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return (self.provenance, self.own_exam, self.entries) == (
            other.provenance, other.own_exam, other.entries,
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"ScoreTable(provenance={self.provenance!r}, rows={len(self.keys)})"


def weighted_gpa_matrix(
    panel: Panel, applicant_ids: Sequence[str], fields: Sequence[str]
) -> np.ndarray:
    """Field-weighted matriculation GPA, one row per applicant and one
    column per field; missing subjects count as zero.

    Each column adds ``weight * grade`` over the field's subjects in
    ``field_weights`` order, starting from zero, so every value equals
    ``Panel.weighted_gpa`` bit for bit.
    """
    subjects = sorted({s for f in fields for s in panel.field_weights[f]})
    subject_col = {s: j for j, s in enumerate(subjects)}
    grades = np.array(
        [
            [panel.applicants[a].matriculation_grades.get(s, 0.0) for s in subjects]
            for a in applicant_ids
        ],
        dtype=float,
    ).reshape(len(applicant_ids), len(subjects))
    gpa = np.zeros((len(applicant_ids), len(fields)))
    for j, field_label in enumerate(fields):
        for subject, weight in panel.field_weights[field_label].items():
            gpa[:, j] += weight * grades[:, subject_col[subject]]
    return gpa


def compute_score_table(panel: Panel, applications: Sequence[Application]) -> ScoreTable:
    """Build the original score table for an application set.

    The GPA component is the field-weighted dot product over matriculation
    grades (missing subjects count as zero); the bonus applies only to the
    first listed program of each list.
    """
    program_field = {p: prog.field for p, prog in panel.programs.items()}
    fields = [program_field[app.program_key] for app in applications]
    applicant_ids = sorted({app.applicant_id for app in applications})
    field_ids = sorted(set(fields))
    applicant_row = {a: i for i, a in enumerate(applicant_ids)}
    field_col = {f: j for j, f in enumerate(field_ids)}
    gpa = weighted_gpa_matrix(panel, applicant_ids, field_ids)[
        np.array([applicant_row[app.applicant_id] for app in applications], dtype=np.intp),
        np.array([field_col[f] for f in fields], dtype=np.intp),
    ]
    return ScoreTable._from_columns(
        [(app.applicant_id, app.program_key, app.year) for app in applications],
        gpa=gpa,
        exam=np.array(
            [app.exam_score if app.exam_taken else 0.0 for app in applications], dtype=float
        ),
        bonus=np.array(
            [
                panel.bonus_points[f] if app.listed_rank == 1 else 0.0
                for app, f in zip(applications, fields)
            ],
            dtype=float,
        ),
        other=np.array([app.other_points for app in applications], dtype=float),
        exam_taken=np.array([app.exam_taken for app in applications], dtype=bool),
        provenance=PROVENANCE_ORIGINAL,
    )


def remove_first_choice_points(table: ScoreTable) -> ScoreTable:
    """Zero out every first-choice bonus; all other components untouched."""
    if table.provenance != PROVENANCE_ORIGINAL:
        raise WrongProvenance(f"expected {PROVENANCE_ORIGINAL!r}, got {table.provenance!r}")
    return table._derive(PROVENANCE_NO_FIRST_CHOICE, bonus=np.zeros(len(table.keys)))


def first_exam_by_field(panel: Panel) -> dict[tuple[str, str], float]:
    """Chronologically first exam score per (applicant, field).

    "First" is resolved by (year, listed_rank, program_key) so the rule is
    deterministic even when several exams fall in the same year.
    """
    first: dict[tuple[str, str], tuple[tuple[int, int, str], float]] = {}
    for app in panel.applications:
        if not app.exam_taken:
            continue
        field_label = panel.field_of(app.program_key)
        order = (app.year, app.listed_rank, app.program_key)
        slot = (app.applicant_id, field_label)
        if slot not in first or order < first[slot][0]:
            first[slot] = (order, app.exam_score)
    return {slot: score for slot, (_, score) in first.items()}


def propagate_entrance_exams(panel: Panel, table: ScoreTable) -> ScoreTable:
    """Make the first exam taken in a field valid for every exam-less
    application in that field.

    Applications with their own exam keep it. Idempotent: re-propagating
    rewrites the same scores.
    """
    if table.provenance not in (PROVENANCE_NO_FIRST_CHOICE, PROVENANCE_EXAM_PROPAGATED):
        raise WrongProvenance(
            f"expected {PROVENANCE_NO_FIRST_CHOICE!r}, got {table.provenance!r}"
        )
    sources = first_exam_by_field(panel)
    exam = table.exam.copy()
    for row in np.flatnonzero(~table.exam_taken).tolist():
        applicant_id, program_key, _year = table.keys[row]
        source = sources.get((applicant_id, panel.field_of(program_key)))
        if source is not None:
            exam[row] = source
    return table._derive(PROVENANCE_EXAM_PROPAGATED, exam=exam)


WEIGHT_COMPONENTS = ("gpa", "exam", "first_choice_bonus", "residual")


@dataclass(frozen=True)
class WeightReport:
    """Effective weight of each score component in the priority ordering.

    Each entry is the standard deviation of one component across all
    applications, normalized by the sum of the four standard deviations,
    so the report sums to one. The residual maps to the other-points
    component, which is all the unmodeled variation the table carries.
    """

    sds: Mapping[str, float]
    weights: Mapping[str, float]


def effective_weights(table: ScoreTable) -> WeightReport:
    n = len(table.keys)
    if n < 2:
        raise DegenerateTable(f"need at least 2 score records, got {n}")
    columns = {
        "gpa": table.gpa,
        "exam": table.exam,
        "first_choice_bonus": table.bonus,
        "residual": table.other,
    }
    sds = {}
    for name, column in columns.items():
        values = column.tolist()
        mean = sum(values) / n
        sds[name] = math.sqrt(sum((v - mean) ** 2 for v in values) / n)
    total_sd = sum(sds.values())
    if total_sd == 0.0:
        raise DegenerateTable("all score components are constant")
    weights = {name: sd / total_sd for name, sd in sds.items()}
    return WeightReport(sds=sds, weights=weights)
