"""Admission score computation and its two counterfactual transforms."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import DegenerateTable
from .model import ApplicationBlock, Panel, code_key, same_coding

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


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Per-application score components as numpy columns.

    Row ``i`` of ``gpa``, ``exam``, ``bonus``, ``other``, ``exam_taken``
    and ``totals`` scores row ``i`` of ``applications``, the block the
    table was computed from. ``exam_taken`` records which applications
    carried their own valid exam result; exam propagation only fills in
    the others. ``totals`` is summed once, at construction. ``other``,
    ``exam_taken`` and, in an original table, ``exam`` are the block's
    own columns, and transforms share the columns they leave unchanged,
    so the table marks every column it holds read-only, the block's
    included.

    ``keys`` ((applicant, program, year) per row) and ``entries`` (key ->
    ``ScoreComponents``) are built on first read.
    """

    applications: ApplicationBlock = field(repr=False)
    gpa: np.ndarray
    exam: np.ndarray
    bonus: np.ndarray
    other: np.ndarray
    exam_taken: np.ndarray
    totals: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # Same order as ScoreComponents.total, so every total is equal bit for bit.
        object.__setattr__(self, "totals", self.gpa + self.exam + self.bonus + self.other)
        for column in (self.gpa, self.exam, self.bonus, self.other, self.exam_taken, self.totals):
            column.setflags(write=False)

    @property
    def keys(self) -> tuple[ScoreKey, ...]:
        return self.applications.keys

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


def weighted_gpa_matrix(panel: Panel) -> np.ndarray:
    """Field-weighted matriculation GPA, one row per ``panel.applicant_ids``
    entry and one column per ``panel.fields`` entry; missing subjects count
    as zero.

    Each column adds ``weight * grade`` over the field's graded subjects in
    ``field_weights`` order, starting from zero, so every value equals
    ``Panel.weighted_gpa`` bit for bit.
    """
    subject_col = {s: j for j, s in enumerate(panel.subjects)}
    gpa = np.zeros((len(panel.applicant_ids), len(panel.fields)))
    for j, field_label in enumerate(panel.fields):
        for subject, weight in panel.field_weights[field_label].items():
            if subject in subject_col:
                grade = panel.grades[:, subject_col[subject]]
                gpa[:, j] += weight * np.where(np.isnan(grade), 0.0, grade)
    return gpa


def compute_score_table(panel: Panel, applications: ApplicationBlock) -> ScoreTable:
    """Build the original score table for an application block.

    The GPA component is the field-weighted dot product over matriculation
    grades (missing subjects count as zero); the exam component is the
    block's own ``exam_score`` column, zero without an exam in a valid
    panel (see ``ExamScoreWithoutExam``); the bonus applies only to the
    first listed program of each list.
    """
    same_coding(panel, applications)
    field_code = panel.field_code[applications.program]
    # NaN only for a field no program of a valid panel has
    bonus = np.array([panel.bonus_points.get(f, np.nan) for f in panel.fields])
    return ScoreTable(
        applications,
        gpa=weighted_gpa_matrix(panel)[applications.applicant, field_code],
        exam=applications.exam_score.astype(float, copy=False),
        bonus=np.where(applications.listed_rank == 1, bonus[field_code], 0.0),
        other=applications.other_points.astype(float, copy=False),
        exam_taken=applications.exam_taken,
    )


def remove_first_choice_points(table: ScoreTable) -> ScoreTable:
    """Zero out every first-choice bonus; all other components untouched.
    The bonus column is one read-only zero broadcast over the rows.

    Idempotent, and commutes with ``propagate_entrance_exams``, which
    never reads or writes the bonus column.
    """
    return replace(table, bonus=np.broadcast_to(0.0, len(table.applications)))


def propagate_entrance_exams(panel: Panel, table: ScoreTable) -> ScoreTable:
    """Make the first exam taken in a field valid for every exam-less
    application in that field.

    "First" is the least (year, listed_rank) among the applicant's exams
    in the field, across the whole panel (one year's list gives each rank
    once). Applications with their own exam keep it. Idempotent:
    re-propagating rewrites the same scores.
    """
    apps, block = panel.applications, table.applications
    same_coding(panel, apps, block)
    n_fields, field_code = len(panel.fields), panel.field_code
    # one slot per (applicant, field)
    taken = np.flatnonzero(apps.exam_taken)
    slot = code_key(apps.applicant[taken], n_fields, field_code[apps.program[taken]])
    order = np.lexsort((apps.listed_rank[taken], apps.year[taken], slot))
    slot = slot[order]
    first = np.ones(len(slot), dtype=bool)
    first[1:] = slot[1:] != slot[:-1]
    scores = apps.exam_score[taken[order[first]]]
    slots = np.append(slot[first], np.iinfo(np.int64).max)  # the end never matches
    del taken, slot, order, first  # freed before the second half allocates

    rows = np.flatnonzero(~table.exam_taken)
    wanted = code_key(block.applicant[rows], n_fields, field_code[block.program[rows]])
    at = np.searchsorted(slots, wanted)
    found = slots[at] == wanted
    del wanted
    rows, at = rows[found], at[found]
    del found
    exam = table.exam.copy()
    exam[rows] = scores[at]
    del rows, at, scores, slots
    return replace(table, exam=exam)


WEIGHT_COMPONENTS = ("gpa", "exam", "first_choice_bonus", "residual")


def effective_weights(table: ScoreTable) -> dict[str, float]:
    """Effective weight of each score component in the priority ordering.

    Each entry is the standard deviation of one component across all
    applications, normalized by the sum of the four standard deviations,
    so the weights sum to one. The residual maps to the other-points
    component, which is all the unmodeled variation the table carries.
    """
    n = len(table.applications)
    if n < 2:
        raise DegenerateTable(f"need at least 2 score records, got {n}")
    columns = {
        "gpa": table.gpa,
        "exam": table.exam,
        "first_choice_bonus": table.bonus,
        "residual": table.other,
    }
    # Sums run left to right (``np.cumsum``), as the builtin ``sum`` did
    # before CPython 3.12; ``float_power`` squares with libm ``pow``, as
    # ``** 2`` on a float does, where ``x * x`` differs on some rows.
    sds = {}
    for name, column in columns.items():
        mean = float(np.cumsum(column)[-1]) / n
        sds[name] = math.sqrt(float(np.cumsum(np.float_power(column - mean, 2))[-1]) / n)
    total_sd = float(np.cumsum(list(sds.values()))[-1])
    if total_sd == 0.0:
        raise DegenerateTable("all score components are constant")
    return {name: sd / total_sd for name, sd in sds.items()}
