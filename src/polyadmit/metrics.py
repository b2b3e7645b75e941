"""Selection-quality diagnostics: GPA percentile ranks, tercile
unassignment rates, per-rank application statistics, and the assigned-rank
histograms."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BinMismatch, EmptyAssignment
from .model import MAX_LISTED_RANK, Assignment, Panel, same_coding, seat_rows
from .scoring import ScoreTable, weighted_gpa_matrix

N_BINS = 100

CRITERION_MATRICULATION = "matriculation"
CRITERION_ADMISSION_SCORE = "admission_score"


def _midpoint_percentiles(values: Sequence[float]) -> list[float]:
    """Percentile of each value by the mean-rank midpoint convention:
    100 * (mean rank - 0.5) / N, ties sharing their mean rank."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return []
    order = np.argsort(values, kind="stable")
    s = values[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], n) - 1
    mean_rank = (starts + ends) / 2 + 1  # 1-based mean rank of each tie group
    ranks = np.empty(n)
    ranks[order] = np.repeat(mean_rank, ends - starts + 1)
    return (100.0 * (ranks - 0.5) / n).tolist()


@dataclass(frozen=True, eq=False)
class RankTable:
    """GPA percentile ranks in [0, 100], higher = better GPA: one row per
    ``applicant_ids`` entry and one column per ``fields`` entry, and the
    code of each ``program_keys`` entry's field: its column."""

    applicant_ids: tuple[str, ...]
    fields: tuple[str, ...]
    ranks: np.ndarray
    program_keys: tuple[str, ...]
    field_code: np.ndarray


def field_gpa_percentile_ranks(panel: Panel) -> RankTable:
    """Rank every panel applicant by field-weighted GPA, per field."""
    gpa = weighted_gpa_matrix(panel)
    ranks = np.empty_like(gpa)
    for j in range(len(panel.fields)):
        ranks[:, j] = _midpoint_percentiles(gpa[:, j])
    return RankTable(panel.applicant_ids, panel.fields, ranks, panel.program_keys, panel.field_code)


@dataclass(frozen=True)
class TercileReport:
    criterion: str
    unassigned_fraction: tuple[float, float, float]  # top, middle, bottom third
    tercile_sizes: tuple[int, int, int]


def tercile_unassignment(table: ScoreTable, assignment: Assignment, criterion: str) -> TercileReport:
    """Fraction of applicants rejected everywhere, by tercile of their mean
    percentile rank across the applicant pools they entered.

    ``table`` scores the base-year lists: its weighted GPA column ranks by
    matriculation, its totals by admission score.
    """
    if criterion not in (CRITERION_MATRICULATION, CRITERION_ADMISSION_SCORE):
        raise ValueError(f"unknown criterion {criterion!r}")
    values = table.gpa if criterion == CRITERION_MATRICULATION else table.totals
    apps = table.applications
    n_rows = len(apps)

    # each row's percentile within its program's pool
    pct = np.empty(n_rows)
    by_program = np.argsort(apps.program, kind="stable")
    bounds = np.searchsorted(apps.program[by_program], np.arange(len(apps.program_keys) + 1))
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        pct[by_program[start:stop]] = _midpoint_percentiles(values[by_program[start:stop]])

    # each applicant's mean over their pools, added from zero in order of
    # the pools' first applications (``np.add.at`` adds in index order)
    first_row = np.full(len(apps.program_keys), n_rows)
    np.minimum.at(first_row, apps.program, np.arange(n_rows))
    order = np.lexsort((first_row[apps.program], apps.applicant))
    present, inverse, counts = np.unique(
        apps.applicant[order], return_inverse=True, return_counts=True
    )
    total = np.zeros(len(present))
    np.add.at(total, inverse, pct[order])
    mean_rank = total / counts

    ordered = np.lexsort((np.arange(len(present)), -mean_rank))  # ids ascending break ties
    same_coding(apps, assignment)
    unassigned = assignment.seat[present[ordered]] < 0
    thirds = np.array_split(unassigned, 3)  # the first len % 3 thirds one longer
    return TercileReport(
        criterion=criterion,
        unassigned_fraction=tuple(np.count_nonzero(t) / len(t) if len(t) else 0.0 for t in thirds),
        tercile_sizes=tuple(len(t) for t in thirds),
    )


@dataclass(frozen=True)
class RankStatsRow:
    listed_rank: int
    n_applications: int
    exam_taken_share: float
    admitted_share: float


def application_rank_stats(panel: Panel, assignment: Assignment) -> list[RankStatsRow]:
    """Per listed rank 1..``MAX_LISTED_RANK``: application count, exam
    participation, and the share admitted to that program."""
    rows = []
    base = panel.base_applications
    seated = seat_rows(assignment, base)[assignment.holders]
    admits = np.bincount(base.listed_rank[seated[seated >= 0]], minlength=MAX_LISTED_RANK + 1)
    for rank in range(1, MAX_LISTED_RANK + 1):
        listed = base.listed_rank == rank
        n = int(np.count_nonzero(listed))
        exams = int(np.count_nonzero(base.exam_taken[listed]))
        admitted = int(admits[rank])
        rows.append(
            RankStatsRow(
                listed_rank=rank,
                n_applications=n,
                exam_taken_share=exams / n if n else 0.0,
                admitted_share=admitted / n if n else 0.0,
            )
        )
    return rows


def assigned_rank_histogram(rank_table: RankTable, assignment: Assignment) -> tuple[float, ...]:
    """Bin assigned applicants by their GPA rank at the assigned program's
    field: ``N_BINS`` unit-percentile bins ([k, k+1) for k < 99, [99, 100]
    for the last)."""
    ranks = _admit_ranks(rank_table, assignment)
    bins = np.bincount(np.minimum(ranks.astype(np.int64), N_BINS - 1), minlength=N_BINS)
    return tuple(bins.astype(float).tolist())


def _admit_ranks(rank_table: RankTable, assignment: Assignment) -> np.ndarray:
    """Each admit's GPA rank at their program's field, in seat order."""
    same_coding(rank_table, assignment)
    holders = assignment.holders
    return rank_table.ranks[holders, rank_table.field_code[assignment.seat[holders]]]


def net_change_histogram(base: tuple[float, ...], cf: tuple[float, ...]) -> tuple[float, ...]:
    """Counterfactual minus baseline, bin by bin."""
    if len(base) != len(cf):
        raise BinMismatch(f"bin counts differ: {len(base)} vs {len(cf)}")
    return tuple(c - b for b, c in zip(base, cf))


def mean_rank_improvement(rank_table: RankTable, base: Assignment, cf: Assignment) -> float:
    """Mean assigned-field GPA rank of counterfactual admits minus that of
    baseline admits, in percentile points."""

    def mean_rank(assignment: Assignment) -> float:
        if not len(assignment.holders):
            raise EmptyAssignment("assignment has no admits")
        ranks = _admit_ranks(rank_table, assignment)
        return float(np.cumsum(ranks)[-1]) / len(ranks)  # added one by one, in seat order

    return mean_rank(cf) - mean_rank(base)
