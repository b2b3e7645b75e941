"""Selection-quality diagnostics: GPA percentile ranks, tercile
unassignment rates, per-rank application statistics, and the assigned-rank
histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BinMismatch, EmptyAssignment, EmptySample
from .model import MAX_LISTED_RANK, Assignment, Panel, same_coding, seat_rows
from .scoring import ScoreTable, weighted_gpa_matrix

N_BINS = 100

CRITERION_MATRICULATION = "matriculation"
CRITERION_ADMISSION_SCORE = "admission_score"


def _midpoint_percentiles(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Percentile of each value within its pool (``pool`` codes each value's
    pool) by the mean-rank midpoint convention: 100 * (mean rank - 0.5) / N,
    N the pool's size, ties within a pool sharing their mean rank."""
    n = len(values)
    order = np.lexsort((values, pool))  # by pool, then value; equal keys keep their order
    # a tie run starts at the first sorted value and wherever the pool or the
    # value changes; the sorted copies go once compared, to keep the heap low
    new_run = np.zeros(n, dtype=bool)
    new_run[:1] = True
    for key in (values[order], pool[order]):
        new_run[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(new_run)
    lengths = np.diff(starts, append=n)
    size = np.bincount(pool)
    starts -= (np.cumsum(size) - size)[pool[order[starts]]]  # now counted within each pool
    ranks = np.empty(n)
    # (start + end) / 2 + 1: each run's 1-based mean rank in its pool
    ranks[order] = np.repeat((starts + starts + lengths - 1) / 2 + 1, lengths)
    return 100.0 * (ranks - 0.5) / size[pool]


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
    one_pool = np.zeros(len(gpa), dtype=np.int8)
    ranks = np.empty_like(gpa)
    for j in range(len(panel.fields)):
        ranks[:, j] = _midpoint_percentiles(gpa[:, j], one_pool)
    return RankTable(panel.applicant_ids, panel.fields, ranks, panel.program_keys, panel.field_code)


@dataclass(frozen=True)
class TercileReport:
    criterion: str
    unassigned_fraction: tuple[float, float, float]  # top, middle, bottom third
    tercile_sizes: tuple[int, int, int]  # the first len % 3 one longer


def tercile_unassignment(table: ScoreTable, assignment: Assignment) -> tuple[TercileReport, ...]:
    """Fraction of applicants rejected everywhere, by tercile of their mean
    percentile rank across the applicant pools they entered, by
    matriculation (``table``'s weighted GPA column) and then by admission
    score (its totals); ``table`` scores the base-year lists. Both rank
    the same applicants, grouped once. Fewer than three ranked applicants
    have no thirds and raise ``EmptySample``.
    """
    apps = table.applications
    n_rows = len(apps)
    # each applicant's mean over their pools, added from zero in order of
    # the pools' first applications (``np.bincount`` adds in index order)
    first_row = np.full(len(apps.program_keys), n_rows)
    np.minimum.at(first_row, apps.program, np.arange(n_rows))
    order = np.lexsort((first_row[apps.program], apps.applicant))
    present, inverse, counts = np.unique(
        apps.applicant[order], return_inverse=True, return_counts=True
    )
    if len(present) < 3:
        raise EmptySample(f"{len(present)} applicants ranked by matriculation: no tercile split")
    same_coding(apps, assignment)
    reports = []
    for criterion, values in (
        (CRITERION_MATRICULATION, table.gpa), (CRITERION_ADMISSION_SCORE, table.totals)
    ):
        pct = _midpoint_percentiles(values, apps.program)  # each row's, in its program's pool
        mean_rank = np.bincount(inverse, weights=pct[order]) / counts
        ordered = np.lexsort((np.arange(len(present)), -mean_rank))  # ids ascending break ties
        thirds = np.array_split(assignment.seat[present[ordered]] < 0, 3)  # unassigned, best first
        fractions = tuple(np.count_nonzero(t) / len(t) for t in thirds)
        reports.append(TercileReport(criterion, fractions, tuple(map(len, thirds))))
    return tuple(reports)


@dataclass(frozen=True)
class RankStatsRow:
    listed_rank: int
    n_applications: int
    exam_taken_share: float | None  # None: no application has the rank
    admitted_share: float | None


def application_rank_stats(panel: Panel, assignment: Assignment) -> list[RankStatsRow]:
    """Per listed rank 1..``MAX_LISTED_RANK``: application count, exam
    participation, and the share admitted to that program; a rank that no
    application has keeps its count of 0 and has no shares."""
    base = panel.base_applications
    listed = base.listed_rank
    seated = seat_rows(assignment, base)[assignment.holders]
    counts, exams, admits = (
        np.bincount(ranks, minlength=MAX_LISTED_RANK + 1)[1 : MAX_LISTED_RANK + 1].tolist()
        for ranks in (listed, listed[base.exam_taken], listed[seated[seated >= 0]])
    )
    return [
        RankStatsRow(rank, n, exam / n if n else None, admitted / n if n else None)
        for rank, (n, exam, admitted) in enumerate(zip(counts, exams, admits), start=1)
    ]


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
