"""Selection-quality diagnostics: GPA percentile ranks, tercile
unassignment rates, per-rank application statistics, and the assigned-rank
histograms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import BinMismatch, EmptyAssignment
from .model import Assignment, Panel
from .scoring import ScoreTable, weighted_gpa_matrix

N_BINS = 100

CRITERION_MATRICULATION = "matriculation"
CRITERION_ADMISSION_SCORE = "admission_score"

# (applicant_id, field) -> percentile rank in [0, 100], higher = better GPA
RankTable = Mapping[tuple[str, str], float]


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


def field_gpa_percentile_ranks(panel: Panel) -> dict[tuple[str, str], float]:
    """Rank every panel applicant by field-weighted GPA, per field."""
    applicant_ids = sorted(panel.applicants)
    fields = sorted(panel.field_weights)
    gpa = weighted_gpa_matrix(panel, applicant_ids, fields)
    table: dict[tuple[str, str], float] = {}
    for j, field_label in enumerate(fields):
        for a, pct in zip(applicant_ids, _midpoint_percentiles(gpa[:, j])):
            table[(a, field_label)] = pct
    return table


@dataclass(frozen=True)
class TercileReport:
    criterion: str
    unassigned_fraction: tuple[float, float, float]  # top, middle, bottom third
    tercile_sizes: tuple[int, int, int]
    excluded_applicants: tuple[str, ...]  # no base-year applications


def tercile_unassignment(
    panel: Panel, table: ScoreTable, assignment: Assignment, criterion: str
) -> TercileReport:
    """Fraction of applicants rejected everywhere, by tercile of their mean
    percentile rank across the applicant pools they entered.

    ``table`` scores the base-year lists: its weighted GPA column ranks by
    matriculation, its totals by admission score.
    """
    if criterion not in (CRITERION_MATRICULATION, CRITERION_ADMISSION_SCORE):
        raise ValueError(f"unknown criterion {criterion!r}")
    values = table.gpa if criterion == CRITERION_MATRICULATION else table.totals

    # (applicant, table row) per program, in first-application order
    pools: dict[str, list[tuple[str, int]]] = {}
    for i, (applicant_id, program_key, _year) in enumerate(table.keys):
        pools.setdefault(program_key, []).append((applicant_id, i))

    # percentile of each applicant within each pool they applied to, kept
    # in pool order so each mean adds them in a fixed order
    pool_percentiles: dict[str, dict[str, float]] = {}
    for program_key, pool in pools.items():
        pool.sort()
        pcts = _midpoint_percentiles(values[[i for _, i in pool]])
        for (a, _), pct in zip(pool, pcts):
            pool_percentiles.setdefault(a, {})[program_key] = pct

    mean_rank = {
        a: sum(ranks.values()) / len(ranks) for a, ranks in pool_percentiles.items()
    }

    excluded = tuple(sorted(set(panel.applicants) - set(mean_rank)))
    ordered = sorted(mean_rank, key=lambda a: (-mean_rank[a], a))
    n = len(ordered)
    q, r = divmod(n, 3)
    sizes = tuple(q + (1 if i < r else 0) for i in range(3))
    fractions = []
    start = 0
    for size in sizes:
        group = ordered[start : start + size]
        start += size
        unassigned = sum(1 for a in group if a not in assignment.seat_of)
        fractions.append(unassigned / size if size else 0.0)
    return TercileReport(
        criterion=criterion,
        unassigned_fraction=tuple(fractions),
        tercile_sizes=sizes,
        excluded_applicants=excluded,
    )


@dataclass(frozen=True)
class RankStatsRow:
    listed_rank: int
    n_applications: int
    exam_taken_share: float
    admitted_share: float


def application_rank_stats(panel: Panel, assignment: Assignment) -> list[RankStatsRow]:
    """Per listed rank 1..4: application count, exam participation, and the
    share admitted to that program."""
    rows = []
    base = panel.base_applications
    for rank in range(1, 5):
        apps = [a for a in base if a.listed_rank == rank]
        n = len(apps)
        exams = sum(1 for a in apps if a.exam_taken)
        admitted = sum(
            1 for a in apps if assignment.seat_of.get(a.applicant_id) == a.program_key
        )
        rows.append(
            RankStatsRow(
                listed_rank=rank,
                n_applications=n,
                exam_taken_share=exams / n if n else 0.0,
                admitted_share=admitted / n if n else 0.0,
            )
        )
    return rows


@dataclass(frozen=True)
class Histogram100:
    """100 unit-percentile bins ([k, k+1) for k < 99, [99, 100] for the
    last); ``uniform_level`` is the reference line |applicants| / 100."""

    bins: tuple[float, ...]
    uniform_level: Optional[float] = None

    def total(self) -> float:
        return sum(self.bins)


def assigned_rank_histogram(
    rank_table: RankTable,
    assignment: Assignment,
    program_field: Mapping[str, str],
    n_applicants: int,
) -> Histogram100:
    """Bin assigned applicants by their GPA rank at the assigned program's
    field."""
    bins = [0.0] * N_BINS
    for applicant_id, program_key in assignment.seat_of.items():
        rank = rank_table[(applicant_id, program_field[program_key])]
        bins[min(int(rank), N_BINS - 1)] += 1.0
    return Histogram100(bins=tuple(bins), uniform_level=n_applicants / N_BINS)


def net_change_histogram(base: Histogram100, cf: Histogram100) -> Histogram100:
    if len(base.bins) != len(cf.bins):
        raise BinMismatch(f"bin counts differ: {len(base.bins)} vs {len(cf.bins)}")
    return Histogram100(bins=tuple(c - b for b, c in zip(base.bins, cf.bins)))


def mean_rank_improvement(
    rank_table: RankTable,
    base: Assignment,
    cf: Assignment,
    program_field: Mapping[str, str],
) -> float:
    """Mean assigned-field GPA rank of counterfactual admits minus that of
    baseline admits, in percentile points."""

    def mean_rank(assignment: Assignment) -> float:
        if not assignment.seat_of:
            raise EmptyAssignment("assignment has no admits")
        ranks = [
            rank_table[(a, program_field[p])] for a, p in assignment.seat_of.items()
        ]
        return sum(ranks) / len(ranks)

    return mean_rank(cf) - mean_rank(base)
