"""Linear probability models on admitted applicants: seat acceptance and
later re-application as outcomes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConstantOutcome, EmptySample, MissingScore, RankDeficient
from .matching import program_thresholds
from .model import Assignment, Panel, same_coding, seat_rows
from .scoring import ScoreTable

OUTCOME_ACCEPTED = "accepted_seat"
OUTCOME_REAPPLIED = "reapplied_later"

# The leading admit columns: the base block (the intercept, the rank-2/3/4
# dummies with rank 1 as reference, and the exam-taken dummy), then the
# controls (the adjusted applicant score and the program acceptance
# threshold). The field dummies (lexicographically first field as
# reference) and both controls interacted with field follow.
BASE_TERMS = ("intercept", "rank2", "rank3", "rank4", "exam_taken")
CONTROL_TERMS = ("adjusted_score", "threshold")

# Table-shaped report: three columns per outcome, each an (outcome, width)
# pair fitting the first ``width`` admit columns (``None``: all of them).
REPORT_SPECS = tuple(
    (outcome, width)
    for outcome in (OUTCOME_ACCEPTED, OUTCOME_REAPPLIED)
    for width in (len(BASE_TERMS), len(BASE_TERMS) + len(CONTROL_TERMS), None)
)


@dataclass(frozen=True)
class RegressionResult:
    terms: tuple[str, ...]
    estimates: tuple[float, ...]
    standard_errors: tuple[float, ...]
    n: int
    mean_y: float


def ols(
    X: np.ndarray,
    y: np.ndarray,
    terms: Optional[Sequence[str]] = None,
    robust: bool = False,
) -> RegressionResult:
    """OLS via QR; raises on rank deficiency instead of dropping columns,
    naming each column that adds nothing to the ones before it. Classical
    standard errors by default, HC1 when ``robust``. Raises
    ``EmptySample`` when no residual degrees of freedom remain (n <= k),
    where neither standard error is defined."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if terms is None:
        terms = tuple(f"x{i}" for i in range(k))
    terms = tuple(terms)

    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    deficient = diag <= max(n, k) * np.finfo(float).eps * diag.max(initial=0.0)
    if deficient.any():
        raise RankDeficient([terms[i] for i in np.flatnonzero(deficient)])
    dof = n - k
    if dof <= 0:
        raise EmptySample(f"{n} observations leave no residual degrees of freedom for {k} terms")

    beta = np.linalg.solve(R, Q.T @ y)
    residuals = y - X @ beta

    XtX_inv = np.linalg.inv(X.T @ X)
    if robust:
        meat = X.T @ (X * (residuals**2)[:, None])
        cov = XtX_inv @ meat @ XtX_inv * (n / dof)
    else:
        s2 = residuals @ residuals / dof
        cov = s2 * XtX_inv
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))

    return RegressionResult(
        terms=terms,
        estimates=tuple(beta.tolist()),
        standard_errors=tuple(se.tolist()),
        n=n,
        mean_y=float(y.mean()),
    )


def _admit_columns(
    panel: Panel,
    assignment: Assignment,
    thresholds: Mapping[str, float],
    table: ScoreTable,
) -> tuple[np.ndarray, tuple[str, ...], dict[str, np.ndarray]]:
    """One row per admitted applicant, in id order: the C-contiguous
    matrix of every column any report spec uses, its terms, and both
    outcomes. ``table`` scores the base-year lists."""
    n_admitted = len(assignment.holders)
    if not n_admitted:
        raise EmptySample("no admitted applicants")

    apps = table.applications
    same_coding(panel, apps)
    rows = seat_rows(assignment, apps)[assignment.holders]  # admits in id order
    if (rows < 0).any():
        raise MissingScore("an admitted applicant has no base-year row in the score table")
    threshold = np.array([thresholds.get(p, np.nan) for p in apps.program_keys])[apps.program[rows]]
    # The total less the exam, then less the bonus: the adjusted score.
    adjusted = table.totals[rows] - table.exam[rows] - table.bonus[rows]
    rank = apps.listed_rank[rows]
    dummy_fields = panel.fields[1:]  # first field is the reference category
    dummy = panel.field_code[apps.program[rows]] - 1
    dummies = (dummy[:, None] == np.arange(len(dummy_fields))).astype(float)
    X = np.column_stack(
        [
            np.ones(n_admitted),
            rank == 2,
            rank == 3,
            rank == 4,
            table.exam_taken[rows],
            adjusted,
            threshold,
            dummies,
            adjusted[:, None] * dummies,
            threshold[:, None] * dummies,
        ]
    )
    terms = BASE_TERMS + CONTROL_TERMS
    for prefix in ("field_", "adjusted_score_x_", "threshold_x_"):
        terms += tuple(prefix + f for f in dummy_fields)

    admits, later = apps.applicant[rows], panel.applications
    outcomes = {
        OUTCOME_ACCEPTED: (assignment.accept[admits] == 1) * 1.0,
        OUTCOME_REAPPLIED: np.isin(admits, later.applicant[later.year > panel.base_year]) * 1.0,
    }
    return X, terms, outcomes


def lpm_report(
    panel: Panel,
    assignment: Assignment,
    table: ScoreTable,
    robust: bool = False,
) -> list[RegressionResult]:
    """Fit the six report columns on the admitted sample.

    ``table`` scores the base-year lists row for row; each program's
    acceptance threshold is the lowest total among its admits. The admit
    columns are built once and every spec fits a column prefix of them.
    An outcome with one value among all admits raises ``ConstantOutcome``.
    """
    thresholds = program_thresholds(table, assignment)
    X, terms, outcomes = _admit_columns(panel, assignment, thresholds, table)
    for outcome, y in outcomes.items():
        if (y == y[0]).all():
            raise ConstantOutcome(f"outcome {outcome!r} is {y[0]:g} for all {len(y)} admits")
    return [
        ols(np.ascontiguousarray(X[:, :width]), outcomes[outcome], terms[:width], robust)
        for outcome, width in REPORT_SPECS
    ]
