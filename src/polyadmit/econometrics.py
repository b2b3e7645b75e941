"""Linear probability models on admitted applicants: seat acceptance and
later re-application as outcomes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import matching
from .errors import EmptySample, MissingThreshold, RankDeficient
from .model import Assignment, Panel
from .scoring import adjusted_score, compute_score_table

OUTCOME_ACCEPTED = "accepted_seat"
OUTCOME_REAPPLIED = "reapplied_later"


@dataclass(frozen=True)
class DesignSpec:
    """One regression column: outcome plus the control block to include.

    The base block (always present) is the intercept, the rank-2/3/4
    dummies with rank 1 as reference, and the exam-taken dummy. Controls
    add the adjusted applicant score and the program acceptance threshold;
    field interactions additionally add field dummies (lexicographically
    first field as reference) and both controls interacted with field.
    """

    outcome: str
    controls: bool = False
    field_interactions: bool = False


# Table-shaped report: three columns per outcome.
REPORT_SPECS = (
    DesignSpec(OUTCOME_ACCEPTED),
    DesignSpec(OUTCOME_ACCEPTED, controls=True),
    DesignSpec(OUTCOME_ACCEPTED, controls=True, field_interactions=True),
    DesignSpec(OUTCOME_REAPPLIED),
    DesignSpec(OUTCOME_REAPPLIED, controls=True),
    DesignSpec(OUTCOME_REAPPLIED, controls=True, field_interactions=True),
)


@dataclass(frozen=True)
class RegressionResult:
    terms: tuple[str, ...]
    estimates: tuple[float, ...]
    standard_errors: tuple[float, ...]
    n: int
    mean_y: float

    def coef(self, term: str) -> float:
        return self.estimates[self.terms.index(term)]

    def se(self, term: str) -> float:
        return self.standard_errors[self.terms.index(term)]


def ols(
    X: np.ndarray,
    y: np.ndarray,
    terms: Optional[Sequence[str]] = None,
    robust: bool = False,
) -> RegressionResult:
    """OLS via pivoted QR; raises on rank deficiency instead of dropping
    columns. Classical standard errors by default, HC1 when ``robust``.
    Raises ``EmptySample`` when no residual degrees of freedom remain
    (n <= k), where neither standard error is defined."""
    import scipy.linalg  # deferred: most runs fit no regression

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if terms is None:
        terms = tuple(f"x{i}" for i in range(k))
    terms = tuple(terms)

    Q, R, pivot = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(n, k) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    deficient = diag <= tol
    if deficient.any():
        raise RankDeficient([terms[pivot[i]] for i in np.nonzero(deficient)[0]])
    dof = n - k
    if dof <= 0:
        raise EmptySample(f"{n} observations leave no residual degrees of freedom for {k} terms")

    beta_pivoted = scipy.linalg.solve_triangular(R, Q.T @ y)
    beta = np.empty(k)
    beta[pivot] = beta_pivoted
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


def build_design_matrix(
    panel: Panel,
    assignment: Assignment,
    thresholds: Mapping[str, float],
    spec: DesignSpec,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """One row per admitted applicant; columns per the design spec."""
    admitted = sorted(assignment.seat_of)
    if not admitted:
        raise EmptySample("no admitted applicants")

    base_app = {
        (a.applicant_id, a.program_key): a for a in panel.base_applications
    }
    scores = compute_score_table(panel, panel.base_applications)
    later_appliers = {
        a.applicant_id for a in panel.applications if a.year > panel.base_year
    }
    fields = sorted(panel.field_weights)
    dummy_fields = fields[1:]  # first field is the reference category

    terms = ["intercept", "rank2", "rank3", "rank4", "exam_taken"]
    if spec.controls:
        terms += ["adjusted_score", "threshold"]
    if spec.field_interactions:
        terms += [f"field_{f}" for f in dummy_fields]
        terms += [f"adjusted_score_x_{f}" for f in dummy_fields]
        terms += [f"threshold_x_{f}" for f in dummy_fields]

    rows = []
    y = []
    for applicant_id in admitted:
        program_key = assignment.seat_of[applicant_id]
        app = base_app[(applicant_id, program_key)]
        components = scores.entries[(applicant_id, program_key, panel.base_year)]
        if program_key not in thresholds:
            raise MissingThreshold(f"no acceptance threshold for {program_key!r}")
        threshold = thresholds[program_key]
        adj = adjusted_score(components)
        field_label = panel.field_of(program_key)

        row = [
            1.0,
            1.0 if app.listed_rank == 2 else 0.0,
            1.0 if app.listed_rank == 3 else 0.0,
            1.0 if app.listed_rank == 4 else 0.0,
            1.0 if app.exam_taken else 0.0,
        ]
        if spec.controls:
            row += [adj, threshold]
        if spec.field_interactions:
            dummies = [1.0 if field_label == f else 0.0 for f in dummy_fields]
            row += dummies
            row += [adj * d for d in dummies]
            row += [threshold * d for d in dummies]
        rows.append(row)

        if spec.outcome == OUTCOME_ACCEPTED:
            y.append(1.0 if assignment.accepted.get(applicant_id, False) else 0.0)
        elif spec.outcome == OUTCOME_REAPPLIED:
            y.append(1.0 if applicant_id in later_appliers else 0.0)
        else:
            raise ValueError(f"unknown outcome {spec.outcome!r}")

    return np.array(rows), np.array(y), tuple(terms)


def lpm_report(
    panel: Panel,
    assignment: Assignment,
    robust: bool = False,
    specs: Sequence[DesignSpec] = REPORT_SPECS,
) -> list[RegressionResult]:
    """Fit the six report columns on the admitted sample."""
    table = compute_score_table(panel, panel.base_applications)
    quotas = {p: prog.quota for p, prog in panel.programs.items()}
    instance = matching.build_instance(panel.base_applications, table, quotas)
    thresholds = matching.program_thresholds(instance, assignment)
    results = []
    for spec in specs:
        X, y, terms = build_design_matrix(panel, assignment, thresholds, spec)
        results.append(ols(X, y, terms, robust=robust))
    return results
