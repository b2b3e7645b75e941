"""Report-file writers: one CSV per published-table layout."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from . import metrics, scoring
from .econometrics import RegressionResult
from .io_csv import _write_csv, fmt
from .synth import CalibrationRow

WEIGHT_LABELS = {
    "gpa": "matriculation_gpa",
    "exam": "entrance_exam",
    "first_choice_bonus": "program_listed_first",
    "residual": "residual",
}


def write_weight_report(path: Path, weights: Mapping[str, float]) -> None:
    _write_csv(
        path,
        ["component", "effective_weight"],
        ([WEIGHT_LABELS[name], fmt(weights[name])] for name in scoring.WEIGHT_COMPONENTS),
    )


def write_tercile_report(path: Path, reports: Sequence[metrics.TercileReport]) -> None:
    labels = ("highest_third", "middle_third", "lowest_third")
    _write_csv(
        path,
        ["criterion", "tercile", "unassigned_fraction", "tercile_size"],
        (
            [report.criterion, label, fmt(frac), str(size)]
            for report in reports
            for label, frac, size in zip(
                labels, report.unassigned_fraction, report.tercile_sizes
            )
        ),
    )


def write_rank_stats(path: Path, rows: Sequence[metrics.RankStatsRow]) -> None:
    _write_csv(
        path,
        ["listed_rank", "n_applications", "exam_taken_share", "admitted_share"],
        (
            [str(r.listed_rank), str(r.n_applications), fmt(r.exam_taken_share), fmt(r.admitted_share)]
            for r in rows
        ),
    )


def write_scenario_suite(path: Path, rows: Sequence[tuple[str, float, float, float]]) -> None:
    """One row per scenario: its id, applications per applicant, the share
    of applicants assigned differently from S1 and the mean rank
    improvement over S1."""
    _write_csv(
        path,
        ["scenario", "apps_per_applicant", "pct_differently_assigned", "rank_improvement"],
        (
            [s, fmt(apps), fmt(100.0 * share), fmt(improvement)]
            for s, apps, share, improvement in rows
        ),
    )


def write_lpm_report(path: Path, results: Mapping[str, RegressionResult]) -> None:
    rows = []
    for column, result in results.items():
        for term, estimate, se in zip(result.terms, result.estimates, result.standard_errors):
            rows.append([column, term, fmt(estimate), fmt(se)])
        rows.append([column, "mean_dependent_variable", fmt(result.mean_y), ""])
        rows.append([column, "n", str(result.n), ""])
    _write_csv(path, ["column", "term", "estimate", "std_error"], rows)


def write_figure_data(path: Path, panels: Mapping[str, Sequence[float]]) -> None:
    _write_csv(
        path,
        ["panel", "bin", "value"],
        (
            [panel, str(b), fmt(value)]
            for panel, histogram in panels.items()
            for b, value in enumerate(histogram)
        ),
    )


def write_calibration_report(path: Path, rows: Sequence[CalibrationRow]) -> None:
    _write_csv(
        path,
        ["name", "target", "actual", "abs_deviation"],
        ([r.name, fmt(r.target), fmt(r.actual), fmt(r.abs_deviation)] for r in rows),
    )
