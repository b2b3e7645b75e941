"""Simulator and analysis toolkit for centralized many-to-one admissions
clearinghouses: deferred acceptance matching, counterfactual scenario
suites, selection-quality diagnostics, and linear probability models."""

from .model import (
    Assignment,
    Panel,
    canonical_program_key,
    validate_panel,
)

__all__ = [
    "Assignment",
    "Panel",
    "canonical_program_key",
    "validate_panel",
]
