from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mk_app, mk_panel, mk_program
from oracle import (
    applicant_columns, assignment_of, block_of, check_assignment, program_columns, records,
    same_assignment,
)
from polyadmit import metrics
from polyadmit.errors import EmptyName, InfeasibleAssignment, ValidationError
from polyadmit.io_csv import write_assignment_csv
from polyadmit.model import Panel, canonical_program_key, validate_panel
from polyadmit.scoring import compute_score_table


class TestCanonicalProgramKey:
    def test_basic(self):
        assert canonical_program_key("Metropolia", "Nursing") == "metropolia::nursing"

    def test_trim_and_casefold(self):
        assert canonical_program_key("Metropolia ", "nursing") == "metropolia::nursing"

    def test_whitespace_pairs_collide(self):
        assert canonical_program_key(" A ", " B ") == canonical_program_key("A", "B")

    def test_empty_rejected(self):
        with pytest.raises(EmptyName):
            canonical_program_key("", "x")
        with pytest.raises(EmptyName):
            canonical_program_key("x", "   ")

    @given(st.text(min_size=1), st.text(min_size=1))
    def test_normalization_idempotent(self, a, b):
        if not a.strip() or not b.strip():
            return
        assert canonical_program_key(a, b) == canonical_program_key(
            a.strip().casefold(), b.strip().casefold()
        )


class TestValidatePanel:
    def test_empty_panel_valid(self):
        panel = Panel(
            **applicant_columns([]),
            **program_columns([]),
            applications=block_of([]),
            base_year=2011,
            field_weights={},
            bonus_points={},
        )
        assert validate_panel(panel) is panel

    def test_validate_idempotent(self, small_panel):
        once = validate_panel(small_panel)
        assert validate_panel(once) == once

    def test_rank_gap(self):
        p1 = mk_program(("P", "x"))
        p2 = mk_program(("P", "y"))
        with pytest.raises(ValidationError, match="RankGap"):
            mk_panel([p1, p2], [mk_app("a1", p1.program_key, 1), mk_app("a1", p2.program_key, 3)])

    def test_rank_cap(self):
        programs = [mk_program(("P", f"x{i}")) for i in range(5)]
        apps = [mk_app("a1", p.program_key, i + 1) for i, p in enumerate(programs)]
        with pytest.raises(ValidationError, match="RankGap"):
            mk_panel(programs, apps)

    def test_duplicate_program_in_list(self):
        p1 = mk_program(("P", "x"))
        apps = [mk_app("a1", p1.program_key, 1), mk_app("a1", p1.program_key, 2)]
        with pytest.raises(ValidationError, match="DuplicateProgram"):
            mk_panel([p1], apps)

    def test_dangling_program(self):
        with pytest.raises(ValidationError, match="DanglingForeignKey"):
            mk_panel([], [mk_app("a1", "nowhere::nothing", 1)])

    def test_quota_negative(self):
        p1 = mk_program(("P", "x"), quota=-1)
        with pytest.raises(ValidationError, match="QuotaNegative"):
            mk_panel([p1], [])

    def test_all_violations_reported_at_once(self):
        p1 = mk_program(("P", "x"), quota=-1)
        p2 = mk_program(("P", "y"))
        apps = [
            mk_app("a1", p2.program_key, 2),
            mk_app("a2", "nowhere::nothing", 1),
        ]
        with pytest.raises(ValidationError) as err:
            mk_panel([p1, p2], apps)
        kinds = "\n".join(err.value.violations)
        assert "QuotaNegative" in kinds
        assert "RankGap" in kinds
        assert "DanglingForeignKey" in kinds

    def test_year_out_of_range(self):
        p1 = mk_program(("P", "x"))
        with pytest.raises(ValidationError, match="YearOutOfRange"):
            mk_panel([p1], [mk_app("a1", p1.program_key, 1, year=2016)])


class TestColumnInvariants:
    """The coding every reader indexes with: a panel built in code that
    breaks it is rejected with each break listed, before any check reads
    a column through it."""

    @staticmethod
    def panel():
        programs = [mk_program(("P", "x")), mk_program(("P", "y"))]
        apps = [mk_app("a1", "p::x", 1), mk_app("a1", "p::y", 2), mk_app("a2", "p::y", 1)]
        return mk_panel(programs, apps, observed={"a2": "p::y"}, accepted={"a2": True})

    def violations(self, panel):
        with pytest.raises(ValidationError) as info:
            validate_panel(panel)
        return info.value.violations

    def test_repeated_program_keys(self):
        programs = [mk_program(("P", "a")), mk_program(("P", "a")), mk_program(("P", "b"))]
        with pytest.raises(ValidationError) as info:
            mk_panel(programs, [mk_app("a1", "p::a", 1)])
        assert info.value.violations == ["DuplicateId: program key 'p::a'"]

    def test_applicant_ids_must_increase(self):
        panel = self.panel()
        ids = ("a2", "a2", "a1")
        broken = replace(
            panel, applicant_ids=ids, cohort_year=np.full(3, 2011), grades=np.zeros((3, 0)),
            applications=replace(panel.applications, applicant_ids=ids), observed_assignment=None,
        )
        assert self.violations(broken) == [
            "IdOrder: applicant_ids[1] 'a2' does not follow 'a2'",
            "IdOrder: applicant_ids[2] 'a1' does not follow 'a2'",
        ]

    def test_codes_outside_the_vocabulary(self):
        panel = self.panel()
        apps = replace(
            panel.applications, applicant=np.array([0, 5, 1]), program=np.array([0, 1, -1])
        )
        observed = replace(panel.observed_assignment, seat=np.array([-1, 2]))
        assert self.violations(replace(panel, applications=apps, observed_assignment=observed)) == [
            "CodeOutOfRange: applicant #1: code 5 not in 0..1",
            "CodeOutOfRange: program #2: code -1 not in 0..1",
            "CodeOutOfRange: seat #1: code 2 not in -1..1",
        ]

    def test_shapes_that_disagree(self):
        panel = self.panel()
        broken = replace(
            panel,
            cohort_year=np.full(3, 2011),
            grades=np.zeros((2, 2)),
            quota=np.ones((2, 1), dtype=np.int64),
            applications=replace(panel.applications, year=np.full(2, 2011)),
            observed_assignment=replace(panel.observed_assignment, accept=np.ones(3, np.int8)),
        )
        assert self.violations(broken) == [
            "ShapeMismatch: cohort_year has shape (3,), expected (2,)",
            "ShapeMismatch: grades has shape (2, 2), expected (2, 0)",
            "ShapeMismatch: quota has shape (2, 1), expected (2,)",
            "ShapeMismatch: observed seat, accept has shape (2, 3), expected (2, 2)",
            "ShapeMismatch: applications.year has shape (2,), expected (3,)",
        ]

    def test_block_coded_by_other_ids(self):
        """The same applications with the applicant vocabulary reversed:
        priorities break score ties by code, so a block must code as the
        panel does."""
        panel = self.panel()
        apps = panel.applications
        reversed_apps = replace(
            apps, applicant_ids=apps.applicant_ids[::-1], applicant=1 - apps.applicant
        )
        assert records(reversed_apps) == records(apps)
        broken = replace(panel, applications=reversed_apps, observed_assignment=None)
        assert self.violations(broken) == [
            "CodingMismatch: applicant_ids of the applications or observed assignment"
        ]

    def test_observed_assignment_coded_otherwise(self):
        panel = self.panel()
        observed = assignment_of({"a2": "p::y"}, {"a2": True})  # over its own ids and keys
        assert same_assignment(observed, panel.observed_assignment)
        assert self.violations(replace(panel, observed_assignment=observed)) == [
            "CodingMismatch: applicant_ids of the applications or observed assignment",
            "CodingMismatch: program_keys of the applications or observed assignment",
        ]


class TestAssignmentChecker:
    def test_seat_without_application(self):
        p1 = mk_program(("P", "x"))
        panel = mk_panel([p1], [mk_app("a1", p1.program_key, 1)], grades={"a2": {"math": 1.0}})
        bad = assignment_of({"a2": p1.program_key}, over=panel)
        with pytest.raises(InfeasibleAssignment, match="SeatWithoutApplication"):
            check_assignment(panel, panel.base_applications, bad)

    def test_quota_exceeded(self):
        p1 = mk_program(("P", "x"), quota=1)
        apps = [mk_app("a1", p1.program_key, 1), mk_app("a2", p1.program_key, 1)]
        panel = mk_panel([p1], apps)
        bad = assignment_of({"a1": p1.program_key, "a2": p1.program_key}, over=panel)
        with pytest.raises(InfeasibleAssignment, match="QuotaExceeded"):
            check_assignment(panel, panel.base_applications, bad)

    def test_valid_assignment_passes(self):
        p1 = mk_program(("P", "x"), quota=1)
        panel = mk_panel([p1], [mk_app("a1", p1.program_key, 1)])
        good = assignment_of({"a1": p1.program_key}, {"a1": True}, over=panel)
        assert check_assignment(panel, panel.base_applications, good) is good



def test_unknown_program_key_raises(tmp_path):
    """Every reader that looks a program up by key raises KeyError for a
    key the panel does not hold, rather than reading another program."""
    p1 = mk_program(("P", "x"))
    panel = mk_panel([p1], [mk_app("a1", p1.program_key, 1)])
    ghost = assignment_of({"a1": "ghost::p"})
    with pytest.raises(KeyError, match="ghost::p"):
        compute_score_table(panel, block_of([mk_app("a1", "ghost::p", 1)]))
    with pytest.raises(KeyError, match="ghost::p"):
        write_assignment_csv(tmp_path / "assignment.csv", panel, ghost, ["a1"])
    with pytest.raises(KeyError, match="ghost::p"):
        metrics.assigned_rank_histogram(metrics.field_gpa_percentile_ranks(panel), ghost)
