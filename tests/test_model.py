import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mk_app, mk_panel, mk_program
from oracle import check_assignment
from polyadmit.errors import EmptyName, InfeasibleAssignment, ValidationError
from polyadmit.model import Assignment, Panel, canonical_program_key, validate_panel


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
            applicants={},
            programs={},
            applications=(),
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


class TestAssignmentChecker:
    def test_seat_without_application(self):
        p1 = mk_program(("P", "x"))
        panel = mk_panel([p1], [mk_app("a1", p1.program_key, 1)])
        bad = Assignment(seat_of={"a2": p1.program_key})
        with pytest.raises(InfeasibleAssignment, match="SeatWithoutApplication"):
            check_assignment(panel, panel.base_applications, bad)

    def test_quota_exceeded(self):
        p1 = mk_program(("P", "x"), quota=1)
        apps = [mk_app("a1", p1.program_key, 1), mk_app("a2", p1.program_key, 1)]
        panel = mk_panel([p1], apps)
        bad = Assignment(seat_of={"a1": p1.program_key, "a2": p1.program_key})
        with pytest.raises(InfeasibleAssignment, match="QuotaExceeded"):
            check_assignment(panel, panel.base_applications, bad)

    def test_valid_assignment_passes(self):
        p1 = mk_program(("P", "x"), quota=1)
        panel = mk_panel([p1], [mk_app("a1", p1.program_key, 1)])
        good = Assignment(seat_of={"a1": p1.program_key}, accepted={"a1": True})
        assert check_assignment(panel, panel.base_applications, good) is good
