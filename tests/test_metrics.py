import numpy as np
import pytest

from conftest import mk_app, mk_panel, mk_program
from polyadmit import metrics
from polyadmit.errors import BinMismatch, EmptyAssignment, EmptySample
from polyadmit.metrics import (
    CRITERION_ADMISSION_SCORE,
    CRITERION_MATRICULATION,
    RankTable,
    application_rank_stats,
    assigned_rank_histogram,
    field_gpa_percentile_ranks,
    mean_rank_improvement,
    net_change_histogram,
    tercile_unassignment,
)
from oracle import assignment_of, rank_of
from polyadmit.scoring import compute_score_table


def base_table(panel):
    return compute_score_table(panel, panel.base_applications)


def rank_table(ranks, program_field={}, fields=("f",)):
    """A rank table from each applicant id's row of ranks, one per field,
    and each program key's field."""
    matrix = np.array(list(ranks.values()), dtype=float).reshape(len(ranks), len(fields))
    field_code = np.array([fields.index(f) for f in program_field.values()], dtype=np.intp)
    return RankTable(tuple(ranks), fields, matrix, tuple(program_field), field_code)


def gpa_panel(grades, n_programs=1):
    programs = [mk_program(("P", f"x{i}"), quota=1) for i in range(n_programs)]
    apps = [mk_app(a, programs[0].program_key, 1) for a in sorted(grades)]
    return mk_panel(programs, apps, grades=grades)


class TestPercentileRanks:
    def test_single_applicant_is_midpoint(self):
        panel = gpa_panel({"a1": {"math": 5.0}})
        ranks = field_gpa_percentile_ranks(panel)
        assert rank_of(ranks, "a1", "field0") == 50.0

    def test_two_distinct(self):
        panel = gpa_panel({"a1": {"math": 5.0}, "a2": {"math": 9.0}})
        ranks = field_gpa_percentile_ranks(panel)
        assert rank_of(ranks, "a1", "field0") == 25.0
        assert rank_of(ranks, "a2", "field0") == 75.0

    def test_hundred_distinct_closed_form(self):
        grades = {f"a{i:03d}": {"math": float(i)} for i in range(100)}
        panel = gpa_panel(grades)
        ranks = field_gpa_percentile_ranks(panel)
        expected = {f"a{i:03d}": i + 0.5 for i in range(100)}
        for a, want in expected.items():
            assert rank_of(ranks, a, "field0") == pytest.approx(want)

    def test_ties_share_mean_rank(self):
        panel = gpa_panel({"a1": {"math": 5.0}, "a2": {"math": 5.0}})
        ranks = field_gpa_percentile_ranks(panel)
        assert rank_of(ranks, "a1", "field0") == rank_of(ranks, "a2", "field0") == 50.0

    def test_monotone_transform_invariance(self, small_panel):
        base = field_gpa_percentile_ranks(small_panel)
        # x -> 2x + 1 on grades is strictly monotone in the weighted GPA
        # (positive weights), so ranks must be unchanged
        import dataclasses

        transformed = dataclasses.replace(small_panel, grades=2 * small_panel.grades + 1)
        assert field_gpa_percentile_ranks(transformed).ranks == pytest.approx(base.ranks)


class TestTercileUnassignment:
    def test_all_unassigned(self):
        grades = {f"a{i}": {"math": float(i)} for i in range(6)}
        panel = gpa_panel(grades)
        reports = tercile_unassignment(base_table(panel), assignment_of({}, over=panel))
        assert [r.unassigned_fraction for r in reports] == [(1.0, 1.0, 1.0)] * 2

    def test_nine_applicant_hand_fixture(self):
        # single pool, GPAs 1..9; terciles: {a8,a7,a6}, {a5,a4,a3}, {a2,a1,a0}
        # assigned: a8 (top), a4 (middle); bottom all unassigned
        grades = {f"a{i}": {"math": float(i + 1)} for i in range(9)}
        p = mk_program(("P", "x"), quota=2)
        apps = [mk_app(a, p.program_key, 1) for a in sorted(grades)]
        panel = mk_panel([p], apps, grades=grades)
        assignment = assignment_of({"a8": p.program_key, "a4": p.program_key}, over=panel)
        table = base_table(panel)
        report, _ = tercile_unassignment(table, assignment)
        assert report.tercile_sizes == (3, 3, 3)
        assert report.unassigned_fraction == pytest.approx((2 / 3, 2 / 3, 1.0))

    def test_sizes_differ_by_at_most_one(self, small_panel):
        reports = tercile_unassignment(base_table(small_panel), small_panel.observed_assignment)
        assert [r.criterion for r in reports] == [CRITERION_MATRICULATION, CRITERION_ADMISSION_SCORE]
        for report in reports:
            assert max(report.tercile_sizes) - min(report.tercile_sizes) <= 1
            assert all(0.0 <= f <= 1.0 for f in report.unassigned_fraction)

    def test_admission_score_criterion_uses_totals(self):
        # GPA order a1 < a2, but a1's exam flips the admission score order;
        # a3 ranks last by both, so each third holds one applicant
        p = mk_program(("P", "x"), quota=1)
        apps = [
            mk_app("a1", p.program_key, 1, exam=True, exam_score=50.0),
            mk_app("a2", p.program_key, 1),
            mk_app("a3", p.program_key, 1),
        ]
        grades = {"a1": {"math": 1.0}, "a2": {"math": 9.0}, "a3": {"math": 0.5}}
        panel = mk_panel([p], apps, grades=grades)
        assignment = assignment_of({"a1": p.program_key}, over=panel)
        table = base_table(panel)
        by_gpa, by_score = tercile_unassignment(table, assignment)
        # a2 tops the GPA ranking but a1 tops the score ranking
        assert by_gpa.unassigned_fraction == (1.0, 0.0, 1.0)
        assert by_score.unassigned_fraction == (0.0, 1.0, 1.0)

    def test_fewer_than_three_ranked_applicants_have_no_thirds(self):
        panel = gpa_panel({"a1": {"math": 1.0}, "a2": {"math": 9.0}})
        with pytest.raises(EmptySample, match="2 applicants ranked by matriculation"):
            tercile_unassignment(base_table(panel), assignment_of({}, over=panel))

    def test_published_table_renders(self, tmp_path):
        from polyadmit.metrics import TercileReport
        from polyadmit.reports import write_tercile_report

        rows = [
            TercileReport("matriculation", (0.54, 0.69, 0.80), (1, 1, 1)),
            TercileReport("admission_score", (0.34, 0.76, 0.95), (1, 1, 1)),
        ]
        path = tmp_path / "table2.csv"
        write_tercile_report(path, rows)
        lines = path.read_text().splitlines()
        assert lines[1] == "matriculation,highest_third,0.540000,1"
        assert lines[4] == "admission_score,highest_third,0.340000,1"


class TestApplicationRankStats:
    def test_single_choice_panel(self):
        p = mk_program(("P", "x"), quota=1)
        apps = [mk_app("a1", p.program_key, 1, exam=True, exam_score=1.0)]
        panel = mk_panel([p], apps)
        rows = application_rank_stats(panel, assignment_of({"a1": p.program_key}, over=panel))
        assert rows[0].n_applications == 1
        assert rows[0].exam_taken_share == 1.0
        assert rows[0].admitted_share == 1.0
        assert all(r.n_applications == 0 for r in rows[1:])

    def test_counts_non_increasing_in_rank(self, small_panel):
        rows = application_rank_stats(small_panel, small_panel.observed_assignment)
        counts = [r.n_applications for r in rows]
        assert counts == sorted(counts, reverse=True)


class TestHistograms:
    def test_nobody_assigned(self):
        hist = assigned_rank_histogram(rank_table({}), assignment_of({}))
        assert hist == (0.0,) * 100

    def test_uniform_when_everyone_assigned_distinct(self):
        n = 200
        grades = {f"a{i:03d}": {"math": float(i)} for i in range(n)}
        p = mk_program(("P", "x"), quota=n)
        apps = [mk_app(a, p.program_key, 1) for a in sorted(grades)]
        panel = mk_panel([p], apps, grades=grades)
        ranks = field_gpa_percentile_ranks(panel)
        assignment = assignment_of({a: p.program_key for a in grades}, over=panel)
        hist = assigned_rank_histogram(ranks, assignment)
        assert set(hist) == {n / 100}

    def test_count_conservation(self, small_panel):
        ranks = field_gpa_percentile_ranks(small_panel)
        assignment = small_panel.observed_assignment
        hist = assigned_rank_histogram(ranks, assignment)
        assert sum(hist) == len(assignment.seat_of)

    def test_net_change(self):
        base = tuple([3.0] + [0.0] * 99)
        cf = tuple([5.0] + [0.0] * 99)
        net = net_change_histogram(base, cf)
        assert net[0] == 2.0
        assert sum(net) == 2.0

    def test_identical_inputs_zero(self):
        h = tuple(float(i) for i in range(100))
        assert sum(net_change_histogram(h, h)) == 0.0

    def test_bin_mismatch(self):
        with pytest.raises(BinMismatch):
            net_change_histogram((1.0,), (1.0, 2.0))


class TestMeanRankImprovement:
    def test_identical_assignments(self):
        ranks = rank_table({"a1": [60.0]}, {"p1": "f"})
        a = assignment_of({"a1": "p1"}, over=ranks)
        assert mean_rank_improvement(ranks, a, a) == 0.0

    def test_two_admit_hand_fixture(self):
        ranks = rank_table({"a1": [20.0], "a2": [40.0], "a3": [90.0]}, {"p1": "f", "p2": "f"})
        base = assignment_of({"a1": "p1", "a2": "p2"}, over=ranks)  # mean 30
        cf = assignment_of({"a3": "p1", "a2": "p2"}, over=ranks)  # mean 65
        assert mean_rank_improvement(ranks, base, cf) == pytest.approx(35.0)

    def test_empty_assignment(self):
        with pytest.raises(EmptyAssignment):
            mean_rank_improvement(rank_table({}), assignment_of({}), assignment_of({}))
