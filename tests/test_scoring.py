import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mk_app, mk_panel, mk_program
from oracle import adjusted_score, applicants_of, block_of, programs_of, records, score_rows
from polyadmit import scoring
from polyadmit.errors import DegenerateTable
from polyadmit.scoring import (
    ScoreComponents,
    compute_score_table,
    effective_weights,
    propagate_entrance_exams,
    remove_first_choice_points,
)

ENG = "engineering"
BUS = "business"


def engineering_panel(applications, grades=None, bonus=5.0):
    p_eng1 = mk_program(("Poly", "Eng A"), field=ENG)
    p_eng2 = mk_program(("Poly", "Eng B"), field=ENG)
    p_bus = mk_program(("Poly", "Biz"), field=BUS)
    return mk_panel(
        [p_eng1, p_eng2, p_bus],
        applications,
        grades=grades or {},
        weights={ENG: {"math": 2.0}, BUS: {"math": 1.0}},
        bonus={ENG: bonus, BUS: bonus},
    )


class TestComputeScoreTable:
    def test_all_zero(self):
        panel = engineering_panel([mk_app("a1", "poly::eng a", 1), mk_app("a1", "poly::eng b", 2)], bonus=0.0)
        table = compute_score_table(panel, panel.base_applications)
        c = table.entries[("a1", "poly::eng b", 2011)]
        assert c.total == 0.0

    def test_component_decomposition(self):
        panel = engineering_panel(
            [mk_app("a1", "poly::eng a", 1, exam=True, exam_score=30.0)],
            grades={"a1": {"math": 6.0}},
        )
        c = table_entry(panel, "a1", "poly::eng a")
        assert (c.gpa_component, c.exam_component, c.first_choice_bonus, c.other_points) == (
            12.0, 30.0, 5.0, 0.0,
        )
        assert c.total == 47.0

    def test_missing_subject_counts_as_zero(self):
        panel = engineering_panel(
            [mk_app("a1", "poly::eng a", 1)], grades={"a1": {"history": 9.0}}, bonus=0.0
        )
        assert table_entry(panel, "a1", "poly::eng a").gpa_component == 0.0

    def test_matches_straight_line_oracle(self, small_panel):
        # independent naive recomputation per record
        table = compute_score_table(small_panel, small_panel.base_applications)
        applicants, programs = applicants_of(small_panel), programs_of(small_panel)
        for app in records(table.applications):
            field = programs[app.program_key].field
            gpa = 0.0
            for subject, w in small_panel.field_weights[field].items():
                gpa += w * applicants[app.applicant_id].matriculation_grades.get(subject, 0.0)
            exam = app.exam_score if app.exam_taken else 0.0
            bonus = small_panel.bonus_points[field] if app.listed_rank == 1 else 0.0
            expected = gpa + exam + bonus + app.other_points
            key = (app.applicant_id, app.program_key, app.year)
            assert table.entries[key].total == pytest.approx(expected, abs=1e-12)

    def test_exam_is_the_blocks_own_column(self, small_panel):
        apps = small_panel.base_applications
        table = compute_score_table(small_panel, apps)
        assert np.shares_memory(table.exam, apps.exam_score)

    def test_negative_zero_exam_score_gives_the_zeroed_totals(self):
        # a valid panel scores +-0.0 without an exam, and either sums alike
        panel = engineering_panel(
            [
                mk_app("a1", "poly::eng a", 1, exam_score=-0.0),
                mk_app("a2", "poly::eng b", 1, exam=True, exam_score=0.0),
            ],
            bonus=0.0,
        )
        apps = panel.base_applications
        table = compute_score_table(panel, apps)
        zeroed = np.where(apps.exam_taken, apps.exam_score, 0.0)
        expected = table.gpa + zeroed + table.bonus + table.other
        assert table.totals.tobytes() == expected.tobytes()
        assert not np.signbit(table.totals).any()

    def test_order_independent(self, small_panel):
        apps = small_panel.base_applications
        t1 = compute_score_table(small_panel, apps)
        t2 = compute_score_table(small_panel, apps.take(np.arange(len(apps))[::-1]))
        assert score_rows(t1) == score_rows(t2)


def table_entry(panel, applicant_id, program_key):
    table = compute_score_table(panel, panel.base_applications)
    return table.entries[(applicant_id, program_key, panel.base_year)]


class TestRemoveFirstChoicePoints:
    def test_no_rank_one_unchanged_totals(self):
        panel = engineering_panel(
            [mk_app("a1", "poly::eng a", 1), mk_app("a1", "poly::eng b", 2)], bonus=0.0
        )
        table = compute_score_table(panel, panel.base_applications)
        stripped = remove_first_choice_points(table)
        assert all(
            stripped.entries[k].total == table.entries[k].total for k in table.entries
        )

    def test_single_entry(self):
        panel = engineering_panel(
            [mk_app("a1", "poly::eng a", 1, exam=True, exam_score=30.0)],
            grades={"a1": {"math": 6.0}},
        )
        table = compute_score_table(panel, panel.base_applications)
        c = remove_first_choice_points(table).entries[("a1", "poly::eng a", 2011)]
        assert (c.gpa_component, c.exam_component, c.first_choice_bonus, c.other_points) == (
            12.0, 30.0, 0.0, 0.0,
        )

    def test_accounting_identity(self, small_panel):
        table = compute_score_table(small_panel, small_panel.base_applications)
        stripped = remove_first_choice_points(table)
        total_before = sum(c.total for c in table.entries.values())
        total_after = sum(c.total for c in stripped.entries.values())
        total_bonus = sum(c.first_choice_bonus for c in table.entries.values())
        assert total_before - total_after == pytest.approx(total_bonus)

    def test_other_components_bit_identical(self, small_panel):
        table = compute_score_table(small_panel, small_panel.base_applications)
        stripped = remove_first_choice_points(table)
        for key, c in table.entries.items():
            s = stripped.entries[key]
            assert (s.gpa_component, s.exam_component, s.other_points) == (
                c.gpa_component, c.exam_component, c.other_points,
            )

    def test_idempotent(self, small_panel):
        once = remove_first_choice_points(
            compute_score_table(small_panel, small_panel.base_applications)
        )
        twice = remove_first_choice_points(once)
        assert score_rows(once) == score_rows(twice)
        assert once.totals.tolist() == twice.totals.tolist()

    def test_bonus_is_one_shared_zero(self, small_panel):
        table = compute_score_table(small_panel, small_panel.base_applications)
        bonus = remove_first_choice_points(table).bonus
        assert bonus.shape == (len(table.applications),) and bonus.strides == (0,)
        assert not bonus.flags.writeable and not bonus.any()


class TestTransformsCommute:
    def test_propagate_remove_equals_remove_propagate(self, small_panel):
        table = compute_score_table(small_panel, small_panel.base_applications)
        a = propagate_entrance_exams(small_panel, remove_first_choice_points(table))
        b = remove_first_choice_points(propagate_entrance_exams(small_panel, table))
        assert score_rows(a) == score_rows(b)
        assert a.totals.tolist() == b.totals.tolist()

    def test_propagate_keeps_the_bonus(self, small_panel):
        table = compute_score_table(small_panel, small_panel.base_applications)
        out = propagate_entrance_exams(small_panel, table)
        assert out.bonus.tolist() == table.bonus.tolist()
        assert out.bonus.any()

    def test_columns_read_only(self, small_panel):
        table = propagate_entrance_exams(
            small_panel,
            remove_first_choice_points(
                compute_score_table(small_panel, small_panel.base_applications)
            ),
        )
        columns = (table.gpa, table.exam, table.bonus, table.other, table.exam_taken, table.totals)
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = column[0]


class TestPropagateEntranceExams:
    def test_no_exam_anywhere_unchanged(self):
        panel = engineering_panel([mk_app("a1", "poly::eng a", 1)])
        table = remove_first_choice_points(compute_score_table(panel, panel.base_applications))
        out = propagate_entrance_exams(panel, table)
        assert out.entries == table.entries

    def test_later_year_exam_backfills_base_year(self):
        # exam only in 2012, scoring 40; the exam-less 2011 application in the
        # same field picks it up
        apps = [
            mk_app("a1", "poly::eng a", 1),
            mk_app("a1", "poly::eng b", 1, year=2012, exam=True, exam_score=40.0),
        ]
        panel = engineering_panel(apps)
        table = remove_first_choice_points(compute_score_table(panel, panel.base_applications))
        out = propagate_entrance_exams(panel, table)
        assert out.entries[("a1", "poly::eng a", 2011)].exam_component == 40.0

    def test_first_exam_wins(self):
        apps = [
            mk_app("a1", "poly::eng a", 1),
            mk_app("a1", "poly::eng b", 2, exam=True, exam_score=35.0),
            mk_app("a1", "poly::eng b", 1, year=2012, exam=True, exam_score=40.0),
        ]
        panel = engineering_panel(apps)
        table = remove_first_choice_points(compute_score_table(panel, panel.base_applications))
        out = propagate_entrance_exams(panel, table)
        assert out.entries[("a1", "poly::eng a", 2011)].exam_component == 35.0

    def test_own_exam_kept(self):
        apps = [
            mk_app("a1", "poly::eng a", 1, exam=True, exam_score=10.0),
            mk_app("a1", "poly::eng b", 2, exam=True, exam_score=35.0),
        ]
        panel = engineering_panel(apps)
        table = remove_first_choice_points(compute_score_table(panel, panel.base_applications))
        out = propagate_entrance_exams(panel, table)
        assert out.entries[("a1", "poly::eng a", 2011)].exam_component == 10.0

    def test_other_field_not_affected(self):
        apps = [
            mk_app("a1", "poly::biz", 1),
            mk_app("a1", "poly::eng b", 2, exam=True, exam_score=35.0),
        ]
        panel = engineering_panel(apps)
        table = remove_first_choice_points(compute_score_table(panel, panel.base_applications))
        out = propagate_entrance_exams(panel, table)
        assert out.entries[("a1", "poly::biz", 2011)].exam_component == 0.0

    def test_idempotent(self, small_panel):
        table = remove_first_choice_points(
            compute_score_table(small_panel, small_panel.base_applications)
        )
        once = propagate_entrance_exams(small_panel, table)
        twice = propagate_entrance_exams(small_panel, once)
        assert score_rows(once) == score_rows(twice)
        assert once.totals.tolist() == twice.totals.tolist()

    def test_only_exam_component_changes(self, small_panel):
        table = remove_first_choice_points(
            compute_score_table(small_panel, small_panel.base_applications)
        )
        out = propagate_entrance_exams(small_panel, table)
        for key, c in table.entries.items():
            o = out.entries[key]
            assert (o.gpa_component, o.first_choice_bonus, o.other_points) == (
                c.gpa_component, c.first_choice_bonus, c.other_points,
            )


class TestAdjustedScore:
    def test_definition(self):
        assert adjusted_score(ScoreComponents(12.0, 30.0, 5.0, 0.0)) == 12.0

    def test_zero(self):
        assert adjusted_score(ScoreComponents(0.0, 0.0, 0.0, 0.0)) == 0.0

    @given(
        st.tuples(*[st.floats(min_value=0, max_value=1e6, allow_nan=False)] * 4)
    )
    def test_identity(self, parts):
        c = ScoreComponents(*parts)
        assert adjusted_score(c) + c.exam_component + c.first_choice_bonus == pytest.approx(
            c.total
        )


class TestEffectiveWeights:
    @staticmethod
    def table_of(components):
        def column(name):
            return np.array([getattr(c, name) for c in components], dtype=float)

        return scoring.ScoreTable(
            applications=block_of([mk_app(f"a{i}", "p::x", 1) for i in range(len(components))]),
            gpa=column("gpa_component"),
            exam=column("exam_component"),
            bonus=column("first_choice_bonus"),
            other=column("other_points"),
            exam_taken=np.zeros(len(components), dtype=bool),
        )

    def test_only_gpa_varies(self):
        weights = effective_weights(
            self.table_of([ScoreComponents(1, 3, 2, 4), ScoreComponents(9, 3, 2, 4)])
        )
        assert weights["gpa"] == 1.0
        assert weights["exam"] == weights["first_choice_bonus"] == 0.0
        assert weights["residual"] == 0.0

    def test_two_record_hand_computation(self):
        # population sds: gpa |4-2|/2=1, exam |10-4|/2=3, bonus 0, other |1-0|/2=0.5
        weights = effective_weights(
            self.table_of([ScoreComponents(2, 4, 5, 0), ScoreComponents(4, 10, 5, 1)])
        )
        total = 1 + 3 + 0 + 0.5
        assert weights["gpa"] == pytest.approx(1 / total)
        assert weights["exam"] == pytest.approx(3 / total)
        assert weights["first_choice_bonus"] == 0.0
        assert weights["residual"] == pytest.approx(0.5 / total)

    def test_weights_sum_to_one(self, small_panel):
        table = compute_score_table(small_panel, small_panel.base_applications)
        weights = effective_weights(table)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= w <= 1.0 for w in weights.values())

    def test_degenerate(self):
        with pytest.raises(DegenerateTable):
            effective_weights(self.table_of([ScoreComponents(1, 2, 3, 4)]))

    def test_published_decomposition_renders(self, tmp_path):
        # report-format fixture: the published weights serialize to the
        # 4-row CSV layout
        from polyadmit.reports import write_weight_report

        weights = {"gpa": 0.28, "exam": 0.43, "first_choice_bonus": 0.05, "residual": 0.23}
        path = tmp_path / "table1.csv"
        write_weight_report(path, weights)
        lines = path.read_text().splitlines()
        assert lines[0] == "component,effective_weight"
        assert lines[1] == "matriculation_gpa,0.280000"
        assert lines[2] == "entrance_exam,0.430000"
        assert lines[3] == "program_listed_first,0.050000"
        assert lines[4] == "residual,0.230000"
        assert len(lines) == 5
