import pytest

from conftest import mk_app, mk_panel, mk_program
from polyadmit import counterfactual
from polyadmit.counterfactual import (
    SCENARIO_IDS,
    build_scenario,
    extend_application_lists,
    run_scenario_suite,
)
from polyadmit.errors import UnknownScenario
from polyadmit.matching import find_blocking_pairs, build_instance
from polyadmit.model import assignment_violations
from polyadmit.scoring import compute_score_table


def four_programs():
    return [mk_program(("P", name), quota=1) for name in ("a", "b", "c", "d")]


class TestExtendApplicationLists:
    def test_base_year_only_unchanged(self):
        programs = four_programs()
        apps = [mk_app("x", "p::a", 1), mk_app("x", "p::b", 2)]
        panel = mk_panel(programs, apps)
        assert extend_application_lists(panel) == apps

    def test_later_years_appended_in_order(self):
        programs = four_programs()
        apps = [
            mk_app("x", "p::a", 1),
            mk_app("x", "p::b", 2),
            mk_app("x", "p::b", 1, year=2012),
            mk_app("x", "p::c", 2, year=2012),
            mk_app("x", "p::a", 1, year=2013),
            mk_app("x", "p::d", 2, year=2013),
        ]
        panel = mk_panel(programs, apps)
        extended = extend_application_lists(panel)
        assert [(a.program_key, a.listed_rank) for a in extended] == [
            ("p::a", 1), ("p::b", 2), ("p::c", 3), ("p::d", 4),
        ]
        assert all(a.year == panel.base_year for a in extended)

    def test_base_prefix_preserved(self, small_panel):
        base_lists = {}
        for app in small_panel.base_applications:
            base_lists.setdefault(app.applicant_id, []).append(app)
        extended_lists = {}
        for app in extend_application_lists(small_panel):
            extended_lists.setdefault(app.applicant_id, []).append(app)
        for applicant_id, base in base_lists.items():
            base = sorted(base, key=lambda a: a.listed_rank)
            ext = sorted(extended_lists[applicant_id], key=lambda a: a.listed_rank)
            assert [a.program_key for a in ext[: len(base)]] == [a.program_key for a in base]

    def test_duplicate_free_and_renumbered(self, small_panel):
        per_applicant = {}
        for app in extend_application_lists(small_panel):
            per_applicant.setdefault(app.applicant_id, []).append(app)
        for apps in per_applicant.values():
            keys = [a.program_key for a in apps]
            assert len(set(keys)) == len(keys)
            assert sorted(a.listed_rank for a in apps) == list(range(1, len(apps) + 1))

    def test_later_year_only_applicants_skipped(self):
        programs = four_programs()
        apps = [mk_app("x", "p::a", 1), mk_app("y", "p::b", 1, year=2012)]
        panel = mk_panel(programs, apps)
        extended = extend_application_lists(panel)
        assert {a.applicant_id for a in extended} == {"x"}

    def test_appended_entry_keeps_own_exam_data(self):
        programs = four_programs()
        apps = [
            mk_app("x", "p::a", 1),
            mk_app("x", "p::b", 1, year=2012, exam=True, exam_score=33.0, other=2.0),
        ]
        panel = mk_panel(programs, apps)
        appended = extend_application_lists(panel)[1]
        assert appended.program_key == "p::b"
        assert appended.exam_taken and appended.exam_score == 33.0
        assert appended.other_points == 2.0


class TestBuildScenario:
    def test_s1_identity(self, small_panel):
        apps, table = build_scenario(small_panel, "S1")
        assert apps == small_panel.base_applications
        assert table == compute_score_table(small_panel, small_panel.base_applications)

    def test_unknown_scenario(self, small_panel):
        with pytest.raises(UnknownScenario):
            build_scenario(small_panel, "S7")

    def test_s3_equals_s1_when_bonus_zero(self):
        programs = four_programs()
        apps = [
            mk_app("x", "p::a", 1),
            mk_app("y", "p::a", 1),
            mk_app("y", "p::b", 2),
        ]
        panel = mk_panel(programs, apps, grades={"x": {"math": 5.0}, "y": {"math": 7.0}})
        quotas = {p.program_key: p.quota for p in programs}
        _, s1 = counterfactual.run_scenario(panel, "S1", quotas)
        _, s3 = counterfactual.run_scenario(panel, "S3", quotas)
        assert s1.seat_of == s3.seat_of

    def test_s5_vs_s3_differ_only_in_propagated_exam_components(self, small_panel):
        _, t3 = build_scenario(small_panel, "S3")
        _, t5 = build_scenario(small_panel, "S5")
        changed = 0
        for key, c3 in t3.entries.items():
            c5 = t5.entries[key]
            assert (c5.gpa_component, c5.first_choice_bonus, c5.other_points) == (
                c3.gpa_component, c3.first_choice_bonus, c3.other_points,
            )
            if c5.exam_component != c3.exam_component:
                assert key not in t3.own_exam
                changed += 1
        assert changed > 0

    def test_extended_appended_entries_get_no_bonus(self):
        programs = four_programs()
        apps = [
            mk_app("x", "p::a", 1),
            mk_app("x", "p::b", 1, year=2012),
        ]
        panel = mk_panel(
            programs, apps, bonus={"field0": 5.0}, grades={"x": {"math": 1.0}}
        )
        extended, table = build_scenario(panel, "S2")
        assert table.entries[("x", "p::a", 2011)].first_choice_bonus == 5.0
        assert table.entries[("x", "p::b", 2011)].first_choice_bonus == 0.0

    def test_pure_construction(self, small_panel):
        assert build_scenario(small_panel, "S4") == build_scenario(small_panel, "S4")


class TestScenarioSuite:
    def test_s1_row_is_zero(self, small_panel):
        results = run_scenario_suite(small_panel)
        s1 = next(r for r in results if r.scenario_id == "S1")
        assert s1.diff_vs_baseline.differently_assigned_count == 0
        assert s1.rank_improvement == 0.0

    def test_every_scenario_assignment_is_stable(self, small_panel):
        quotas = {k: p.quota for k, p in small_panel.programs.items()}
        for scenario_id in SCENARIO_IDS:
            apps, table = build_scenario(small_panel, scenario_id)
            instance = build_instance(apps, table, quotas)
            _, assignment = counterfactual.run_scenario(small_panel, scenario_id, quotas)
            assert find_blocking_pairs(instance, assignment) == []
            assert assignment_violations(small_panel, apps, assignment) == []

    def test_extended_scenarios_report_longer_lists(self, small_panel):
        results = {r.scenario_id: r for r in run_scenario_suite(small_panel)}
        for orig, ext in (("S1", "S2"), ("S3", "S4"), ("S5", "S6")):
            assert results[ext].applications_per_applicant >= results[orig].applications_per_applicant

    def test_published_suite_renders(self, tmp_path):
        # report-format fixture using the published six-row suite
        from polyadmit.matching import AssignmentDiff
        from polyadmit.counterfactual import ScenarioResult
        from polyadmit.model import Assignment
        from polyadmit.reports import write_scenario_suite

        published = [
            ("S1", 2.77, 0.00, 0.00),
            ("S2", 3.72, 0.10, 1.45),
            ("S3", 2.77, 0.05, 0.56),
            ("S4", 3.72, 0.15, 1.87),
            ("S5", 2.77, 0.14, 3.97),
            ("S6", 3.72, 0.24, 4.59),
        ]
        results = [
            ScenarioResult(
                scenario_id=sid,
                assignment=Assignment(seat_of={}),
                applications_per_applicant=apps,
                diff_vs_baseline=AssignmentDiff(0, share, {}),
                rank_improvement=imp,
            )
            for sid, apps, share, imp in published
        ]
        path = tmp_path / "table4.csv"
        write_scenario_suite(path, results)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,apps_per_applicant,pct_differently_assigned,rank_improvement"
        assert lines[2] == "S2,3.720000,10.000000,1.450000"
        assert lines[6] == "S6,3.720000,24.000000,4.590000"
