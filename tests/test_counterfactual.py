import inspect
import weakref

import pytest

from conftest import build_scenario, mk_app, mk_panel, mk_program
from oracle import records, score_rows
from polyadmit import cli, counterfactual, matching, metrics, scoring
from polyadmit.counterfactual import (
    SCENARIO_IDS,
    extend_application_lists,
    run_scenario_suite,
    scenario_tables,
)
from polyadmit.errors import UnknownScenario
from polyadmit.matching import find_blocking_pairs, build_instance
from polyadmit.metrics import field_gpa_percentile_ranks
from polyadmit.model import Panel, assignment_violations
from polyadmit.scoring import compute_score_table


def four_programs():
    return [mk_program(("P", name), quota=1) for name in ("a", "b", "c", "d")]


class TestExtendApplicationLists:
    def test_base_year_only_unchanged(self):
        programs = four_programs()
        apps = [mk_app("x", "p::a", 1), mk_app("x", "p::b", 2)]
        panel = mk_panel(programs, apps)
        assert records(extend_application_lists(panel)) == tuple(apps)

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
        assert [(a.program_key, a.listed_rank) for a in records(extended)] == [
            ("p::a", 1), ("p::b", 2), ("p::c", 3), ("p::d", 4),
        ]
        assert all(a.year == panel.base_year for a in records(extended))

    def test_base_prefix_preserved(self, small_panel):
        base_lists = {}
        for app in records(small_panel.base_applications):
            base_lists.setdefault(app.applicant_id, []).append(app)
        extended_lists = {}
        for app in records(extend_application_lists(small_panel)):
            extended_lists.setdefault(app.applicant_id, []).append(app)
        for applicant_id, base in base_lists.items():
            base = sorted(base, key=lambda a: a.listed_rank)
            ext = sorted(extended_lists[applicant_id], key=lambda a: a.listed_rank)
            assert [a.program_key for a in ext[: len(base)]] == [a.program_key for a in base]

    def test_duplicate_free_and_renumbered(self, small_panel):
        per_applicant = {}
        for app in records(extend_application_lists(small_panel)):
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
        assert {a.applicant_id for a in records(extended)} == {"x"}

    def test_appended_entry_keeps_own_exam_data(self):
        programs = four_programs()
        apps = [
            mk_app("x", "p::a", 1),
            mk_app("x", "p::b", 1, year=2012, exam=True, exam_score=33.0, other=2.0),
        ]
        panel = mk_panel(programs, apps)
        appended = records(extend_application_lists(panel))[1]
        assert appended.program_key == "p::b"
        assert appended.exam_taken and appended.exam_score == 33.0
        assert appended.other_points == 2.0


class TestBuildScenario:
    def test_s1_identity(self, small_panel):
        apps, table = build_scenario(small_panel, "S1")
        assert records(apps) == records(small_panel.base_applications)
        expected = compute_score_table(small_panel, small_panel.base_applications)
        assert score_rows(table) == score_rows(expected)

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
        assignments, _, _ = run_scenario_suite(panel, scenario_ids=("S1", "S3"))
        assert assignments["S1"].seat_of == assignments["S3"].seat_of

    def test_s5_vs_s3_differ_only_in_propagated_exam_components(self, small_panel):
        _, t3 = build_scenario(small_panel, "S3")
        _, t5 = build_scenario(small_panel, "S5")
        exam_taken = {key: row[4] for key, row in score_rows(t3).items()}
        changed = 0
        for key, c3 in t3.entries.items():
            c5 = t5.entries[key]
            assert (c5.gpa_component, c5.first_choice_bonus, c5.other_points) == (
                c3.gpa_component, c3.first_choice_bonus, c3.other_points,
            )
            if c5.exam_component != c3.exam_component:
                assert not exam_taken[key]
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
        (apps1, table1), (apps2, table2) = (build_scenario(small_panel, "S4") for _ in range(2))
        assert records(apps1) == records(apps2)
        assert score_rows(table1) == score_rows(table2)


class TestScenarioSuite:
    def test_s1_row_is_zero(self, small_panel):
        assignments, _, base_table = run_scenario_suite(small_panel)
        s1 = assignments["S1"]
        universe = base_table.applications.listed_applicants()
        assert matching.compare_assignments(s1, s1, universe).differently_assigned_count == 0
        rank_table = field_gpa_percentile_ranks(small_panel)
        assert metrics.mean_rank_improvement(rank_table, s1, s1) == 0.0

    def test_every_scenario_assignment_is_stable(self, small_panel):
        assignments, _, _ = run_scenario_suite(small_panel)
        assert tuple(sorted(assignments)) == SCENARIO_IDS
        for scenario_id, table in scenario_tables(small_panel, SCENARIO_IDS):
            instance = build_instance(table.applications, table, small_panel.quota)
            assignment = assignments[scenario_id]
            assert find_blocking_pairs(instance, assignment) == []
            assert assignment_violations(small_panel, table.applications, assignment) == []

    def test_extended_scenarios_report_longer_lists(self, small_panel):
        _, listed, _ = run_scenario_suite(small_panel)
        for orig, ext in (("S1", "S2"), ("S3", "S4"), ("S5", "S6")):
            assert listed[ext] >= listed[orig]

    def test_one_list_variant_is_held_at_a_time(self, small_panel, monkeypatch):
        built = []  # a weak reference to every block and table the suite builds
        alive_when_building = []  # what is alive as each block is built

        def recorded(fn):
            def wrapper(*args):
                result = fn(*args)
                built.append(weakref.ref(result))
                return result

            return wrapper

        def alive():
            return [i for i, ref in enumerate(built) if ref() is not None]

        def recorded_block(fn):
            def wrapper(panel):
                alive_when_building.append(alive())
                return fn(panel)

            return recorded(wrapper)

        transforms = ("remove_first_choice_points", "propagate_entrance_exams")
        for name in ("compute_score_table",) + transforms:
            monkeypatch.setattr(scoring, name, recorded(getattr(scoring, name)))
        monkeypatch.setattr(
            counterfactual, "extend_application_lists",
            recorded_block(counterfactual.extend_application_lists),
        )
        monkeypatch.setattr(
            Panel, "base_applications", property(recorded_block(Panel.base_applications.fget))
        )

        assignments, _, base_table = run_scenario_suite(small_panel)
        # the extended block, S2, S4, S6 tables, then the base block, S1, S3, S5 tables
        assert len(built) == 8
        assert (built[4](), built[5]()) == (base_table.applications, base_table)
        assert alive_when_building == [[], []]
        assert alive() == [4, 5]
        assert len(assignments) == len(SCENARIO_IDS)

    def test_no_rank_table_is_alive_while_lists_are_built_or_matched(
        self, small_panel, monkeypatch, tmp_path
    ):
        """The CLI builds one rank table, after the suite's last match."""
        rank_tables = []  # a weak reference to every rank table built
        alive = []  # how many are alive as each list variant is built and each table matched

        def counted(fn):
            def wrapper(*args):
                alive.append(sum(ref() is not None for ref in rank_tables))
                return fn(*args)

            return wrapper

        def recorded(panel):
            table = field_gpa_percentile_ranks(panel)
            rank_tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(metrics, "field_gpa_percentile_ranks", recorded)
        monkeypatch.setattr(
            counterfactual, "extend_application_lists",
            counted(counterfactual.extend_application_lists),
        )
        monkeypatch.setattr(
            Panel, "base_applications", property(counted(Panel.base_applications.fget))
        )
        monkeypatch.setattr(matching, "deferred_acceptance", counted(matching.deferred_acceptance))

        config = cli.RunConfig(out_dir=tmp_path, synth_spec="default")
        cli._write_reports(config, small_panel, {"table4", "figure1"}, tmp_path)
        assert alive == [0] * (2 + len(SCENARIO_IDS))
        assert len(rank_tables) == 1
        assert len((tmp_path / "table4.csv").read_text().splitlines()) == 1 + len(SCENARIO_IDS)

    def test_the_suite_computes_no_statistic(self):
        modules = {v.__name__ for v in vars(counterfactual).values() if inspect.ismodule(v)}
        assert not modules & {f"polyadmit.{m}" for m in ("metrics", "econometrics", "reports")}

    def test_scenario_tables_come_one_list_variant_at_a_time(self, small_panel):
        order = [scenario_id for scenario_id, _ in scenario_tables(small_panel, SCENARIO_IDS)]
        assert order == ["S2", "S4", "S6", "S1", "S3", "S5"]

    def test_published_suite_renders(self, tmp_path):
        # report-format fixture using the published six-row suite
        from polyadmit.reports import write_scenario_suite

        published = [
            ("S1", 2.77, 0.00, 0.00),
            ("S2", 3.72, 0.10, 1.45),
            ("S3", 2.77, 0.05, 0.56),
            ("S4", 3.72, 0.15, 1.87),
            ("S5", 2.77, 0.14, 3.97),
            ("S6", 3.72, 0.24, 4.59),
        ]
        path = tmp_path / "table4.csv"
        write_scenario_suite(path, published)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,apps_per_applicant,pct_differently_assigned,rank_improvement"
        assert lines[2] == "S2,3.720000,10.000000,1.450000"
        assert lines[6] == "S6,3.720000,24.000000,4.590000"
