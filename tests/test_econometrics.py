from dataclasses import replace

import numpy as np
import pytest

from oracle import accepted_of, assignment_of, build_design_matrix, coef, records
from polyadmit.econometrics import (
    BASE_TERMS,
    OUTCOME_ACCEPTED,
    OUTCOME_REAPPLIED,
    REPORT_SPECS,
    lpm_report,
    ols,
)
from polyadmit.errors import ConstantOutcome, EmptySample, PerfectFit, RankDeficient
from polyadmit.matching import program_thresholds
from polyadmit.scoring import compute_score_table


class TestOls:
    def test_perfect_fit(self):
        """An exact fit would report 0 for every standard error, so it
        raises, naming the outcome, whichever standard errors are asked for."""
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        beta = np.array([1.0, -2.0, 0.5])
        for robust in (False, True):
            with pytest.raises(PerfectFit, match=r"^outcome 'share' is fitted exactly by \['a', "):
                ols(X, X @ beta, ("a", "b", "c"), robust, "share")

    def test_an_exact_fit_far_from_zero_raises(self):
        """An outcome a constant fits exactly raises however far from 0 it
        lies, though its rounded residuals are not all 0."""
        X = np.column_stack([np.ones(10_000), np.random.default_rng(3).normal(size=10_000)])
        with pytest.raises(PerfectFit):
            ols(X, np.full(10_000, 0.1 * 1e6 / 3))

    def test_a_small_spread_far_from_zero_is_fitted(self):
        """The exact-fit bound scales with the outcome's spread about its
        mean, not with its distance from 0: a residual sum of squares of
        about 1e4 around a mean of 1e6 is a fit, not an exact one."""
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(10_000), rng.normal(size=10_000)])
        result = ols(X, 1e6 + rng.normal(size=10_000))
        assert result.standard_errors[1] == pytest.approx(0.01, rel=0.1)

    def test_intercept_only_equals_mean(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=1000)
        result = ols(np.ones((1000, 1)), y)
        assert abs(result.estimates[0] - y.mean()) < 1e-12

    def test_zero_column_raises_rank_deficient(self):
        X = np.column_stack([np.ones(20), np.zeros(20)])
        with pytest.raises(RankDeficient) as err:
            ols(X, np.ones(20), terms=("intercept", "dead"))
        assert "dead" in err.value.columns

    def test_duplicate_column_raises(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        with pytest.raises(RankDeficient) as err:
            ols(np.column_stack([np.ones(30), x, x]), rng.normal(size=30), ("one", "x", "x_copy"))
        assert err.value.columns == ["x_copy"]  # the later of the two copies

    @pytest.mark.parametrize("robust", [False, True])
    def test_no_residual_dof_raises_empty_sample(self, robust):
        # n == k: a full-rank 2x2 design fits exactly and leaves no degrees
        # of freedom, so neither standard error is defined
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(EmptySample):
            ols(X, np.array([1.0, 3.0]), robust=robust)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 3))])
        y = rng.normal(size=200)
        a = ols(X, y)
        perm = rng.permutation(200)
        b = ols(X[perm], y[perm])
        assert a.estimates == pytest.approx(b.estimates)
        assert a.standard_errors == pytest.approx(b.standard_errors)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(500), rng.normal(size=(500, 4))])
        y = X @ np.array([0.5, 1, -1, 2, 0.1]) + rng.normal(size=500)
        result = ols(X, y)
        residuals = y - X @ np.array(result.estimates)
        assert np.abs(X.T @ residuals).max() < 1e-8

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(5)
        beta = np.array([0.3, -1.2, 0.8])
        hits = 0
        reps = 50
        for _ in range(reps):
            X = np.column_stack([np.ones(2000), rng.normal(size=(2000, 2))])
            y = X @ beta + rng.normal(size=2000)
            result = ols(X, y)
            if all(
                abs(result.estimates[i] - beta[i]) <= 3 * result.standard_errors[i]
                for i in range(3)
            ):
                hits += 1
        assert hits / reps >= 0.9

    def test_robust_se_close_to_classical_under_homoskedasticity(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(5000), rng.normal(size=(5000, 2))])
        y = X @ np.array([1.0, 2.0, -1.0]) + rng.normal(size=5000)
        classical = ols(X, y)
        robust = ols(X, y, robust=True)
        assert classical.estimates == pytest.approx(robust.estimates)
        for a, b in zip(classical.standard_errors, robust.standard_errors):
            assert b == pytest.approx(a, rel=0.1)

    def test_published_column_renders(self, tmp_path):
        # rendering fixture: the published column (1) layout
        from polyadmit.econometrics import RegressionResult
        from polyadmit.reports import write_lpm_report

        result = RegressionResult(
            terms=("intercept", "rank2", "rank3", "rank4", "exam_taken"),
            estimates=(0.7, -0.118, -0.112, -0.188, 0.250),
            standard_errors=(0.01, 0.010, 0.013, 0.018, 0.037),
            n=16655,
            mean_y=0.813,
        )
        path = tmp_path / "table5.csv"
        write_lpm_report(path, {"(1)": result})
        lines = path.read_text().splitlines()
        assert "(1),rank2,-0.118000,0.010000" in lines
        assert "(1),exam_taken,0.250000,0.037000" in lines
        assert "(1),mean_dependent_variable,0.813000," in lines
        assert "(1),n,16655," in lines


class TestDesignMatrix:
    def thresholds_for(self, panel, assignment):
        table = compute_score_table(panel, panel.base_applications)
        return program_thresholds(table, assignment)

    def test_base_coding(self, small_panel):
        assignment = small_panel.observed_assignment
        thresholds = self.thresholds_for(small_panel, assignment)
        spec = (OUTCOME_ACCEPTED, len(BASE_TERMS))
        X, y, terms = build_design_matrix(small_panel, assignment, thresholds, spec)
        assert terms == ("intercept", "rank2", "rank3", "rank4", "exam_taken")
        assert X.shape == (len(assignment.seat_of), 5)
        assert set(np.unique(X)) <= {0.0, 1.0}
        assert (X[:, 0] == 1.0).all()
        # cross-tabulation oracle for the column means
        base_app = {
            (a.applicant_id, a.program_key): a for a in records(small_panel.base_applications)
        }
        admitted = sorted(assignment.seat_of)
        apps = [base_app[(a, assignment.seat_of[a])] for a in admitted]
        for column, rank in (("rank2", 2), ("rank3", 3), ("rank4", 4)):
            share = sum(a.listed_rank == rank for a in apps) / len(apps)
            assert X[:, terms.index(column)].mean() == pytest.approx(share)
        exam_share = sum(a.exam_taken for a in apps) / len(apps)
        assert X[:, terms.index("exam_taken")].mean() == pytest.approx(exam_share)
        accepted = accepted_of(assignment)
        accepted_share = sum(accepted[a] for a in admitted) / len(admitted)
        assert y.mean() == pytest.approx(accepted_share)

    def test_single_row_rank3_no_exam(self):
        from conftest import mk_app, mk_panel, mk_program

        programs = [mk_program(("P", n), quota=1) for n in ("a", "b", "c")]
        apps = [
            mk_app("x", "p::a", 1, exam=True, exam_score=5.0),
            mk_app("x", "p::b", 2),
            mk_app("x", "p::c", 3),
        ]
        panel = mk_panel(programs, apps, grades={"x": {"math": 2.0}})
        assignment = assignment_of({"x": "p::c"}, {"x": True}, over=panel)
        X, y, terms = build_design_matrix(
            panel, assignment, {"p::c": 2.0}, (OUTCOME_ACCEPTED, len(BASE_TERMS))
        )
        assert X.tolist() == [[1.0, 0.0, 1.0, 0.0, 0.0]]
        assert y.tolist() == [1.0]

    def test_controls_and_interactions_shape(self, small_panel):
        assignment = small_panel.observed_assignment
        thresholds = self.thresholds_for(small_panel, assignment)
        spec = (OUTCOME_REAPPLIED, None)
        X, _, terms = build_design_matrix(small_panel, assignment, thresholds, spec)
        n_fields = len(small_panel.field_weights)
        assert len(terms) == 5 + 2 + 3 * (n_fields - 1)
        assert X.shape[1] == len(terms)

    def test_empty_sample(self, small_panel):
        with pytest.raises(EmptySample):
            build_design_matrix(
                small_panel, assignment_of({}), {}, (OUTCOME_ACCEPTED, len(BASE_TERMS))
            )


def base_table(panel):
    return compute_score_table(panel, panel.base_applications)


class TestLpmReport:
    def test_six_columns(self, small_panel):
        results = lpm_report(small_panel, small_panel.observed_assignment, base_table(small_panel))
        assert len(results) == 6
        n_admitted = len(small_panel.observed_assignment.seat_of)
        for result in results:
            assert result.n == n_admitted
        # same outcome shares the same mean y
        assert results[0].mean_y == results[1].mean_y == results[2].mean_y
        assert results[3].mean_y == results[4].mean_y == results[5].mean_y

    def test_planted_signs_recovered(self, default_panel):
        results = lpm_report(
            default_panel, default_panel.observed_assignment, base_table(default_panel)
        )
        accept = results[0]
        for term in ("rank2", "rank3", "rank4"):
            assert coef(accept, term) < 0
        assert coef(accept, "exam_taken") > 0
        reapply = results[3]
        for term in ("rank2", "rank3", "rank4"):
            assert coef(reapply, term) > 0

    def test_no_reapplication_panel_raises_constant_outcome(self, small_panel):
        """With only the base year, no admit re-applies: the re-application
        columns would print zeros, so the report raises, naming the outcome."""
        import dataclasses

        base_only = dataclasses.replace(
            small_panel,
            applications=small_panel.applications.take(
                np.flatnonzero(small_panel.applications.year == small_panel.base_year)
            ),
        )
        with pytest.raises(ConstantOutcome, match=f"'{OUTCOME_REAPPLIED}' is 0 for all"):
            lpm_report(base_only, base_only.observed_assignment, base_table(base_only))

    def test_every_admit_accepting_raises_constant_outcome(self, small_panel):
        observed = small_panel.observed_assignment
        accept = np.where(observed.seat >= 0, 1, -1).astype(np.int8)
        with pytest.raises(ConstantOutcome, match=f"'{OUTCOME_ACCEPTED}' is 1 for all"):
            lpm_report(
                small_panel, replace(observed, accept=accept), base_table(small_panel)
            )

    def test_robust_flag_changes_only_ses(self, small_panel):
        table = base_table(small_panel)
        classical = lpm_report(small_panel, small_panel.observed_assignment, table)
        robust = lpm_report(small_panel, small_panel.observed_assignment, table, robust=True)
        for c, r in zip(classical, robust):
            assert c.estimates == pytest.approx(r.estimates)
