"""Acceptance suite: one test per criterion, each printing a PASS line."""

import random
import time

import numpy as np
import pytest

from oracle import enumerate_stable_assignments
from polyadmit import cli, counterfactual, matching, metrics, scoring, synth
from polyadmit.econometrics import lpm_report, ols
from polyadmit.matching import (
    MatchInstance,
    compare_assignments,
    deferred_acceptance,
    find_blocking_pairs,
    replicate_assignment,
)
from polyadmit.scoring import compute_score_table

N_INSTANCES = 1000


def random_instance(rng: random.Random) -> MatchInstance:
    n_applicants = rng.randint(1, 8)
    n_programs = rng.randint(1, 5)
    programs = [f"p{i}" for i in range(n_programs)]
    prefs, scores = {}, {}
    for i in range(n_applicants):
        a = f"a{i}"
        prefs[a] = tuple(rng.sample(programs, rng.randint(1, min(4, n_programs))))
        for p in prefs[a]:
            scores[(a, p)] = float(rng.randint(0, 5))
    priorities = {
        p: tuple(
            sorted(
                (a for a in prefs if p in prefs[a]),
                key=lambda a: (-scores[(a, p)], a),
            )
        )
        for p in programs
    }
    quotas = {p: rng.randint(0, 2) for p in programs}
    return MatchInstance(preferences=prefs, priorities=priorities, quotas=quotas, scores=scores)


@pytest.fixture(scope="module")
def instance_corpus():
    rng = random.Random(20110901)
    started = time.monotonic()
    corpus = []
    for _ in range(N_INSTANCES):
        inst = random_instance(rng)
        corpus.append(
            (
                inst,
                deferred_acceptance(inst, "applicants"),
                deferred_acceptance(inst, "programs"),
                enumerate_stable_assignments(inst),
            )
        )
    return corpus, time.monotonic() - started


@pytest.fixture(scope="module")
def suite_results(default_panel):
    return {r.scenario_id: r for r in counterfactual.run_scenario_suite(default_panel)}


def announce(capsys, message: str) -> None:
    """Print a criterion verdict to the real terminal, bypassing capture."""
    with capsys.disabled():
        print(message)


def seat_key(assignment):
    return frozenset(assignment.seat_of.items())


def outcome_rank(inst, assignment, applicant):
    seat = assignment.seat_of.get(applicant)
    prefs = inst.preferences[applicant]
    return prefs.index(seat) if seat is not None else len(prefs)


def test_criterion_1_oracle_equivalence(instance_corpus, capsys):
    corpus, elapsed = instance_corpus
    for inst, da_a, da_p, stable in corpus:
        assert find_blocking_pairs(inst, da_a) == []
        assert find_blocking_pairs(inst, da_p) == []
        keys = {seat_key(s) for s in stable}
        assert seat_key(da_a) in keys
        assert seat_key(da_p) in keys
        # extremes of the stable set
        for s in stable:
            for a in inst.preferences:
                assert outcome_rank(inst, da_a, a) <= outcome_rank(inst, s, a)
                assert outcome_rank(inst, da_p, a) >= outcome_rank(inst, s, a)
    assert elapsed < 60.0
    announce(
        capsys,
        f"ACCEPTANCE 1 PASS: oracle equivalence on {len(corpus)} instances "
        f"in {elapsed:.1f}s"
    )


def test_criterion_2_rural_hospitals_and_lattice(instance_corpus, capsys):
    corpus, _ = instance_corpus
    violations = 0
    for inst, da_a, da_p, stable in corpus:
        matched_sets = {frozenset(s.seat_of) for s in stable}
        fills = {
            tuple(sorted((p, len(v)) for p, v in s.admits_of().items())) for s in stable
        }
        if len(matched_sets) != 1 or len(fills) != 1:
            violations += 1
        for a in inst.preferences:
            if outcome_rank(inst, da_a, a) > outcome_rank(inst, da_p, a):
                violations += 1
    assert violations == 0
    announce(
        capsys,
        f"ACCEPTANCE 2 PASS: rural hospitals + lattice dominance, "
        f"{violations} violations on {len(corpus)} instances"
    )


def test_criterion_3_uniqueness_replication(default_panel, capsys):
    apps = default_panel.base_applications
    table = compute_score_table(default_panel, apps)
    quotas = {k: p.quota for k, p in default_panel.programs.items()}
    inst = matching.build_instance(apps, table, quotas)
    applicant_side = deferred_acceptance(inst, "applicants")
    program_side = deferred_acceptance(inst, "programs")
    universe = sorted({a.applicant_id for a in apps})
    diff = compare_assignments(program_side, applicant_side, universe)
    assert diff.differently_assigned_share <= 0.005
    announce(
        capsys,
        f"ACCEPTANCE 3 PASS: applicant- vs program-proposing outcomes differ for "
        f"{diff.differently_assigned_count} of {len(universe)} applicants "
        f"({100 * diff.differently_assigned_share:.3f}%)"
    )


def test_criterion_4_scenario_suite_direction(suite_results, capsys):
    tol = 0.2  # percentage points of slack on the strict inequalities
    imp = {k: r.rank_improvement for k, r in suite_results.items()}
    share = {
        k: 100.0 * r.diff_vs_baseline.differently_assigned_share
        for k, r in suite_results.items()
    }
    assert imp["S1"] == 0.0
    assert imp["S2"] > 0.0 - tol
    assert imp["S6"] >= max(imp["S2"], imp["S5"]) - tol
    assert share["S6"] >= share["S4"] - tol >= share["S2"] - 2 * tol
    assert share["S6"] >= share["S5"] - tol >= share["S3"] - 2 * tol
    announce(
        capsys,
        "ACCEPTANCE 4 PASS: improvements "
        + ", ".join(f"{k}={imp[k]:+.2f}" for k in sorted(imp))
        + "; shares "
        + ", ".join(f"{k}={share[k]:.1f}%" for k in sorted(share))
    )


def test_criterion_5_calibration(default_panel, capsys):
    rows = {r.name: r for r in synth.calibration_report(default_panel)}
    for rank in range(1, 5):
        assert rows[f"exam_share_rank{rank}"].abs_deviation <= 0.03
    assert rows["assigned_share"].abs_deviation <= 0.03
    assert rows["mean_list_length"].abs_deviation <= 0.15
    announce(
        capsys,
        "ACCEPTANCE 5 PASS: calibration deviations "
        + ", ".join(f"{name}={row.abs_deviation:.3f}" for name, row in sorted(rows.items()))
    )


def test_criterion_6_ols_recovery(capsys):
    rng = np.random.default_rng(17)
    beta = np.array([0.5, -1.0, 2.0, 0.25])
    k = len(beta)
    reps = 100
    coefficient_hits = np.zeros(k, dtype=int)
    for _ in range(reps):
        X = np.column_stack([np.ones(10000), rng.normal(size=(10000, k - 1))])
        y = X @ beta + rng.normal(size=10000)
        result = ols(X, y)
        for i in range(k):
            if abs(result.estimates[i] - beta[i]) <= 3 * result.standard_errors[i]:
                coefficient_hits[i] += 1
    coverage = coefficient_hits / reps
    assert (coverage >= 0.99).all()

    # residual orthogonality on standardized regressors
    X = rng.normal(size=(10000, k - 1))
    X = np.column_stack([np.ones(10000), (X - X.mean(0)) / X.std(0)])
    y = X @ beta + rng.normal(size=10000)
    result = ols(X, y)
    residuals = y - X @ np.array(result.estimates)
    max_dot = np.abs(X.T @ residuals).max()
    assert max_dot < 1e-8

    y_only = rng.normal(size=1000)
    intercept_fit = ols(np.ones((1000, 1)), y_only)
    assert abs(intercept_fit.estimates[0] - y_only.mean()) < 1e-12
    announce(
        capsys,
        f"ACCEPTANCE 6 PASS: 3-SE coverage {coverage.min():.2f}..{coverage.max():.2f}, "
        f"|X'e|_inf = {max_dot:.2e}, intercept-only exact"
    )


def test_criterion_7_planted_sign_recovery(default_panel, capsys):
    results = lpm_report(default_panel, default_panel.observed_assignment)
    accept = results[0]
    reapply = results[3]
    for term in ("rank2", "rank3", "rank4"):
        assert accept.coef(term) < 0
        assert reapply.coef(term) > 0
    assert accept.coef("exam_taken") > 0
    announce(
        capsys,
        "ACCEPTANCE 7 PASS: accepted-seat rank dummies "
        + ", ".join(f"{t}={accept.coef(t):+.3f}" for t in ("rank2", "rank3", "rank4"))
        + f", exam={accept.coef('exam_taken'):+.3f}; re-application rank dummies "
        + ", ".join(f"{t}={reapply.coef(t):+.3f}" for t in ("rank2", "rank3", "rank4"))
    )


def test_criterion_8_self_replication(default_panel, capsys):
    apps = default_panel.base_applications
    table = compute_score_table(default_panel, apps)
    quotas = {k: p.quota for k, p in default_panel.programs.items()}
    inst = matching.build_instance(apps, table, quotas)
    computed = deferred_acceptance(inst, "programs")
    rate = replicate_assignment(default_panel, computed)
    assert rate == 1.0
    announce(capsys, f"ACCEPTANCE 8 PASS: self-replication rate = {rate}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli.main(["--synth", "default", "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]
    announce(
        capsys,
        f"ACCEPTANCE 9 PASS: two full CLI runs byte-identical "
        f"({len(outs[0])} output files)"
    )


def test_criterion_10_conservation(default_panel, suite_results, capsys):
    rank_table = metrics.field_gpa_percentile_ranks(default_panel)
    program_field = {k: p.field for k, p in default_panel.programs.items()}
    n = len({a.applicant_id for a in default_panel.base_applications})
    base_hist = metrics.assigned_rank_histogram(
        rank_table, suite_results["S1"].assignment, program_field, n
    )
    assert base_hist.total() == len(suite_results["S1"].assignment.seat_of)
    for scenario_id in ("S2", "S3", "S4", "S5", "S6"):
        cf_assignment = suite_results[scenario_id].assignment
        cf_hist = metrics.assigned_rank_histogram(
            rank_table, cf_assignment, program_field, n
        )
        net = metrics.net_change_histogram(base_hist, cf_hist)
        delta = len(cf_assignment.seat_of) - len(suite_results["S1"].assignment.seat_of)
        assert net.total() == pytest.approx(delta, abs=1e-9)

    table = compute_score_table(default_panel, default_panel.base_applications)
    report = scoring.effective_weights(table)
    assert sum(report.weights.values()) == pytest.approx(1.0, abs=1e-9)
    announce(
        capsys,
        "ACCEPTANCE 10 PASS: histogram totals conserved; "
        f"effective weights sum to {sum(report.weights.values()):.12f}"
    )
