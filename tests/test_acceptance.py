"""Acceptance suite: one test per criterion, each printing a PASS line."""

import random
import time

import numpy as np
import pytest

from oracle import (
    coef,
    enumerate_stable_assignments,
    random_instance,
    replicate_assignment,
)
from polyadmit import cli, counterfactual, matching, metrics, scoring, synth
from polyadmit.econometrics import lpm_report, ols
from polyadmit.matching import (
    compare_assignments,
    deferred_acceptance,
    find_blocking_pairs,
)
from polyadmit.scoring import compute_score_table

N_INSTANCES = 1000


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
    """Each scenario's assignment, share of applicants assigned
    differently from S1 and mean rank improvement over S1, computed as
    table 4 computes them."""
    assignments, _, base_table = counterfactual.run_scenario_suite(default_panel)
    universe = base_table.applications.listed_applicants()
    rank_table = metrics.field_gpa_percentile_ranks(default_panel)
    base = assignments["S1"]
    return {
        s: (
            assignment,
            compare_assignments(base, assignment, universe).differently_assigned_share,
            metrics.mean_rank_improvement(rank_table, base, assignment),
        )
        for s, assignment in assignments.items()
    }


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
            tuple(sorted(zip(s.program_keys, np.bincount(s.seat[s.holders]).tolist())))
            for s in stable
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
    inst = matching.build_instance(apps, table, default_panel.quota)
    applicant_side = deferred_acceptance(inst, "applicants")
    program_side = deferred_acceptance(inst, "programs")
    universe = apps.listed_applicants()
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
    imp = {k: improvement for k, (_, _, improvement) in suite_results.items()}
    share = {k: 100.0 * share for k, (_, share, _) in suite_results.items()}
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
    table = compute_score_table(default_panel, default_panel.base_applications)
    results = lpm_report(default_panel, default_panel.observed_assignment, table)
    accept = results[0]
    reapply = results[3]
    for term in ("rank2", "rank3", "rank4"):
        assert coef(accept, term) < 0
        assert coef(reapply, term) > 0
    assert coef(accept, "exam_taken") > 0
    announce(
        capsys,
        "ACCEPTANCE 7 PASS: accepted-seat rank dummies "
        + ", ".join(f"{t}={coef(accept, t):+.3f}" for t in ("rank2", "rank3", "rank4"))
        + f", exam={coef(accept, 'exam_taken'):+.3f}; re-application rank dummies "
        + ", ".join(f"{t}={coef(reapply, t):+.3f}" for t in ("rank2", "rank3", "rank4"))
    )


def test_criterion_8_self_replication(default_panel, capsys):
    apps = default_panel.base_applications
    table = compute_score_table(default_panel, apps)
    inst = matching.build_instance(apps, table, default_panel.quota)
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
    base_assignment = suite_results["S1"][0]
    base_hist = metrics.assigned_rank_histogram(rank_table, base_assignment)
    assert sum(base_hist) == len(base_assignment.seat_of)
    for scenario_id in ("S2", "S3", "S4", "S5", "S6"):
        cf_assignment = suite_results[scenario_id][0]
        cf_hist = metrics.assigned_rank_histogram(rank_table, cf_assignment)
        net = metrics.net_change_histogram(base_hist, cf_hist)
        delta = len(cf_assignment.seat_of) - len(base_assignment.seat_of)
        assert sum(net) == pytest.approx(delta, abs=1e-9)

    table = compute_score_table(default_panel, default_panel.base_applications)
    weights = scoring.effective_weights(table)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)
    announce(
        capsys,
        "ACCEPTANCE 10 PASS: histogram totals conserved; "
        f"effective weights sum to {sum(weights.values()):.12f}"
    )
