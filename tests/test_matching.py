import random

import pytest

from conftest import mk_app, mk_panel, mk_program
from oracle import enumerate_stable_assignments
from polyadmit import matching
from polyadmit.errors import (
    InfeasibleAssignment,
    InstanceTooLarge,
    MissingScore,
    NoObservedAssignment,
    UniverseMismatch,
)
from polyadmit.matching import (
    MatchInstance,
    build_instance,
    compare_assignments,
    deferred_acceptance,
    find_blocking_pairs,
    program_thresholds,
    replicate_assignment,
)
from polyadmit.model import Assignment
from polyadmit.scoring import compute_score_table


def instance_of(prefs, scores, quotas):
    """Hand-built instance; priorities derived from scores with id tiebreak."""
    prios = {}
    programs = set(quotas)
    for p in programs:
        pool = [a for a in prefs if p in prefs[a]]
        prios[p] = tuple(sorted(pool, key=lambda a: (-scores[(a, p)], a)))
    return MatchInstance(
        preferences={a: tuple(v) for a, v in prefs.items()},
        priorities=prios,
        quotas=dict(quotas),
        scores=dict(scores),
    )


def seats(assignment):
    return dict(assignment.seat_of)


# Classic 3x3 lattice fixture: two stable matchings whose extremes are the
# two DA outputs. Applicants prefer a cycle; programs rank against it.
LATTICE_PREFS = {"a1": ("p1", "p2"), "a2": ("p2", "p1")}
LATTICE_SCORES = {
    ("a1", "p1"): 1, ("a1", "p2"): 2,
    ("a2", "p2"): 1, ("a2", "p1"): 2,
}
LATTICE_QUOTAS = {"p1": 1, "p2": 1}


class TestDeferredAcceptance:
    def test_singleton(self):
        inst = instance_of({"a1": ["p1"]}, {("a1", "p1"): 1.0}, {"p1": 1})
        for side in ("applicants", "programs"):
            assert seats(deferred_acceptance(inst, side)) == {"a1": "p1"}

    def test_empty_instance(self):
        inst = instance_of({}, {}, {})
        assert seats(deferred_acceptance(inst, "applicants")) == {}

    def test_two_stable_matchings_extremes(self):
        inst = instance_of(LATTICE_PREFS, LATTICE_SCORES, LATTICE_QUOTAS)
        applicant_opt = deferred_acceptance(inst, "applicants")
        program_opt = deferred_acceptance(inst, "programs")
        assert seats(applicant_opt) == {"a1": "p1", "a2": "p2"}
        assert seats(program_opt) == {"a1": "p2", "a2": "p1"}
        stable = enumerate_stable_assignments(inst)
        keys = {frozenset(s.seat_of.items()) for s in stable}
        assert keys == {
            frozenset(applicant_opt.seat_of.items()),
            frozenset(program_opt.seat_of.items()),
        }

    def test_quota_two_fills_both_seats(self):
        prefs = {"a1": ["p1"], "a2": ["p1"], "a3": ["p1"]}
        scores = {("a1", "p1"): 3, ("a2", "p1"): 2, ("a3", "p1"): 1}
        inst = instance_of(prefs, scores, {"p1": 2})
        assert seats(deferred_acceptance(inst, "programs")) == {"a1": "p1", "a2": "p1"}

    def test_zero_quota_program(self):
        inst = instance_of({"a1": ["p1"]}, {("a1", "p1"): 1.0}, {"p1": 0})
        for side in ("applicants", "programs"):
            assert seats(deferred_acceptance(inst, side)) == {}

    def test_unknown_side(self):
        inst = instance_of({}, {}, {})
        with pytest.raises(ValueError):
            deferred_acceptance(inst, "nobody")


class TestBuildInstance:
    def test_tie_broken_by_id(self):
        p = mk_program(("P", "x"), quota=1)
        apps = [mk_app("b", p.program_key, 1), mk_app("a", p.program_key, 1)]
        panel = mk_panel([p], apps)
        table = compute_score_table(panel, apps)
        inst = build_instance(apps, table, {p.program_key: 1})
        assert inst.priorities[p.program_key] == ("a", "b")

    def test_preferences_by_listed_rank(self):
        p1, p2 = mk_program(("P", "x")), mk_program(("P", "y"))
        apps = [mk_app("a", p2.program_key, 2), mk_app("a", p1.program_key, 1)]
        panel = mk_panel([p1, p2], apps)
        table = compute_score_table(panel, apps)
        inst = build_instance(apps, table, {p1.program_key: 1, p2.program_key: 1})
        assert inst.preferences["a"] == (p1.program_key, p2.program_key)

    def test_missing_score(self):
        p = mk_program(("P", "x"))
        apps = [mk_app("a", p.program_key, 1)]
        panel = mk_panel([p], apps)
        table = compute_score_table(panel, [])
        with pytest.raises(MissingScore):
            build_instance(apps, table, {p.program_key: 1})

    def test_priorities_strictly_sorted(self, small_panel):
        table = compute_score_table(small_panel, small_panel.base_applications)
        quotas = {k: p.quota for k, p in small_panel.programs.items()}
        inst = build_instance(small_panel.base_applications, table, quotas)
        for p, order in inst.priorities.items():
            keys = [(-inst.scores[(a, p)], a) for a in order]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def naive_blocking_pairs(inst, assignment):
    """Test-only double-loop reimplementation."""
    pairs = []
    admits = {}
    for a, p in assignment.seat_of.items():
        admits.setdefault(p, []).append(a)
    for a in sorted(inst.preferences):
        for p in inst.preferences[a]:
            current = assignment.seat_of.get(a)
            if current is not None and inst.preferences[a].index(p) >= inst.preferences[a].index(current):
                continue
            holders = admits.get(p, [])
            if len(holders) < inst.quotas[p]:
                pairs.append((a, p))
            else:
                rank = {x: i for i, x in enumerate(inst.priorities[p])}
                if holders and any(rank[a] < rank[h] for h in holders):
                    pairs.append((a, p))
    return pairs


class TestBlockingPairs:
    def test_da_output_stable(self):
        inst = instance_of(LATTICE_PREFS, LATTICE_SCORES, LATTICE_QUOTAS)
        for side in ("applicants", "programs"):
            assert find_blocking_pairs(inst, deferred_acceptance(inst, side)) == []

    def test_mutually_acceptable_unmatched_pair(self):
        inst = instance_of({"a1": ["p1"]}, {("a1", "p1"): 1.0}, {"p1": 1})
        empty = Assignment(seat_of={})
        assert find_blocking_pairs(inst, empty) == [("a1", "p1")]

    def test_infeasible_rejected(self):
        inst = instance_of({"a1": ["p1"]}, {("a1", "p1"): 1.0}, {"p1": 1})
        with pytest.raises(InfeasibleAssignment):
            find_blocking_pairs(inst, Assignment(seat_of={"a1": "p2"}))

    def test_matches_naive_oracle_on_random_assignments(self):
        rng = random.Random(3)
        for _ in range(200):
            n_a, n_p = 6, 4
            programs = [f"p{i}" for i in range(n_p)]
            prefs, scores = {}, {}
            for i in range(n_a):
                a = f"a{i}"
                prefs[a] = tuple(rng.sample(programs, rng.randint(1, n_p)))
                for p in prefs[a]:
                    scores[(a, p)] = rng.randint(0, 9)
            quotas = {p: rng.randint(0, 2) for p in programs}
            inst = instance_of(prefs, scores, quotas)
            # random feasible assignment
            fill = {p: 0 for p in programs}
            seat_of = {}
            for a in prefs:
                options = [None] + [p for p in prefs[a] if fill[p] < quotas[p]]
                choice = rng.choice(options)
                if choice:
                    seat_of[a] = choice
                    fill[choice] += 1
            assignment = Assignment(seat_of=seat_of)
            assert sorted(find_blocking_pairs(inst, assignment)) == sorted(
                naive_blocking_pairs(inst, assignment)
            )


class TestEnumeration:
    def test_singleton_mutual(self):
        inst = instance_of({"a1": ["p1"]}, {("a1", "p1"): 1.0}, {"p1": 1})
        stable = enumerate_stable_assignments(inst)
        assert len(stable) == 1
        assert seats(stable[0]) == {"a1": "p1"}

    def test_correlated_priorities_unique(self):
        # same score order at every program: serial dictatorship, one
        # stable assignment
        rng = random.Random(11)
        for _ in range(50):
            programs = [f"p{i}" for i in range(4)]
            ability = {f"a{i}": 10 - i for i in range(6)}
            prefs, scores = {}, {}
            for a in ability:
                prefs[a] = tuple(rng.sample(programs, rng.randint(1, 4)))
                for p in prefs[a]:
                    scores[(a, p)] = ability[a]
            quotas = {p: rng.randint(1, 2) for p in programs}
            inst = instance_of(prefs, scores, quotas)
            assert len(enumerate_stable_assignments(inst)) == 1

    def test_size_guard(self):
        prefs = {f"a{i}": ("p1",) for i in range(40)}
        scores = {(f"a{i}", "p1"): i for i in range(40)}
        inst = instance_of(prefs, scores, {"p1": 2})
        with pytest.raises(InstanceTooLarge):
            enumerate_stable_assignments(inst, limit=1000)


class TestCompareAssignments:
    def test_identical(self):
        a = Assignment(seat_of={"a1": "p1"})
        diff = compare_assignments(a, a, ["a1", "a2"])
        assert diff.differently_assigned_count == 0
        assert diff.differently_assigned_share == 0.0

    def test_hand_counted(self):
        base = Assignment(seat_of={"a1": "p1", "a2": "p2", "a3": "p1"})
        other = Assignment(seat_of={"a1": "p2", "a2": "p2"})
        diff = compare_assignments(base, other, [f"a{i}" for i in range(1, 6)])
        assert diff.differently_assigned_count == 2
        assert diff.differently_assigned_share == pytest.approx(0.4)
        assert diff.transitions == {"a1": ("p1", "p2"), "a3": ("p1", None)}

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            compare_assignments(
                Assignment(seat_of={"zz": "p1"}), Assignment(seat_of={}), ["a1"]
            )


class TestProgramThresholds:
    def test_single_admit(self):
        inst = instance_of({"a1": ["p1"]}, {("a1", "p1"): 47.0}, {"p1": 1})
        assignment = deferred_acceptance(inst, "programs")
        assert program_thresholds(inst, assignment) == {"p1": 47.0}

    def test_empty_program_absent(self):
        inst = instance_of(
            {"a1": ["p1"]}, {("a1", "p1"): 47.0}, {"p1": 1, "p2": 1}
        )
        assignment = deferred_acceptance(inst, "programs")
        assert "p2" not in program_thresholds(inst, assignment)

    def test_rejected_at_full_program_scores_below_threshold(self, small_panel):
        # The invariant only binds for applicants who prefer the full program
        # to their outcome; someone admitted to a higher-listed choice may well
        # outscore the threshold of a program they turned down.
        table = compute_score_table(small_panel, small_panel.base_applications)
        quotas = {k: p.quota for k, p in small_panel.programs.items()}
        inst = build_instance(small_panel.base_applications, table, quotas)
        assignment = deferred_acceptance(inst, "programs")
        thresholds = program_thresholds(inst, assignment)
        fill = {p: len(v) for p, v in assignment.admits_of().items()}
        checked = 0
        for app in small_panel.base_applications:
            p = app.program_key
            seat = assignment.seat_of.get(app.applicant_id)
            if seat == p:
                continue
            prefs = inst.preferences[app.applicant_id]
            if seat is not None and prefs.index(seat) < prefs.index(p):
                continue
            if fill.get(p, 0) == quotas[p] and quotas[p] > 0:
                assert inst.scores[(app.applicant_id, p)] <= thresholds[p]
                checked += 1
        assert checked > 0


class TestReplication:
    def test_observed_equals_computed(self, small_panel):
        assert replicate_assignment(small_panel, small_panel.observed_assignment) == 1.0

    def test_requires_observed(self):
        p = mk_program(("P", "x"))
        panel = mk_panel([p], [mk_app("a1", p.program_key, 1)])
        with pytest.raises(NoObservedAssignment):
            replicate_assignment(panel, Assignment(seat_of={}))

    def test_partial_match_counted_per_application(self):
        p1, p2 = mk_program(("P", "x")), mk_program(("P", "y"))
        apps = [mk_app("a1", p1.program_key, 1), mk_app("a1", p2.program_key, 2)]
        observed = Assignment(seat_of={"a1": p1.program_key}, accepted={"a1": True})
        panel = mk_panel([p1, p2], apps, observed=observed)
        computed = Assignment(seat_of={"a1": p2.program_key})
        # both per-application decisions flip: admit->reject and reject->admit
        assert replicate_assignment(panel, computed) == 0.0
        assert replicate_assignment(panel, observed) == 1.0


class TestDeterminism:
    def test_record_order_invariance(self, small_panel):
        apps = small_panel.base_applications
        table = compute_score_table(small_panel, apps)
        quotas = {k: p.quota for k, p in small_panel.programs.items()}
        inst1 = build_instance(apps, table, quotas)
        inst2 = build_instance(list(reversed(apps)), table, quotas)
        assert inst1 == inst2
        a1 = deferred_acceptance(inst1, "programs")
        a2 = deferred_acceptance(inst2, "programs")
        assert a1 == a2
