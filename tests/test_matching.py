import random
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import mk_app, mk_panel, mk_program
from oracle import (
    InstanceTooLarge,
    assignment_of,
    block_of,
    enumerate_stable_assignments,
    instance_from_mappings,
    priorities,
    records,
    replicate_assignment,
    same_assignment,
)
from polyadmit import matching
from polyadmit.errors import (
    InfeasibleAssignment,
    MissingScore,
    NoObservedAssignment,
    UniverseMismatch,
)
from polyadmit.matching import (
    build_instance,
    compare_assignments,
    deferred_acceptance,
    find_blocking_pairs,
    program_thresholds,
)
from polyadmit.scoring import ScoreTable, compute_score_table


def instance_of(prefs, scores, quotas):
    """Hand-built instance; priorities derived from scores with id tiebreak."""
    prios = {}
    programs = set(quotas)
    for p in programs:
        pool = [a for a in prefs if p in prefs[a]]
        prios[p] = tuple(sorted(pool, key=lambda a: (-scores[(a, p)], a)))
    return instance_from_mappings(
        preferences={a: tuple(v) for a, v in prefs.items()},
        priorities=prios,
        quotas=dict(quotas),
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
        table = compute_score_table(panel, panel.applications)
        inst = build_instance(table.applications, table, panel.quota)
        assert priorities(inst)[p.program_key] == ("a", "b")

    def test_preferences_by_listed_rank(self):
        p1, p2 = mk_program(("P", "x")), mk_program(("P", "y"))
        apps = [mk_app("a", p2.program_key, 2), mk_app("a", p1.program_key, 1)]
        panel = mk_panel([p1, p2], apps)
        table = compute_score_table(panel, panel.applications)
        inst = build_instance(table.applications, table, panel.quota)
        assert inst.preferences["a"] == (p1.program_key, p2.program_key)

    def test_missing_score(self):
        # a table scores only the block it was computed from, even one
        # holding the same rows
        p = mk_program(("P", "x"))
        apps = [mk_app("a", p.program_key, 1)]
        panel = mk_panel([p], apps)
        for scored in ([], apps):
            table = compute_score_table(panel, block_of(scored, over=panel))
            with pytest.raises(MissingScore):
                build_instance(panel.applications, table, panel.quota)

    def test_priorities_strictly_sorted(self, small_panel):
        table = compute_score_table(small_panel, small_panel.base_applications)
        inst = build_instance(table.applications, table, small_panel.quota)
        total_of = {(a, p): t for (a, p, _), t in zip(table.keys, table.totals.tolist())}
        for p, order in priorities(inst).items():
            keys = [(-total_of[(a, p)], a) for a in order]
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
                rank = {x: i for i, x in enumerate(priorities(inst)[p])}
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
        empty = assignment_of({}, over=inst)
        assert find_blocking_pairs(inst, empty) == [("a1", "p1")]

    def test_infeasible_rejected(self):
        inst = instance_of({"a1": ["p1"]}, {("a1", "p1"): 1.0}, {"p1": 1, "p2": 1})
        with pytest.raises(InfeasibleAssignment, match="unlisted program 'p2'"):
            find_blocking_pairs(inst, assignment_of({"a1": "p2"}, over=inst))

    def test_over_quota_names_the_first_key_in_key_order(self):
        # the panel lists p::z before p::b, so p::z has the lower code
        seat_of = {"a1": "p::z", "a2": "p::z", "a3": "p::b", "a4": "p::b"}
        panel = mk_panel(
            [mk_program(("P", "z")), mk_program(("P", "b"))],
            [mk_app(a, p, 1) for a, p in seat_of.items()],
        )
        table = compute_score_table(panel, panel.applications)
        inst = build_instance(panel.applications, table, panel.quota)
        crowded = assignment_of(seat_of, over=panel)
        with pytest.raises(InfeasibleAssignment, match=r"^program 'p::b' over quota: 2 > 1$"):
            find_blocking_pairs(inst, crowded)

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
            assignment = assignment_of(seat_of, over=inst)
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
    # five applicants and two programs, coded by position
    CODED = SimpleNamespace(
        applicant_ids=tuple(f"a{i}" for i in range(1, 6)), program_keys=("p1", "p2")
    )

    def test_identical(self):
        a = assignment_of({"a1": "p1"}, over=self.CODED)
        diff = compare_assignments(a, a, np.arange(2))
        assert diff.differently_assigned_count == 0
        assert diff.differently_assigned_share == 0.0

    def test_hand_counted(self):
        base = assignment_of({"a1": "p1", "a2": "p2", "a3": "p1"}, over=self.CODED)
        other = assignment_of({"a1": "p2", "a2": "p2"}, over=self.CODED)
        diff = compare_assignments(base, other, np.arange(5))
        assert diff.differently_assigned_count == 2
        assert diff.differently_assigned_share == pytest.approx(0.4)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch, match="a5"):
            compare_assignments(
                assignment_of({"a5": "p1"}, over=self.CODED),
                assignment_of({}, over=self.CODED),
                np.arange(1),
            )

    def test_other_coding_raises(self):
        with pytest.raises(KeyError, match="zz"):
            compare_assignments(
                assignment_of({"zz": "p1"}, over=self.CODED),
                assignment_of({}, over=self.CODED),
                np.arange(5),
            )


def score_table(rows):
    """Hand-built base-year table from (applicant, program, gpa, bonus) rows."""
    zeros = np.zeros(len(rows))
    return ScoreTable(
        block_of([mk_app(a, p, 1) for a, p, _, _ in rows]),
        gpa=np.array([gpa for _, _, gpa, _ in rows]),
        exam=zeros,
        bonus=np.array([bonus for _, _, _, bonus in rows]),
        other=zeros,
        exam_taken=np.zeros(len(rows), dtype=bool),
    )


class TestProgramThresholds:
    def test_single_admit(self):
        table = score_table([("a1", "p1", 47.0, 0.0)])
        assignment = assignment_of({"a1": "p1"}, over=table.applications)
        assert program_thresholds(table, assignment) == {"p1": 47.0}

    def test_empty_program_absent(self):
        table = score_table([("a1", "p1", 47.0, 0.0), ("a1", "p2", 47.0, 0.0)])
        assignment = assignment_of({"a1": "p1"}, over=table.applications)
        assert program_thresholds(table, assignment) == {"p1": 47.0}

    def test_lowest_total_among_admits(self):
        # a2 has the lowest GPA but the bonus lifts their total above a3's;
        # a4 scores lowest of all but is not admitted
        table = score_table(
            [
                ("a1", "p1", 60.0, 0.0),
                ("a2", "p1", 40.0, 15.0),
                ("a3", "p1", 50.0, 0.0),
                ("a4", "p1", 10.0, 0.0),
                ("a4", "p2", 30.0, 0.0),
            ]
        )
        assignment = assignment_of(
            {"a1": "p1", "a2": "p1", "a3": "p1", "a4": "p2"}, over=table.applications
        )
        assert program_thresholds(table, assignment) == {"p1": 50.0, "p2": 30.0}

    def test_rejected_at_full_program_scores_below_threshold(self, small_panel):
        # The invariant only binds for applicants who prefer the full program
        # to their outcome; someone admitted to a higher-listed choice may well
        # outscore the threshold of a program they turned down.
        table = compute_score_table(small_panel, small_panel.base_applications)
        total_of = dict(zip(table.keys, table.totals.tolist()))
        quotas = dict(zip(small_panel.program_keys, small_panel.quota.tolist()))
        inst = build_instance(table.applications, table, small_panel.quota)
        assignment = deferred_acceptance(inst, "programs")
        thresholds = program_thresholds(table, assignment)
        fill = dict(zip(assignment.program_keys, np.bincount(assignment.seat[assignment.holders])))
        checked = 0
        for app in records(table.applications):
            p = app.program_key
            seat = assignment.seat_of.get(app.applicant_id)
            if seat == p:
                continue
            prefs = inst.preferences[app.applicant_id]
            if seat is not None and prefs.index(seat) < prefs.index(p):
                continue
            if fill.get(p, 0) == quotas[p] and quotas[p] > 0:
                assert total_of[(app.applicant_id, p, app.year)] <= thresholds[p]
                checked += 1
        assert checked > 0


class TestReplication:
    def test_observed_equals_computed(self, small_panel):
        assert replicate_assignment(small_panel, small_panel.observed_assignment) == 1.0

    def test_requires_observed(self):
        p = mk_program(("P", "x"))
        panel = mk_panel([p], [mk_app("a1", p.program_key, 1)])
        with pytest.raises(NoObservedAssignment):
            replicate_assignment(panel, assignment_of({}))

    def test_partial_match_counted_per_application(self):
        p1, p2 = mk_program(("P", "x")), mk_program(("P", "y"))
        apps = [mk_app("a1", p1.program_key, 1), mk_app("a1", p2.program_key, 2)]
        panel = mk_panel([p1, p2], apps, observed={"a1": p1.program_key}, accepted={"a1": True})
        computed = assignment_of({"a1": p2.program_key}, over=panel)
        # both per-application decisions flip: admit->reject and reject->admit
        assert replicate_assignment(panel, computed) == 0.0
        assert replicate_assignment(panel, panel.observed_assignment) == 1.0


class TestDeterminism:
    def test_record_order_invariance(self, small_panel):
        # the same rows reversed, scored on their own
        apps = small_panel.base_applications
        reversed_apps = apps.take(np.arange(len(apps))[::-1])
        inst1, inst2 = (
            build_instance(block, compute_score_table(small_panel, block), small_panel.quota)
            for block in (apps, reversed_apps)
        )
        assert (inst1.preferences, priorities(inst1), inst1.quotas) == (
            inst2.preferences, priorities(inst2), inst2.quotas,
        )
        a1 = deferred_acceptance(inst1, "programs")
        a2 = deferred_acceptance(inst2, "programs")
        assert same_assignment(a1, a2)


class TestComparativeStatics:
    """Metamorphic checks of DA on the 400-applicant panel's base-year
    lists with edited quotas (Crawford, "Comparative statics in matching
    markets", JET 1991)."""

    @staticmethod
    def instance(panel, quotas):
        """The base-year instance with ``quotas`` (program key -> seats)."""
        table = compute_score_table(panel, panel.base_applications)
        quota = np.array([quotas[p] for p in panel.program_keys])
        return build_instance(table.applications, table, quota)

    def test_ample_quotas_seat_everyone_at_their_first_choice(self, small_panel):
        n = len(small_panel.applicant_ids)
        inst = self.instance(small_panel, {p: n for p in small_panel.program_keys})
        first = {a: prefs[0] for a, prefs in inst.preferences.items()}
        assert len(first) == n
        for side in ("applicants", "programs"):
            assert seats(deferred_acceptance(inst, side)) == first

    def test_one_more_seat_leaves_no_applicant_worse_off(self, small_panel):
        quotas = dict(zip(small_panel.program_keys, small_panel.quota.tolist()))
        inst = self.instance(small_panel, quotas)
        before = deferred_acceptance(inst, "applicants").seat_of

        def position(prefs, seat):  # past the end of the list when unassigned
            return prefs.index(seat) if seat is not None else len(prefs)

        improved = 0
        for program in sorted(quotas):
            raised = self.instance(small_panel, {**quotas, program: quotas[program] + 1})
            after = deferred_acceptance(raised, "applicants").seat_of
            for a, prefs in inst.preferences.items():
                old, new = position(prefs, before.get(a)), position(prefs, after.get(a))
                assert new <= old, (program, a)
                improved += new < old
        assert improved > 0
