"""Quota-respecting deferred acceptance, stability auditing, and the
brute-force enumeration oracle."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    InfeasibleAssignment,
    InstanceTooLarge,
    MissingScore,
    NoObservedAssignment,
    UniverseMismatch,
)
from .model import Application, Assignment, Panel
from .scoring import ScoreTable

PROPOSING_APPLICANTS = "applicants"
PROPOSING_PROGRAMS = "programs"


@dataclass(frozen=True)
class MatchInstance:
    """Strict preference/priority profile for one matching run.

    Priorities are strict by construction: score ties are broken by
    applicant id ascending.
    """

    preferences: Mapping[str, tuple[str, ...]]
    priorities: Mapping[str, tuple[str, ...]]
    quotas: Mapping[str, int]
    scores: Mapping[tuple[str, str], float]

    def priority_rank(self) -> dict[str, dict[str, int]]:
        return {
            p: {a: i for i, a in enumerate(order)} for p, order in self.priorities.items()
        }

    def preference_rank(self) -> dict[str, dict[str, int]]:
        return {
            a: {p: i for i, p in enumerate(prefs)} for a, prefs in self.preferences.items()
        }


def build_instance(
    applications: Sequence[Application],
    scores: ScoreTable,
    quotas: Mapping[str, int],
) -> MatchInstance:
    """Assemble the matching instance for one application set.

    Preferences follow listed rank; each program orders its applicants by
    total score descending, applicant id breaking ties.
    """
    row_of = {key: row for row, key in enumerate(scores.keys)}
    try:
        rows = [row_of[key] for key in map(_score_key, applications)]
    except KeyError as exc:
        raise MissingScore(f"no score entry for {exc.args[0]}") from None
    totals = scores.totals[np.array(rows, dtype=np.intp)]

    applicant_of = list(map(attrgetter("applicant_id"), applications))
    program_of = list(map(attrgetter("program_key"), applications))
    applicant_ids, applicant_code = _codes(applicant_of)
    program_keys, program_code = _codes(program_of)
    listed_rank = np.fromiter(
        map(attrgetter("listed_rank"), applications), dtype=np.int64, count=len(applications)
    )

    preferences = _grouped(
        np.lexsort((listed_rank, applicant_code)),
        applicant_code, applicant_ids, program_code, program_keys,
    )
    priorities = _grouped(
        np.lexsort((applicant_code, -totals, program_code)),
        program_code, program_keys, applicant_code, applicant_ids,
    )
    instance_quotas = {p: int(quotas.get(p, 0)) for p in priorities}
    return MatchInstance(
        preferences=preferences,
        priorities=priorities,
        quotas=instance_quotas,
        scores=dict(zip(zip(applicant_of, program_of), totals.tolist())),
    )


_score_key = attrgetter("applicant_id", "program_key", "year")


def _codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct values, and each value's position among them."""
    ids = sorted(set(values))
    code_of = {x: i for i, x in enumerate(ids)}
    return ids, np.fromiter(map(code_of.__getitem__, values), dtype=np.intp, count=len(values))


def _grouped(
    order: np.ndarray,
    group_code: np.ndarray,
    group_ids: Sequence[str],
    member_code: np.ndarray,
    member_ids: Sequence[str],
) -> dict[str, tuple[str, ...]]:
    """Rows taken in ``order`` (grouped by ascending ``group_code``), split
    into one tuple of member ids per group."""
    members = [member_ids[c] for c in member_code[order].tolist()]
    bounds = np.searchsorted(group_code[order], np.arange(len(group_ids) + 1)).tolist()
    return {
        g: tuple(members[bounds[i] : bounds[i + 1]]) for i, g in enumerate(group_ids)
    }


def deferred_acceptance(instance: MatchInstance, proposing: str) -> Assignment:
    if proposing == PROPOSING_APPLICANTS:
        seat_of = _da_applicant_proposing(instance)
    elif proposing == PROPOSING_PROGRAMS:
        seat_of = _da_program_proposing(instance)
    else:
        raise ValueError(f"unknown proposing side {proposing!r}")
    return Assignment(seat_of=dict(sorted(seat_of.items())))


def _da_applicant_proposing(instance: MatchInstance) -> dict[str, str]:
    prio_rank = instance.priority_rank()
    next_choice = {a: 0 for a in instance.preferences}
    held: dict[str, list[str]] = {p: [] for p in instance.priorities}
    free = sorted(instance.preferences)

    while free:
        a = free.pop()
        prefs = instance.preferences[a]
        while next_choice[a] < len(prefs):
            p = prefs[next_choice[a]]
            next_choice[a] += 1
            quota = instance.quotas[p]
            if quota == 0:
                continue
            holders = held[p]
            if len(holders) < quota:
                holders.append(a)
                break
            worst = max(holders, key=lambda x: prio_rank[p][x])
            if prio_rank[p][a] < prio_rank[p][worst]:
                holders.remove(worst)
                holders.append(a)
                free.append(worst)
                break
    return {a: p for p, holders in held.items() for a in holders}


def _da_program_proposing(instance: MatchInstance) -> dict[str, str]:
    pref_rank = instance.preference_rank()
    next_offer = {p: 0 for p in instance.priorities}
    fill = {p: 0 for p in instance.priorities}  # offers each program holds
    held_by: dict[str, str] = {}  # applicant -> program holding their best offer
    pending = sorted(instance.priorities)
    is_pending = set(pending)

    while pending:
        p = pending.pop()
        is_pending.discard(p)
        order = instance.priorities[p]
        quota = instance.quotas[p]
        while fill[p] < quota and next_offer[p] < len(order):
            a = order[next_offer[p]]
            next_offer[p] += 1
            current = held_by.get(a)
            if current is None or pref_rank[a][p] < pref_rank[a][current]:
                held_by[a] = p
                fill[p] += 1
                if current is not None:
                    fill[current] -= 1
                    if current not in is_pending:
                        pending.append(current)
                        is_pending.add(current)
    return dict(held_by)


def _check_feasible(instance: MatchInstance, assignment: Assignment) -> None:
    fill: dict[str, int] = {}
    for a, p in assignment.seat_of.items():
        if a not in instance.preferences or p not in instance.preferences[a]:
            raise InfeasibleAssignment(f"applicant {a!r} assigned to unlisted program {p!r}")
        fill[p] = fill.get(p, 0) + 1
    for p, n in fill.items():
        if n > instance.quotas[p]:
            raise InfeasibleAssignment(f"program {p!r} over quota: {n} > {instance.quotas[p]}")


def find_blocking_pairs(
    instance: MatchInstance, assignment: Assignment
) -> list[tuple[str, str]]:
    """All (applicant, program) pairs that would deviate together.

    A pair blocks when the applicant prefers the program to their current
    outcome and the program either has a free seat or holds a
    lower-priority applicant. Empty result means stable.
    """
    _check_feasible(instance, assignment)
    prio_rank = instance.priority_rank()
    admits = assignment.admits_of()
    fill = {p: len(a) for p, a in admits.items()}
    worst_rank = {
        p: max(prio_rank[p][a] for a in holders) for p, holders in admits.items()
    }

    blocking: list[tuple[str, str]] = []
    for a in sorted(instance.preferences):
        prefs = instance.preferences[a]
        current = assignment.seat_of.get(a)
        stop = prefs.index(current) if current is not None else len(prefs)
        for p in prefs[:stop]:
            if fill.get(p, 0) < instance.quotas[p]:
                blocking.append((a, p))
            elif p in worst_rank and prio_rank[p][a] < worst_rank[p]:
                blocking.append((a, p))
    return blocking


def enumerate_stable_assignments(
    instance: MatchInstance, limit: int = 5_000_000
) -> list[Assignment]:
    """Exhaustively enumerate every stable assignment of a small instance.

    Intended as an oracle for the deferred acceptance engine; raises
    rather than truncating when the search space exceeds ``limit``
    candidate assignments.
    """
    applicants = sorted(instance.preferences)
    space = 1
    for a in applicants:
        space *= len(instance.preferences[a]) + 1
        if space > limit:
            raise InstanceTooLarge(f"search space exceeds limit of {limit}")

    prio_rank = instance.priority_rank()
    pref_rank = instance.preference_rank()
    quotas = instance.quotas

    seat_of: dict[str, str] = {}
    fill: dict[str, int] = {p: 0 for p in instance.priorities}
    worst: dict[str, int] = {}  # lowest priority rank currently admitted, per full program
    results: list[Assignment] = []

    def guaranteed_block(i: int, option: Optional[str]) -> bool:
        # A full program's holdings can only be displaced by later choices in
        # this enumeration order if we re-open it, which we never do; so once
        # full, a higher-priority outsider preferring it is a certain block.
        a = applicants[i]
        prefs = instance.preferences[a]
        stop = pref_rank[a][option] if option is not None else len(prefs)
        for p in prefs[:stop]:
            if fill[p] == quotas[p] and p in worst and prio_rank[p][a] < worst[p]:
                return True
        return False

    def newly_full_blocks(p: str, upto: int) -> bool:
        # Program p just filled; any earlier applicant who prefers p and
        # outranks its weakest admit is now permanently blocking.
        for j in range(upto + 1):
            a = applicants[j]
            if p not in pref_rank[a]:
                continue
            current = seat_of.get(a)
            if current == p:
                continue
            stop = pref_rank[a][current] if current is not None else len(instance.preferences[a])
            if pref_rank[a][p] < stop and prio_rank[p][a] < worst[p]:
                return True
        return False

    def recurse(i: int) -> None:
        if i == len(applicants):
            candidate = Assignment(seat_of=dict(sorted(seat_of.items())))
            if not find_blocking_pairs(instance, candidate):
                results.append(candidate)
            return
        a = applicants[i]
        options: list[Optional[str]] = [None] + [
            p for p in instance.preferences[a] if fill[p] < quotas[p]
        ]
        for option in options:
            if guaranteed_block(i, option):
                continue
            if option is not None:
                seat_of[a] = option
                fill[option] += 1
                old_worst = worst.get(option)
                if fill[option] == quotas[option]:
                    worst[option] = max(
                        prio_rank[option][x] for x, q in seat_of.items() if q == option
                    )
                    if newly_full_blocks(option, i):
                        fill[option] -= 1
                        del seat_of[a]
                        if old_worst is None:
                            del worst[option]
                        else:
                            worst[option] = old_worst
                        continue
                recurse(i + 1)
                fill[option] -= 1
                del seat_of[a]
                if fill[option] < quotas[option] and option in worst:
                    del worst[option]
            else:
                recurse(i + 1)

    recurse(0)
    return results


@dataclass(frozen=True)
class AssignmentDiff:
    differently_assigned_count: int
    differently_assigned_share: float
    transitions: Mapping[str, tuple[Optional[str], Optional[str]]]


def compare_assignments(
    base: Assignment, other: Assignment, universe: Iterable[str]
) -> AssignmentDiff:
    """Count applicants whose seat (or unassigned status) differs.

    The share is computed over the full applicant universe, not only over
    assigned applicants.
    """
    universe = sorted(set(universe))
    known = set(universe)
    for assignment in (base, other):
        extra = set(assignment.seat_of) - known
        if extra:
            raise UniverseMismatch(f"assigned applicants outside universe: {sorted(extra)[:5]}")
    transitions = {}
    for a in universe:
        old, new = base.seat_of.get(a), other.seat_of.get(a)
        if old != new:
            transitions[a] = (old, new)
    count = len(transitions)
    share = count / len(universe) if universe else 0.0
    return AssignmentDiff(
        differently_assigned_count=count,
        differently_assigned_share=share,
        transitions=transitions,
    )


def program_thresholds(instance: MatchInstance, assignment: Assignment) -> dict[str, float]:
    """Admission score of each program's lowest scoring admitted applicant.

    Programs with no admits are omitted.
    """
    return {
        p: min(instance.scores[(a, p)] for a in admits)
        for p, admits in sorted(assignment.admits_of().items())
    }


def infer_quotas_from_observed(panel: Panel) -> dict[str, int]:
    """Proxy each program's quota by its observed number of admits."""
    if panel.observed_assignment is None:
        raise NoObservedAssignment("panel has no observed assignment")
    counts = {p: 0 for p in panel.programs}
    for program_key in panel.observed_assignment.seat_of.values():
        counts[program_key] += 1
    return counts


def replicate_assignment(panel: Panel, computed: Assignment) -> float:
    """Fraction of per-application admit/reject decisions the engine
    reproduces against the observed assignment."""
    if panel.observed_assignment is None:
        raise NoObservedAssignment("panel has no observed assignment")
    observed = panel.observed_assignment
    applications = panel.base_applications
    if not applications:
        return 1.0
    same = 0
    for app in applications:
        observed_admit = observed.seat_of.get(app.applicant_id) == app.program_key
        computed_admit = computed.seat_of.get(app.applicant_id) == app.program_key
        same += observed_admit == computed_admit
    return same / len(applications)
