"""Quota-respecting deferred acceptance and stability auditing."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    InfeasibleAssignment,
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
    return MatchInstance(preferences=preferences, priorities=priorities, quotas=instance_quotas)


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


def program_thresholds(scores: ScoreTable, assignment: Assignment) -> dict[str, float]:
    """Lowest total score among each program's admitted applicants.

    ``scores`` holds one row per (applicant, program), as the tables of
    both list variants do. Programs with no admits are omitted.
    """
    total_of = {(a, p): t for (a, p, _year), t in zip(scores.keys, scores.totals.tolist())}
    return {
        p: min(total_of[(a, p)] for a in admits)
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
