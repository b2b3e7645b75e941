"""Test-only oracles: brute-force enumeration of every stable assignment
of a small instance, and an assignment checker that raises."""

from __future__ import annotations

from typing import Optional, Sequence

from polyadmit.errors import InfeasibleAssignment, InstanceTooLarge
from polyadmit.matching import MatchInstance, find_blocking_pairs
from polyadmit.model import Application, Assignment, Panel, assignment_violations


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


def check_assignment(
    panel: Panel, applications: Sequence[Application], assignment: Assignment
) -> Assignment:
    problems = assignment_violations(panel, applications, assignment)
    if problems:
        raise InfeasibleAssignment("; ".join(problems))
    return assignment
