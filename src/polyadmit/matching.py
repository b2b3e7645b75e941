"""Quota-respecting deferred acceptance and stability auditing."""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InfeasibleAssignment, MissingScore, UniverseMismatch
from .model import ApplicationBlock, Assignment, same_coding, seat_rows
from .scoring import ScoreTable

PROPOSING_APPLICANTS = "applicants"
PROPOSING_PROGRAMS = "programs"


@dataclass(frozen=True, eq=False)
class MatchInstance:
    """Strict preference/priority profile for one matching run, as
    integer arrays.

    Applicants and programs are coded by their position in the ascending
    ``applicant_ids`` and in ``program_keys``. Row ``r`` is one application,
    of ``applicant[r]`` to ``program[r]``. ``pref_order`` lists the rows
    by applicant, each list in preference order, applicant ``a``'s list
    being ``pref_order[pref_offsets[a]:pref_offsets[a + 1]]``;
    ``prio_order`` and ``prio_offsets`` list them by program, highest
    priority first. Priorities are strict by construction: score ties are
    broken by applicant id ascending.

    ``applicant`` and ``program`` are the block's own narrow code columns
    (see ``ApplicationBlock``); the orders, offsets and ``quota`` are
    int64.

    ``preferences`` and ``quotas`` are the applicants' lists and the
    quotas as id-keyed mappings, built on first read.
    """

    applicant_ids: tuple[str, ...]
    program_keys: tuple[str, ...]
    applicant: np.ndarray
    program: np.ndarray
    pref_order: np.ndarray
    pref_offsets: np.ndarray
    quota: np.ndarray
    prio_order: np.ndarray
    prio_offsets: np.ndarray

    @property
    def pref_position(self) -> np.ndarray:
        """Per row: its program's position in its applicant's list, 0 for
        the first; the row's place in ``pref_order`` less its list's start.
        Computed on each read, so a caller holds it only while it needs it."""
        return _positions(self.pref_order, self.pref_offsets, self.applicant)

    @property
    def prio_position(self) -> np.ndarray:
        """Per row: its applicant's position in its program's order; computed
        on each read, as ``pref_position`` is."""
        return _positions(self.prio_order, self.prio_offsets, self.program)

    @functools.cached_property
    def preferences(self) -> Mapping[str, tuple[str, ...]]:
        members = self.program[self.pref_order]
        return _grouped(self.applicant_ids, self.pref_offsets, self.program_keys, members)

    @functools.cached_property
    def quotas(self) -> Mapping[str, int]:
        return dict(zip(self.program_keys, self.quota.tolist()))


def _positions(order: np.ndarray, offsets: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Each row's place in ``order`` within its ``group``'s range of ``offsets``."""
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    position -= offsets[group]
    return position


def _grouped(
    group_ids: Sequence[str], offsets: np.ndarray, member_ids: Sequence[str], members: np.ndarray
) -> dict[str, tuple[str, ...]]:
    names = [member_ids[m] for m in members.tolist()]
    bounds = offsets.tolist()
    return {g: tuple(names[bounds[i] : bounds[i + 1]]) for i, g in enumerate(group_ids)}


def build_instance(
    applications: ApplicationBlock,
    scores: ScoreTable,
    quota: np.ndarray,
) -> MatchInstance:
    """Assemble the matching instance for one application block, the one
    ``scores`` was computed from, with ``quota[p]`` seats at program ``p``.

    The instance codes as the block does. Preferences follow listed rank;
    each program orders its applicants by total score descending,
    applicant id breaking ties. The preference lists of a block are built
    once and shared by every table that scores it.
    """
    if applications is not scores.applications:
        raise MissingScore("the score table was computed from another application block")
    program = applications.program
    prio_order = np.lexsort((applications.applicant, -scores.totals, program))
    return MatchInstance(
        applications.applicant_ids, applications.program_keys, applications.applicant, program,
        *applications.lists, quota=np.asarray(quota, dtype=np.int64), prio_order=prio_order,
        prio_offsets=np.searchsorted(program[prio_order], np.arange(len(quota) + 1)),
    )


def deferred_acceptance(instance: MatchInstance, proposing: str) -> Assignment:
    if proposing == PROPOSING_APPLICANTS:
        seat = _da_applicant_proposing(instance)
    elif proposing == PROPOSING_PROGRAMS:
        seat = _da_program_proposing(instance)
    else:
        raise ValueError(f"unknown proposing side {proposing!r}")
    seat = np.array(seat, dtype=np.intp)
    unknown = np.full(len(seat), -1, dtype=np.int8)
    return Assignment(instance.applicant_ids, instance.program_keys, seat, unknown)


def _da_applicant_proposing(instance: MatchInstance) -> list[int]:
    """Seat code per applicant (-1 unassigned); each program keeps its
    holders in a heap keyed by priority position, worst on top."""
    program = instance.program[instance.pref_order].tolist()
    position = instance.prio_position[instance.pref_order].tolist()
    offsets = instance.pref_offsets.tolist()
    members = instance.applicant[instance.prio_order].tolist()
    starts = instance.prio_offsets.tolist()
    quota = instance.quota.tolist()
    next_choice = offsets[:-1]
    held: list[list[int]] = [[] for _ in quota]  # negated priority positions
    free = list(range(len(instance.applicant_ids)))

    while free:
        a = free.pop()
        i, stop = next_choice[a], offsets[a + 1]
        while i < stop:
            p, rank = program[i], position[i]
            i += 1
            holders = held[p]
            if len(holders) < quota[p]:
                heapq.heappush(holders, -rank)
                break
            if holders and rank < -holders[0]:
                worst = -heapq.heapreplace(holders, -rank)
                free.append(members[starts[p] + worst])
                break
        next_choice[a] = i
    seat = [-1] * len(instance.applicant_ids)
    for p, holders in enumerate(held):
        for rank in holders:
            seat[members[starts[p] - rank]] = p
    return seat


def _da_program_proposing(instance: MatchInstance) -> list[int]:
    """Seat code per applicant (-1 unassigned); each program offers down
    its priority order while it has room, and an applicant keeps the
    offer that comes highest on their list."""
    position = memoryview(instance.pref_position[instance.prio_order])
    members = memoryview(instance.applicant[instance.prio_order])
    next_offer = instance.prio_offsets[:-1].tolist()
    stops = instance.prio_offsets[1:].tolist()
    quota = instance.quota.tolist()
    fill = [0] * len(quota)  # offers each program holds
    seat = [-1] * len(instance.applicant_ids)  # program holding each applicant's best offer
    seat_position = [len(members)] * len(seat)  # past the end of every list
    pending = list(range(len(quota)))
    is_pending = [True] * len(quota)

    while pending:
        p = pending.pop()
        is_pending[p] = False
        i, stop, room = next_offer[p], stops[p], quota[p] - fill[p]
        while room > 0 and i < stop:
            a, rank = members[i], position[i]
            i += 1
            if rank < seat_position[a]:
                current = seat[a]
                seat[a], seat_position[a] = p, rank
                room -= 1
                if current >= 0:
                    fill[current] -= 1
                    if not is_pending[current]:
                        pending.append(current)
                        is_pending[current] = True
        next_offer[p] = i
        fill[p] = quota[p] - room
    return seat


def find_blocking_pairs(
    instance: MatchInstance, assignment: Assignment
) -> list[tuple[str, str]]:
    """All (applicant, program) pairs that would deviate together.

    A pair blocks when the applicant prefers the program to their current
    outcome and the program either has a free seat or holds a
    lower-priority applicant. Empty result means stable. Raises if a seat
    is not on the applicant's list or a program is over quota.
    """
    seat_row = seat_rows(assignment, instance)
    if (seat_row == -2).any():
        a = np.argmax(seat_row == -2)
        a, p = assignment.applicant_ids[a], assignment.program_keys[assignment.seat[a]]
        raise InfeasibleAssignment(f"applicant {a!r} assigned to unlisted program {p!r}")
    held = seat_row[seat_row >= 0]
    keys, quota = instance.program_keys, instance.quota
    fill = np.bincount(instance.program[held], minlength=len(keys))
    if (fill > quota).any():  # named as in key order
        p = min(np.flatnonzero(fill > quota).tolist(), key=keys.__getitem__)
        raise InfeasibleAssignment(f"program {keys[p]!r} over quota: {fill[p]} > {quota[p]}")
    pref, prio = instance.pref_position, instance.prio_position
    worst = np.full(len(keys), -1)
    np.maximum.at(worst, instance.program[held], prio[held])
    seat_position = np.where(seat_row >= 0, pref[np.maximum(seat_row, 0)], np.iinfo(np.intp).max)
    program = instance.program
    blocks = (pref < seat_position[instance.applicant]) & (
        (fill[program] < instance.quota[program]) | (prio < worst[program])
    )
    rows = instance.pref_order[blocks[instance.pref_order]].tolist()
    return [
        (instance.applicant_ids[instance.applicant[r]], instance.program_keys[program[r]])
        for r in rows
    ]


@dataclass(frozen=True)
class AssignmentDiff:
    differently_assigned_count: int
    differently_assigned_share: float


def compare_assignments(
    base: Assignment, other: Assignment, universe: np.ndarray
) -> AssignmentDiff:
    """Count applicants whose seat (or unassigned status) differs.

    The share is computed over the full applicant ``universe`` (the codes
    of the applicants matched), not only over assigned applicants.
    """
    same_coding(base, other)
    for side in (base, other):
        outside = side.holders[np.isin(side.holders, universe, invert=True)]
        if len(outside):
            extra = [side.applicant_ids[a] for a in outside[:5].tolist()]
            raise UniverseMismatch(f"assigned applicants outside universe: {extra}")
    count = int(np.count_nonzero(base.seat != other.seat))
    return AssignmentDiff(
        differently_assigned_count=count,
        differently_assigned_share=count / len(universe) if len(universe) else 0.0,
    )


def program_thresholds(scores: ScoreTable, assignment: Assignment) -> dict[str, float]:
    """Lowest total score among each program's admitted applicants.

    ``scores`` holds one row per (applicant, program), as the tables of
    both list variants do. Programs with no admits are omitted.
    """
    block = scores.applications
    admits = seat_rows(assignment, block)[assignment.holders]
    admits = admits[admits >= 0]  # a holder without a row here
    lowest = np.full(len(block.program_keys), np.inf)
    np.minimum.at(lowest, block.program[admits], scores.totals[admits])
    admitting = np.flatnonzero(
        np.bincount(block.program[admits], minlength=len(block.program_keys))
    ).tolist()
    return {block.program_keys[p]: float(lowest[p]) for p in admitting}
