"""Test-only oracles and helpers: applicant, program and application
records, their conversion to and from a panel's columns and a block,
assignments built from and read as id-keyed mappings, a rank table read
by id and field label, and panel equality row by row; brute-force
enumeration of every stable assignment of a small instance, an assignment
checker that raises, an instance built from id-keyed mappings, a small
random one, and its priorities read back by id, the observed-assignment replication checks,
the reference adjusted score and regression design, a regression
coefficient by term, and a score table keyed by id."""

from __future__ import annotations

import dataclasses
import random
import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from polyadmit import econometrics
from polyadmit.econometrics import RegressionResult
from polyadmit.errors import InfeasibleAssignment, NoObservedAssignment, PolyadmitError
from polyadmit.matching import MatchInstance, _grouped, find_blocking_pairs
from polyadmit.metrics import RankTable
from polyadmit.model import ApplicationBlock, Assignment, Panel, assignment_violations
from polyadmit.scoring import ScoreComponents, ScoreTable, compute_score_table


@dataclass(frozen=True)
class Applicant:
    """One applicant as a record: one row of a panel's applicant columns,
    with only the grades the applicant has."""

    applicant_id: str
    matriculation_grades: Mapping[str, float]
    cohort_year: int


def applicant_columns(applicants: Iterable[Applicant]) -> dict:
    """A panel's applicant fields from records: the ids sorted, subjects in
    order of first appearance, and NaN for a grade a record lacks."""
    rows = sorted(applicants, key=lambda a: a.applicant_id)
    subjects = tuple(dict.fromkeys(s for a in rows for s in a.matriculation_grades))
    grades = [[a.matriculation_grades.get(s, np.nan) for s in subjects] for a in rows]
    return dict(
        applicant_ids=tuple(a.applicant_id for a in rows),
        cohort_year=np.array([a.cohort_year for a in rows], dtype=np.int64),
        subjects=subjects,
        grades=np.array(grades, dtype=float).reshape(len(rows), len(subjects)),
    )


def applicants_of(panel: Panel) -> dict[str, Applicant]:
    """The panel's applicants as records, by id."""
    return {
        a: Applicant(a, {s: g for s, g in zip(panel.subjects, grades) if not np.isnan(g)}, year)
        for a, year, grades in zip(
            panel.applicant_ids, panel.cohort_year.tolist(), panel.grades.tolist()
        )
    }


@dataclass(frozen=True)
class Program:
    """One program as a record: one row of a panel's program columns."""

    program_key: str
    polytechnic_name: str
    program_name: str
    field: str
    quota: int


def program_columns(programs: Iterable[Program]) -> dict:
    """A panel's program fields from records, in the order given."""
    rows = list(programs)
    return dict(
        program_keys=tuple(p.program_key for p in rows),
        program_names=tuple((p.polytechnic_name, p.program_name) for p in rows),
        program_field=tuple(p.field for p in rows),
        quota=np.array([p.quota for p in rows], dtype=np.int64),
    )


def programs_of(panel: Panel) -> dict[str, Program]:
    """The panel's programs as records, by key, in the panel's order."""
    return {
        key: Program(key, *names, field_label, quota)
        for key, names, field_label, quota in zip(
            panel.program_keys, panel.program_names, panel.program_field, panel.quota.tolist()
        )
    }


@dataclass(frozen=True)
class Application:
    """One application as a record: one row of an ``ApplicationBlock``."""

    applicant_id: str
    program_key: str
    year: int
    listed_rank: int
    exam_taken: bool
    exam_score: float = 0.0
    other_points: float = 0.0


def encode(values: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct values, and each value's position among them."""
    ids = tuple(sorted(set(values)))
    code = {x: i for i, x in enumerate(ids)}
    return ids, np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=len(values))


def recode(ids: Sequence[str], into: Sequence[str]) -> np.ndarray:
    """Position in ``into`` of each of ``ids``, -1 where absent: the
    translation between vocabularies that the package never makes, for
    the references written against per-object vocabularies."""
    index = {x: i for i, x in enumerate(into)}
    return np.array([index.get(x, -1) for x in ids], dtype=np.intp)


def coding(over, applicant_ids: Iterable[str], program_keys: Iterable[str]) -> tuple:
    """The applicant ids and program keys of ``over`` (a panel, block,
    instance or assignment), each followed by the given ones it lacks,
    sorted, as the loader codes ids and keys a panel lacks; the sorted
    distinct given ones when ``over`` is None."""
    if over is None:
        return tuple(sorted(set(applicant_ids))), tuple(sorted(set(program_keys)))
    vocabularies = []
    for own, named in ((over.applicant_ids, applicant_ids), (over.program_keys, program_keys)):
        extra = tuple(sorted(set(named).difference(own)))
        vocabularies.append(own + extra if extra else own)
    return tuple(vocabularies)


def assignment_of(
    seat_of: Mapping[str, str], accepted: Mapping[str, bool] = {}, over=None
) -> Assignment:
    """An assignment from id-keyed seats and accept flags, coded as
    ``over`` is (see ``coding``)."""
    applicant_ids, program_keys = coding(over, [*seat_of, *accepted], seat_of.values())
    code = {p: j for j, p in enumerate(program_keys)}
    seat = [code[seat_of[a]] if a in seat_of else -1 for a in applicant_ids]
    accept = [int(accepted[a]) if a in accepted else -1 for a in applicant_ids]
    return Assignment(
        applicant_ids, program_keys, np.array(seat, dtype=np.intp), np.array(accept, dtype=np.int8)
    )


def accepted_of(assignment: Assignment) -> dict[str, bool]:
    """Applicant id -> accept flag, for every applicant whose flag is known."""
    return {
        assignment.applicant_ids[i]: bool(assignment.accept[i])
        for i in np.flatnonzero(assignment.accept >= 0).tolist()
    }


def same_assignment(assignment: Optional[Assignment], other: Optional[Assignment]) -> bool:
    """The same seats and accept flags, whatever the vocabularies."""
    if assignment is None or other is None:
        return assignment is other
    return (assignment.seat_of, accepted_of(assignment)) == (other.seat_of, accepted_of(other))


def block_from_columns(
    applicant_id, program_key, year, listed_rank, exam_taken, exam_score, other_points,
    over=None,
) -> ApplicationBlock:
    """A block from one list of Python values per column, coded as
    ``over`` is (see ``coding``)."""
    applicant_ids, program_keys = coding(over, applicant_id, program_key)
    return ApplicationBlock(
        applicant_ids, program_keys, recode(applicant_id, applicant_ids),
        recode(program_key, program_keys),
        np.array(year, dtype=np.int64), np.array(listed_rank, dtype=np.int64),
        np.array(exam_taken, dtype=bool), np.array(exam_score, dtype=float),
        np.array(other_points, dtype=float),
    )


def block_of(applications: Sequence[Application], over=None) -> ApplicationBlock:
    """The records as one block, row for row, coded as ``over`` is (see
    ``coding``); an empty list gives an empty block."""
    return block_from_columns(
        *([getattr(a, f.name) for a in applications] for f in dataclasses.fields(Application)),
        over=over,
    )


_records_of: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def records(block: ApplicationBlock) -> tuple[Application, ...]:
    """The block's rows as records, in row order; built once per block,
    as the loop references read the same blocks many times."""
    if block not in _records_of:
        _records_of[block] = tuple(map(Application, *block.python_columns()))
    return _records_of[block]


_rows_of: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def row_of(table: RankTable) -> dict[str, int]:
    """Applicant id -> row of the rank table; built once per table."""
    if table not in _rows_of:
        _rows_of[table] = {a: i for i, a in enumerate(table.applicant_ids)}
    return _rows_of[table]


def rank_of(table: RankTable, applicant_id: str, field_label: str) -> float:
    """The rank of ``applicant_id`` at ``field_label``; KeyError when
    either is not in the table."""
    if field_label not in table.fields:
        raise KeyError((applicant_id, field_label))
    return float(table.ranks[row_of(table)[applicant_id], table.fields.index(field_label)])


def same_panel(panel: Panel, other: Panel) -> bool:
    """Equal fields, the applicants, the programs and the application
    blocks compared row by row and the observed assignments seat by seat."""
    by_row = {"applicant_ids", "cohort_year", "subjects", "grades", "applications"}
    by_row |= {"program_keys", "program_names", "program_field", "quota"}
    return (
        applicants_of(panel) == applicants_of(other)
        and programs_of(panel) == programs_of(other)
        and records(panel.applications) == records(other.applications)
        and same_assignment(panel.observed_assignment, other.observed_assignment)
        and all(
            getattr(panel, f.name) == getattr(other, f.name)
            for f in dataclasses.fields(Panel)
            if f.name not in by_row | {"observed_assignment"}
        )
    )


class InstanceTooLarge(PolyadmitError):
    """The brute-force search space is over its limit."""


def instance_from_mappings(
    preferences: Mapping[str, Sequence[str]],
    priorities: Mapping[str, Sequence[str]],
    quotas: Mapping[str, int],
) -> MatchInstance:
    """An instance from id-keyed preference lists, priority orders and
    quotas; each program's order ranks the applicants listing it."""
    applicant_ids = tuple(sorted(preferences))
    program_keys = tuple(sorted(priorities))
    program_code = {p: j for j, p in enumerate(program_keys)}
    pairs = [(a, p) for a in applicant_ids for p in preferences[a]]
    row_of = {pair: r for r, pair in enumerate(pairs)}
    lengths = [len(preferences[a]) for a in applicant_ids]
    return MatchInstance(
        applicant_ids,
        program_keys,
        applicant=np.repeat(np.arange(len(applicant_ids)), lengths),
        program=np.array([program_code[p] for _, p in pairs], dtype=np.intp),
        pref_order=np.arange(len(pairs)),
        pref_offsets=np.cumsum([0] + lengths),
        quota=np.array([quotas[p] for p in program_keys], dtype=np.int64),
        prio_order=np.array(
            [row_of[a, p] for p in program_keys for a in priorities[p]], dtype=np.intp
        ),
        prio_offsets=np.cumsum([0] + [len(priorities[p]) for p in program_keys]),
    )


def random_instance(rng: random.Random) -> MatchInstance:
    """A small random instance: 1-8 applicants listing 1-4 of 1-5 programs,
    integer scores that tie, and quotas of 0-2."""
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
    return instance_from_mappings(preferences=prefs, priorities=priorities, quotas=quotas)


def priorities(instance: MatchInstance) -> dict[str, tuple[str, ...]]:
    """Each program's applicants by id, highest priority first."""
    members = instance.applicant[instance.prio_order]
    return _grouped(instance.program_keys, instance.prio_offsets, instance.applicant_ids, members)


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

    prio_rank = {p: {a: i for i, a in enumerate(o)} for p, o in priorities(instance).items()}
    pref_rank = {a: {p: i for i, p in enumerate(o)} for a, o in instance.preferences.items()}
    quotas = instance.quotas

    seat_of: dict[str, str] = {}
    fill: dict[str, int] = {p: 0 for p in instance.program_keys}
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
            candidate = assignment_of(seat_of, over=instance)
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
    panel: Panel, applications: ApplicationBlock, assignment: Assignment
) -> Assignment:
    problems = assignment_violations(panel, applications, assignment)
    if problems:
        raise InfeasibleAssignment("; ".join(problems))
    return assignment


def infer_quotas_from_observed(panel: Panel) -> dict[str, int]:
    """Proxy each program's quota by its observed number of admits."""
    if panel.observed_assignment is None:
        raise NoObservedAssignment("panel has no observed assignment")
    counts = {p: 0 for p in panel.program_keys}
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
    for app in records(applications):
        observed_admit = observed.seat_of.get(app.applicant_id) == app.program_key
        computed_admit = computed.seat_of.get(app.applicant_id) == app.program_key
        same += observed_admit == computed_admit
    return same / len(applications)


def adjusted_score(components: ScoreComponents) -> float:
    """Score with the exam result and the first-choice bonus subtracted; the
    reference for the adjusted-score column of the regression design."""
    return components.total - components.exam_component - components.first_choice_bonus


def build_design_matrix(
    panel: Panel,
    assignment: Assignment,
    thresholds: Mapping[str, float],
    spec: tuple[str, Optional[int]],
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """One row per admitted applicant, the first ``width`` admit columns of
    an ``(outcome, width)`` spec (``None``: all of them) and its outcome,
    from a score table of the base-year lists built here."""
    outcome, width = spec
    table = compute_score_table(panel, panel.base_applications)
    X, terms, outcomes = econometrics._admit_columns(panel, assignment, thresholds, table)
    return np.ascontiguousarray(X[:, :width]), outcomes[outcome], terms[:width]


def coef(result: RegressionResult, term: str) -> float:
    return result.estimates[result.terms.index(term)]


def score_rows(table: ScoreTable) -> dict[tuple[str, str, int], tuple]:
    """Key -> (gpa, exam, bonus, other, exam taken): the table whatever its
    row order."""
    columns = (table.gpa, table.exam, table.bonus, table.other, table.exam_taken)
    return dict(zip(table.keys, zip(*(c.tolist() for c in columns))))
