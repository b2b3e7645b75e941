"""Seeded synthetic three-year panels calibrated to published marginals.

Desk-scale default: 5000 applicants, 44 programs, 8 fields (one tenth of
the real clearinghouse), so the full pipeline runs in seconds.
"""

from __future__ import annotations

import array
import bisect
import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import matching, metrics, scoring
from .errors import InvalidConfig
from .model import (
    MAX_LISTED_RANK,
    ApplicationBlock,
    Assignment,
    Panel,
    canonical_program_key,
    seat_rows,
    validate_panel,
)

SUBJECTS = ("mother_tongue", "math", "english", "science", "history", "arts")

# Published marginals the generator targets.
EXAM_SHARE_BY_RANK = (0.59, 0.48, 0.45, 0.43)
TARGET_ASSIGNED_SHARE = 16655 / 50894
TARGET_MEAN_LIST_LENGTH = 2.77
# Applicants listing exactly 1..4 programs, from the per-rank counts
# 50894 / 40532 / 30443 / 19048.
LIST_LENGTH_PROBS = (
    (50894 - 40532) / 50894,
    (40532 - 30443) / 50894,
    (30443 - 19048) / 50894,
    19048 / 50894,
)


@dataclass(frozen=True)
class SynthConfig:
    n_applicants: int = 5000
    n_programs: int = 44
    n_fields: int = 8
    seats_total: int = round(5000 * TARGET_ASSIGNED_SHARE)
    base_year: int = 2011
    list_length_probs: tuple[float, ...] = LIST_LENGTH_PROBS
    exam_prob_by_rank: tuple[float, ...] = EXAM_SHARE_BY_RANK
    first_choice_bonus: float = 4.0
    home_field_weight: float = 6.0
    # acceptance model: base rate, penalties by listed rank 2..4, no-exam penalty
    accept_base: float = 0.92
    accept_rank_penalty: tuple[float, float, float] = (0.105, 0.115, 0.185)
    accept_no_exam_penalty: float = 0.25
    # re-application model
    reapply_unassigned: float = 0.70
    reapply_assigned_base: float = 0.12
    reapply_rank_bonus: tuple[float, float, float] = (0.12, 0.18, 0.22)
    reapply_no_exam_bonus: float = 0.05
    reapply_third_year: float = 0.45
    other_points_value: float = 3.0
    other_points_prob: float = 0.3
    seed: int = 42

    def validate(self) -> "SynthConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple) != isinstance(f.default, tuple):
                kind = "a list of numbers" if isinstance(f.default, tuple) else "a number"
                raise InvalidConfig(f"{f.name} must be {kind}, got {value!r}")
            for v in value if isinstance(value, tuple) else (value,):
                if not isinstance(v, numbers.Real) or not math.isfinite(v):
                    raise InvalidConfig(f"{f.name} must be a finite number, got {v!r}")
            if isinstance(f.default, int) and (
                not isinstance(value, numbers.Integral) or isinstance(value, bool)
            ):
                raise InvalidConfig(f"{f.name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")
        if len(self.accept_rank_penalty) != 3 or len(self.reapply_rank_bonus) != 3:
            raise InvalidConfig(
                "accept_rank_penalty and reapply_rank_bonus need 3 entries (listed ranks 2..4)"
            )
        if not self.exam_prob_by_rank:
            raise InvalidConfig("exam_prob_by_rank must not be empty")
        probs = list(self.list_length_probs) + list(self.exam_prob_by_rank) + [
            self.accept_base,
            self.accept_no_exam_penalty,
            self.reapply_unassigned,
            self.reapply_assigned_base,
            self.reapply_no_exam_bonus,
            self.reapply_third_year,
            self.other_points_prob,
        ]
        if any(p < 0 or p > 1 for p in probs):
            raise InvalidConfig("probabilities must lie in [0, 1]")
        if abs(sum(self.list_length_probs) - 1.0) > 1e-9:
            raise InvalidConfig("list_length_probs must sum to 1")
        if len(self.list_length_probs) > MAX_LISTED_RANK:
            raise InvalidConfig(
                f"list_length_probs has {len(self.list_length_probs)} entries, "
                f"but a list holds at most {MAX_LISTED_RANK} programs"
            )
        if self.home_field_weight <= 0:
            raise InvalidConfig("home_field_weight must be positive")
        if self.n_applicants <= 0 or self.n_programs <= 0 or self.n_fields <= 0:
            raise InvalidConfig("counts must be positive")
        if self.seats_total < 0 or self.seats_total > self.n_applicants:
            raise InvalidConfig("seats_total must be in [0, n_applicants]")
        if self.n_fields > self.n_programs:
            raise InvalidConfig("need at least one program per field")
        return self


def _cdf(p: np.ndarray) -> np.ndarray:
    """Normalised cumulative sum of non-negative weights, as
    ``Generator.choice`` builds it."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _choice(rng: np.random.Generator, cdf: list[float]) -> int:
    """``rng.choice(len(p), p=p)`` given ``cdf = _cdf(p).tolist()``: same
    draw, same random stream."""
    return bisect.bisect_right(cdf, rng.random())


def _choice_distinct(
    rng: np.random.Generator, p: np.ndarray, cdf: list[float], k: int
) -> list[int]:
    """``rng.choice(len(p), size=k, replace=False, p=p)`` given
    ``cdf = _cdf(p).tolist()``, for ``k`` no larger than the number of
    positive weights.

    Like numpy, draws the ``k - len(found)`` missing indices at once, keeps
    the first occurrence of each new index in draw order, and redraws the
    shortfall with the chosen entries' weights set to zero.
    """
    found: list[int] = []
    while len(found) < k:
        draws = rng.random(k - len(found)).tolist()
        if found:
            p = p.copy()
            p[found] = 0.0
            cdf = _cdf(p).tolist()
        found.extend(dict.fromkeys(bisect.bisect_right(cdf, u) for u in draws))
    return found


@dataclass(frozen=True)
class _ListSampler:
    """Distributions of one application list, built once per panel: the
    list-length CDF, per home field code the program weights and their
    CDF, and the exam probability of each listed rank. Programs are drawn
    in key order (``by_key``: the codes in that order), as the pinned
    random stream has them."""

    by_key: np.ndarray
    length_cdf: list[float]
    weights: list[tuple[np.ndarray, list[float]]]
    exam_prob: list[float]

    @classmethod
    def build(cls, cfg: SynthConfig, keys: tuple[str, ...]) -> "_ListSampler":
        """``keys``: the program keys, by program code."""
        by_key = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
        weights = []
        for home_field in range(cfg.n_fields):
            w = np.where(by_key % cfg.n_fields == home_field, cfg.home_field_weight, 1.0)
            w /= w.sum()
            weights.append((w, _cdf(w).tolist()))
        length_cdf = _cdf(np.array(cfg.list_length_probs, dtype=float)).tolist()
        by_rank = cfg.exam_prob_by_rank  # the last entry holds for every later rank
        exam_prob = [by_rank[min(rank, len(by_rank)) - 1] for rank in range(1, len(length_cdf) + 1)]
        return cls(by_key, length_cdf, weights, exam_prob)

    def draw(self, rng: np.random.Generator, home_field: int) -> list[int]:
        """The positions in ``by_key`` of one list's programs, in listed order."""
        length = min(_choice(rng, self.length_cdf) + 1, len(self.by_key))
        p, cdf = self.weights[home_field]
        return _choice_distinct(rng, p, cdf, length)


# Typecodes of the drawn columns: applicant code, program draw, listed
# rank, exam taken, the exam score's standard normal, other points.
DRAWN_COLUMNS = "qqqbdb"


def _draw_lists(
    rng: np.random.Generator, cfg: SynthConfig, sampler: _ListSampler, applicants: Iterable[int]
) -> tuple[array.array, ...]:
    """Draw one application list per code of ``applicants``, in turn; the
    iterable is read lazily, so draws it makes itself interleave with the
    lists'. Returns the rows as typed columns (``DRAWN_COLUMNS``):
    applicant code, program draw (see ``_ListSampler``), listed rank, exam
    taken, the exam score's standard normal (0.0 without an exam) and
    whether the row earns other points."""
    columns = tuple(map(array.array, DRAWN_COLUMNS))
    applicant_col, program_col, rank_col, exam_col, normal_col, other_col = columns
    for applicant in applicants:
        programs = sampler.draw(rng, int(rng.integers(cfg.n_fields)))
        for rank, (program, exam_prob) in enumerate(zip(programs, sampler.exam_prob), start=1):
            taken = rng.random() < exam_prob
            applicant_col.append(applicant)
            program_col.append(program)
            rank_col.append(rank)
            exam_col.append(taken)
            normal_col.append(rng.standard_normal() if taken else 0.0)
            other_col.append(rng.random() < cfg.other_points_prob)
    return columns


ROUND_CHUNK = 4096


def _rounded(values: np.ndarray) -> np.ndarray:
    """Each finite value rounded to 4 decimals exactly as the builtin
    ``round`` rounds it, ``ROUND_CHUNK`` values at a time.

    ``round`` rounds the exact decimal value; ``np.rint(v * 1e4) / 1e4``
    gives the same double unless the rounding of ``v * 1e4`` moved it
    across a half-integer, and the division is correctly rounded as the
    builtin's result is. Below 2**33 that rounding moves the product by
    less than 1e-6. So the builtin rounds only the products within 1e-6
    of a half-integer, where bare ``np.round`` can miss, and those past
    2**33."""
    rounded = np.empty(values.shape)
    flat, out = values.ravel(), rounded.reshape(-1)
    for start in range(0, len(flat), ROUND_CHUNK):
        chunk = flat[start : start + ROUND_CHUNK]
        scaled = chunk * 1e4
        whole = np.rint(scaled)
        near = np.abs(np.abs(scaled - whole) - 0.5) < 1e-6
        near |= np.abs(scaled) >= 2.0**33
        whole /= 1e4
        whole[near] = [round(v, 4) for v in chunk[near].tolist()]
        out[start : start + ROUND_CHUNK] = whole
    return rounded


def _columns(
    cfg: SynthConfig, ability: np.ndarray, sampler: _ListSampler, drawn: tuple, year: int
) -> list:
    """Drawn columns (see ``_draw_lists``) of the lists of ``year`` as the
    columns of a block."""
    applicant, program, rank, exam_taken, normal, other = (
        np.frombuffer(column, dtype=dtype)
        for column, dtype in zip(drawn, (np.int64,) * 3 + (bool, float, bool))
    )
    raw = 20.0 + 8.0 * (0.85 * ability[applicant[exam_taken]] + 0.52 * normal[exam_taken])
    exam_score = np.zeros(len(normal))
    exam_score[exam_taken] = _rounded(np.maximum(0.0, raw))
    other_points = np.where(other, cfg.other_points_value, 0.0)
    year_column = np.full(len(applicant), year, dtype=np.int64)
    return [
        applicant, sampler.by_key[program], year_column, rank, exam_taken, exam_score, other_points
    ]


def generate_panel(cfg: SynthConfig) -> Panel:
    """Deterministic function of (config, seed); the embedded observed
    assignment is produced by the package's own matching engine. The
    panel is validated once ``_generate`` has returned, so the match that
    drew the observed assignment is gone while ``validate_panel`` runs."""
    return validate_panel(_generate(cfg.validate()))


def _generate(cfg: SynthConfig) -> Panel:
    """The panel of a validated ``cfg``, not yet validated itself."""
    rng = np.random.default_rng(cfg.seed)

    fields = [f"field{i}" for i in range(cfg.n_fields)]
    field_weights = {
        f: {s: round(1.0 + rng.random(), 4) for s in SUBJECTS} for f in fields
    }
    bonus_points = {f: cfg.first_choice_bonus for f in fields}

    # Program i is in field i % n_fields; the panel keeps creation order.
    base_quota, extra = divmod(cfg.seats_total, cfg.n_programs)
    names = tuple((f"Polytechnic {i % 10}", f"Program {i:03d}") for i in range(cfg.n_programs))
    keys = tuple(canonical_program_key(*n) for n in names)
    programs = dict(
        program_keys=keys,
        program_names=names,
        program_field=tuple(fields[i % cfg.n_fields] for i in range(cfg.n_programs)),
        quota=base_quota + (np.arange(cfg.n_programs) < extra),
    )
    sampler = _ListSampler.build(cfg, keys)

    # Applicants are drawn in index order and coded by sorted id; from
    # 100 000 applicants on the two orders differ.
    drawn_ids = [f"a{i:05d}" for i in range(cfg.n_applicants)]
    order = sorted(range(cfg.n_applicants), key=drawn_ids.__getitem__)
    applicant_ids = tuple(drawn_ids[i] for i in order)
    code = np.empty(cfg.n_applicants, dtype=np.int64)
    code[order] = np.arange(cfg.n_applicants)

    # Per applicant: the ability, then one normal per SUBJECTS entry, then
    # the base-year list.
    normals = np.empty((cfg.n_applicants, 1 + len(SUBJECTS)))

    def with_normals():
        for applicant in code.tolist():
            normals[applicant] = rng.standard_normal(1 + len(SUBJECTS))
            yield applicant

    drawn = _draw_lists(rng, cfg, sampler, with_normals())
    ability = normals[:, 0]
    grades = 4.0 + 1.5 * (0.75 * ability[:, None] + 0.66 * normals[:, 1:])
    applicants = dict(
        applicant_ids=applicant_ids,
        cohort_year=np.full(cfg.n_applicants, cfg.base_year, dtype=np.int64),
        subjects=SUBJECTS,
        grades=_rounded(np.maximum(0.0, grades)),
    )
    base_columns = _columns(cfg, ability, sampler, drawn, cfg.base_year)

    panel = Panel(
        **applicants,
        **programs,
        applications=ApplicationBlock(applicant_ids, keys, *base_columns),
        base_year=cfg.base_year,
        field_weights=field_weights,
        bonus_points=bonus_points,
    )

    # Observed assignment: run the engine itself on the base-year lists,
    # which are all the panel holds so far.
    base_apps = panel.applications
    table = scoring.compute_score_table(panel, base_apps)
    instance = matching.build_instance(base_apps, table, panel.quota)
    seats = matching.deferred_acceptance(instance, matching.PROPOSING_PROGRAMS)
    del table, instance  # else they live on through the later-year draws

    # Each applicant's seat, by id, with the listed rank and exam of its
    # row (read only where there is a seat); accept flags are drawn for
    # the holders in id order.
    seat_row = seat_rows(seats, base_apps)
    rank, exam = np.minimum(base_apps.listed_rank[seat_row], 4), base_apps.exam_taken[seat_row]
    p_accept = cfg.accept_base - np.array((0.0, *cfg.accept_rank_penalty))[rank - 1]
    p_accept = p_accept - np.where(exam, 0.0, cfg.accept_no_exam_penalty)
    accept = np.full(len(seat_row), -1, dtype=np.int8)
    accept[seats.holders] = rng.random(len(seats.holders)) < p_accept[seats.holders]
    observed = Assignment(applicant_ids, keys, seats.seat, accept)

    # Later-year re-application behavior, drawn in id order.
    p_seated = cfg.reapply_assigned_base + np.array((0.0, *cfg.reapply_rank_bonus))[rank - 1]
    p_seated = p_seated + np.where(exam, 0.0, cfg.reapply_no_exam_bonus)
    p_reapply = np.where(seats.seat < 0, cfg.reapply_unassigned, p_seated)
    # Every year-2 applier draws a list, and the year-3 appliers are drawn
    # from them in id order.
    year2 = _draw_lists(
        rng, cfg, sampler, (a for a, p in enumerate(p_reapply.tolist()) if rng.random() < p)
    )
    year3 = _draw_lists(rng, cfg, sampler, (
        a for a in dict.fromkeys(year2[0]) if rng.random() < cfg.reapply_third_year
    ))
    year_columns = (
        base_columns,
        _columns(cfg, ability, sampler, year2, cfg.base_year + 1),
        _columns(cfg, ability, sampler, year3, cfg.base_year + 2),
    )

    return Panel(
        **applicants,
        **programs,
        applications=ApplicationBlock(
            applicant_ids, keys, *map(np.concatenate, zip(*year_columns))
        ),
        base_year=cfg.base_year,
        field_weights=field_weights,
        bonus_points=bonus_points,
        observed_assignment=observed,
    )


@dataclass(frozen=True)
class CalibrationRow:
    name: str
    target: float
    actual: float

    @property
    def abs_deviation(self) -> float:
        return abs(self.target - self.actual)


def calibration_report(panel: Panel) -> list[CalibrationRow]:
    """Generated marginals against their published targets, read from the
    base-year rank statistics and the observed assignment of a generated
    ``panel``. Every base-year list starts at rank 1, so the rank-1 count
    is the number of applicants."""
    stats = metrics.application_rank_stats(panel, panel.observed_assignment)
    n_applicants = stats[0].n_applications
    assigned, listed = len(panel.observed_assignment.holders), sum(r.n_applications for r in stats)
    return [
        CalibrationRow(f"exam_share_rank{r.listed_rank}", target, r.exam_taken_share)
        for r, target in zip(stats, EXAM_SHARE_BY_RANK)
    ] + [
        CalibrationRow("assigned_share", TARGET_ASSIGNED_SHARE, assigned / n_applicants),
        CalibrationRow("mean_list_length", TARGET_MEAN_LIST_LENGTH, listed / n_applicants),
    ]
