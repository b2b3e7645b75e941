"""Seeded synthetic three-year panels calibrated to published marginals.

Desk-scale default: 5000 applicants, 44 programs, 8 fields (one tenth of
the real clearinghouse), so the full pipeline runs in seconds.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import matching, scoring
from .errors import InvalidConfig
from .model import (
    Applicant,
    Application,
    Assignment,
    Panel,
    Program,
    canonical_program_key,
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
        if self.home_field_weight <= 0:
            raise InvalidConfig("home_field_weight must be positive")
        if self.n_applicants <= 0 or self.n_programs <= 0 or self.n_fields <= 0:
            raise InvalidConfig("counts must be positive")
        if self.seats_total < 0 or self.seats_total > self.n_applicants:
            raise InvalidConfig("seats_total must be in [0, n_applicants]")
        if self.n_fields > self.n_programs:
            raise InvalidConfig("need at least one program per field")
        return self


def _draw_grades(rng: np.random.Generator, ability: float) -> dict[str, float]:
    grades = {}
    for subject in SUBJECTS:
        raw = 4.0 + 1.5 * (0.75 * ability + 0.66 * rng.standard_normal())
        grades[subject] = round(max(0.0, raw), 4)
    return grades


def _draw_exam_score(rng: np.random.Generator, ability: float) -> float:
    raw = 20.0 + 8.0 * (0.85 * ability + 0.52 * rng.standard_normal())
    return round(max(0.0, raw), 4)


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
    """Length and program distributions of one application list, built
    once per panel: the list-length CDF, and per home field the program
    weights and their CDF."""

    program_keys: list[str]
    length_cdf: list[float]
    weights: dict[str, tuple[np.ndarray, list[float]]]

    @classmethod
    def build(
        cls, cfg: SynthConfig, program_keys: list[str], program_field: dict[str, str]
    ) -> "_ListSampler":
        weights = {}
        for home_field in sorted(set(program_field.values())):
            w = np.array(
                [
                    cfg.home_field_weight if program_field[p] == home_field else 1.0
                    for p in program_keys
                ],
                dtype=float,
            )
            w /= w.sum()
            weights[home_field] = (w, _cdf(w).tolist())
        length_cdf = _cdf(np.array(cfg.list_length_probs, dtype=float)).tolist()
        return cls(program_keys, length_cdf, weights)

    def draw(self, rng: np.random.Generator, home_field: str) -> list[str]:
        length = min(_choice(rng, self.length_cdf) + 1, len(self.program_keys))
        p, cdf = self.weights[home_field]
        return [self.program_keys[i] for i in _choice_distinct(rng, p, cdf, length)]


def _applications_for_year(
    rng: np.random.Generator,
    cfg: SynthConfig,
    applicant_id: str,
    ability: float,
    year: int,
    sampler: _ListSampler,
    fields: list[str],
) -> list[Application]:
    home_field = fields[int(rng.integers(len(fields)))]
    apps = []
    for rank, program_key in enumerate(sampler.draw(rng, home_field), start=1):
        exam_prob = cfg.exam_prob_by_rank[min(rank, len(cfg.exam_prob_by_rank)) - 1]
        exam_taken = bool(rng.random() < exam_prob)
        apps.append(
            Application(
                applicant_id=applicant_id,
                program_key=program_key,
                year=year,
                listed_rank=rank,
                exam_taken=exam_taken,
                exam_score=_draw_exam_score(rng, ability) if exam_taken else 0.0,
                other_points=(
                    cfg.other_points_value if rng.random() < cfg.other_points_prob else 0.0
                ),
            )
        )
    return apps


def generate_panel(cfg: SynthConfig) -> Panel:
    """Deterministic function of (config, seed); the embedded observed
    assignment is produced by the package's own matching engine."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)

    fields = [f"field{i}" for i in range(cfg.n_fields)]
    field_weights = {
        f: {s: round(1.0 + rng.random(), 4) for s in SUBJECTS} for f in fields
    }
    bonus_points = {f: cfg.first_choice_bonus for f in fields}

    programs = {}
    base_quota, extra = divmod(cfg.seats_total, cfg.n_programs)
    for i in range(cfg.n_programs):
        poly = f"Polytechnic {i % 10}"
        name = f"Program {i:03d}"
        key = canonical_program_key(poly, name)
        programs[key] = Program(
            program_key=key,
            polytechnic_name=poly,
            program_name=name,
            field=fields[i % cfg.n_fields],
            quota=base_quota + (1 if i < extra else 0),
        )
    program_keys = sorted(programs)
    sampler = _ListSampler.build(
        cfg, program_keys, {p: programs[p].field for p in program_keys}
    )

    applicants = {}
    abilities = {}
    applications: list[Application] = []
    for i in range(cfg.n_applicants):
        applicant_id = f"a{i:05d}"
        ability = float(rng.standard_normal())
        abilities[applicant_id] = ability
        applicants[applicant_id] = Applicant(
            applicant_id=applicant_id,
            matriculation_grades=_draw_grades(rng, ability),
            cohort_year=cfg.base_year,
        )
        applications.extend(
            _applications_for_year(
                rng, cfg, applicant_id, ability, cfg.base_year, sampler, fields,
            )
        )

    panel = Panel(
        applicants=applicants,
        programs=programs,
        applications=tuple(applications),
        base_year=cfg.base_year,
        field_weights=field_weights,
        bonus_points=bonus_points,
    )

    # Observed assignment: run the engine itself on the base-year lists.
    base_apps = panel.base_applications
    table = scoring.compute_score_table(panel, base_apps)
    quotas = {p: programs[p].quota for p in programs}
    instance = matching.build_instance(base_apps, table, quotas)
    seats = matching.deferred_acceptance(instance, matching.PROPOSING_PROGRAMS)

    base_app_of = {(a.applicant_id, a.program_key): a for a in base_apps}
    accepted = {}
    for applicant_id, program_key in sorted(seats.seat_of.items()):
        app = base_app_of[(applicant_id, program_key)]
        p_accept = cfg.accept_base
        if app.listed_rank >= 2:
            p_accept -= cfg.accept_rank_penalty[min(app.listed_rank, 4) - 2]
        if not app.exam_taken:
            p_accept -= cfg.accept_no_exam_penalty
        accepted[applicant_id] = bool(rng.random() < p_accept)
    observed = Assignment(seat_of=dict(seats.seat_of), accepted=accepted)

    # Later-year re-application behavior.
    later_apps: list[Application] = []
    year2_appliers = []
    for applicant_id in sorted(applicants):
        seat = observed.seat_of.get(applicant_id)
        if seat is None:
            p_reapply = cfg.reapply_unassigned
        else:
            app = base_app_of[(applicant_id, seat)]
            p_reapply = cfg.reapply_assigned_base
            if app.listed_rank >= 2:
                p_reapply += cfg.reapply_rank_bonus[min(app.listed_rank, 4) - 2]
            if not app.exam_taken:
                p_reapply += cfg.reapply_no_exam_bonus
        if rng.random() < p_reapply:
            year2_appliers.append(applicant_id)
            later_apps.extend(
                _applications_for_year(
                    rng, cfg, applicant_id, abilities[applicant_id],
                    cfg.base_year + 1, sampler, fields,
                )
            )
    for applicant_id in year2_appliers:
        if rng.random() < cfg.reapply_third_year:
            later_apps.extend(
                _applications_for_year(
                    rng, cfg, applicant_id, abilities[applicant_id],
                    cfg.base_year + 2, sampler, fields,
                )
            )

    panel = Panel(
        applicants=applicants,
        programs=programs,
        applications=tuple(applications) + tuple(later_apps),
        base_year=cfg.base_year,
        field_weights=field_weights,
        bonus_points=bonus_points,
        observed_assignment=observed,
    )
    return validate_panel(panel)


@dataclass(frozen=True)
class CalibrationRow:
    name: str
    target: float
    actual: float

    @property
    def abs_deviation(self) -> float:
        return abs(self.target - self.actual)


def calibration_report(panel: Panel) -> list[CalibrationRow]:
    """Generated marginals against their published targets."""
    base = panel.base_applications
    rows = []
    for rank in range(1, 5):
        apps = [a for a in base if a.listed_rank == rank]
        share = sum(a.exam_taken for a in apps) / len(apps) if apps else 0.0
        rows.append(CalibrationRow(f"exam_share_rank{rank}", EXAM_SHARE_BY_RANK[rank - 1], share))
    n_applicants = len({a.applicant_id for a in base})
    assigned = len(panel.observed_assignment.seat_of) if panel.observed_assignment else 0
    rows.append(
        CalibrationRow("assigned_share", TARGET_ASSIGNED_SHARE, assigned / n_applicants)
    )
    rows.append(
        CalibrationRow("mean_list_length", TARGET_MEAN_LIST_LENGTH, len(base) / n_applicants)
    )
    return rows
