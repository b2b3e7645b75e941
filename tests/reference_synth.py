"""The row-by-row generator, kept as the reference for
``synth.generate_panel``: every draw is a scalar call, each application
row is appended one value per column, and the block is built by encoding
the applicant ids and program keys. Its panels are the ones
``generate_panel`` must return, byte for byte."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from oracle import Program, block_from_columns, program_columns
from polyadmit import matching, scoring
from polyadmit.model import Assignment, Panel, canonical_program_key, seat_rows, validate_panel
from polyadmit.synth import SUBJECTS, SynthConfig, _cdf, _choice, _choice_distinct


def _draw_grades(rng: np.random.Generator, ability: float) -> list[float]:
    """One grade per ``SUBJECTS`` entry, drawn in that order."""
    return [
        round(max(0.0, 4.0 + 1.5 * (0.75 * ability + 0.66 * rng.standard_normal())), 4)
        for _ in SUBJECTS
    ]


def _draw_exam_score(rng: np.random.Generator, ability: float) -> float:
    raw = 20.0 + 8.0 * (0.85 * ability + 0.52 * rng.standard_normal())
    return round(max(0.0, raw), 4)


@dataclass(frozen=True)
class _ListSampler:
    """Length and program distributions of one application list: the
    list-length CDF, and per home field the program weights and their CDF."""

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
    columns: tuple[list, ...],
) -> None:
    """Draw one application list and append it to ``columns``, one list
    per ``block_from_columns`` argument."""
    home_field = fields[int(rng.integers(len(fields)))]
    for rank, program_key in enumerate(sampler.draw(rng, home_field), start=1):
        exam_prob = cfg.exam_prob_by_rank[min(rank, len(cfg.exam_prob_by_rank)) - 1]
        exam_taken = bool(rng.random() < exam_prob)
        exam_score = _draw_exam_score(rng, ability) if exam_taken else 0.0
        other_points = cfg.other_points_value if rng.random() < cfg.other_points_prob else 0.0
        row = (applicant_id, program_key, year, rank, exam_taken, exam_score, other_points)
        for column, value in zip(columns, row):
            column.append(value)


def generate_panel(cfg: SynthConfig) -> Panel:
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

    abilities, grades = {}, {}
    columns = tuple([] for _ in range(7))
    for i in range(cfg.n_applicants):
        applicant_id = f"a{i:05d}"
        ability = float(rng.standard_normal())
        abilities[applicant_id] = ability
        grades[applicant_id] = _draw_grades(rng, ability)
        _applications_for_year(
            rng, cfg, applicant_id, ability, cfg.base_year, sampler, fields, columns
        )
    applicant_ids = tuple(sorted(grades))
    applicants = dict(
        applicant_ids=applicant_ids,
        cohort_year=np.full(len(applicant_ids), cfg.base_year, dtype=np.int64),
        subjects=SUBJECTS,
        grades=np.array([grades[a] for a in applicant_ids]),
    )

    coded = SimpleNamespace(applicant_ids=applicant_ids, program_keys=tuple(programs))
    panel = Panel(
        **applicants,
        **program_columns(programs.values()),
        applications=block_from_columns(*columns, over=coded),
        base_year=cfg.base_year,
        field_weights=field_weights,
        bonus_points=bonus_points,
    )

    # Observed assignment: run the engine itself on the base-year lists.
    base_apps = panel.base_applications
    table = scoring.compute_score_table(panel, base_apps)
    quotas = np.array([programs[p].quota for p in base_apps.program_keys])
    instance = matching.build_instance(base_apps, table, quotas)
    held = matching.deferred_acceptance(instance, matching.PROPOSING_PROGRAMS)
    rows = seat_rows(held, base_apps)
    rank, exam = np.minimum(base_apps.listed_rank[rows], 4), base_apps.exam_taken[rows]
    p_accept = cfg.accept_base - np.array((0.0, *cfg.accept_rank_penalty))[rank - 1]
    p_accept = p_accept - np.where(exam, 0.0, cfg.accept_no_exam_penalty)
    accept = np.full(len(rows), -1, dtype=np.int8)
    accept[held.holders] = rng.random(len(held.holders)) < p_accept[held.holders]
    observed = Assignment(held.applicant_ids, held.program_keys, held.seat, accept)

    # Later-year re-application behavior.
    p_seated = cfg.reapply_assigned_base + np.array((0.0, *cfg.reapply_rank_bonus))[rank - 1]
    p_seated = p_seated + np.where(exam, 0.0, cfg.reapply_no_exam_bonus)
    p_reapply = np.where(held.seat < 0, cfg.reapply_unassigned, p_seated)
    year2_appliers = []
    for applicant_id, p in zip(panel.applicant_ids, p_reapply.tolist()):
        if rng.random() < p:
            year2_appliers.append(applicant_id)
            _applications_for_year(
                rng, cfg, applicant_id, abilities[applicant_id],
                cfg.base_year + 1, sampler, fields, columns,
            )
    for applicant_id in year2_appliers:
        if rng.random() < cfg.reapply_third_year:
            _applications_for_year(
                rng, cfg, applicant_id, abilities[applicant_id],
                cfg.base_year + 2, sampler, fields, columns,
            )

    panel = Panel(
        **applicants,
        **program_columns(programs.values()),
        applications=block_from_columns(*columns, over=coded),
        base_year=cfg.base_year,
        field_weights=field_weights,
        bonus_points=bonus_points,
        observed_assignment=observed,
    )
    return validate_panel(panel)
