from __future__ import annotations

from types import SimpleNamespace

import pytest

from oracle import (
    Applicant, Application, Program, applicant_columns, assignment_of, block_of, program_columns,
)
from polyadmit import synth
from polyadmit.model import Panel, validate_panel

BASE_YEAR = 2011


def mk_program(key_parts, field="field0", quota=1):
    poly, name = key_parts
    from polyadmit.model import canonical_program_key

    return Program(
        program_key=canonical_program_key(poly, name),
        polytechnic_name=poly,
        program_name=name,
        field=field,
        quota=quota,
    )


def mk_app(applicant_id, program_key, rank, year=BASE_YEAR, exam=False, exam_score=0.0, other=0.0):
    return Application(
        applicant_id=applicant_id,
        program_key=program_key,
        year=year,
        listed_rank=rank,
        exam_taken=exam,
        exam_score=exam_score,
        other_points=other,
    )


def mk_panel(
    programs,
    applications,
    grades=None,
    weights=None,
    bonus=None,
    observed=None,
    accepted={},
    validate=True,
):
    """A small panel: applicants inferred from applications/grades,
    and the applications and the ``observed`` seats by id, with their
    ``accepted`` flags, coded by the panel's ids and keys."""
    grades = grades or {}
    applicant_ids = sorted({a.applicant_id for a in applications} | set(grades))
    applicants = applicant_columns(
        [Applicant(a, grades.get(a, {}), BASE_YEAR) for a in applicant_ids]
    )
    programs = program_columns(programs)
    fields = sorted(set(programs["program_field"])) or ["field0"]
    coded = SimpleNamespace(**applicants, **programs)
    panel = Panel(
        **applicants,
        **programs,
        applications=block_of(applications, over=coded),
        base_year=BASE_YEAR,
        field_weights=weights if weights is not None else {f: {"math": 1.0} for f in fields},
        bonus_points=bonus if bonus is not None else {f: 0.0 for f in fields},
        observed_assignment=None if observed is None else assignment_of(observed, accepted, coded),
    )
    return validate_panel(panel) if validate else panel


def build_scenario(panel, scenario_id):
    """The application block and score table one scenario is matched on,
    as the suite builds them."""
    from polyadmit.counterfactual import scenario_tables

    ((_, table),) = scenario_tables(panel, [scenario_id])
    return table.applications, table


@pytest.fixture(scope="session")
def default_panel():
    """The default-seed desk-scale synthetic panel (5000 applicants)."""
    return synth.generate_panel(synth.SynthConfig())


@pytest.fixture(scope="session")
def small_panel():
    """A fast synthetic panel for end-to-end tests."""
    return synth.generate_panel(
        synth.SynthConfig(n_applicants=400, n_programs=12, n_fields=4, seats_total=130, seed=7)
    )


@pytest.fixture(scope="session")
def small_config_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "synth.json"
    path.write_text(
        '{"n_applicants": 400, "n_programs": 12, "n_fields": 4, "seats_total": 130, "seed": 7}',
        encoding="utf-8",
    )
    return path
