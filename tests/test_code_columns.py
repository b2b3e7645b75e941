"""Narrow code columns: a block holds its applicant, program, year and
listed-rank codes in the narrowest integer type that holds them, and every
key built from codes is computed in int64, so no result depends on the
type a column was narrowed to."""

import numpy as np
import pytest

from polyadmit import counterfactual, matching, model, scoring
from polyadmit.errors import ValidationError
from polyadmit.io_csv import _load, load_panel, save_panel
from polyadmit.model import (
    ApplicationBlock, Panel, canonical_program_key, narrowest, validate_panel,
)

CODE_COLUMNS = ("applicant", "program", "year", "listed_rank")
BASE_YEAR = 2011
N_FIELDS = 3


class TestNarrowest:
    @pytest.mark.parametrize(
        "low, high, expected",
        [
            (0, 127, np.int8), (-128, 0, np.int8), (0, 128, np.int16), (-129, 0, np.int16),
            (0, 32767, np.int16), (0, 32768, np.int32), (-32769, 0, np.int32),
            (0, 2**31 - 1, np.int32), (0, 2**31, np.int64), (-(2**63), 2**63 - 1, np.int64),
        ],
    )
    def test_each_column_takes_the_narrowest_type_of_its_own_range(self, low, high, expected):
        column = np.array([high, low, high], dtype=np.int64)
        narrowed = narrowest(column)
        assert narrowed.dtype == expected
        assert narrowed.tolist() == column.tolist()

    def test_a_narrowest_column_is_kept_as_it_is(self):
        column = np.broadcast_to(np.int16(2011), 5)
        assert narrowest(column) is column

    @pytest.mark.parametrize(
        "column",
        [
            np.empty(0, dtype=np.int64), np.array([1.5, 2.0]), np.array([True, False]),
            np.array([1, 2], dtype=np.uint8),
        ],
        ids=["empty", "float", "bool", "unsigned"],
    )
    def test_other_columns_stay_as_given(self, column):
        assert narrowest(column) is column


def code_panel(n_applicants: int, n_programs: int) -> Panel:
    """A valid panel whose last applicant and program codes are
    ``n_applicants - 1`` and ``n_programs - 1``. Each applicant lists two
    programs in the base year and two in a later year (the next one for
    even codes, the one after for odd codes); the later list repeats the
    base year's first program, which the extended lists drop. The last
    applicant lists the last program first."""
    rng = np.random.default_rng(n_applicants * 100_003 + n_programs)
    first = rng.integers(n_programs, size=n_applicants)
    first[-1] = n_programs - 1
    second, later = (
        (first + 1 + rng.integers(n_programs - 1, size=n_applicants)) % n_programs
        for _ in range(2)
    )
    base = np.full(n_applicants, BASE_YEAR)
    later_year = base + 1 + np.arange(n_applicants) % 2
    n_rows = 4 * n_applicants
    exam_taken = rng.random(n_rows) < 0.5
    ids = tuple(f"a{i:06d}" for i in range(n_applicants))
    names = tuple(("Poly", f"Program {j:06d}") for j in range(n_programs))
    keys = tuple(canonical_program_key(*n) for n in names)
    fields = tuple(f"field{j % N_FIELDS}" for j in range(n_programs))
    quota = np.full(n_programs, max(1, n_applicants // (3 * n_programs)), dtype=np.int64)
    block = ApplicationBlock(
        ids,
        keys,
        applicant=np.repeat(np.arange(n_applicants), 4),
        program=np.column_stack([first, second, first, later]).ravel(),
        year=np.column_stack([base, base, later_year, later_year]).ravel(),
        listed_rank=np.tile([1, 2, 1, 2], n_applicants),
        exam_taken=exam_taken,
        exam_score=np.where(exam_taken, rng.integers(0, 40, n_rows), 0).astype(float),
        other_points=np.zeros(n_rows),
    )
    return Panel(
        applicant_ids=ids,
        cohort_year=np.full(n_applicants, BASE_YEAR, dtype=np.int64),
        subjects=("math",),
        grades=rng.integers(0, 100, (n_applicants, 1)) / 10,
        program_keys=keys,
        program_names=names,
        program_field=fields,
        quota=quota,
        applications=block,
        base_year=BASE_YEAR,
        field_weights={f: {"math": 1.0 + j} for j, f in enumerate(sorted(set(fields)))},
        bonus_points={f: 2.0 for f in set(fields)},
    )


def pipeline(n_applicants: int, n_programs: int) -> dict[str, np.ndarray]:
    """Every array built from the codes of ``code_panel``'s blocks, by name:
    the (applicant, field) slots, the list order, the propagated exams, the
    priorities and both DA sides' seats of the base and extended lists,
    and the extended lists' code columns."""
    panel = validate_panel(code_panel(n_applicants, n_programs))
    extended = counterfactual.extend_application_lists(panel)
    out = {f"extended {name}": getattr(extended, name) for name in CODE_COLUMNS}
    for variant, block in (("base", panel.base_applications), ("extended", extended)):
        rows = np.arange(len(block))
        out[f"{variant} slots"] = scoring._slots(block, rows, N_FIELDS, panel.field_code)
        out[f"{variant} list order"], out[f"{variant} list offsets"] = block.lists
        table = scoring.propagate_entrance_exams(panel, scoring.compute_score_table(panel, block))
        out[f"{variant} exam"] = table.exam
        instance = matching.build_instance(block, table, panel.quota)
        out[f"{variant} priorities"] = instance.prio_order
        out[f"{variant} priority offsets"] = instance.prio_offsets
        for side in (matching.PROPOSING_APPLICANTS, matching.PROPOSING_PROGRAMS):
            out[f"{variant} {side}"] = matching.deferred_acceptance(instance, side).seat
    return out


# Codes at each narrow type's maximum, and one past it, which widens the
# type: (column, its largest code, its type).
EDGES = [
    (column, top, dtype)
    for column in ("applicant", "program")
    for top, dtype in ((127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32))
]


@pytest.mark.parametrize("column, top, dtype", EDGES, ids=[f"{c}-{top}" for c, top, _ in EDGES])
def test_codes_at_a_type_edge_give_what_int64_codes_give(column, top, dtype, monkeypatch):
    """The slots, the extended lists' pair key, the list order, the
    priorities and both DA sides agree with the same blocks held as int64."""
    sizes = (top + 1, 5) if column == "applicant" else (300, top + 1)
    assert getattr(code_panel(*sizes).applications, column).dtype == dtype
    narrow = pipeline(*sizes)
    monkeypatch.setattr(model, "CODE_TYPES", (np.int64,))
    assert code_panel(*sizes).applications.applicant.dtype == np.int64
    wide = pipeline(*sizes)
    assert narrow.keys() == wide.keys()
    for name in narrow:
        assert np.array_equal(narrow[name], wide[name]), name


def test_loaded_generated_and_extended_blocks_hold_narrow_columns(default_panel, tmp_path):
    """Desk scale: applicant codes in int16, program codes in int8, years
    in int16 and listed ranks in int8; the extended lists' year is one
    read-only value."""
    expected = (np.int16, np.int8, np.int16, np.int8)
    save_panel(default_panel, tmp_path)
    loaded = load_panel(tmp_path)
    extended = counterfactual.extend_application_lists(default_panel)
    for block in (default_panel.applications, loaded.applications, extended):
        assert tuple(getattr(block, name).dtype for name in CODE_COLUMNS) == expected
    assert extended.year.strides == (0,)


SMALL_PANEL = {
    "applicants.csv": "applicant_id,cohort_year,grade_math\na1,2011,5.0\na2,2011,4.0\n",
    "programs.csv": "polytechnic_name,program_name,field,quota\nPoly,Alpha,f,1\nPoly,Beta,f,1\n",
    "field_weights.csv": "field,subject,weight\nf,math,1.0\n",
    "bonus_points.csv": "field,bonus\nf,1.0\n",
}
APPLICATIONS = (
    "year,applicant_id,polytechnic_name,program_name,listed_rank,exam_taken,exam_score,"
    "other_points\n"
    "2011,a1,Poly,Alpha,1,false,0.0,0.0\n"
    "2011,a1,Poly,Beta,{rank},false,0.0,0.0\n"
    "{year},a2,Poly,Alpha,1,false,0.0,0.0\n"
)


@pytest.mark.parametrize(
    "rank, year, column, dtype, message",
    [
        (300, 2011, "listed_rank", np.int16,
         "RankGap: applicant 'a1' year 2011: ranks [1, 300] are not a prefix 1..k with k <= 4"),
        (2, 40000, "year", np.int32,
         "YearOutOfRange: application #2 ('a2', 'poly::alpha', 40000): "
         "panel years are (2011, 2012, 2013)"),
    ],
    ids=["rank-300", "year-40000"],
)
def test_a_code_past_a_narrow_type_widens_and_keeps_its_message(
    tmp_path, rank, year, column, dtype, message
):
    files = {**SMALL_PANEL, "applications.csv": APPLICATIONS.format(rank=rank, year=year)}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    panel, *_ = _load(tmp_path)
    assert getattr(panel.applications, column).dtype == dtype
    with pytest.raises(ValidationError) as info:
        load_panel(tmp_path)
    assert info.value.violations == [message]
