import ast
import contextlib
import csv
import functools
import gc
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyadmit
from conftest import BASE_YEAR, mk_app, mk_panel, mk_program
from oracle import (
    accepted_of, applicants_of, programs_of, records, same_panel,
)
from polyadmit import cli, counterfactual, errors, matching, metrics, reports, synth
from polyadmit.matching import MatchInstance
from polyadmit.metrics import RankTable
from polyadmit.model import MAX_LISTED_RANK, ApplicationBlock, Assignment, Panel
from polyadmit.scoring import ScoreTable
from polyadmit.errors import EmptyName, ParseError, PolyadmitError, ValidationError
from polyadmit.io_csv import load_panel, save_panel


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def child_env() -> dict[str, str]:
    """Environment in which a child imports the same polyadmit as this
    process, installed or not."""
    source = str(Path(polyadmit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@st.composite
def panels(draw):
    """Small valid panels: grades with up to four decimals and sometimes
    missing, lists in the base and the next year, and an observed
    assignment whose accept flags may be unknown."""
    points = st.integers(0, 10_000).map(lambda k: k / 100)
    grade = st.none() | st.integers(0, 100_000).map(lambda k: k / 10_000)
    programs = [
        mk_program(("P", name), field=f"f{i % 2}", quota=draw(st.integers(0, 2)))
        for i, name in enumerate("abc")
    ]
    keys = [p.program_key for p in programs]
    grades, apps = {}, []
    for i in range(draw(st.integers(1, 4))):
        a = f"a{i}"
        grades[a] = {s: g for s in ("art", "math") if (g := draw(grade)) is not None}
        for year in range(BASE_YEAR, BASE_YEAR + draw(st.integers(1, 2))):
            listed = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
            for rank, key in enumerate(listed, start=1):
                exam = draw(st.booleans())
                score = draw(points) if exam else 0.0
                apps.append(mk_app(a, key, rank, year, exam, score, draw(points)))
    apps.sort(key=lambda app: (app.year, app.applicant_id, app.listed_rank))
    observed, accepted = None, {}
    if draw(st.booleans()):
        quota = {p.program_key: p.quota for p in programs}
        seat_of, accepted = {}, {}
        for app in apps:
            free = app.applicant_id not in seat_of and quota[app.program_key] > 0
            if app.year == BASE_YEAR and free and draw(st.booleans()):
                quota[app.program_key] -= 1
                seat_of[app.applicant_id] = app.program_key
                flag = draw(st.none() | st.booleans())
                if flag is not None:
                    accepted[app.applicant_id] = flag
        observed = seat_of
    weights = {"f0": {"art": 1.5, "math": 2.0}, "f1": {"math": 1.0}}
    return mk_panel(programs, apps, grades, weights, {"f0": 4.0, "f1": 0.0}, observed, accepted)


class TestRoundTrip:
    def test_save_load_structural_equality(self, small_panel, tmp_path):
        save_panel(small_panel, tmp_path)
        loaded = load_panel(tmp_path)
        assert loaded.applicant_ids == small_panel.applicant_ids
        assert programs_of(loaded) == programs_of(small_panel)
        assert loaded.base_year == small_panel.base_year
        assert loaded.observed_assignment.seat_of == small_panel.observed_assignment.seat_of
        assert accepted_of(loaded.observed_assignment) == accepted_of(
            small_panel.observed_assignment
        )
        assert {
            (a.applicant_id, a.program_key, a.year, a.listed_rank, a.exam_taken)
            for a in records(loaded.applications)
        } == {
            (a.applicant_id, a.program_key, a.year, a.listed_rank, a.exam_taken)
            for a in records(small_panel.applications)
        }
        originals = applicants_of(small_panel)
        for a_id, applicant in applicants_of(loaded).items():
            original = originals[a_id].matriculation_grades
            for subject, grade in applicant.matriculation_grades.items():
                assert grade == pytest.approx(original.get(subject, 0.0), abs=1e-6)

    def test_loaded_panel_holds_one_id_tuple(self, small_panel, tmp_path):
        """The application block and the observed assignment of a saved
        panel reuse the panel's sorted ids, so recoding between them is an
        identity check."""
        save_panel(small_panel, tmp_path)
        loaded = load_panel(tmp_path)
        assert loaded.applications.applicant_ids is loaded.applicant_ids
        assert loaded.observed_assignment.applicant_ids is loaded.applicant_ids

    def test_save_is_a_serialization_fixed_point(self, small_panel, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        save_panel(small_panel, first)
        save_panel(load_panel(first), second)
        assert tree_bytes(first) == tree_bytes(second)

    @settings(max_examples=60, deadline=None)
    @given(panels())
    def test_load_of_save_is_the_same_panel(self, panel):
        with tempfile.TemporaryDirectory() as directory:
            save_panel(panel, directory)
            assert same_panel(load_panel(directory), panel)


@pytest.mark.parametrize("source", ["synth", "input"])
def test_every_coded_object_holds_the_panel_tuples(source, tmp_path, monkeypatch):
    """A run codes applicants and programs once: every block, instance,
    assignment and rank table it builds holds its panel's very tuples."""
    if source == "input":
        from test_golden import INPUT_CONFIG  # the paper-shaped panel

        save_panel(synth.generate_panel(synth.SynthConfig(**INPUT_CONFIG)), tmp_path / "panel")
    built = {cls: [] for cls in (Panel, ApplicationBlock, MatchInstance, Assignment, RankTable)}
    for cls, objects in built.items():
        def record(self, *args, _init=cls.__init__, _objects=objects, **kwargs):
            _init(self, *args, **kwargs)
            _objects.append(self)

        monkeypatch.setattr(cls, "__init__", record)
    argv = ["--synth", "default"] if source == "synth" else ["--input", str(tmp_path / "panel")]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    panel = built.pop(Panel)[-1]
    assert all(built.values())
    for coded in (c for objects in built.values() for c in objects):
        assert coded.applicant_ids is panel.applicant_ids
        assert coded.program_keys is panel.program_keys


class TestParseErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_panel(tmp_path)

    def test_missing_header_named(self, small_panel, tmp_path):
        save_panel(small_panel, tmp_path)
        programs = tmp_path / "programs.csv"
        text = programs.read_text().replace("quota", "seats")
        programs.write_text(text)
        with pytest.raises(ParseError, match="quota"):
            load_panel(tmp_path)

    def test_dangling_program_row(self, small_panel, tmp_path):
        save_panel(small_panel, tmp_path)
        path = tmp_path / "applications.csv"
        with open(path, "a") as handle:
            handle.write("2011,a00000,Ghost,Program,4,false,0.000000,0.000000\n")
        with pytest.raises(ValidationError, match="DanglingForeignKey"):
            load_panel(tmp_path)

    def test_bad_number_reports_row_and_column(self, small_panel, tmp_path):
        save_panel(small_panel, tmp_path)
        path = tmp_path / "programs.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",many"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"row 2.*quota"):
            load_panel(tmp_path)

    @pytest.mark.parametrize(
        "filename, column, raw",
        [
            ("applicants.csv", "grade_math", "nan"),
            ("applications.csv", "exam_score", "inf"),
            ("field_weights.csv", "weight", "-inf"),
            ("bonus_points.csv", "bonus", "NaN"),
        ],
    )
    def test_non_finite_number_reports_file_row_and_column(
        self, small_panel, tmp_path, filename, column, raw
    ):
        save_panel(small_panel, tmp_path)
        path = tmp_path / filename
        lines = path.read_text().splitlines()
        at = lines[0].split(",").index(column)
        cells = lines[1].split(",")
        cells[at] = raw
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"{filename} row 2.*{column}"):
            load_panel(tmp_path)

    @pytest.mark.parametrize(
        "filename, edit",
        [
            ("applicants.csv", {}),
            # same canonical key under other spelling; the quota must not win silently
            ("programs.csv", {"polytechnic_name": lambda v: f" {v.upper()} ", "quota": "999"}),
            ("observed_assignment.csv", {}),
            ("field_weights.csv", {"weight": "9.000000"}),
            ("bonus_points.csv", {"bonus": "9.000000"}),
        ],
        ids=["applicants", "programs", "observed_assignment", "field_weights", "bonus_points"],
    )
    def test_duplicate_row_rejected(self, small_panel, tmp_path, filename, edit):
        save_panel(small_panel, tmp_path)
        path = tmp_path / filename
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        for column, change in edit.items():
            at = header.index(column)
            cells[at] = change(cells[at]) if callable(change) else change
        path.write_text("\n".join(lines + [",".join(cells)]) + "\n")
        with pytest.raises(ValidationError) as info:
            load_panel(tmp_path)
        (violation,) = info.value.violations
        assert violation.startswith(f"DuplicateId: {path} row {len(lines) + 1}: ")
        assert violation.endswith("repeats row 2")

    @pytest.mark.parametrize(
        "filename",
        [
            "applicants.csv", "programs.csv", "applications.csv",
            "observed_assignment.csv", "field_weights.csv", "bonus_points.csv",
        ],
    )
    def test_short_row_names_file_row_and_column(self, small_panel, tmp_path, filename):
        save_panel(small_panel, tmp_path)
        path = tmp_path / filename
        lines = path.read_text().splitlines()
        lines[1] = lines[1].split(",")[0]
        path.write_text("\n".join(lines) + "\n")
        column = lines[0].split(",")[1]
        with pytest.raises(ParseError, match=rf"{filename} row 2: no cell for column '{column}'"):
            load_panel(tmp_path)

    def test_long_row_rejected(self, small_panel, tmp_path):
        save_panel(small_panel, tmp_path)
        path = tmp_path / "applicants.csv"
        lines = path.read_text().splitlines()
        lines[1] += ",9.000000"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"applicants\.csv row 2: more cells"):
            load_panel(tmp_path)

    def test_non_utf8_file_named(self, small_panel, tmp_path):
        save_panel(small_panel, tmp_path)
        path = tmp_path / "applicants.csv"
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b",", b"\xe9,", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=r"applicants\.csv: not UTF-8"):
            load_panel(tmp_path)

    @pytest.mark.parametrize(
        "filename", ["applicants.csv", "applications.csv", "observed_assignment.csv"]
    )
    def test_empty_applicant_id_rejected(self, small_panel, tmp_path, filename):
        save_panel(small_panel, tmp_path)
        path = tmp_path / filename
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        cells[header.index("applicant_id")] = ""
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EmptyName, match=rf"{filename} row 2: empty applicant_id"):
            load_panel(tmp_path)

    def test_every_duplicate_listed_at_once(self, small_panel, tmp_path):
        save_panel(small_panel, tmp_path)
        for filename in ("applicants.csv", "bonus_points.csv"):
            path = tmp_path / filename
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines + lines[1:3]) + "\n")
        with pytest.raises(ValidationError) as info:
            load_panel(tmp_path)
        assert len(info.value.violations) == 4
        assert all(v.startswith("DuplicateId: ") for v in info.value.violations)


class TestRun:
    def test_full_synth_run_writes_all_reports(self, small_config_json, tmp_path):
        out = tmp_path / "out"
        status = cli.main(
            ["--synth", str(small_config_json), "--out", str(out)]
        )
        assert status == 0
        names = {p.name for p in out.iterdir()}
        expected = {
            "table1.csv", "table2.csv", "table3.csv", "table4.csv", "table5.csv",
            "figure1.csv", "calibration.csv",
        } | {f"assignment_S{k}.csv" for k in range(1, 7)}
        assert expected <= names

    def test_scenario_selection(self, small_config_json, tmp_path):
        out = tmp_path / "out"
        status = cli.main(
            ["--synth", str(small_config_json), "--scenarios", "S1", "--out", str(out)]
        )
        assert status == 0
        names = {p.name for p in out.iterdir()}
        assert "assignment_S1.csv" in names
        assert "assignment_S2.csv" not in names
        table4 = (out / "table4.csv").read_text().splitlines()
        assert len(table4) == 2  # header + S1

    def test_report_selection(self, small_config_json, tmp_path):
        out = tmp_path / "out"
        status = cli.main(
            [
                "--synth", str(small_config_json),
                "--reports", "table4", "--out", str(out),
            ]
        )
        assert status == 0
        assert {p.name for p in out.iterdir()} == {"table4.csv"}

    def test_determinism_byte_identical(self, small_config_json, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert cli.main(["--synth", str(small_config_json), "--out", str(out1)]) == 0
        assert cli.main(["--synth", str(small_config_json), "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_seed_changes_outputs(self, small_config_json, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert cli.main(["--synth", str(small_config_json), "--out", str(out1)]) == 0
        assert cli.main(
            ["--synth", str(small_config_json), "--seed", "99", "--out", str(out2)]
        ) == 0
        assert tree_bytes(out1) != tree_bytes(out2)

    def test_input_mode_runs_on_saved_panel(self, small_panel, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        save_panel(small_panel, data)
        status = cli.main(
            ["--input", str(data), "--scenarios", "S1,S2", "--out", str(out)]
        )
        assert status == 0
        assert (out / "table4.csv").exists()
        assert not (out / "calibration.csv").exists()

    def test_error_is_machine_readable_and_cleans_up(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = cli.main(["--synth", "default", "--scenarios", "S9", "--out", str(out)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert "S9" in err["message"]
        assert not out.exists() or not any(out.iterdir())

    def test_output_path_is_a_file(self, small_config_json, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory")
        status = cli.main(["--synth", str(small_config_json), "--out", str(out)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileExistsError"
        assert str(out) in err["message"]
        assert out.read_text() == "not a directory"

    def test_write_failure_removes_partial_outputs(self, small_config_json, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "table4.csv").mkdir(parents=True)
        status = cli.main(["--synth", str(small_config_json), "--out", str(out)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IsADirectoryError"
        assert [p.name for p in out.iterdir()] == ["table4.csv"]

    def test_unavailable_report_keeps_earlier_outputs(
        self, small_config_json, small_panel, tmp_path, capsys
    ):
        out, data = tmp_path / "out", tmp_path / "data"
        args = ["--reports", "table1,table4", "--out", str(out)]
        assert cli.main(["--synth", str(small_config_json), *args]) == 0
        before = tree_bytes(out)
        save_panel(small_panel, data)
        (data / "observed_assignment.csv").unlink()
        status = cli.main(["--input", str(data), "--reports", "table1,table5", "--out", str(out)])
        assert status == 1
        assert json.loads(capsys.readouterr().err)["error"] == "NoObservedAssignment"
        assert tree_bytes(out) == before

    def test_failed_run_keeps_earlier_reports(self, small_config_json, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["--synth", str(small_config_json), "--out", str(out)]) == 0
        before = tree_bytes(out)
        short = tmp_path / "short.json"  # lists of 1-2 programs: no rank3/rank4 admits
        short.write_text(
            '{"list_length_probs": [0.5, 0.5, 0.0, 0.0], "n_applicants": 400,'
            ' "n_programs": 12, "n_fields": 4, "seats_total": 130}'
        )
        assert cli.main(["--synth", str(short), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RankDeficient"
        assert tree_bytes(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "short.json"]

    def test_any_exception_is_a_json_error(self, small_config_json, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(reports, "write_figure_data", fail)
        out = tmp_path / "out"
        assert cli.main(["--synth", str(small_config_json), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "RuntimeError", "message": "disk on fire"}
        assert list(tmp_path.iterdir()) == []

    def test_calibration_needs_a_synthetic_panel(self, small_panel, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "out"
        save_panel(small_panel, data)
        status = cli.main(["--input", str(data), "--reports", "calibration", "--out", str(out)])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert "--synth" in err["message"]
        assert not out.exists()

    def test_row_order_of_input_files_does_not_change_reports(self, small_panel, tmp_path):
        data = tmp_path / "data"
        save_panel(small_panel, data)
        assert cli.main(["--input", str(data), "--out", str(tmp_path / "out")]) == 0
        expected = tree_bytes(tmp_path / "out")
        rng = random.Random(5)
        for trial in range(3):
            shuffled = tmp_path / f"shuffled{trial}"
            shuffled.mkdir()
            for path in data.iterdir():
                header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
                rng.shuffle(rows)
                (shuffled / path.name).write_text(header + "".join(rows), encoding="utf-8")
            out = tmp_path / f"out{trial}"
            assert cli.main(["--input", str(shuffled), "--out", str(out)]) == 0
            assert tree_bytes(out) == expected

    def test_bad_synth_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_apples": 3}')
        status = cli.main(["--synth", str(cfg), "--out", str(tmp_path / "out")])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert "n_apples" in err["message"]

    def test_lists_longer_than_the_listed_ranks_are_a_config_error(self, tmp_path, capsys):
        """A list length beyond MAX_LISTED_RANK is refused before any
        drawing, naming the field, not by validating the drawn panel."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"n_applicants": 50, "n_programs": 6, "n_fields": 2, "seats_total": 10,'
            ' "list_length_probs": [0, 0, 0, 0, 1]}'
        )
        out = tmp_path / "out"
        assert cli.main(["--synth", str(cfg), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert "list_length_probs" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, args",
        [
            ("{}", ["--seed", "-1"]),
            ('{"seed": -3}', []),
            ('{"seed": 1.5}', []),
            ('{"n_programs": 10.5}', []),
            ('{"base_year": 2011.5}', []),
            ('{"accept_rank_penalty": [0.1]}', []),
            ('{"reapply_rank_bonus": [0.1, 0.2, 0.3, 0.4]}', []),
            ('{"exam_prob_by_rank": []}', []),
            ('{"exam_prob_by_rank": 0.5}', []),
            ('{"accept_base": [0.9]}', []),
            ("[]", []),
            ("null", []),
        ],
        ids=[
            "seed-flag-negative", "seed-negative", "seed-float", "count-float",
            "base-year-float", "rank-penalty-short", "rank-bonus-long", "exam-probs-empty",
            "exam-probs-scalar", "list-for-number", "not-an-object-list", "not-an-object-null",
        ],
    )
    def test_bad_synth_config_value(self, tmp_path, capsys, text, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        status = cli.main(["--synth", str(cfg), *args, "--out", str(out)])
        assert status == 1
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, word",
        [
            (["--out", "{out}"], "--synth"),
            (["--synth", "default", "--seed", "abc", "--out", "{out}"], "'abc'"),
            (["--synth", "default", "--input", "data", "--out", "{out}"], "not allowed"),
            (["--synth", "default"], "--out"),
            (["--synth", "default", "--colour", "--out", "{out}"], "--colour"),
        ],
        ids=["no-source", "seed-not-int", "two-sources", "no-out", "unknown-flag"],
    )
    def test_argument_errors_follow_the_cli_contract(self, tmp_path, capsys, args, word):
        """Exit 1, one JSON line on stderr and ``--out`` as it was, as for
        every other failure; argparse's usage text is not printed."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "table4.csv").write_text("kept")
        status = cli.main([a.format(out=out) for a in args])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        line, rest = captured.err.split("\n", 1)
        assert rest == ""
        err = json.loads(line)
        assert err["error"] == "InvalidConfig"
        assert word in err["message"]
        assert tree_bytes(out) == {"table4.csv": b"kept"}

    def test_argument_error_exits_1_and_help_exits_0(self, tmp_path):
        bad = [sys.executable, "-m", "polyadmit.cli", "--seed", "abc", "--out", str(tmp_path)]
        proc = subprocess.run(bad, capture_output=True, text=True, env=child_env())
        assert (proc.returncode, json.loads(proc.stderr)["error"]) == (1, "InvalidConfig")
        proc = subprocess.run(
            [sys.executable, "-m", "polyadmit.cli", "--help"],
            capture_output=True, text=True, env=child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: polyadmit")

    @pytest.mark.parametrize(
        "config, outcome",
        [
            (
                '{"reapply_unassigned": 0, "reapply_assigned_base": 0, "reapply_rank_bonus":'
                ' [0, 0, 0], "reapply_no_exam_bonus": 0, "reapply_third_year": 0}',
                "reapplied_later",
            ),
            (
                '{"accept_base": 1, "accept_rank_penalty": [0, 0, 0],'
                ' "accept_no_exam_penalty": 0}',
                "accepted_seat",
            ),
        ],
        ids=["no-reapplication", "every-admit-accepts"],
    )
    def test_constant_table5_outcome_fails_the_run(self, tmp_path, capsys, config, outcome):
        """Table 5 on an outcome no admit varies in is an error, not a
        column of zero estimates and zero standard errors."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "out"
        args = ["--synth", str(cfg), "--seed", "1", "--reports", "table5", "--out", str(out)]
        status = cli.main(args)
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConstantOutcome"
        assert repr(outcome) in err["message"]
        assert not out.exists()

    def test_non_utf8_input_is_a_json_error(self, small_panel, tmp_path, capsys):
        data = tmp_path / "data"
        save_panel(small_panel, data)
        path = data / "applicants.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\xe9\n", 2))
        status = cli.main(["--input", str(data), "--out", str(tmp_path / "out")])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "applicants.csv" in err["message"]

    def test_empty_program_name_names_file_row_and_column(self, small_panel, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "out"
        save_panel(small_panel, data)
        path = data / "programs.csv"
        lines = path.read_text().splitlines()
        lines[2] = "Polytechnic 1,  ,field1,3"
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["--input", str(data), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "EmptyName", "message": f"{path} row 3: empty program_name"
        }
        assert not out.exists()

    def test_huge_synth_points_are_a_non_finite_result(self, tmp_path, capsys):
        """Totals that overflow fail the run as non-finite, with no warning
        printed first and no misleading RankDeficient."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(
            '{"n_applicants": 400, "n_programs": 12, "n_fields": 4, "seats_total": 130,'
            ' "seed": 7, "first_choice_bonus": 1.7e308, "other_points_value": 1.7e308}'
        )
        out.mkdir()
        (out / "table1.csv").write_text("kept")
        assert cli.main(["--synth", str(cfg), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "NonFiniteResult"
        assert tree_bytes(out) == {"table1.csv": b"kept"}

    def test_huge_synth_points_name_the_score_totals(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"n_applicants": 400, "n_programs": 12, "n_fields": 4, "seats_total": 130,'
            ' "seed": 7, "first_choice_bonus": 1.7e308, "other_points_value": 1.7e308}'
        )
        assert cli.main(["--synth", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonFiniteResult"
        assert err["message"].startswith(
            "a computation in scoring.ScoreTable.__post_init__ left the finite range: "
        )

    def test_a_huge_exam_score_names_the_weight_decomposition(
        self, small_panel, tmp_path, capsys
    ):
        data = tmp_path / "data"
        save_panel(small_panel, data)
        path = data / "applications.csv"
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        row = next(r for r in rows if r[header.index("exam_taken")] == "true")
        row[header.index("exam_score")] = "1.7e308"
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        assert cli.main(["--input", str(data), "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonFiniteResult"
        assert err["message"].startswith(
            "a computation in scoring.effective_weights left the finite range: "
        )

    ZERO_SEATS = (
        '{"n_applicants": 200, "n_programs": 6, "n_fields": 2, "seats_total": 0, "seed": 3}'
    )

    def test_zero_seats_have_no_rank_improvement(self, tmp_path, capsys):
        """Table 4's rank improvement is undefined when no one is admitted:
        the run fails rather than print 0."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(self.ZERO_SEATS)
        out.mkdir()
        (out / "table4.csv").write_text("kept")
        assert cli.main(["--synth", str(cfg), "--reports", "table4", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "EmptyAssignment"
        assert tree_bytes(out) == {"table4.csv": b"kept"}

    def test_zero_seats_without_table4_keep_their_reports(self, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(self.ZERO_SEATS)
        args = ["--reports", "assignments,table2,table3,figure1", "--out", str(out)]
        assert cli.main(["--synth", str(cfg), *args]) == 0
        nobody = "a398f1231d565cae824aebf547ce0499eb7a30e2dace623939f890de3eff0e70"
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == {
            **{f"assignment_S{k}.csv": nobody for k in range(1, 7)},
            "figure1.csv": "9016555c66384f35498cde70b6858efa9abebd305d6616afbcc3d0590d5413e9",
            "table2.csv": "50f54206f151c2cae51db4718f29225cc444a64e61d98618ea6741d25e8cbd64",
            "table3.csv": "13cbf365f49050d5167a69e72623ced0d71af0e243f34e967a1b089be621986c",
        }

    def test_two_applicants_have_no_table2_thirds(self, tmp_path, capsys):
        """Table 2 splits the ranked applicants into thirds: two cannot be
        split, so the run fails rather than print an empty third as 0."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text('{"n_applicants": 2, "n_programs": 1, "n_fields": 1, "seats_total": 1}')
        out.mkdir()
        (out / "table2.csv").write_text("kept")
        assert cli.main(["--synth", str(cfg), "--reports", "table2", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "EmptySample"
        assert "matriculation" in err["message"]
        assert tree_bytes(out) == {"table2.csv": b"kept"}

    @pytest.mark.parametrize(
        "reports",
        [[], ["--reports", "assignments"], ["--reports", "table1"]],
        ids=["default", "assignments", "table1"],
    )
    def test_a_base_year_without_applications_is_an_empty_sample(
        self, small_panel, tmp_path, capsys, reports
    ):
        data, out = tmp_path / "data", tmp_path / "out"
        save_panel(small_panel, data)
        (data / "observed_assignment.csv").unlink()
        path = data / "applications.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        assert cli.main(["--input", str(data), *reports, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "EmptySample"
        assert not out.exists()

    def test_an_unused_listed_rank_has_no_shares(self, tmp_path, capsys):
        """Lists of one or two programs leave ranks 3 and 4 without an
        application: table 3 keeps their rows and counts of 0 and the
        calibration report their targets, with empty cells where a share
        over no applications would be, rather than a 0."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(
            '{"n_applicants": 400, "n_programs": 12, "n_fields": 4, "seats_total": 130,'
            ' "seed": 7, "list_length_probs": [0.5, 0.5]}'
        )
        out.mkdir()
        (out / "earlier.csv").write_text("kept\n")
        args = ["--synth", str(cfg), "--reports", "table3,calibration", "--out", str(out)]
        status = cli.main(args)
        assert assert_run_kept_the_contract(status, capsys.readouterr().err, out) is None
        table3 = (out / "table3.csv").read_text().splitlines()
        assert table3[1:] == [
            "1,400,0.610000,0.290000", "2,190,0.436842,0.073684", "3,0,,", "4,0,,",
        ]
        calibration = (out / "calibration.csv").read_text().splitlines()
        assert calibration[3:5] == ["exam_share_rank3,0.450000,,", "exam_share_rank4,0.430000,,"]

    def test_console_entry_point(self, small_config_json, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable, "-m", "polyadmit.cli",
                "--synth", str(small_config_json),
                "--reports", "table3", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert (out / "table3.csv").exists()

    def test_regression_report_does_not_import_scipy(self, small_config_json, tmp_path):
        out = tmp_path / "out"
        code = (
            "import sys\n"
            "from polyadmit import cli\n"
            f"status = cli.main(['--synth', {str(small_config_json)!r}, '--reports', 'table5',"
            f" '--out', {str(out)!r}])\n"
            "print(status, 'scipy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.stdout.split() == ["0", "False"], proc.stderr
        assert (out / "table5.csv").exists()

    def test_no_run_imports_numpy_ma(self, small_config_json, small_panel, tmp_path):
        save_panel(small_panel, tmp_path / "panel")
        runs = [
            ["--synth", str(small_config_json), "--out", str(tmp_path / "synth")],
            ["--input", str(tmp_path / "panel"), "--out", str(tmp_path / "input")],
        ]
        code = (
            "import sys\n"
            "from polyadmit import cli\n"
            f"for argv in {runs!r}:\n"
            "    print(cli.main(argv), 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.stdout.split() == ["0", "False", "0", "False"], proc.stderr

    def test_input_run_without_table5_imports_neither_synth_nor_econometrics(
        self, small_config_json, small_panel, tmp_path
    ):
        save_panel(small_panel, tmp_path / "panel")
        runs = [
            ["--input", str(tmp_path / "panel"), "--reports", "table4,assignments"],
            ["--input", str(tmp_path / "panel"), "--reports", "table1,table2,table3"],
            ["--synth", str(small_config_json), "--reports", "table5,calibration"],
        ]
        code = (
            "import sys\n"
            "from polyadmit import cli\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    status = cli.main([*argv, '--out', {str(tmp_path)!r} + f'/out{{i}}'])\n"
            "    print(status, *(f'polyadmit.{m}' in sys.modules for m in ('synth', 'econometrics')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.stdout.splitlines() == ["0 False False", "0 False False", "0 True True"], (
            proc.stderr
        )
        assert {p.name for p in (tmp_path / "out2").iterdir()} == {"table5.csv", "calibration.csv"}


class TestProcessEntry:
    """``python -m polyadmit.cli`` and the ``polyadmit`` script freeze the
    collector before the run; ``cli.main``, which also runs in-process,
    does not. While ``main`` runs, SIGTERM and SIGINT fail the run under
    the CLI contract."""

    def test_module_main_freezes_the_collector(self, small_config_json, tmp_path):
        argv = ["polyadmit", "--synth", str(small_config_json), "--reports", "table1",
                "--out", str(tmp_path / "out")]
        code = (
            "import gc, runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            "try:\n"
            "    runpy.run_module('polyadmit.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count() > 0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.stdout.split() == ["0", "True"], proc.stderr
        assert (tmp_path / "out" / "table1.csv").exists()

    def test_script_entry_is_what_the_main_block_calls(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["polyadmit"]
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        (block,) = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [ast.unparse(statement) for statement in block.body] == [
            f"{target.partition(':')[2]}()"
        ]
        assert target.partition(":")[0] == cli.__name__

    def test_in_process_main_neither_freezes_nor_keeps_its_handlers(
        self, small_config_json, tmp_path
    ):
        signals = (signal.SIGTERM, signal.SIGINT)
        handlers, frozen = [signal.getsignal(s) for s in signals], gc.get_freeze_count()
        argv = ["--synth", str(small_config_json), "--reports", "table1"]
        assert cli.main([*argv, "--out", str(tmp_path / "main")]) == 0
        status = []  # signal handlers can only be set in the main thread
        worker = threading.Thread(
            target=lambda: status.append(cli.main([*argv, "--out", str(tmp_path / "worker")]))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and status == [0]
        assert [signal.getsignal(s) for s in signals] == handlers
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("name", ["SIGTERM", "SIGINT"])
    def test_signal_fails_the_run_under_the_contract(self, name, small_config_json, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("before\n", encoding="utf-8")
        argv = ["--synth", str(small_config_json), "--reports", "table1,table2", "--out", str(out)]
        code = (  # the run signals its own process once table 1 is staged
            "import signal, sys\n"
            "from polyadmit import cli, reports\n"
            "write = reports.write_weight_report\n"
            "def write_then_signal(*args):\n"
            "    write(*args)\n"
            f"    signal.raise_signal(signal.{name})\n"
            "reports.write_weight_report = write_then_signal\n"
            f"sys.exit(cli.main({argv!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 1, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {
            "error": "Interrupted", "message": f"the run received {name} and stopped"
        }
        assert tree_bytes(out) == {"keep.txt": b"before\n"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]  # no staging directory


def count_calls(monkeypatch, *functions) -> Counter:
    """Count the calls of each ``(module, name)`` function by its name."""
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in functions:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


COSTLY_INPUTS = (
    (matching, "deferred_acceptance"),
    (counterfactual, "extend_application_lists"),
    (metrics, "field_gpa_percentile_ranks"),
)

# Every single report, and subsets of the reports that read no match when
# the panel has an observed assignment.
REPORT_SUBSETS = [(r,) for r in cli.ALL_REPORTS] + [
    ("table2", "table3"), ("table1", "table2", "table3"), ("table1", "table2", "table3", "table5"),
]


@pytest.fixture(scope="module")
def every_report_runs(small_config_json, small_panel, tmp_path_factory):
    """Source arguments and every-report files of a synthetic panel, which
    has an observed assignment, and of a saved panel without one."""
    unobserved = tmp_path_factory.mktemp("unobserved")
    save_panel(small_panel, unobserved)
    (unobserved / "observed_assignment.csv").unlink()
    runs = {}
    for kind, source in (
        ("observed", ["--synth", str(small_config_json)]),
        ("unobserved", ["--input", str(unobserved)]),
    ):
        out = tmp_path_factory.mktemp(kind) / "out"
        assert cli.main([*source, "--out", str(out)]) == 0
        runs[kind] = source, tree_bytes(out)
    return runs


class TestReportSubsets:
    """A run computes only the inputs its reports read."""

    @pytest.mark.parametrize(
        "kind, wanted",
        [("observed", subset) for subset in REPORT_SUBSETS]
        + [
            ("unobserved", subset)
            for subset in REPORT_SUBSETS
            if not {"table5", "calibration"} & set(subset)
        ],
        ids=lambda value: value if isinstance(value, str) else ",".join(value),
    )
    def test_a_subset_writes_the_files_of_an_every_report_run(
        self, every_report_runs, kind, wanted, tmp_path
    ):
        source, every = every_report_runs[kind]
        out = tmp_path / "out"
        assert cli.main([*source, "--reports", ",".join(wanted), "--out", str(out)]) == 0
        written = tree_bytes(out)
        assert len(written) == len(wanted) + 5 * ("assignments" in wanted)
        assert written == {name: every[name] for name in written}

    def test_observed_descriptive_reports_match_nothing(self, small_panel, tmp_path, monkeypatch):
        """With an observed assignment, tables 1, 2, 3 and 5 read S1's
        score table and the observed seats: no scenario is matched, no
        list is extended and no GPA rank table is built."""
        data = tmp_path / "data"
        save_panel(small_panel, data)
        calls = count_calls(monkeypatch, *COSTLY_INPUTS)
        args = ["--input", str(data), "--reports", "table1,table2,table3,table5"]
        assert cli.main([*args, "--out", str(tmp_path / "out")]) == 0
        assert calls == {}

    def test_unobserved_table2_matches_s1_alone(self, small_panel, tmp_path, monkeypatch):
        """Without an observed assignment, table 2 describes S1's match: one
        deferred acceptance run, on the base-year lists."""
        data = tmp_path / "data"
        save_panel(small_panel, data)
        (data / "observed_assignment.csv").unlink()
        calls = count_calls(monkeypatch, *COSTLY_INPUTS)
        args = ["--input", str(data), "--reports", "table2"]
        assert cli.main([*args, "--out", str(tmp_path / "out")]) == 0
        assert calls == {"deferred_acceptance": 1}

    def test_an_extended_list_overflow_fails_only_the_runs_that_match(
        self, small_panel, tmp_path, capsys
    ):
        """A later-year application whose exam score and other points add
        past the float range overflows only the extended lists' scores.
        Tables 1, 2, 3 and 5 never build those lists, so they succeed with
        the bytes of the uncorrupted panel; table 4 fails as before."""
        clean, data = tmp_path / "clean", tmp_path / "data"
        save_panel(small_panel, clean)
        save_panel(small_panel, data)
        path = data / "applications.csv"
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        col = {name: i for i, name in enumerate(header)}
        base_year = str(small_panel.base_year)
        a, p, n = col["applicant_id"], col["polytechnic_name"], col["program_name"]
        listed = {r[a] for r in rows if r[col["year"]] == base_year}
        times = Counter((r[a], r[p], r[n]) for r in rows)
        row = next(  # a program that the extended lists append to a base-year list
            r for r in rows
            if r[col["year"]] != base_year and r[a] in listed and times[r[a], r[p], r[n]] == 1
        )
        row[col["exam_taken"]] = "true"
        row[col["exam_score"]] = row[col["other_points"]] = "1.7e308"
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        wanted = ["--reports", "table1,table2,table3,table5"]
        assert cli.main(["--input", str(clean), *wanted, "--out", str(tmp_path / "one")]) == 0
        assert cli.main(["--input", str(data), *wanted, "--out", str(tmp_path / "two")]) == 0
        assert capsys.readouterr().err == ""
        assert tree_bytes(tmp_path / "two") == tree_bytes(tmp_path / "one")
        args = ["--input", str(data), "--reports", "table4", "--out", str(tmp_path / "three")]
        assert cli.main(args) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonFiniteResult"
        assert "scoring.ScoreTable.__post_init__" in err["message"]


@pytest.fixture(scope="module")
def saved_cells(small_panel, tmp_path_factory):
    """The rows of each CSV file of the saved 400-applicant panel."""
    directory = tmp_path_factory.mktemp("saved")
    save_panel(small_panel, directory)
    cells = {}
    for path in sorted(directory.iterdir()):
        with open(path, newline="", encoding="utf-8") as handle:
            cells[path.name] = list(csv.reader(handle))
    return cells


# CSV syntax and short random text, which any cell may hold.
ANY_CELL = st.sampled_from(["", " ", ",", '"', "\n", "\r", "\x00", "\ufeff"]) | st.text(max_size=4)

# Replacement cells by the kind of the column hit: bad and edge values of
# that kind, and values of the kind that break the panel's rules.
CELL_VALUES = {
    "integer": st.sampled_from(["-1", "0", "5", "2010", "2014", "1.5", "1e3", " 7", "x", "nan"])
    | st.integers(-5, 2020).map(str)
    | st.integers(2**63 - 2, 2**66).map(str)  # 64-bit edge and beyond
    | st.integers(-(2**66), -(2**63) + 1).map(str),
    "float": st.sampled_from(
        [
            "-1", "0", "-0.0", "1e-320", "1.7e308", "1e999", "nan", "inf", "-inf", "1,5", "x",
            "0x10",
        ]
    ) | st.floats().map(repr),
    "boolean": st.sampled_from(
        ["true", "false", "TRUE", " yes", "no", "1", "0", "2", "x", "tru", "none"]
    ),
    "name": st.sampled_from(["Polytechnic 0", "program 1", "field0", "field9", "math", "FIELD0"]),
    "id": st.sampled_from(["a00001", "a00399", "a99999", "A00001", " a00001"]),
}
INTEGER_COLUMNS = {"cohort_year", "quota", "year", "listed_rank"}
FLOAT_COLUMNS = {"exam_score", "other_points", "weight", "bonus"}


def column_kind(column: str) -> str:
    if column in INTEGER_COLUMNS:
        return "integer"
    if column in FLOAT_COLUMNS or column.startswith("grade_"):
        return "float"
    if column in ("exam_taken", "accepted"):
        return "boolean"
    return "id" if column == "applicant_id" else "name"


# The share of rewritten cells that land in a file's header; the others
# land in a data row drawn uniformly, as Hypothesis's own integers lean
# towards the first rows.
HEADER_SHARE = 1 / 16


class TestCorruptedCells:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_run_succeeds_or_fails_by_the_contract(self, saved_cells, data):
        """1-3 cells of the saved panel rewritten, each in a column drawn by
        kind, in a uniform data row or now and then the header, and with a
        value of that kind or CSV syntax: the run exits 0 with nothing on
        stderr and every reported number finite, or exits 1 with one JSON
        line naming a PolyadmitError and leaves --out as it was, with
        nothing written beside it. Row positions come from a drawn seed,
        so a failure replays."""
        files = {name: [list(row) for row in rows] for name, rows in saved_cells.items()}
        columns = {kind: [] for kind in CELL_VALUES}
        for name, rows in sorted(files.items()):
            for j, column in enumerate(rows[0]):
                columns[column_kind(column)].append((name, j))
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(sorted(columns)))
            name, column = data.draw(st.sampled_from(columns[kind]))
            rows, where = files[name], random.Random(data.draw(st.integers(0, 2**32 - 1)))
            row = rows[0 if where.random() < HEADER_SHARE else where.randrange(1, len(rows))]
            row[column] = data.draw(CELL_VALUES[kind] | ANY_CELL)
        self.run_on(files)

    @pytest.mark.parametrize(
        "name, column",
        [
            ("applicants.csv", "grade_math"), ("applications.csv", "exam_score"),
            ("applications.csv", "other_points"), ("field_weights.csv", "weight"),
            ("bonus_points.csv", "bonus"),
        ],
    )
    def test_a_huge_finite_cell_is_a_non_finite_result(self, saved_cells, name, column):
        """A finite value near the largest double in one number cell (of a
        row with an exam, where the file has exams) overflows, and the run
        fails with NonFiniteResult: it neither reports a NaN weight nor
        prints a warning."""
        files = {name: [list(row) for row in rows] for name, rows in saved_cells.items()}
        header, *rows = files[name]
        exam = header.index("exam_taken") if "exam_taken" in header else None
        row = next(r for r in rows if exam is None or r[exam] == "true")
        row[header.index(column)] = "1.7e308"
        assert self.run_on(files) == "NonFiniteResult"

    @staticmethod
    def run_on(files: dict[str, list[list[str]]]) -> Optional[str]:
        """Write ``files`` as a panel directory and run the CLI on it; the
        error's name, None when the run succeeds."""
        with tempfile.TemporaryDirectory() as directory:
            panel_dir, out = Path(directory, "panel"), Path(directory, "out")
            panel_dir.mkdir()
            for name, rows in files.items():
                with open(panel_dir / name, "w", newline="", encoding="utf-8") as handle:
                    csv.writer(handle, lineterminator="\n").writerows(rows)
            out.mkdir()
            (out / "earlier.csv").write_text("kept\n")
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                status = cli.main(["--input", str(panel_dir), "--out", str(out)])
            assert sorted(os.listdir(directory)) == ["out", "panel"]
            return assert_run_kept_the_contract(status, stderr.getvalue(), out)


def assert_run_kept_the_contract(status: int, stderr: str, out: Path) -> Optional[str]:
    """A run into ``out``, which held only ``earlier.csv``, either exits 0
    with nothing on stderr, every reported number finite and no table-5
    column whose standard errors are all zero; or exits 1 with one JSON
    line naming a PolyadmitError, leaving ``out`` as it was. Returns the
    error's name, None on success."""
    if status == 0:
        assert stderr == ""
        assert_reported_numbers_finite(out)
        return None
    assert status == 1
    (line,) = stderr.splitlines()
    name = json.loads(line)["error"]
    error = getattr(errors, name, None)
    assert isinstance(error, type) and issubclass(error, PolyadmitError), line
    assert tree_bytes(out) == {"earlier.csv": b"kept\n"}
    return name


def assert_reported_numbers_finite(directory: Path) -> None:
    """Every cell of the reports in ``directory`` that reads as a number is
    finite, no table-3 share is printed over a rank without applications,
    and no table-5 column has only zero standard errors. The assignment
    files hold ids, names and flags, and a name may read as a number, so
    they are left out."""
    for path in sorted(directory.glob("*.csv")):
        if path.name.startswith("assignment_"):
            continue
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        for row in rows:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), f"{path.name}: {row}"
        if path.name == "table3.csv":  # no share over a rank without applications
            assert all(row[2:] == ["", ""] for row in rows[1:] if row[1] == "0"), rows
        if path.name == "table5.csv":
            errors_of = {}
            for column, _, _, se in rows[1:]:
                if se:
                    errors_of.setdefault(column, []).append(float(se))
            for column, ses in errors_of.items():
                assert any(ses), f"table5 column {column}: every standard error is zero"


PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
# Points now and then so large that a sum of two overflows.
POINTS = st.sampled_from([0.0, 1.7e308]) | st.floats(0.0, 50.0)


@st.composite
def synth_configs(draw):
    """Small ``SynthConfig`` fields that pass ``validate``: at most 300
    applicants, 12 programs and 4 fields, any number of seats, and
    probabilities at 0, between and at 1."""
    n_applicants = draw(st.integers(1, 300))
    n_programs = draw(st.integers(1, 12))
    weights = draw(
        st.lists(st.integers(0, 3), min_size=1, max_size=MAX_LISTED_RANK).filter(any)
    )
    return {
        "n_applicants": n_applicants,
        "n_programs": n_programs,
        "n_fields": draw(st.integers(1, min(4, n_programs))),
        "seats_total": draw(st.integers(0, n_applicants)),
        "list_length_probs": [w / sum(weights) for w in weights],
        "exam_prob_by_rank": draw(st.lists(PROBABILITY, min_size=1, max_size=MAX_LISTED_RANK)),
        "first_choice_bonus": draw(POINTS),
        "other_points_value": draw(POINTS),
        **{
            name: draw(PROBABILITY)
            for name in (
                "accept_base", "accept_no_exam_penalty", "reapply_unassigned",
                "reapply_assigned_base", "reapply_no_exam_bonus", "reapply_third_year",
                "other_points_prob",
            )
        },
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


# A config the sweep once drew: every admit at ranks 1-3 accepts and every
# rank-4 admit declines, so table 5 column (1) fits acceptance exactly.
EXACT_FIT = {
    "n_applicants": 149, "n_programs": 8, "n_fields": 4, "seats_total": 86,
    "list_length_probs": [1 / 6, 1 / 3, 0.0, 0.5], "exam_prob_by_rank": [1.0, 0.125],
    "first_choice_bonus": 0.0, "other_points_value": 0.0, "accept_base": 1.0,
    "accept_no_exam_penalty": 0.0, "reapply_unassigned": 0.0, "reapply_assigned_base": 0.0,
    "reapply_no_exam_bonus": 0.0, "reapply_third_year": 0.0, "other_points_prob": 0.0,
    "seed": 94094,
}


class TestContractSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        config=synth_configs(),
        wanted=st.none() | st.lists(st.sampled_from(cli.ALL_REPORTS), min_size=1, unique=True),
        robust=st.booleans(),
    )
    @example(config=EXACT_FIT, wanted=None, robust=False)
    def test_small_configs_succeed_or_fail_by_the_contract(self, config, wanted, robust):
        """Every small config either writes finite reports with nothing on
        stderr, or fails with one JSON line naming a PolyadmitError and
        leaves --out as it was; a report subset without table5 lets a
        config whose regressions are degenerate run."""
        with tempfile.TemporaryDirectory() as directory:
            cfg, out = Path(directory, "cfg.json"), Path(directory, "out")
            cfg.write_text(json.dumps(config))
            out.mkdir()
            (out / "earlier.csv").write_text("kept\n")
            args = ["--synth", str(cfg), "--out", str(out)]
            args += ["--reports", ",".join(wanted)] if wanted else []
            args += ["--robust-se"] if robust else []
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                status = cli.main(args)
            assert_run_kept_the_contract(status, stderr.getvalue(), out)


TRACED = Path(__file__).parents[1] / "perfbench" / "traced.py"


class TestTracedHarness:
    def test_metric_functions_exist(self):
        """A layer metric whose function is renamed or deleted reads 0 and
        the traced run still passes, so each ``<module>.<function>`` that a
        ``.s`` or ``.calls`` metric or ``COUNT_ONLY`` names must be a public
        function of that module, and each attribute the harness patches or
        reads must exist."""
        spec = importlib.util.spec_from_file_location("traced", TRACED)
        traced = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(traced)
        names = set(traced.COUNT_ONLY)
        for metric in traced.LAYER_METRICS:
            if metric.rpartition(".")[2] in ("s", "calls"):
                names.add(".".join(metric.split(".")[:2]))
        derived = {"matching.da_applicants", "matching.audit", "reports.write"}
        panel_members = {"model.weighted_gpa", "model.base_applications"}
        # documented as stale: no longer in the package, their metrics read 0
        stale = {"econometrics.build_design_matrix", "scoring.adjusted_score"}
        for name in sorted(names - derived - panel_members - stale):
            module_name, function = name.split(".")
            module = importlib.import_module(f"polyadmit.{module_name}")
            fn = getattr(module, function, None)
            assert not function.startswith("_"), name
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
        # reports.write.s sums the spans whose names start "reports.write_":
        # a writer renamed out of that prefix would read 0
        writers = {
            name for name, fn in vars(reports).items()
            if name.startswith("write_") and inspect.isfunction(fn)
            and fn.__module__ == reports.__name__
        }
        assert writers == {
            "write_weight_report", "write_tercile_report", "write_rank_stats",
            "write_scenario_suite", "write_lpm_report", "write_figure_data",
            "write_calibration_report",
        }
        assert inspect.isfunction(vars(Panel)["weighted_gpa"])
        assert isinstance(vars(Panel)["base_applications"], property)
        for owner, attr in (
            (ScoreTable, "entries"),
            (MatchInstance, "preferences"),
            (MatchInstance, "quotas"),
            (Assignment, "seat_of"),
        ):
            assert attr in vars(owner), f"{owner.__name__}.{attr}"

    def test_traced_run_audits_and_matches_untraced_reports(self, small_config_json, tmp_path):
        """perfbench/traced.py patches and observes functions by name; a
        rename or deletion it depends on fails here."""
        result, out = tmp_path / "result.json", tmp_path / "traced"
        proc = subprocess.run(
            [
                sys.executable, str(TRACED), "--spawned-at", repr(time.perf_counter()),
                "--result", str(result), "--spans", str(tmp_path / "spans.json"),
                "--out", str(out), "--", "--synth", str(small_config_json),
            ],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        run = json.loads(result.read_text())
        assert run["status"] == 0
        audit = run["audit"]
        assert (audit["assignments_audited"], audit["blocking_pairs"], audit["n_violations"]) == (
            7, 0, 0,
        )
        untraced = tmp_path / "untraced"
        assert cli.main(["--synth", str(small_config_json), "--out", str(untraced)]) == 0
        assert run["digests"] == {
            name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(untraced).items()
        }
