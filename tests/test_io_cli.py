import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyadmit
from polyadmit import cli
from polyadmit.errors import ParseError, ValidationError
from polyadmit.io_csv import load_panel, save_panel


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestRoundTrip:
    def test_save_load_structural_equality(self, small_panel, tmp_path):
        save_panel(small_panel, tmp_path)
        loaded = load_panel(tmp_path)
        assert set(loaded.applicants) == set(small_panel.applicants)
        assert loaded.programs == small_panel.programs
        assert loaded.base_year == small_panel.base_year
        assert loaded.observed_assignment.seat_of == small_panel.observed_assignment.seat_of
        assert loaded.observed_assignment.accepted == small_panel.observed_assignment.accepted
        assert {
            (a.applicant_id, a.program_key, a.year, a.listed_rank, a.exam_taken)
            for a in loaded.applications
        } == {
            (a.applicant_id, a.program_key, a.year, a.listed_rank, a.exam_taken)
            for a in small_panel.applications
        }
        for a_id, applicant in loaded.applicants.items():
            original = small_panel.applicants[a_id].matriculation_grades
            for subject, grade in applicant.matriculation_grades.items():
                assert grade == pytest.approx(original.get(subject, 0.0), abs=1e-6)

    def test_save_is_a_serialization_fixed_point(self, small_panel, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        save_panel(small_panel, first)
        save_panel(load_panel(first), second)
        assert tree_bytes(first) == tree_bytes(second)


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

    def test_bad_synth_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_apples": 3}')
        status = cli.main(["--synth", str(cfg), "--out", str(tmp_path / "out")])
        assert status == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert "n_apples" in err["message"]

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

    def test_console_entry_point(self, small_config_json, tmp_path):
        out = tmp_path / "out"
        # the child imports the same polyadmit as this process, installed or not
        source = str(Path(polyadmit.__file__).parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "polyadmit.cli",
                "--synth", str(small_config_json),
                "--reports", "table3", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert (out / "table3.csv").exists()
