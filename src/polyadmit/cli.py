"""Command-line entry point: load or generate a panel, run the scenario
suite, and write the report files."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import counterfactual, econometrics, metrics, reports, scoring, synth
from .errors import InvalidConfig, NoObservedAssignment, PolyadmitError
from .io_csv import load_panel, write_assignment_csv
from .model import Panel

ALL_REPORTS = ("table1", "table2", "table3", "table4", "table5", "figure1", "assignments", "calibration")


@dataclass(frozen=True)
class RunConfig:
    out_dir: Path
    input_dir: Optional[Path] = None
    synth_spec: Optional[str] = None  # path to a JSON config, or "default"
    seed: Optional[int] = None
    scenarios: tuple[str, ...] = counterfactual.SCENARIO_IDS
    reports: Optional[tuple[str, ...]] = None  # None = everything applicable
    robust_se: bool = False

    def validate(self) -> "RunConfig":
        if (self.input_dir is None) == (self.synth_spec is None):
            raise InvalidConfig("exactly one of --input and --synth must be given")
        for s in self.scenarios:
            if s not in counterfactual.SCENARIOS:
                raise InvalidConfig(f"unknown scenario {s!r}")
        if self.reports is not None:
            for r in self.reports:
                if r not in ALL_REPORTS:
                    raise InvalidConfig(f"unknown report {r!r}")
        return self


def load_synth_config(spec: str, seed: Optional[int]) -> synth.SynthConfig:
    if spec == "default":
        cfg = synth.SynthConfig()
    else:
        try:
            raw = json.loads(Path(spec).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfig(f"cannot read synth config {spec!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidConfig(f"synth config {spec!r} must be a JSON object")
        known = {f.name for f in dataclasses.fields(synth.SynthConfig)}
        unknown = set(raw) - known
        if unknown:
            raise InvalidConfig(f"unknown synth config keys: {sorted(unknown)}")
        raw = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
        cfg = synth.SynthConfig(**raw)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg.validate()


def _wanted(config: RunConfig, report: str, available: bool) -> bool:
    if config.reports is None:
        return available
    if report in config.reports and not available:
        raise NoObservedAssignment(
            f"report {report!r} requires an observed assignment with accept flags"
        )
    return report in config.reports


def run(config: RunConfig) -> int:
    """Execute the pipeline; returns the process exit status.

    On failure, including an operating-system error such as an unusable
    output path, all partially written outputs are removed and a
    machine-readable error is printed to stderr.
    """
    written: list[Path] = []
    try:
        config.validate()
        if config.synth_spec is not None:
            panel = synth.generate_panel(load_synth_config(config.synth_spec, config.seed))
        else:
            panel = load_panel(config.input_dir)

        out = config.out_dir
        out.mkdir(parents=True, exist_ok=True)

        def target(name: str) -> Path:
            path = out / name
            written.append(path)
            return path

        _write_reports(config, panel, target)
    except (PolyadmitError, OSError) as exc:
        for path in written:
            if not path.is_dir():  # a directory in a report's place was never ours
                path.unlink(missing_ok=True)
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    return 0


def _write_reports(config: RunConfig, panel: Panel, target) -> None:
    scenario_ids = tuple(sorted(set(config.scenarios) | {"S1"}))
    universe = sorted({a.applicant_id for a in panel.base_applications})
    suite = counterfactual.run_scenario_suite(panel, scenario_ids=scenario_ids)
    by_id = {r.scenario_id: r for r in suite}

    # Descriptive tables use the observed assignment when present; the
    # replicated baseline otherwise.
    descriptive = panel.observed_assignment or by_id["S1"].assignment
    has_observed = panel.observed_assignment is not None
    is_synth = config.synth_spec is not None

    if _wanted(config, "table1", True):
        table = scoring.compute_score_table(panel, panel.base_applications)
        reports.write_weight_report(target("table1.csv"), scoring.effective_weights(table))

    if _wanted(config, "table2", True):
        reports.write_tercile_report(
            target("table2.csv"),
            [
                metrics.tercile_unassignment(panel, descriptive, metrics.CRITERION_MATRICULATION),
                metrics.tercile_unassignment(panel, descriptive, metrics.CRITERION_ADMISSION_SCORE),
            ],
        )

    if _wanted(config, "table3", True):
        reports.write_rank_stats(
            target("table3.csv"), metrics.application_rank_stats(panel, descriptive)
        )

    if _wanted(config, "table4", True):
        reports.write_scenario_suite(target("table4.csv"), suite)

    if _wanted(config, "table5", has_observed):
        results = econometrics.lpm_report(
            panel, panel.observed_assignment, robust=config.robust_se
        )
        reports.write_lpm_report(
            target("table5.csv"),
            {f"({i})": r for i, r in enumerate(results, start=1)},
        )

    if _wanted(config, "figure1", True):
        rank_table = metrics.field_gpa_percentile_ranks(panel)
        program_field = {p: prog.field for p, prog in panel.programs.items()}
        base_hist = metrics.assigned_rank_histogram(
            rank_table, by_id["S1"].assignment, program_field, len(universe)
        )
        panels = {"1": base_hist}
        for scenario_id in scenario_ids:
            if scenario_id == "S1":
                continue
            cf_hist = metrics.assigned_rank_histogram(
                rank_table, by_id[scenario_id].assignment, program_field, len(universe)
            )
            panels[scenario_id[1]] = metrics.net_change_histogram(base_hist, cf_hist)
        reports.write_figure_data(target("figure1.csv"), panels)

    if _wanted(config, "assignments", True):
        for scenario_id in scenario_ids:
            write_assignment_csv(
                target(f"assignment_{scenario_id}.csv"),
                panel,
                by_id[scenario_id].assignment,
                universe,
            )

    if _wanted(config, "calibration", is_synth):
        reports.write_calibration_report(
            target("calibration.csv"), synth.calibration_report(panel)
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyadmit",
        description="Simulate a centralized admissions clearinghouse and write its report tables.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="DIR", help="directory with the panel CSV files")
    source.add_argument(
        "--synth", metavar="CFG", help='synthetic panel config: a JSON file or "default"'
    )
    parser.add_argument("--seed", type=int, default=None, help="override the synthetic seed")
    parser.add_argument(
        "--scenarios",
        default=",".join(counterfactual.SCENARIO_IDS),
        help="comma-separated scenario ids (S1..S6)",
    )
    parser.add_argument(
        "--reports",
        default=None,
        help=f"comma-separated report names ({', '.join(ALL_REPORTS)}); default: all applicable",
    )
    parser.add_argument("--out", metavar="DIR", required=True, help="output directory")
    parser.add_argument(
        "--robust-se", action="store_true", help="heteroskedasticity-robust standard errors"
    )
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    args = build_parser().parse_args(argv)
    return RunConfig(
        out_dir=Path(args.out),
        input_dir=Path(args.input) if args.input else None,
        synth_spec=args.synth,
        seed=args.seed,
        scenarios=tuple(s for s in args.scenarios.split(",") if s),
        reports=(
            tuple(r for r in args.reports.split(",") if r) if args.reports is not None else None
        ),
        robust_se=args.robust_se,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
