"""Command-line entry point: load or generate a panel, run the scenario
suite, and write the report files."""

from __future__ import annotations

import argparse
import dataclasses
import errno
import gc
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

# synth and econometrics are imported where a run reads them: an --input
# run without table5 never does.
from . import counterfactual, matching, metrics, reports, scoring
from .errors import (
    Interrupted, InvalidConfig, NoObservedAssignment, NonFiniteResult, PolyadmitError,
)
from .io_csv import load_panel, write_assignment_csv
from .model import Panel

if TYPE_CHECKING:
    from .synth import SynthConfig

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
            if "calibration" in self.reports and self.synth_spec is None:
                raise InvalidConfig("report 'calibration' needs a synthetic panel (--synth)")
        return self


def load_synth_config(spec: str, seed: Optional[int]) -> SynthConfig:
    from . import synth

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


def _wanted(config: RunConfig, panel: Panel) -> set[str]:
    """The reports to write; table5 asked for on a panel without an
    observed assignment raises here, before anything is written."""
    if config.reports is not None:
        if "table5" in config.reports and panel.observed_assignment is None:
            raise NoObservedAssignment(
                "report 'table5' requires an observed assignment with accept flags"
            )
        return set(config.reports)
    sources = {"table5": panel.observed_assignment, "calibration": config.synth_spec}
    return set(ALL_REPORTS).difference(r for r, source in sources.items() if source is None)


def run(config: RunConfig) -> int:
    """Execute the pipeline; returns the process exit status.

    Every report is written into a staging directory beside ``--out`` and
    moved into ``--out`` only after the last one is written, so a run that
    fails for any reason leaves ``--out`` as it was and prints a
    machine-readable error to stderr. An overflow, a division by zero or
    an invalid floating-point operation anywhere in generation, loading or
    the reports fails the run with ``NonFiniteResult``.
    """
    staging = None
    try:
        config.validate()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if config.synth_spec is not None:
                from . import synth

                panel = synth.generate_panel(load_synth_config(config.synth_spec, config.seed))
            else:
                panel = load_panel(config.input_dir)
            wanted = _wanted(config, panel)

            out = config.out_dir
            out.parent.mkdir(parents=True, exist_ok=True)
            staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
            _write_reports(config, panel, wanted, staging)
        names = sorted(p.name for p in staging.iterdir())
        taken = [out / name for name in names if (out / name).is_dir()]
        if taken:
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(taken[0]))
        out.mkdir(exist_ok=True)
        for name in names:
            os.replace(staging / name, out / name)
    except FloatingPointError as exc:
        return _failed(
            NonFiniteResult(f"a computation in {_raised_in(exc)} left the finite range: {exc}")
        )
    except Exception as exc:
        return _failed(exc)
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    return 0


def _raised_in(exc: BaseException) -> str:
    """``module.qualname`` of the innermost frame of this package that
    ``exc`` passed through; ``run``'s own frame is always one."""
    prefix = __spec__.name.rpartition(".")[0] + "."  # also when run as __main__
    tb = exc.__traceback__
    while tb is not None:
        spec = tb.tb_frame.f_globals.get("__spec__")
        if spec is not None and spec.name.startswith(prefix):
            code = tb.tb_frame.f_code  # co_qualname is new in Python 3.11
            name = f"{spec.name.removeprefix(prefix)}.{getattr(code, 'co_qualname', code.co_name)}"
        tb = tb.tb_next
    return name


def _failed(exc: Exception) -> int:
    """Print ``exc`` as one JSON line to stderr; the exit status of a failure."""
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return 1


def _write_reports(config: RunConfig, panel: Panel, wanted: set[str], directory: Path) -> None:
    # Match only what the reports read: the scenario reports read every listed
    # scenario and S1; tables 2 and 3 read S1 when nothing was observed.
    scenario_ids = ()
    if wanted & {"table4", "figure1", "assignments"}:
        scenario_ids = tuple(sorted(set(config.scenarios) | {"S1"}))
    elif wanted & {"table2", "table3"} and panel.observed_assignment is None:
        scenario_ids = ("S1",)
    assignments, listed, base_table = counterfactual.run_scenario_suite(panel, scenario_ids)
    universe = base_table.applications.listed_applicants()
    if wanted & {"table4", "figure1"}:
        rank_table = metrics.field_gpa_percentile_ranks(panel)  # no match runs beside it
    descriptive = panel.observed_assignment or assignments.get("S1")

    if "table1" in wanted:
        reports.write_weight_report(directory / "table1.csv", scoring.effective_weights(base_table))

    if "table2" in wanted:
        reports.write_tercile_report(
            directory / "table2.csv", metrics.tercile_unassignment(base_table, descriptive)
        )

    if "table3" in wanted:
        reports.write_rank_stats(
            directory / "table3.csv", metrics.application_rank_stats(panel, descriptive)
        )

    if "table4" in wanted:
        rows = []
        for s in scenario_ids:
            diff = matching.compare_assignments(assignments["S1"], assignments[s], universe)
            gain = metrics.mean_rank_improvement(rank_table, assignments["S1"], assignments[s])
            rows.append((s, listed[s] / len(universe), diff.differently_assigned_share, gain))
        reports.write_scenario_suite(directory / "table4.csv", rows)

    if "table5" in wanted:
        from . import econometrics

        results = econometrics.lpm_report(
            panel, panel.observed_assignment, base_table, robust=config.robust_se
        )
        reports.write_lpm_report(
            directory / "table5.csv",
            {f"({i})": r for i, r in enumerate(results, start=1)},
        )

    if "figure1" in wanted:
        hist = {
            s: metrics.assigned_rank_histogram(rank_table, assignments[s])
            for s in scenario_ids
        }
        panels = {"1": hist["S1"]}  # then each other scenario's net change, S2 as "2"
        for s in scenario_ids[1:]:
            panels[s[1]] = metrics.net_change_histogram(hist["S1"], hist[s])
        reports.write_figure_data(directory / "figure1.csv", panels)

    if "assignments" in wanted:
        for s in scenario_ids:
            write_assignment_csv(directory / f"assignment_{s}.csv", panel, assignments[s], universe)

    if "calibration" in wanted:
        from . import synth

        reports.write_calibration_report(
            directory / "calibration.csv", synth.calibration_report(panel)
        )


class _Parser(argparse.ArgumentParser):
    """An argument error raises ``InvalidConfig``, so it fails as any other
    error does; ``--help`` still prints and exits 0."""

    def error(self, message: str):
        raise InvalidConfig(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _interrupt(signum: int, frame) -> None:
    raise Interrupted(f"the run received {signal.Signals(signum).name} and stopped")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` and run it; returns the exit status. While it runs,
    SIGTERM and SIGINT raise ``Interrupted``, which fails the run as any
    other error does. Its handlers are set only in the main thread, where
    Python allows it, and the previous ones are back when it returns."""
    previous = {}
    if threading.current_thread() is threading.main_thread():
        previous = {s: signal.signal(s, _interrupt) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return run(parse_args(argv))
    except PolyadmitError as exc:  # InvalidConfig from parse_args, or Interrupted outside run's try
        return _failed(exc)
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


def process_main() -> None:
    """The process entry of ``python -m polyadmit.cli`` and the
    ``polyadmit`` script. The modules imported so far live until exit, so
    ``gc.freeze`` keeps every collection, the one at shutdown included,
    from walking them. ``main`` does not freeze: it also runs in-process."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    process_main()
