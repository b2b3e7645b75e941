"""Traced in-process CLI run: wrap every public polyadmit function, call
``cli.main`` once, audit every assignment deferred acceptance produced,
and write the per-layer metrics as one JSON object.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/traced.py --spawned-at T --result FILE --spans FILE \
        --out DIR -- <cli args without --out>

``T`` is the parent's ``time.perf_counter()`` taken just before it started
this process; on Linux that clock is system-wide, so the traced run time
covers interpreter start-up and imports as the untraced ``run_s`` does.
It stops when ``cli.main`` returns, so unlike ``run_s`` it leaves out
interpreter shutdown.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

perf_counter = time.perf_counter

MODULES = (
    "synth",
    "io_csv",
    "model",
    "scoring",
    "counterfactual",
    "matching",
    "metrics",
    "econometrics",
    "reports",
)

# Public functions called once per row or per value: a span each would
# cost more than the work, so they only count calls.
COUNT_ONLY = {
    "model.canonical_program_key",
    "scoring.adjusted_score",
    "io_csv.fmt",
}

# Per-layer metric -> unit, in output order.
LAYER_METRICS = {
    "synth.generate_panel.s": "s",
    "io_csv.load_panel.s": "s",
    "io_csv.write_assignment_csv.s": "s",
    "model.validate_panel.s": "s",
    "model.weighted_gpa.calls": "count",
    "model.base_applications.calls": "count",
    "scoring.compute_score_table.s": "s",
    "scoring.compute_score_table.calls": "count",
    "scoring.entries_built": "count",
    "scoring.rebuild_factor": "ratio",
    "scoring.remove_first_choice_points.s": "s",
    "scoring.propagate_entrance_exams.s": "s",
    "counterfactual.extend_application_lists.s": "s",
    "counterfactual.extend_application_lists.calls": "count",
    "counterfactual.run_scenario_suite.s": "s",
    "matching.deferred_acceptance.s": "s",
    "matching.deferred_acceptance.calls": "count",
    "matching.deferred_acceptance.base_lists.s": "s",
    "matching.deferred_acceptance.extended_lists.s": "s",
    "matching.build_instance.s": "s",
    "matching.compare_assignments.s": "s",
    "matching.program_thresholds.s": "s",
    "matching.applications_ranked": "count",
    "matching.fill_rate": "ratio",
    "matching.da_applicants.s": "s",
    "matching.blocking_pairs": "count",
    "matching.audit.s": "s",
    "metrics.tercile_unassignment.s": "s",
    "metrics.field_gpa_percentile_ranks.s": "s",
    "metrics.field_gpa_percentile_ranks.calls": "count",
    "metrics.assigned_rank_histogram.s": "s",
    "metrics.mean_rank_improvement.s": "s",
    "econometrics.lpm_report.s": "s",
    "econometrics.build_design_matrix.s": "s",
    "econometrics.ols.s": "s",
    "reports.write.s": "s",
    "reports.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and call counts for one traced run, kept in memory.

    A span is ``[name, start, end, parent_index]``; every span of the run
    shares ``run_id``. Observers see the arguments and result of selected
    calls, so the audit can reuse the instances the run built.
    """

    def __init__(self) -> None:
        self.run_id = os.urandom(8).hex()
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.extended_lists: dict[int, list] = {}  # id -> list, kept alive
        self.extended_instances: set[int] = set()
        self.applications_of: dict[int, object] = {}  # id(instance) -> applications
        self.table_sizes: dict[str, int] = {}  # list variant -> largest table
        self.entries_built = 0
        self.da_runs: list[tuple[int, object, object]] = []  # (span, instance, assignment)
        self.panel = None

    # -- wrappers -------------------------------------------------------
    def span(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(index, args, result)
            return result

        return wrapper

    def count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observers --------------------------------------------------------
    def _variant(self, applications) -> str:
        return "extended" if id(applications) in self.extended_lists else "base"

    def _on_extend(self, index, args, result):
        self.extended_lists[id(result)] = result

    def _on_score_table(self, index, args, result):
        variant = self._variant(args[1])
        self.entries_built += len(result.entries)
        self.table_sizes[variant] = max(self.table_sizes.get(variant, 0), len(result.entries))

    def _on_build_instance(self, index, args, result):
        self.applications_of[id(result)] = args[0]
        if id(args[0]) in self.extended_lists:
            self.extended_instances.add(id(result))

    def _on_deferred_acceptance(self, index, args, result):
        self.da_runs.append((index, args[0], result))

    def _on_validate(self, index, args, result):
        self.panel = result

    # -- installation -----------------------------------------------------
    def install(self, package) -> None:
        """Wrap every public function of MODULES and rebind every module
        attribute of the package that refers to one, so calls through a
        name bound by ``from .x import f`` are traced too."""
        observers = {
            "counterfactual.extend_application_lists": self._on_extend,
            "scoring.compute_score_table": self._on_score_table,
            "matching.build_instance": self._on_build_instance,
            "matching.deferred_acceptance": self._on_deferred_acceptance,
            "model.validate_panel": self._on_validate,
        }
        modules = {
            name: importlib.import_module(f"{package}.{name}")
            for name in MODULES + ("cli", "errors")
        }
        replacement: dict[int, object] = {}
        for short in MODULES:
            module = modules[short]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in COUNT_ONLY:
                    replacement[id(fn)] = self.count(name, fn)
                else:
                    replacement[id(fn)] = self.span(name, fn, observers.get(name))
        top = importlib.import_module(package)
        for module in list(modules.values()) + [top]:
            for attr, value in list(vars(module).items()):
                wrapped = replacement.get(id(value))
                if wrapped is not None:
                    self._patch(module, attr, wrapped)

        panel_cls = modules["model"].Panel
        self._patch(
            panel_cls,
            "weighted_gpa",
            self.count("model.weighted_gpa", panel_cls.weighted_gpa),
        )
        self._patch(
            panel_cls,
            "base_applications",
            property(self.count("model.base_applications", panel_cls.base_applications.fget)),
        )

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def call_counts(self) -> Counter[str]:
        counts = Counter(self.calls)
        counts.update(name for name, *_ in self.spans)
        return counts


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def layer_metrics(tracer: Tracer, run_s: float, audit: dict, bytes_written: int) -> dict:
    own = tracer.self_times()
    by_name: Counter[str] = Counter()
    for (name, *_), seconds in zip(tracer.spans, own):
        by_name[name] += seconds
    counts = tracer.call_counts()

    da_base = da_extended = 0.0
    ranked = admitted = seats = 0
    for index, instance, assignment in tracer.da_runs:
        if id(instance) in tracer.extended_instances:
            da_extended += own[index]
        else:
            da_base += own[index]
        ranked += sum(len(prefs) for prefs in instance.preferences.values())
        admitted += len(assignment.seat_of)
        seats += sum(instance.quotas.values())

    # "<span>.s" is the span's self time and "<function>.calls" its call
    # count; the rest are derived below.
    metrics = {}
    for name in LAYER_METRICS:
        function, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = counts[function]
        elif kind == "s" and function in counts:
            metrics[name] = by_name[function]
    distinct = sum(tracer.table_sizes.values())
    metrics.update(
        {
            "scoring.entries_built": tracer.entries_built,
            "scoring.rebuild_factor": tracer.entries_built / distinct if distinct else 0.0,
            "matching.deferred_acceptance.base_lists.s": da_base,
            "matching.deferred_acceptance.extended_lists.s": da_extended,
            "matching.applications_ranked": ranked,
            "matching.fill_rate": admitted / seats if seats else 0.0,
            "reports.write.s": sum(
                seconds for name, seconds in by_name.items() if name.startswith("reports.write_")
            ),
            "reports.bytes_written": bytes_written,
            "cli.self_s": run_s - sum(own),
            "trace.run_s": run_s,
            "matching.da_applicants.s": audit["da_applicants_s"],
            "matching.blocking_pairs": audit["blocking_pairs"],
            "matching.audit.s": audit["audit_s"],
        }
    )
    return {name: metrics.get(name, 0.0) for name in LAYER_METRICS if name != "trace.overhead_s"}


def module_self_times(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Self time per module; with ``cli`` taking the time no span covers,
    the values add up to the traced run time."""
    totals: Counter[str] = Counter()
    for (name, *_), seconds in zip(tracer.spans, tracer.self_times()):
        totals[name.split(".")[0]] += seconds
    totals["cli"] = run_s - sum(totals.values())
    return dict(totals)


def audit(tracer: Tracer, matching, model) -> dict:
    """Stability and feasibility of every assignment DA produced, plus an
    applicant-proposing DA timed on each captured instance."""
    blocking = 0
    violations: list[str] = []
    audit_s = da_applicants_s = 0.0
    for _, instance, assignment in tracer.da_runs:
        start = perf_counter()
        blocking += len(matching.find_blocking_pairs(instance, assignment))
        violations += model.assignment_violations(
            tracer.panel, tracer.applications_of[id(instance)], assignment
        )
        audit_s += perf_counter() - start

        start = perf_counter()
        applicant_side = matching.deferred_acceptance(instance, matching.PROPOSING_APPLICANTS)
        da_applicants_s += perf_counter() - start
        blocking += len(matching.find_blocking_pairs(instance, applicant_side))
    return {
        "blocking_pairs": blocking,
        "violations": violations[:20],
        "n_violations": len(violations),
        "audit_s": audit_s,
        "da_applicants_s": da_applicants_s,
        "assignments_audited": len(tracer.da_runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--out", required=True, help="the CLI's --out directory")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = [a for a in args.cli_args if a != "--"]

    from polyadmit import cli, matching, model

    tracer = Tracer()
    tracer.install("polyadmit")
    try:
        status = cli.main(cli_args + ["--out", args.out])
    finally:
        finished = perf_counter()
        tracer.uninstall()
    run_s = finished - args.spawned_at

    out = Path(args.out)
    digests = {p.name: sha256_file(p) for p in sorted(out.iterdir())} if out.is_dir() else {}
    bytes_written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    checks = audit(tracer, matching, model) if tracer.panel is not None else None

    Path(args.spans).write_text(
        json.dumps(
            {
                "run_id": tracer.run_id,
                "fields": ["name", "start", "end", "parent"],
                "spans": tracer.spans,
                "calls": tracer.calls,
            }
        ),
        encoding="utf-8",
    )
    Path(args.result).write_text(
        json.dumps(
            {
                "run_id": tracer.run_id,
                "status": status,
                "digests": digests,
                "applications": len(tracer.panel.applications) if tracer.panel else 0,
                "audit": checks,
                "layers": layer_metrics(tracer, run_s, checks, bytes_written) if checks else {},
                "module_self_s": module_self_times(tracer, run_s),
            }
        ),
        encoding="utf-8",
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
