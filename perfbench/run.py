"""polyadmit benchmark: time the real CLI on one workload and check its
reports.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk-synth --seed 42 --seconds 50 --trace 0

One run does, in order:

1. For paper-match, generate the input panel once per seed into
   ``.bench_build/perfbench/`` (untimed) and check its SHA-256.
2. ``setup_s``: start SETUP_REPEATS fresh processes that import polyadmit
   and build the panel through the entry the CLI uses, nothing else.
3. Closed loop, one client: start ``python -m polyadmit.cli`` as a fresh
   child, wait for it to exit, check its reports, and repeat until
   ``--seconds`` have passed. Tracing is off.
4. With ``--trace 1`` only: one traced run (``traced.py``), the same CLI
   call in-process with every public function wrapped, followed by a
   stability audit of every assignment. Its reports must match the
   untraced ones byte for byte.

Reports must match the SHA-256 digests in ``reference.json`` for the
seeds listed there; for other seeds every run must match the first. The
last line of stdout is the result object; the line before it holds the
run metadata, sample counts and ``error_rate``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from traced import LAYER_METRICS, sha256_file

perf_counter = time.perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60.0  # one child; a run must end within 180 s

# The paper's clearinghouse counts (50 894 applicants, 440 programs,
# 16 655 seats) divided by eight. At full scale one CLI run takes 30-60 s
# on a 2-core machine, where one run differs from the next by 10-20%, so a
# benchmark run must repeat the CLI several times to give a steady median.
PAPER_PANEL = {"n_applicants": 6362, "n_programs": 55, "seats_total": 2082}

# One thread per BLAS library: the CLI child runs alone on the machine,
# and the setting must be the same on both sides of a comparison.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

ALL_SCENARIOS = tuple(f"assignment_S{i}.csv" for i in range(1, 7))


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]  # "{seed}" and "{input}" are filled in
    reports: tuple[str, ...]
    # Body of each setup_s child, which binds ``panel``; "{seed}" and
    # "{input}" are filled in.
    setup_code: str
    paper_input: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-synth",
            cli_args=("--synth", "default", "--seed", "{seed}"),
            reports=(
                "table1.csv", "table2.csv", "table3.csv", "table4.csv", "table5.csv",
                "figure1.csv", "calibration.csv",
            ) + ALL_SCENARIOS,
            setup_code="from polyadmit import synth\n"
            "panel = synth.generate_panel(synth.SynthConfig(seed={seed}))",
            paper_input=False,
        ),
        Workload(
            name="paper-match",
            cli_args=("--input", "{input}", "--reports", "table4,assignments"),
            reports=("table4.csv",) + ALL_SCENARIOS,
            setup_code="from polyadmit import io_csv\npanel = io_csv.load_panel({input!r})",
            paper_input=True,
        ),
    )
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "applications_per_s": "1/s",
}

MAKE_INPUT_CODE = """\
import sys
from polyadmit import io_csv, synth
cfg = synth.SynthConfig(seed=int(sys.argv[1]), **{panel!r})
io_csv.save_panel(synth.generate_panel(cfg), sys.argv[2])
"""


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in BLAS_VARIABLES:
        env[name] = BLAS_THREADS
    return env


@dataclass
class Child:
    status: int
    wall_s: float
    peak_rss_mb: float
    output: str  # the tail of its stdout and stderr


def run_child(argv: list[str], log: Path) -> Child:
    """Start one child, wait for it with ``os.wait4`` and return its wall
    time from spawn to exit and its own peak RSS."""
    with open(log, "wb") as sink:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=sink, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Child(
        status=proc.returncode,
        wall_s=wall_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        output=log.read_text(encoding="utf-8", errors="replace")[-2000:],
    )


def tree_digest(directory: Path) -> str:
    """SHA-256 over the sorted (name, file digest) lines of a directory."""
    lines = "".join(
        f"{p.name} {sha256_file(p)}\n" for p in sorted(directory.iterdir()) if p.is_file()
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def paper_input(seed: int, reference: dict) -> tuple[Path, str]:
    """The paper-shaped panel for ``seed``, generated once and cached.

    Generation happens outside every timed region. The benchmark refuses
    to run when the cached bytes differ from the digest taken when they
    were written, or from the digest shipped for this seed.
    """
    inputs = WORK / "inputs"
    name = "paper-{n_applicants}-{n_programs}-{seats_total}".format(**PAPER_PANEL) + f"-s{seed}"
    final = inputs / name
    stamp = inputs / f"{name}.sha256"
    if not stamp.is_file():
        staging = inputs / f"{name}.tmp"
        shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)
        staging.mkdir(parents=True)
        code = MAKE_INPUT_CODE.format(panel=PAPER_PANEL)
        made = run_child([sys.executable, "-c", code, str(seed), str(staging)], WORK / "input.log")
        if made.status != 0:
            shutil.rmtree(staging, ignore_errors=True)
            raise BenchmarkError(f"input generation failed:\n{made.output}")
        os.rename(staging, final)
        stamp.write_text(tree_digest(final) + "\n", encoding="utf-8")

    digest = tree_digest(final)
    if digest != stamp.read_text(encoding="utf-8").strip():
        raise BenchmarkError(f"cached input {final} changed since it was generated")
    shipped = reference["inputs"].get(str(seed))
    if shipped is not None and shipped != digest:
        raise BenchmarkError(
            f"input for seed {seed} has SHA-256 {digest}, expected {shipped}: "
            "the generator no longer produces the benchmark's input bytes"
        )
    return final, digest


@dataclass
class Invocation:
    child: Child
    digests: dict[str, str]  # report file -> SHA-256, expected reports only
    missing: list[str]


def invoke_cli(workload: Workload, cli_args: list[str], out: Path) -> Invocation:
    """One untraced CLI run in a fresh process; reports are hashed, then
    removed."""
    shutil.rmtree(out, ignore_errors=True)
    child = run_child(
        [sys.executable, "-m", "polyadmit.cli", *cli_args, "--out", str(out)],
        WORK / "cli.log",
    )
    digests = {name: sha256_file(out / name) for name in workload.reports if (out / name).is_file()}
    missing = [name for name in workload.reports if name not in digests]
    shutil.rmtree(out, ignore_errors=True)
    return Invocation(child=child, digests=digests, missing=missing)


def traced_run(cli_args: list[str], out: Path, name: str) -> tuple[dict, float]:
    """The traced in-process run; returns its result object and its wall
    time. A child that fails leaves an empty result."""
    shutil.rmtree(out, ignore_errors=True)
    result_file = WORK / f"traced-{name}.json"
    result_file.unlink(missing_ok=True)
    argv = [
        sys.executable, str(BENCH / "traced.py"),
        "--spawned-at", repr(perf_counter()),
        "--result", str(result_file),
        "--spans", str(WORK / f"spans-{name}.json"),
        "--out", str(out), "--", *cli_args,
    ]
    child = run_child(argv, WORK / "traced.log")
    shutil.rmtree(out, ignore_errors=True)
    if child.status != 0 or not result_file.is_file():
        return {"status": child.status, "output": child.output}, child.wall_s
    return json.loads(result_file.read_text(encoding="utf-8")), child.wall_s


def run_metadata(args, input_digest) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            found = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = found.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    sources = "".join(
        f"{p.relative_to(SRC)} {sha256_file(p)}\n" for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {name: BLAS_THREADS for name in BLAS_VARIABLES},
        "git_commit": commit,
        "source_sha256": hashlib.sha256(sources.encode()).hexdigest(),
        "input_sha256": input_digest,
        "paper_panel": PAPER_PANEL,
    }


def run(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    WORK.mkdir(parents=True, exist_ok=True)

    input_dir, input_digest = (None, None)
    if workload.paper_input:
        input_dir, input_digest = paper_input(args.seed, reference)
    fill = {"seed": args.seed, "input": str(input_dir)}
    cli_args = [a.format(**fill) for a in workload.cli_args]

    # Compile the package's bytecode before anything is timed.
    warm = run_child([sys.executable, "-c", "import polyadmit.cli"], WORK / "warm.log")
    if warm.status != 0:
        raise BenchmarkError(f"cannot import polyadmit from {SRC}:\n{warm.output}")

    # Each setup child prints the panel's application count on exit; the
    # print is the only work it does besides building the panel.
    setup_code = workload.setup_code.format(**fill) + "\nprint(len(panel.applications))"
    setups = [
        run_child([sys.executable, "-c", setup_code], WORK / "setup.log")
        for _ in range(SETUP_REPEATS)
    ]
    if any(s.status != 0 for s in setups):
        raise BenchmarkError(f"setup failed:\n{setups[0].output}")
    applications = int(setups[0].output.split()[-1])

    out = WORK / "out" / workload.name
    invocations: list[Invocation] = []
    deadline = perf_counter() + args.seconds
    while True:
        invocations.append(invoke_cli(workload, cli_args, out))
        if perf_counter() >= deadline:
            break

    # Reports must match the digests shipped for this seed; for any other
    # seed, every run of this benchmark run must match the first.
    shipped = reference["reports"][workload.name].get(str(args.seed))
    expected = shipped if shipped is not None else invocations[0].digests
    failures = [
        inv for inv in invocations
        if inv.child.status != 0 or inv.missing or inv.digests != expected
    ]
    attempted = len(invocations)

    run_s = [inv.child.wall_s for inv in invocations]
    end_to_end = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median([s.wall_s for s in setups]),
        "peak_rss_mb": statistics.median([inv.child.peak_rss_mb for inv in invocations]),
        "applications_per_s": statistics.median([applications / s for s in run_s]),
    }
    info = run_metadata(args, input_digest)
    info.update(
        {
            "samples": {"run_s": len(run_s), "setup_s": len(setups)},
            "run_s_samples": run_s,
            "setup_s_samples": [s.wall_s for s in setups],
            "applications": applications,
            "reference": "shipped" if shipped is not None else "first run",
            "end_to_end": end_to_end,
        }
    )
    if failures:
        bad = failures[0]
        info["first_failure"] = {
            "status": bad.child.status, "missing": bad.missing, "output": bad.child.output,
        }

    if args.trace == 0:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    else:
        traced, traced_wall = traced_run(cli_args, out, f"{workload.name}-s{args.seed}")
        audit = traced.get("audit") or {}
        attempted += 1
        if not (
            traced.get("status") == 0
            and {n: traced.get("digests", {}).get(n) for n in workload.reports} == expected
            and audit.get("blocking_pairs") == 0
            and audit.get("n_violations") == 0
        ):
            failures.append(traced)
            info["traced_failure"] = traced.get("output") or "digest or audit mismatch"
        layers = traced.get("layers", {})
        if layers:
            layers["trace.overhead_s"] = layers["trace.run_s"] - end_to_end["run_s"]
        info["traced_wall_s"] = traced_wall
        info["audit"] = audit
        info["module_self_s"] = traced.get("module_self_s")
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }

    info["error_rate"] = len(failures) / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return info, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Time the polyadmit CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "polyadmit" / "cli.py").is_file():
        print(f"perfbench: no polyadmit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        info, result = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
