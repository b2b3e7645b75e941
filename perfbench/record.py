"""Record the reference digests the benchmark checks reports against.

Usage, from the repository root:

    python3 perfbench/record.py 42 2024

For each seed and workload this runs the CLI once untraced and once
traced, requires byte-identical reports and a clean stability audit, and
writes every report's SHA-256 (and, for the paper workloads, the input's)
to ``perfbench/reference.json``. Run it only at a commit whose reports are
known to be right: later commits are checked against what it records.
"""

from __future__ import annotations

import json
import sys

import run


def record(seeds: list[int]) -> dict:
    reference = {"inputs": {}, "reports": {name: {} for name in run.WORKLOADS}}
    run.WORK.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        for workload in run.WORKLOADS.values():
            fill = {"seed": seed, "input": None}
            if workload.paper_input:
                input_dir, digest = run.paper_input(seed, {"inputs": {}})
                reference["inputs"][str(seed)] = digest
                fill["input"] = str(input_dir)
            cli_args = [a.format(**fill) for a in workload.cli_args]
            out = run.WORK / "out" / workload.name
            plain = run.invoke_cli(workload, cli_args, out)
            traced, _ = run.traced_run(cli_args, out, f"{workload.name}-s{seed}")
            audit = traced.get("audit") or {}
            digests = {n: traced.get("digests", {}).get(n) for n in workload.reports}
            if (
                plain.child.status != 0
                or plain.missing
                or plain.digests != digests
                or audit.get("blocking_pairs") != 0
                or audit.get("n_violations") != 0
            ):
                raise SystemExit(
                    f"{workload.name} seed {seed}: reports not reproducible or audit failed"
                )
            reference["reports"][workload.name][str(seed)] = digests
            print(f"{workload.name} seed {seed}: {len(digests)} reports", file=sys.stderr)
    return reference


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or [42]
    run.REFERENCE.write_text(json.dumps(record(seeds), indent=1, sort_keys=True) + "\n")
