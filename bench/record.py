#!/usr/bin/env python3
"""Record the reference outputs that bench/run.py checks against.

    python3 bench/record.py

Runs every command of every workload, at full and smoke size, and for the
simulate commands every seed in 0 .. REFERENCE_SEEDS - 1, then writes the
CSV (and each simulate run's SimMetrics counts) to bench/references.json.
Re-record only at a commit whose outputs are known good: the benchmark
treats any later difference as a failure.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import REFERENCE_SEEDS, WORKLOADS, commands, sim_counts


def main() -> int:
    cli = run.import_cli()
    wanted = {}
    for smoke in (False, True):
        for workload in WORKLOADS:
            for seed in range(REFERENCE_SEEDS if workload.startswith("mc_") else 1):
                for command in commands(workload, seed, smoke=smoke):
                    if command.reference_key is not None:
                        wanted[command.reference_key] = command
    references = {}
    capture = run.capture_results(cli)
    with capture.installed():
        for key, command in sorted(wanted.items()):
            outcome = run.run_pass(cli, [command], capture).outcomes[0]
            if outcome.error:
                print(f"error: {key}: {outcome.error}", file=sys.stderr)
                return 1
            metrics = run.sim_results(capture).get(outcome.span_command)
            references[key] = {
                "csv": outcome.csv,
                "counts": sim_counts(metrics) if metrics is not None else None,
            }
            print(f"recorded {key}", flush=True)
    commit = run.git_commit()
    run.REFERENCES.write_text(
        json.dumps({"commit": commit, "outputs": references}, indent=1, sort_keys=True) + "\n"
    )
    print(f"{len(references)} references at commit {commit} written to {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
