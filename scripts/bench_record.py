#!/usr/bin/env python3
"""Record the benchmark of one commit as BENCH_<n>.json.

Runs ``perfbench/run.py`` untraced (``--trace 0``) for each workload, once
per seed, the workloads interleaved within each round of seeds, and writes
per workload the median and min of every end-to-end metric next to the
run records: Python version, commit, nproc, seeds, known defects,
correctness and the sha256 of each run's first block of outputs.  It adds
no bound and checks none; comparing two files is left to the reader.

    python scripts/bench_record.py --number 19 --seconds 3 --seeds 1 2 3

It runs ``perfbench/run.py`` of the checkout it sits in, from that
checkout's root, so record a commit from a clean checkout of it.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("constants-cold", "scan-catalog", "search-sweep", "cli-oneshot")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """The run record and result lines of one untraced run, merged."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "known_defects": record["known_defects"],
        "first_block_sha256": record["first_block_sha256"],
        "environment": record["environment"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def summarize(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    outputs = hashlib.sha256("".join(run["first_block_sha256"] for run in runs).encode())
    return {
        "median": {name: statistics.median(run["metrics"][name] for run in runs) for name in names},
        "min": {name: min(run["metrics"][name] for run in runs) for name in names},
        "correct": all(run["correct"] for run in runs),
        "known_defects": sum(run["known_defects"] for run in runs),
        "outputs_sha256": outputs.hexdigest(),
        "runs": [{key: value for key, value in run.items() if key != "environment"} for run in runs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--seconds", type=float, default=3.0, help="op time of each run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3], help="one run per seed")
    parser.add_argument("--workload", choices=WORKLOADS, nargs="+", default=list(WORKLOADS))
    parser.add_argument("--out", type=Path, default=None, help="directory to write to (default: the root)")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {name: [] for name in args.workload}
    for seed in args.seeds:
        for name in args.workload:
            runs[name].append(run_once(name, seed, args.seconds))
    environment = next(iter(runs.values()))[0]["environment"]
    doc = {
        "bench": args.number,
        "python": environment["python"],
        "commit": environment["commit"],
        "nproc": environment["nproc"],
        "seeds": args.seeds,
        "seconds": args.seconds,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "workloads": {name: summarize(workload_runs) for name, workload_runs in runs.items()},
    }
    path = (args.out or ROOT) / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(os.path.relpath(path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
