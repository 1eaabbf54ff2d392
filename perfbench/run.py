#!/usr/bin/env python3
"""Run one fal-spectrum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-catalog --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src`` (the
package need not be installed) and writes scratch files under
``.perfbench_work/``.  Workloads: constants-cold, scan-catalog, search-sweep,
cli-oneshot (see perfbench/README.md).

With ``--trace 0`` it runs whole blocks of ops until ``--seconds`` of op time,
scaled to a reference machine speed (speed.py), have passed and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed list of ops, each
untraced and with span wrappers installed, and reports the per-layer metrics.  The next-to-last stdout line is a JSON record
of the run (environment, sample counts, output digest); the last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
from array import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

SRC = os.path.abspath("src")
WORK_ROOT = os.path.abspath(".perfbench_work")
PROBES = 11  # set-up is measured this many times in fresh interpreters


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe(cls, args) -> int:
    """Child side of a set-up measurement: set up, report timestamps, exit."""
    wl = cls(args.seed, os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}", f"probe{args.probe}"))
    os.makedirs(wl.workdir)
    try:
        before_import = time.monotonic()
        wl.load()
        imported = time.monotonic()
        wl.setup()
        ready = time.monotonic()
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    print(json.dumps({"started": STARTED, "import_s": imported - before_import, "ready": ready}))
    return 0


def measure_setup(args, speed) -> list[dict]:
    """Set up PROBES times, each in a fresh interpreter, one after another;
    each time is scaled by the speed sampled right after it."""
    out = []
    for i in range(PROBES):
        command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", "0", "--probe", str(i)]
        spawned = time.monotonic()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        times = json.loads(proc.stdout.splitlines()[-1])
        speed.sample()
        out.append({"setup_s": times["ready"] - spawned, "interpreter_s": times["started"] - spawned,
                    "import_s": times["import_s"], "factor": speed.factor(len(speed.samples) - 2)})
    return out


def run_one(wl, op, ref, recorder=None, digest=None):
    outcome = wl.run(op, recorder)
    wl.check(op, outcome, ref)
    if outcome.status == "fail":
        print(f"op failed: {outcome.reason}", file=sys.stderr)
    if digest is not None:
        digest.update(outcome.output)
    # Keep only the figures, so held outputs do not inflate peak RSS.
    outcome.out_bytes = len(outcome.value) if isinstance(outcome.value, str) else 0
    outcome.output = outcome.value = None
    return outcome


def timed_run(wl, ref, seconds: float, setups: list[dict], speed):
    """Whole blocks until ``seconds`` of op time; end-to-end metrics.

    Per op only its raw time and speed sample are kept, and one block of ops
    at a time, so the harness's memory barely grows with the op count."""
    digest = hashlib.sha256()
    raw, marks = array("d"), array("i")
    statuses = {"ok": 0, "defect": 0, "fail": 0}
    units, blocks = 0, []
    # Run to `seconds` of op time at reference speed, so that every seed runs
    # the same blocks, but to at most 1.2x that in raw op time.
    scaled = total = 0.0
    while scaled < seconds and total < 1.2 * seconds:
        block_s, block_units = 0.0, 0
        for op in wl.block(len(blocks)):
            outcome = run_one(wl, op, ref, digest=digest if not blocks else None)
            wl.tally(op, outcome)
            raw.append(outcome.seconds)
            marks.append(speed.after_op(outcome.seconds))
            scaled += outcome.seconds * speed.factor(marks[-1])
            statuses[outcome.status] += 1
            block_s += outcome.seconds
            block_units += outcome.units
        total += block_s
        units += block_units
        blocks.append({"seconds": round(block_s, 6), "units": block_units})
    peak_kb = wl.peak_rss_kb()
    factors = [speed.factor(mark) for mark in marks]
    latencies = sorted(t * f for t, f in zip(raw, factors))
    unscaled = sorted(raw)
    n = len(raw)
    p90 = statistics.quantiles(latencies, n=10)[8]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] * s["factor"] for s in setups), "s"),
        "units_per_s": (units / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": (p90 * 1000, "ms"),
        "ok_ratio": (statuses["ok"] / n, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    detail = {
        "samples": n,
        "beyond_p90": sum(1 for t in latencies if t > p90),
        "units": units,
        "unit": wl.unit,
        "known_defects": statuses["defect"],
        "fail_ratio": 1 - statuses["ok"] / n,
        "first_block_sha256": digest.hexdigest(),
        "speed": {"samples": len(speed.samples), "factor_min": min(factors), "factor_max": max(factors),
                  "factor_median": statistics.median(factors)},
        "unscaled": {"setup_s": statistics.median(s["setup_s"] for s in setups), "units_per_s": units / total,
                     "op_p50_ms": statistics.median(unscaled) * 1000,
                     "op_p90_ms": statistics.quantiles(unscaled, n=10)[8] * 1000},
        "blocks": blocks,
        **wl.summary(),
    }
    return n, statuses["fail"], metrics, detail


def traced_run(wl, ref, setups: list[dict]):
    """A fixed op list, each op run untraced and traced back to back (the
    order alternating from op to op); per-layer metrics."""
    import spans

    ops = [op for block in range(wl.trace_blocks) for op in wl.block(block)]
    recorder = spans.Recorder()
    patch = spans.install(recorder) if wl.in_process else None
    digest = hashlib.sha256()
    plain, traced = [], []
    for index, op in enumerate(ops):
        for tracing in (False, True) if index % 2 == 0 else (True, False):
            if patch:
                patch.enable(tracing)
            if tracing:
                recorder.current_op = index
                traced.append(run_one(wl, op, ref, recorder, digest))
            else:
                plain.append(run_one(wl, op, ref))
    startup = [o.startup for o in traced if o.startup] or setups
    metrics = spans.layer_metrics(recorder, traced, plain, startup, wl.via_cli)
    path = os.path.join(WORK_ROOT, f"spans-{wl.name}.tsv")
    recorder.write_tsv(path)
    detail = {"samples": len(ops), "spans": len(recorder.name), "spans_file": os.path.relpath(path),
              "known_defects": sum(1 for o in traced if o.status == "defect"), "outputs_sha256": digest.hexdigest()}
    outcomes = plain + traced
    return len(outcomes), sum(1 for o in outcomes if o.status == "fail"), metrics, detail


def environment(args) -> dict:
    head = os.path.join(".git", "HEAD")
    commit = "unknown (not a git checkout)"
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: ") and os.path.isfile(os.path.join(".git", ref[5:])):
            with open(os.path.join(".git", ref[5:]), encoding="utf-8") as handle:
                commit = handle.read().strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": args.seed,
        "package": "imported from src (not installed); CLI ops run python -m fal_spectrum with src on PYTHONPATH",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fal_spectrum", "__init__.py")):
        print("error: src/fal_spectrum not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from speed import Speed

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.probe is not None:
        return probe(cls, args)

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        wl = cls(args.seed, workdir)
        wl.load()
        wl.setup()
        speed = Speed()
        setups = measure_setup(args, speed)
        import oracle

        ref = oracle.Reference(wl.max_digits)
        if args.trace:
            attempted, failed, metrics, detail = traced_run(wl, ref, setups)
        else:
            attempted, failed, metrics, detail = timed_run(wl, ref, args.seconds, setups, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {"workload": args.workload, "trace": args.trace, "environment": environment(args),
              "setup_s_samples": [round(s["setup_s"], 6) for s in setups], **detail}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
